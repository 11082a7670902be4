"""Shrinking and repro files: minimization, persistence, replay."""

import json

import pytest

from repro.algorithms import Wcc
from repro.core.resilience import CheckpointWriter, load_checkpoint
from repro.errors import GraphsurgeError, StoreError
from repro.verify.generator import random_churn_collection
from repro.verify.invariants import build_check
from repro.verify.oracles import AlgorithmSpec
from repro.verify.replay import (
    ReproFile,
    load_repro,
    replay_repro,
    write_repro,
)
from repro.stream import StreamEngine, churn_batches
from repro.verify.shrinker import _valid_stream, shrink

#: An oracle that is wrong whenever vertex 1 has an outgoing edge — the
#: shrinker should strip everything else away.
BROKEN = AlgorithmSpec(
    "wcc", Wcc,
    lambda edges: {"bad": 1} if any(src == 1 for src, _d, _w in edges)
    else {})

CHECK = {"invariant": "oracle", "mode": "diff-only", "workers": 1}


def _failing_setup():
    collection = random_churn_collection(seed=21, num_views=5,
                                         num_nodes=8, churn=5)
    check = build_check(BROKEN, {}, CHECK)
    if check(collection) is None:  # pragma: no cover - seed guard
        pytest.skip("seed 21 no longer triggers the planted oracle bug")
    return collection, check


class TestShrink:
    def test_minimizes_while_still_failing(self):
        collection, check = _failing_setup()
        result = shrink(collection, check)
        assert result.mismatch.invariant == "oracle"
        assert check(result.collection) is not None
        assert result.collection.num_views <= collection.num_views
        assert result.collection.total_diffs <= collection.total_diffs
        # The planted bug needs only one view with one edge out of 1.
        assert result.collection.num_views == 1
        assert result.collection.total_diffs == 1

    def test_refuses_passing_check(self):
        collection = random_churn_collection(seed=21, num_views=3)
        with pytest.raises(ValueError):
            shrink(collection, lambda _collection: None)

    def test_valid_stream_guard(self):
        ok = [{("e", 1, 2, 1): 1}, {("e", 1, 2, 1): -1}]
        assert _valid_stream(ok)
        # Dropping the addition leaves a dangling removal.
        assert not _valid_stream([{}, {("e", 1, 2, 1): -1}])


class TestReproFiles:
    def _repro(self):
        collection, check = _failing_setup()
        result = shrink(collection, check)
        return ReproFile(seed=21, kind="churn", algorithm="wcc",
                         params={}, check=dict(CHECK),
                         detail=result.mismatch.detail,
                         collection=result.collection,
                         shrink_info={"views_dropped":
                                      result.views_dropped},
                         analysis={"ok": True, "findings": []})

    def test_round_trip(self, tmp_path):
        repro = self._repro()
        path = write_repro(tmp_path / "r.json", repro)
        loaded = load_repro(path)
        assert loaded.seed == 21
        assert loaded.algorithm == "wcc"
        assert loaded.check == CHECK
        assert loaded.collection.num_views == repro.collection.num_views
        assert loaded.collection.diffs == repro.collection.diffs
        assert loaded.shrink_info == repro.shrink_info
        assert loaded.analysis == {"ok": True, "findings": []}

    def test_checksum_rejects_tampering(self, tmp_path):
        path = write_repro(tmp_path / "r.json", self._repro())
        document = json.loads(path.read_text())
        document["payload"]["seed"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(StoreError, match="checksum"):
            load_repro(path)

    def test_unreadable_and_malformed_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            load_repro(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(StoreError):
            load_repro(bad)
        bad.write_text(json.dumps({"format": 99}))
        with pytest.raises(StoreError, match="format"):
            load_repro(bad)

    def test_replay_unknown_algorithm_rejected(self, tmp_path):
        repro = self._repro()
        repro.algorithm = "not-an-algorithm"
        path = write_repro(tmp_path / "r.json", repro)
        with pytest.raises(StoreError, match="unknown algorithm"):
            replay_repro(path)

    def test_replay_passes_on_healthy_code(self, tmp_path):
        # The repro records the *descriptor*; replay runs it against the
        # session's real (healthy) ALGORITHMS registry, so it passes.
        path = write_repro(tmp_path / "r.json", self._repro())
        assert replay_repro(path) is None

    def test_replay_mpsp_params_survive_json(self, tmp_path):
        collection = random_churn_collection(seed=4, num_views=2,
                                             num_nodes=6, churn=3)
        repro = ReproFile(seed=4, kind="churn", algorithm="mpsp",
                          params={"pairs": [(0, 1), (2, 3)]},
                          check=dict(CHECK), detail="",
                          collection=collection)
        path = write_repro(tmp_path / "m.json", repro)
        assert load_repro(path).params == {"pairs": [(0, 1), (2, 3)]}
        assert replay_repro(path) is None


class TestFilesFromOlderVersions:
    """Journals and repro files written while a multi-process backend
    existed stay readable: the ``backend`` field is ignored and checks
    that only compared backends fail with a typed error."""

    def _repro(self, check):
        collection = random_churn_collection(seed=4, num_views=3,
                                             num_nodes=6, churn=3)
        return ReproFile(seed=4, kind="churn", algorithm="wcc", params={},
                         check=check, detail="", collection=collection)

    @pytest.mark.parametrize("invariant", ["backend", "sanitize"])
    def test_removed_invariant_raises_typed_error(self, tmp_path,
                                                  invariant):
        check = {"invariant": invariant, "backends": ["inline", "process"],
                 "workers": 2}
        path = write_repro(tmp_path / "r.json", self._repro(check))
        with pytest.raises(GraphsurgeError,
                           match=f"unknown invariant '{invariant}'"):
            replay_repro(path)

    def test_stream_repro_with_backends_list_replays(self, tmp_path):
        check = {"invariant": "stream", "backends": ["inline", "process"],
                 "workers": 2}
        path = write_repro(tmp_path / "r.json", self._repro(check))
        assert replay_repro(path) is None

    def test_new_journals_do_not_record_backend(self, tmp_path):
        engine = StreamEngine(workers=2)
        try:
            engine.register("wcc")
            engine.attach_journal(tmp_path / "stream.ckpt")
            assert "backend" not in engine.describe()
        finally:
            engine.close()
        header = load_checkpoint(tmp_path / "stream.ckpt").header
        assert header["workers"] == 2
        assert "backend" not in header

    def test_stream_journal_with_backend_header_resumes(self, tmp_path):
        batches = churn_batches(3, 12, num_nodes=10, churn=3,
                                base_edges=8)

        def rows(engine):
            return [(m.epoch, m.query, m.delta_records,
                     m.output_delta_size, m.work, m.parallel_time)
                    for m in engine.meter.epochs]

        baseline = StreamEngine(workers=2)
        try:
            signature = baseline.register("wcc")
            snapshots = []
            for batch in batches:
                baseline.ingest(batch)
                snapshots.append(baseline.snapshot(signature))
            expected_rows = rows(baseline)
        finally:
            baseline.close()

        journal = tmp_path / "stream.ckpt"
        writer = CheckpointWriter.fresh(journal, {
            "kind": StreamEngine.JOURNAL_KIND, "queries": [["wcc", {}]],
            "workers": 2, "backend": "process", "weight_property": None,
            "compact_every": 8, "keep_epochs": 4})
        for index, batch in enumerate(batches[:7]):
            writer.append_view(dict(batch.to_record(), index=index,
                                    view_name=f"epoch-{index + 1}"))
        writer.close()

        resumed = StreamEngine.resume(journal)
        try:
            assert resumed.epoch == 7
            assert resumed.snapshot(signature) == snapshots[6]
            for batch, want in zip(batches[7:], snapshots[7:]):
                resumed.ingest(batch)
                assert resumed.snapshot(signature) == want
            assert rows(resumed) == expected_rows
        finally:
            resumed.close()
