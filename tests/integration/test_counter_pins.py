"""Exact counter pins for the inline engine.

An adaptive WCC + PageRank run over a Fig. 6-style expanding-window
collection, at one and at four simulated workers; a 30-epoch churn
stream maintaining ``wcc`` and ``bfs`` at two workers; and every
registered algorithm over one seeded churn collection, batch and
streamed. Every figure pinned here is deterministic: metered
``total_work`` and ``parallel_time``, per-view output digests, stored
trace entries per operator, per-epoch stream meter rows and snapshots.
A refactor of the engine's operators must leave all of them
byte-identical.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ExecutionMode, Graphsurge
from repro.algorithms import PageRank, Wcc
from repro.core.executor import AnalyticsExecutor
from repro.datasets import stackoverflow_like
from repro.datasets.temporal import SECONDS_PER_DAY, ts_after
from repro.serve.session import render_output
from repro.stream import StreamEngine, batches_from_collection, churn_batches
from repro.verify.generator import random_churn_collection
from repro.verify.oracles import ALGORITHMS, canonical_diff

VIEWS = 10


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _window_session(workers: int) -> Graphsurge:
    gs = Graphsurge(workers=workers)
    gs.add_graph(stackoverflow_like(50, 200, seed=3))
    start = ts_after(years=4.0)
    quarter = 91 * SECONDS_PER_DAY
    views = ", ".join(f"[expand-{i}: ts < {start + i * quarter}]"
                      for i in range(VIEWS))
    gs.execute(f"create view collection windows on stackoverflow {views}")
    return gs


def _collection_figures(workers: int, computation) -> dict:
    result = _window_session(workers).run_analytics(
        computation, "windows", mode=ExecutionMode.ADAPTIVE, batch_size=1,
        keep_outputs=True, cost_metric="work")
    return {
        "total_work": result.total_work,
        "parallel_time": result.total_parallel_time,
        "split_points": result.split_points,
        "outputs": [_digest(sorted(view.output.items()))
                    for view in result.views],
        "trace_memory": result.trace_memory,
    }


#: Per computation: total work, parallel time per worker count, split
#: points, per-view output digests and stored trace entries per operator.
#: Only parallel time depends on the worker count.
COLLECTION_PINS = {
    "wcc": {
        "total_work": 14525,
        "parallel_time": {1: 14525, 4: 7423},
        "split_points": [],
        "outputs": ["a0fef15e8af21dff", "a0fef15e8af21dff",
                    "37e5fa98f70a0cf7", "940e85e7a934bdfa",
                    "940e85e7a934bdfa", "940e85e7a934bdfa",
                    "9199cd1a9cb11789", "9199cd1a9cb11789",
                    "9199cd1a9cb11789", "9199cd1a9cb11789"],
        "trace_memory": {"wcc.vset": 204, "wcc.edges": 246,
                         "wcc.loop.var": 1995, "wcc.prop": 1009,
                         "wcc.min": 2774},
    },
    "pagerank": {
        "total_work": 72951,
        "parallel_time": {1: 72951, 4: 24631},
        "split_points": [2, 3, 4, 5, 6, 7, 9],
        "outputs": ["b6b706cc2a9f4921", "66733b12677d1cd4",
                    "b73576a15a5673b3", "c3d094b0513df177",
                    "67e44fb3da5ee99c", "6b488328256804c2",
                    "a93bdd83f92b5ac1", "18cf0da067cf2719",
                    "331578a5f28eae1f", "720b28a6ba4aecbb"],
        "trace_memory": {"pr.vertices": 98, "pr.degrees": 169,
                         "pr.edges": 123, "pr.loop.var": 1687,
                         "pr.share": 873, "pr.contrib": 770,
                         "pr.sum": 2962},
    },
}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("name, factory", [
    ("wcc", Wcc), ("pagerank", lambda: PageRank(iterations=10))])
def test_window_collection_counters_pinned(workers, name, factory):
    pins = dict(COLLECTION_PINS[name])
    pins["parallel_time"] = pins["parallel_time"][workers]
    assert _collection_figures(workers, factory()) == pins


STREAM_PINS = {
    "total_work": 14654,
    "parallel_time": 10618,
    "rows": "f3c565e4a9bc8939",
    "snapshots": "47efd15c01f71ea7",
}


def test_churn_stream_rows_and_snapshots_pinned():
    engine = StreamEngine(workers=2, compact_every=8, keep_epochs=4)
    try:
        signatures = [engine.register("wcc"),
                      engine.register("bfs", {"source": 0})]
        snapshots = []
        for batch in churn_batches(5, 30, num_nodes=30, churn=3,
                                   base_edges=60):
            engine.ingest(batch)
            snapshots.append([render_output(engine.snapshot(sig))
                              for sig in signatures])
        rows = [{k: v for k, v in row.items() if k != "latency_s"}
                for row in engine.meter.rows()]
    finally:
        engine.close()
    assert len(rows) == 60
    assert {
        "total_work": sum(row["work"] for row in rows),
        "parallel_time": sum(row["parallel_time"] for row in rows),
        "rows": _digest(rows),
        "snapshots": _digest(snapshots),
    } == STREAM_PINS


# -- every registered algorithm ----------------------------------------------

#: Fixed parameters per algorithm (the fuzzer samples them instead).
PARAMS = {
    "bfs": {"source": 1},
    "clustering": {},
    "degrees": {},
    "kcore": {"k": 2},
    "ktruss": {"k": 3},
    "labelprop": {"rounds": 4},
    "maxdegree": {},
    "mpsp": {"pairs": [(1, 4), (2, 7)]},
    "pagerank": {"iterations": 4},
    "ppr": {"seeds": [1, 5], "iterations": 4},
    "scc": {},
    "score": {"degree_weight": 1, "triangle_weight": 2, "rank_weight": 1,
              "iterations": 3},
    "sssp": {"source": 1},
    "triangles": {},
    "wcc": {},
}

#: name -> (total work, parallel time per worker count, per-view output
#: digest, trace-memory digest, stream meter-row digest — ``None`` when
#: the algorithm is not servable as a continuous query).
REGISTRY_PINS = {
    "bfs": (450, {1: 450, 2: 365, 4: 301}, "bd392a75e9070c8e",
            "f2aef5873dea1578", "63cdfd8adc4da90c"),
    "clustering": (1874, {1: 1874, 2: 1113, 4: 732}, "6cc852a236f95edf",
                   "7ee6714ea7caf6f2", None),
    "degrees": (142, {1: 142, 2: 121, 4: 104}, "4e79719eb26a6e96",
                "3f2d496b43e6ff9c", "d10a61887bb62ce0"),
    "kcore": (1712, {1: 1712, 2: 1057, 4: 718}, "b2cf2844207197c7",
              "c9ad6a132e84c0ec", "42617c445189d690"),
    "ktruss": (2212, {1: 2212, 2: 1312, 4: 821}, "de9a22561d92ea16",
               "a2714e185b069277", "1a03eddc1ab2d4de"),
    "labelprop": (3396, {1: 3396, 2: 2205, 4: 1455}, "f3c64576411728e3",
                  "0096a9df98915501", "594050501f8632af"),
    "maxdegree": (193, {1: 193, 2: 155, 4: 120}, "41c1bb76dfd4fab3",
                  "a1f15074aa7f3658", "b6f7b1e3662ca9a5"),
    "mpsp": (920, {1: 920, 2: 667, 4: 512}, "1f219d71fdb3bd4a",
             "66a2ae312fe688f7", "e01507db992661cf"),
    "pagerank": (7845, {1: 7845, 2: 4911, 4: 3472}, "d0198bac4b257056",
                 "8dc81dc1b8837494", "882b05333c80fc3b"),
    "ppr": (6283, {1: 6283, 2: 3965, 4: 2824}, "bf689b751afac3c7",
            "5da70346176d2458", "c63754d63d61d6de"),
    "scc": (12872, {1: 12872, 2: 8967, 4: 6737}, "0d752be4bbaf13e7",
            "ba653074a9f1fee7", "c5e213667d62ae4c"),
    "score": (8592, {1: 8592, 2: 5287, 4: 3628}, "832a8db513bdf7d3",
              "26e16f5fcaf9dc29", "56b87f1753272e86"),
    "sssp": (488, {1: 488, 2: 383, 4: 312}, "e76a0cbe35797587",
             "ae4147c264175725", "9faedd78c12f33a3"),
    "triangles": (926, {1: 926, 2: 550, 4: 373}, "2e0215d812b2c75c",
                  "d21fe07bcffb4931", "089393009f5f9000"),
    "wcc": (1901, {1: 1901, 2: 1449, 4: 1134}, "ac78d94e9f52d375",
            "c8f331913bc4aade", "55bf415342bff2e7"),
}

STREAMED = sorted(name for name, pin in REGISTRY_PINS.items()
                  if pin[4] is not None)


@pytest.fixture(scope="module")
def churn_collection():
    return random_churn_collection(seed=11, num_views=5, num_nodes=10,
                                   churn=5)


def test_every_registered_algorithm_is_pinned():
    assert sorted(REGISTRY_PINS) == sorted(ALGORITHMS) == sorted(PARAMS)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(REGISTRY_PINS))
def test_registry_counters_pinned(churn_collection, name, workers):
    work, parallel_time, outputs, memory, _rows = REGISTRY_PINS[name]
    result = AnalyticsExecutor(workers=workers).run_on_collection(
        ALGORITHMS[name].computation(PARAMS[name]), churn_collection,
        mode=ExecutionMode.DIFF_ONLY, keep_outputs=True,
        cost_metric="work")
    assert (result.total_work, result.total_parallel_time,
            _digest([canonical_diff(view.output) for view in result.views]),
            _digest(sorted(result.trace_memory.items()))) == \
        (work, parallel_time[workers], outputs, memory)


@pytest.mark.parametrize("name", STREAMED)
def test_registry_stream_rows_pinned(churn_collection, name):
    _work, _time, outputs, _memory, rows = REGISTRY_PINS[name]
    engine = StreamEngine(workers=2)
    try:
        signature = engine.register(name, PARAMS[name])
        snapshots = []
        for batch in batches_from_collection(churn_collection):
            engine.ingest(batch)
            snapshots.append(canonical_diff(engine.snapshot(signature)))
        meter_rows = [(m.epoch, m.delta_records, m.output_delta_size,
                       m.work, m.parallel_time)
                      for m in engine.meter.epochs]
    finally:
        engine.close()
    # A stream of the collection's diffs ends every epoch exactly where
    # the batch run ends the corresponding view.
    assert _digest(snapshots) == outputs
    assert _digest(meter_rows) == rows
