"""The fuzzer's invariant battery, parametrized over the community &
scoring pack (labelprop, ppr, ktruss, score).

The generic batteries in ``test_invariants.py`` exercise one
representative algorithm; this file pins every pack member through the
mode-equivalence, worker-invariance, view-order permutation, kill/resume, and ``stream`` (streamed ≡
from-scratch at every churn epoch) checks — plus a guard that the
``stream`` check is *live* for the pack, not vacuously passing because
a name or parameter failed to register as a continuous query.
"""

import pytest

from repro.core.executor import ExecutionMode
from repro.stream import StreamEngine
from repro.verify.generator import random_churn_collection
from repro.verify.invariants import (
    check_checkpoint,
    check_oracle,
    check_permutation,
    check_stream,
    check_workers,
)
from repro.verify.oracles import ALGORITHMS

PACK_PARAMS = {
    "labelprop": {"rounds": 5},
    "ppr": {"seeds": [1, 4, 99], "iterations": 4},
    "ktruss": {"k": 3},
    "score": {"degree_weight": 1, "triangle_weight": 2, "rank_weight": 1,
              "iterations": 3},
}


@pytest.fixture(scope="module")
def collection():
    return random_churn_collection(seed=11, num_views=4, num_nodes=8,
                                   churn=5)


@pytest.fixture(params=sorted(PACK_PARAMS), ids=sorted(PACK_PARAMS))
def pack(request):
    return ALGORITHMS[request.param], PACK_PARAMS[request.param]


class TestPackBattery:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_oracle_equivalence_across_modes(self, collection, pack, mode):
        spec, params = pack
        assert check_oracle(collection, spec, params, mode) is None

    def test_worker_invariance(self, collection, pack):
        spec, params = pack
        assert check_workers(collection, spec, params,
                             worker_counts=(1, 3)) is None

    def test_view_order_permutation(self, collection, pack):
        spec, params = pack
        assert check_permutation(collection, spec, params,
                                 perm_seed=3) is None

    def test_kill_resume(self, collection, pack):
        spec, params = pack
        assert check_checkpoint(collection, spec, params, kill_at=2) is None

    def test_streamed_equals_scratch_every_epoch(self, collection, pack):
        spec, params = pack
        assert check_stream(collection, spec, params) is None

    def test_stream_check_is_live_not_vacuous(self, pack):
        # check_stream treats a failed registration as "not servable"
        # and passes vacuously; the pack must actually register.
        spec, params = pack
        engine = StreamEngine(None)
        try:
            signature = engine.register(spec.name, params)
        finally:
            engine.close()
        assert spec.name in signature
