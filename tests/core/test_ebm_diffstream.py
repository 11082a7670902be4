"""EBM construction and edge-difference-stream invariants."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graphsurge
from repro.core.diff_stream import (
    accumulate_view,
    compute_diff_stream,
    diff_sizes,
    total_diff_count,
    view_sizes_from_diffs,
)
from repro.core.ebm import (
    build_ebm,
    build_ebm_from_memberships,
)
from repro.core.view_collection import ViewCollectionDefinition
from repro.datasets import community_graph
from repro.datasets.community import community_sizes
from repro.gvdl.parser import parse

bool_matrices = st.integers(1, 8).flatmap(
    lambda k: st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k),
        min_size=1, max_size=12))


def ebm_from_rows(rows):
    edges = [(i, i, i + 1, 1) for i in range(len(rows))]
    names = [f"v{j}" for j in range(len(rows[0]))]
    return build_ebm_from_memberships(edges, names, rows)


class TestEbm:
    def test_build_from_predicates(self, call_graph):
        predicates = [
            parse(f"create view v on g edges where duration <= {d}").predicate
            for d in (1, 10, 35)]
        ebm = build_ebm(call_graph, ["d1", "d10", "d35"], predicates)
        assert ebm.num_edges == 15
        assert ebm.num_views == 3
        assert ebm.view_sizes()[2] == 15  # everything satisfies d<=35
        # Columns are monotone: duration<=1 implies duration<=10.
        assert np.all(ebm.matrix[:, 0] <= ebm.matrix[:, 1])

    def test_reorder_permutes_columns(self):
        ebm = ebm_from_rows([[True, False], [False, True]])
        flipped = ebm.reorder([1, 0])
        assert flipped.view_names == ["v1", "v0"]
        assert flipped.matrix[0].tolist() == [False, True]

    def test_reorder_validates_permutation(self):
        ebm = ebm_from_rows([[True, False]])
        with pytest.raises(ValueError, match="invalid column order"):
            ebm.reorder([0, 0])

    def test_mismatched_names_rejected(self, call_graph):
        with pytest.raises(ValueError, match="one predicate per view"):
            build_ebm(call_graph, ["a"], [])

    def test_weight_property(self, call_graph):
        predicate = parse(
            "create view v on g edges where true").predicate
        ebm = build_ebm(call_graph, ["all"], [predicate],
                        weight_property="duration")
        weights = {edge[3] for edge in ebm.edges}
        assert 34 in weights

    def test_rows_keep_edge_ids_after_removal(self, call_graph):
        # Removed ids are never reused, so the rows skip them and stay in
        # ascending edge-id order.
        call_graph.remove_edges(1, 3)
        call_graph.add_edge(8, 1, {"duration": 4, "year": 2020})
        predicate = parse(
            "create view v on g edges where year >= 2019").predicate
        ebm = build_ebm(call_graph, ["recent"], [predicate])
        ids = [edge[0] for edge in ebm.edges]
        assert ids == [e.id for e in call_graph.edges]
        assert ids == sorted(ids) and 1 not in ids and ids[-1] == 15
        assert [key[1:3] for key in ebm.edges] == [
            (e.src, e.dst) for e in call_graph.edges]
        assert ebm.matrix[:, 0].tolist() == [
            e.properties["year"] >= 2019 for e in call_graph.edges]

    def test_graph_without_edges(self, call_graph):
        call_graph.edges = []
        predicates = [parse("create view v on g edges where true").predicate
                      for _ in range(3)]
        ebm = build_ebm(call_graph, ["a", "b", "c"], predicates)
        assert ebm.edges == []
        assert ebm.matrix.shape == (0, 3)
        assert ebm.view_sizes() == [0, 0, 0]


class TestDiffStream:
    def test_paper_figure_5(self):
        """Figure 5a -> Figure 5b exactly."""
        rows = [
            [1, 0, 0],
            [1, 0, 1],
            [0, 0, 1],
            [0, 1, 1],
            [1, 1, 1],
        ]
        ebm = ebm_from_rows([[bool(x) for x in row] for row in rows])
        diffs = compute_diff_stream(ebm)
        def as_signs(diff):
            return {eid: mult for (eid, _s, _d, _w), mult in diff.items()}
        assert as_signs(diffs[0]) == {0: 1, 1: 1, 4: 1}
        assert as_signs(diffs[1]) == {0: -1, 1: -1, 3: 1}
        assert as_signs(diffs[2]) == {1: 1, 2: 1}

    @settings(max_examples=40, deadline=None)
    @given(bool_matrices)
    def test_accumulation_reconstructs_views(self, rows):
        ebm = ebm_from_rows(rows)
        diffs = compute_diff_stream(ebm)
        for j in range(ebm.num_views):
            view = accumulate_view(diffs, j)
            expected = {ebm.edges[i] for i in range(ebm.num_edges)
                        if rows[i][j]}
            assert set(view) == expected
            assert all(mult == 1 for mult in view.values())

    @settings(max_examples=40, deadline=None)
    @given(bool_matrices)
    def test_view_sizes_match_column_sums(self, rows):
        ebm = ebm_from_rows(rows)
        diffs = compute_diff_stream(ebm)
        assert view_sizes_from_diffs(diffs) == ebm.view_sizes()

    @settings(max_examples=40, deadline=None)
    @given(bool_matrices)
    def test_diff_count_equals_row_alternations(self, rows):
        ebm = ebm_from_rows(rows)
        diffs = compute_diff_stream(ebm)
        expected = 0
        for row in rows:
            previous = False
            for cell in row:
                if cell != previous:
                    expected += 1
                previous = cell
        assert total_diff_count(diffs) == expected

    def test_diff_sizes(self):
        ebm = ebm_from_rows([[True, False, True]])
        assert diff_sizes(compute_diff_stream(ebm)) == [1, 1, 1]

    def test_corrupt_stream_detected(self):
        edge = (0, 0, 1, 1)
        with pytest.raises(ValueError, match="corrupt"):
            accumulate_view([{edge: 1}, {edge: 1}], 1)


# ---------------------------------------------------------------------------
# Pinned materialization outputs
# ---------------------------------------------------------------------------

CALLS_GVDL = (
    "create view collection pin on Calls "
    "[y15: year <= 2015], [long: duration > 10], [la: src.city = 'LA'], "
    "[y18: year <= 2018 and dst.city = 'NY'], [all: true]")

# (edge count, digest of ebm.edges, digest of ebm.matrix) from build_ebm,
# then (ordering.order, total diffs, digest of the diff dicts with their
# key order) from materializing under each ordering method (seed 0).
PINS = {
    "calls": {
        "ebm": (15, "ef49570d9449777d", "f128c42589b1d21f"),
        "identity": (None, 47, "fc0430001da016aa"),
        "christofides": ([3, 1, 4, 2, 0], 27, "e360ecc9f84cd2ed"),
        "random": ([2, 1, 0, 4, 3], 55, "82359d456a9d0c61"),
    },
    "community": {
        "ebm": (160, "1b3f16004139cfd5", "209cdcf509fb7704"),
        "identity": (None, 679, "3b385b116ca3e9b9"),
        "christofides": ([0, 3, 2, 1, 14, 13, 10, 11, 12, 15, 19, 17, 16,
                          18, 4, 6, 5, 9, 7, 8], 505, "4709b05b299828e4"),
        "random": ([10, 18, 16, 14, 0, 17, 11, 2, 3, 9, 5, 7, 4, 19, 6, 15,
                    8, 1, 13, 12], 1327, "4671a59cc9507277"),
    },
}
METHODS = ("identity", "christofides", "random")


def _digest(value) -> str:
    """Short SHA-256 of ``repr(value)``: sensitive to order and values."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _perturbation_gvdl(graph) -> str:
    """Drop every 3-combination of the 6 largest communities (§7.4)."""
    top = [comm for comm, _size in community_sizes(graph)[:6]]
    views = []
    for combo in itertools.combinations(top, 3):
        terms = " or ".join(f"src.c{c} = true or dst.c{c} = true"
                            for c in combo)
        views.append(f"[drop-{'-'.join(map(str, combo))}: not ({terms})]")
    return f"create view collection pin on {graph.name} " + ", ".join(views)


def _collection_pin(collection):
    order = collection.ordering.order if collection.ordering else None
    if collection.ordering is not None:
        assert collection.ordering.diff_count == collection.total_diffs
    return (order, collection.total_diffs,
            _digest([list(diff.items()) for diff in collection.diffs]))


@pytest.fixture(params=sorted(PINS))
def pinned(request):
    """(graph, GVDL text, expected pins) for each pinned input."""
    if request.param == "calls":
        graph, text = request.getfixturevalue("call_graph"), CALLS_GVDL
    else:
        graph = community_graph(num_nodes=40, intra_edges=128,
                                background_edges=32, seed=5, name="lj")
        text = _perturbation_gvdl(graph)
    return graph, text, PINS[request.param]


class TestMaterializationPins:
    """Byte-level pins on EBM rows, diff dicts and orderings."""

    def test_ebm_rows(self, pinned):
        graph, text, pins = pinned
        statement = parse(text)
        ebm = build_ebm(graph, [name for name, _ in statement.views],
                        [pred for _, pred in statement.views])
        assert (ebm.num_edges, _digest(ebm.edges),
                _digest(ebm.matrix.tolist())) == pins["ebm"]

    @pytest.mark.parametrize("method", METHODS)
    def test_materialize(self, pinned, method):
        graph, text, pins = pinned
        statement = parse(text)
        definition = ViewCollectionDefinition(
            statement.name, statement.source, statement.views)
        collection = definition.materialize(graph, order_method=method)
        assert _collection_pin(collection) == pins[method]

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("method", METHODS)
    def test_through_graphsurge(self, pinned, method, workers):
        graph, text, pins = pinned
        gs = Graphsurge(workers=workers, order_collections=method)
        gs.add_graph(graph)
        gs.execute(text)
        assert _collection_pin(gs.views.get_collection("pin")) == \
            pins[method]
