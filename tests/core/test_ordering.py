"""Collection ordering: objectives, Theorem 4.1's reduction identity,
Christofides, and the Algorithm 1 optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering.christofides import (
    christofides_tour,
    prim_mst,
    tour_length,
)
from repro.core.ordering.hamming import hamming_distance_matrix
from repro.core.ordering.optimizer import order_collection
from repro.core.ordering.problem import (
    consecutive_blocks,
    diff_count_for_order,
    exact_best_order,
    random_order,
)
from repro.errors import OrderingError

small_matrices = st.integers(2, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.booleans(), min_size=k, max_size=k),
        min_size=1, max_size=10)).map(lambda rows: np.array(rows, dtype=bool))


class TestObjectives:
    def test_diff_count_example(self):
        # Row (1,1,1,0): first appearance + one disappearance = 2 diffs.
        assert diff_count_for_order(np.array([[1, 1, 1, 0]])) == 2

    def test_consecutive_blocks_example(self):
        assert consecutive_blocks(np.array([[1, 1, 1, 0]])) == 1
        assert consecutive_blocks(np.array([[1, 0, 1, 0]])) == 2

    def test_order_changes_objective(self):
        matrix = np.array([[1, 0, 1], [1, 0, 1]])
        # Row (1,0,1): appear, disappear, appear = 3 diffs.
        assert diff_count_for_order(matrix, [0, 1, 2]) == 6
        # Row (1,1,0): appear, disappear = 2 diffs.
        assert diff_count_for_order(matrix, [0, 2, 1]) == 4

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_cb_bounds_diffs(self, matrix):
        """From the proof: cb <= ds <= 2*cb for every ordering."""
        cb = consecutive_blocks(matrix)
        ds = diff_count_for_order(matrix)
        assert cb <= ds <= 2 * cb

    @settings(max_examples=30, deadline=None)
    @given(small_matrices)
    def test_theorem_4_1_identity_corrected(self, matrix):
        """The Theorem 4.1 reduction, with a corrected per-row account.

        Stacking B over its complement, a mixed row r contributes
        ``diffs(r) + diffs(r^C)``. Writing f/l for r's first/last cell:
        ``diffs(r) = 2·cb(r) − 1 + [l==0]`` and (since the complement has
        ``cb(r) − 1 + [f==0] + [l==0]`` one-blocks)
        ``diffs(r^C) = 2·(cb(r) − 1 + [f==0] + [l==0]) − [l==0]``,
        so the pair yields ``4·cb(r) − 3 + 2·[f==0] + 2·[l==0]``.

        The paper simplifies this to ``4·cb(r) − 1``, which assumes exactly
        one of f/l is 0 — rows like (0,1,0) violate it. The corrected
        identity below holds for every matrix and ordering (property-
        checked), and still ties ds to cb row-wise, which is what the
        NP-hardness argument needs.
        """
        doubled = np.vstack([matrix, ~matrix])
        row_sums = matrix.sum(axis=1)
        k = matrix.shape[1]
        m0 = int((row_sums == 0).sum())
        m1 = int((row_sums == k).sum())
        for seed in range(3):
            sigma = random_order(k, seed)
            expected = m0 + m1  # all-0 rows: r^C costs 1; all-1: r costs 1
            for row in matrix[(row_sums > 0) & (row_sums < k)]:
                permuted = row[list(sigma)]
                cb = consecutive_blocks(permuted[None, :])
                first_zero = 1 if not permuted[0] else 0
                last_zero = 1 if not permuted[-1] else 0
                expected += 4 * cb - 3 + 2 * first_zero + 2 * last_zero
            assert diff_count_for_order(doubled, sigma) == expected


class TestExactAndRandom:
    def test_exact_finds_optimum(self):
        matrix = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        best = exact_best_order(matrix)
        best_cost = diff_count_for_order(matrix, best)
        from itertools import permutations
        for perm in permutations(range(3)):
            assert best_cost <= diff_count_for_order(matrix, perm)

    def test_exact_refuses_large_k(self):
        with pytest.raises(ValueError, match="factorial"):
            exact_best_order(np.zeros((2, 12), dtype=bool))

    def test_random_order_deterministic_in_seed(self):
        assert random_order(8, 3) == random_order(8, 3)
        assert sorted(random_order(8, 3)) == list(range(8))


class TestHamming:
    def test_padded_matrix_shape_and_values(self):
        matrix = np.array([[1, 0], [1, 1]], dtype=bool)
        distances = hamming_distance_matrix(matrix)
        assert distances.shape == (3, 3)
        # Column 0 is the zero padding: distance to view j = |view j|.
        assert distances[0, 1] == 2
        assert distances[0, 2] == 1
        assert distances[1, 2] == 1
        assert np.all(distances == distances.T)
        assert np.all(np.diag(distances) == 0)

    def test_matches_columnwise_count(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((40, 5)) < 0.5
        padded = np.hstack([np.zeros((40, 1), dtype=bool), matrix])
        expected = [[int(np.sum(padded[:, a] != padded[:, b]))
                     for b in range(6)] for a in range(6)]
        assert hamming_distance_matrix(matrix).tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(small_matrices)
    def test_triangle_inequality(self, matrix):
        """Hamming distances are a metric — the Christofides requirement."""
        distances = hamming_distance_matrix(matrix)
        n = distances.shape[0]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert distances[a, c] <= distances[a, b] + distances[b, c]


class TestChristofides:
    def test_tour_is_hamiltonian(self):
        rng = np.random.default_rng(1)
        points = rng.random((9, 2))
        weights = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        tour = christofides_tour(weights)
        assert sorted(tour) == list(range(9))

    def test_known_square(self):
        # Unit square: optimal tour length 4.
        weights = np.array([
            [0, 1, 2 ** 0.5, 1],
            [1, 0, 1, 2 ** 0.5],
            [2 ** 0.5, 1, 0, 1],
            [1, 2 ** 0.5, 1, 0]])
        tour = christofides_tour(weights)
        assert tour_length(weights, tour) == pytest.approx(4.0)

    def test_tiny_inputs(self):
        assert christofides_tour(np.zeros((0, 0))) == []
        assert christofides_tour(np.zeros((1, 1))) == [0]
        assert christofides_tour(np.zeros((2, 2))) == [0, 1]

    def test_non_square_rejected(self):
        with pytest.raises(OrderingError):
            christofides_tour(np.zeros((2, 3)))

    def test_prim_mst_weight(self):
        weights = np.array([
            [0, 1, 4],
            [1, 0, 2],
            [4, 2, 0]], dtype=float)
        mst = prim_mst(weights)
        total = sum(weights[u, v] for u, v in mst)
        assert total == 3
        assert len(mst) == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 9), st.integers(0, 1000))
    def test_approximation_ratio_on_metrics(self, n, seed):
        """Christofides <= 1.5 x optimal on random metric instances."""
        rng = np.random.default_rng(seed)
        points = rng.random((n, 2))
        weights = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        tour = christofides_tour(weights)
        from itertools import permutations
        best = min(
            tour_length(weights, [0, *perm])
            for perm in permutations(range(1, n)))
        assert tour_length(weights, tour) <= 1.5 * best + 1e-9


class TestOptimizer:
    def test_christofides_never_worse_than_3x_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            matrix = rng.random((30, 6)) < 0.4
            result = order_collection(matrix, method="christofides")
            exact = order_collection(matrix, method="exact")
            assert result.diff_count <= 3 * max(1, exact.diff_count)

    def test_identity_and_random_methods(self):
        matrix = np.random.default_rng(0).random((10, 4)) < 0.5
        identity = order_collection(matrix, method="identity")
        assert identity.order == [0, 1, 2, 3]
        shuffled = order_collection(matrix, method="random", seed=5)
        assert sorted(shuffled.order) == [0, 1, 2, 3]

    def test_greedy_beats_worst_random_usually(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((60, 7)) < 0.5
        greedy = order_collection(matrix, method="greedy")
        worst_random = max(
            order_collection(matrix, method="random", seed=s).diff_count
            for s in range(5))
        assert greedy.diff_count <= worst_random

    def test_improvement_metric(self):
        matrix = np.array([[1, 0, 1]] * 10)
        result = order_collection(matrix, method="exact")
        assert result.identity_diff_count == 30
        assert result.diff_count == 10
        assert result.improvement == pytest.approx(3.0)

    def test_unknown_method(self):
        with pytest.raises(OrderingError, match="unknown ordering"):
            order_collection(np.zeros((1, 2), dtype=bool), method="magic")

    def test_nested_clustered_views_recovered(self):
        """Views forming an inclusion chain must be ordered as the chain
        (possibly reversed) by the optimizer."""
        rng = np.random.default_rng(11)
        base = rng.random(80) < 0.9
        chain = []
        current = base.copy()
        for _ in range(5):
            current = current & (rng.random(80) < 0.75)
            chain.append(current.copy())
        matrix = np.stack(chain, axis=1)
        shuffled_cols = [3, 0, 4, 1, 2]
        shuffled = matrix[:, shuffled_cols]
        result = order_collection(shuffled, method="christofides")
        recovered = [shuffled_cols[j] for j in result.order]
        assert recovered in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])
