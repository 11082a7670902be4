"""The Collection Ordering Optimizer (paper Algorithm 1).

Given an edge boolean matrix, find a view order with small total difference
count: pad a zero column, compute the Hamming-distance clique, solve TSP
with Christofides, rotate the tour to start at the padded column, and read
the view order off the tour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.ordering.christofides import christofides_tour
from repro.core.ordering.hamming import hamming_distance_matrix
from repro.core.ordering.problem import (
    diff_count_for_order,
    exact_best_order,
    random_order,
)
from repro.errors import OrderingError


@dataclass
class OrderingResult:
    """Outcome of the ordering optimizer."""

    order: List[int]           # permutation of view indices
    diff_count: int            # COP objective under `order`
    identity_diff_count: int   # objective of the user-given order
    elapsed_seconds: float

    @property
    def improvement(self) -> float:
        if self.diff_count == 0:
            return float("inf") if self.identity_diff_count else 1.0
        return self.identity_diff_count / self.diff_count


def _order_by_tour(matrix: np.ndarray) -> List[int]:
    distances = hamming_distance_matrix(matrix)
    tour = christofides_tour(distances)
    zero_pos = tour.index(0)
    rotated = tour[zero_pos:] + tour[:zero_pos]
    # Drop the padded zero column (vertex 0) and shift back to view indices.
    order = [v - 1 for v in rotated[1:]]
    # The tour is a cycle: both directions are valid; pick the better one.
    reverse = list(reversed(order))
    if diff_count_for_order(matrix, reverse) < \
            diff_count_for_order(matrix, order):
        return reverse
    return order


def _order_greedy(matrix: np.ndarray) -> List[int]:
    """Nearest-neighbour baseline from the padded zero column."""
    distances = hamming_distance_matrix(matrix)
    k = matrix.shape[1]
    unvisited = set(range(1, k + 1))
    current = 0
    order: List[int] = []
    while unvisited:
        nxt = min(unvisited, key=lambda v: (distances[current, v], v))
        unvisited.remove(nxt)
        order.append(nxt - 1)
        current = nxt
    return order


def order_collection(matrix: np.ndarray, method: str = "christofides",
                     seed: int = 0) -> OrderingResult:
    """Choose a view order for an EBM.

    ``method``:

    * ``christofides`` — the paper's optimizer (Algorithm 1).
    * ``greedy`` — nearest-neighbour ablation baseline.
    * ``exact`` — brute force (small k only).
    * ``identity`` — keep the user-given order.
    * ``random`` — seeded shuffle (the paper's R1/R2/R3 baselines).
    """
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise OrderingError("EBM matrix must be 2-D")
    k = matrix.shape[1]
    started = time.perf_counter()
    if method == "christofides":
        order = _order_by_tour(matrix)
    elif method == "greedy":
        order = _order_greedy(matrix)
    elif method == "exact":
        order = exact_best_order(matrix)
    elif method == "identity":
        order = list(range(k))
    elif method == "random":
        order = random_order(k, seed)
    else:
        raise OrderingError(f"unknown ordering method {method!r}")
    elapsed = time.perf_counter() - started
    return OrderingResult(
        order=order,
        diff_count=diff_count_for_order(matrix, order),
        identity_diff_count=diff_count_for_order(matrix),
        elapsed_seconds=elapsed,
    )
