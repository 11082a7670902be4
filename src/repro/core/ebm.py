"""Step 1 of view-collection materialization: the Edge Boolean Matrix.

For each edge ``e_i`` of the base graph and each view ``GV_j`` of the
collection, the EBM records whether ``e_i`` satisfies the view's predicate
(paper §3.2, Figure 5a). Every row depends on one edge alone, so the
matrix is filled by one sweep over the edges.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gvdl.ast import Predicate
from repro.gvdl.predicate import compile_predicate
from repro.graph.property_graph import PropertyGraph

EdgeKey = Tuple[int, int, int, int]  # (edge_id, src, dst, weight)


class EdgeBooleanMatrix:
    """An m-edges x k-views boolean matrix plus the edge identities."""

    def __init__(self, edges: Sequence[EdgeKey], view_names: Sequence[str],
                 matrix: np.ndarray):
        if matrix.shape != (len(edges), len(view_names)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(edges)} edges x {len(view_names)} views")
        self.edges: List[EdgeKey] = list(edges)
        self.view_names: List[str] = list(view_names)
        self.matrix = matrix.astype(bool)

    @property
    def num_edges(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_views(self) -> int:
        return self.matrix.shape[1]

    def reorder(self, order: Sequence[int]) -> "EdgeBooleanMatrix":
        """Return a new EBM with columns permuted by ``order``."""
        order = list(order)
        if sorted(order) != list(range(self.num_views)):
            raise ValueError(f"invalid column order {order}")
        return EdgeBooleanMatrix(
            self.edges,
            [self.view_names[j] for j in order],
            self.matrix[:, order],
        )

    def view_sizes(self) -> List[int]:
        """Number of edges in each view (column sums)."""
        return self.matrix.sum(axis=0).astype(int).tolist()


def build_ebm(graph: PropertyGraph, view_names: Sequence[str],
              predicates: Sequence[Predicate],
              weight_property: Optional[str] = None) -> EdgeBooleanMatrix:
    """Evaluate every view predicate on every edge of the base graph.

    Rows follow ``graph.edges``, which :class:`PropertyGraph` keeps in
    edge-id order.
    """
    if len(view_names) != len(predicates):
        raise ValueError("one predicate per view is required")
    evaluators: List[Callable] = [
        compile_predicate(p, graph.edge_schema, graph.node_schema)
        for p in predicates
    ]
    nodes = graph.nodes
    edges: List[EdgeKey] = []
    rows: List[List[bool]] = []
    for edge in graph.edges:
        eprops = edge.properties
        if weight_property is not None:
            weight = int(eprops.get(weight_property, 1))
        else:
            weight = 1
        edges.append((edge.id, edge.src, edge.dst, weight))
        sprops = nodes[edge.src].properties
        dprops = nodes[edge.dst].properties
        rows.append([evaluate(eprops, sprops, dprops)
                     for evaluate in evaluators])
    matrix = np.array(rows, dtype=bool).reshape(len(edges), len(evaluators))
    return EdgeBooleanMatrix(edges, view_names, matrix)


def build_ebm_from_memberships(edges: Sequence[EdgeKey],
                               view_names: Sequence[str],
                               memberships: Sequence[Sequence[bool]]
                               ) -> EdgeBooleanMatrix:
    """Build an EBM directly from precomputed membership rows (tests,
    synthetic workloads)."""
    matrix = np.asarray(memberships, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError("memberships must be a 2-D row-per-edge structure")
    return EdgeBooleanMatrix(edges, view_names, matrix)
