"""Step 3 of view-collection materialization: the edge difference stream.

Given a (possibly reordered) EBM, produce one difference set per view such
that accumulating the first ``t`` difference sets yields exactly view ``t``
(paper §3.2, Figure 5b): an edge contributes +1 where it enters a view, -1
where it leaves, and 0 where consecutive views agree.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.ebm import EdgeBooleanMatrix, EdgeKey

EdgeDiff = Dict[EdgeKey, int]


def compute_diff_stream(ebm: EdgeBooleanMatrix) -> List[EdgeDiff]:
    """Materialize the per-view edge difference sets.

    Per-edge independent (embarrassingly parallel): row ``(1,1,0,1)`` yields
    ``+1`` at view 0, ``-1`` at view 2, ``+1`` at view 3.
    """
    matrix = ebm.matrix.astype(np.int8)
    # transitions[:, 0] is the first view itself; afterwards the delta
    # between consecutive columns.
    transitions = np.empty_like(matrix)
    transitions[:, 0] = matrix[:, 0]
    if ebm.num_views > 1:
        transitions[:, 1:] = matrix[:, 1:] - matrix[:, :-1]
    diffs: List[EdgeDiff] = [dict() for _ in range(ebm.num_views)]
    rows, cols = np.nonzero(transitions)
    signs = transitions[rows, cols].tolist()
    edges = ebm.edges
    for row, col, sign in zip(rows.tolist(), cols.tolist(), signs):
        diffs[col][edges[row]] = sign
    return diffs


def diff_sizes(diffs: List[EdgeDiff]) -> List[int]:
    """Number of edge differences per view."""
    return [len(d) for d in diffs]


def total_diff_count(diffs: List[EdgeDiff]) -> int:
    """The collection's total difference count (paper Table 4's ``#Diffs``)."""
    return sum(len(d) for d in diffs)


def view_sizes_from_diffs(diffs: List[EdgeDiff]) -> List[int]:
    """Reconstruct |GV_t| for each view by accumulating the differences."""
    sizes: List[int] = []
    current = 0
    for diff in diffs:
        current += sum(diff.values())
        sizes.append(current)
    return sizes


def accumulate_view(diffs: List[EdgeDiff], index: int) -> EdgeDiff:
    """Reconstruct the full edge set of view ``index`` (multiplicity 1)."""
    view: EdgeDiff = {}
    for diff in diffs[:index + 1]:
        for edge, mult in diff.items():
            new = view.get(edge, 0) + mult
            if new == 0:
                view.pop(edge, None)
            elif new == 1:
                view[edge] = 1
            else:
                raise ValueError(
                    f"edge {edge} reached multiplicity {new} while "
                    f"accumulating view {index}; difference stream is corrupt")
    return view
