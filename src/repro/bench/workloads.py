"""View-collection builders for every experiment in the paper.

Each builder returns a :class:`MaterializedCollection` (plus the base graph
where callers need it). Definitions mirror the paper's §5/§7 workloads; the
scale is set by each builder's size parameters (defaults are tuned so a
full experiment run completes in minutes on one core — see DESIGN.md's
substitution notes).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.view_collection import (
    MaterializedCollection,
    ViewCollectionDefinition,
    collection_from_diffs,
)
from repro.datasets.citation import citations_like
from repro.datasets.community import community_graph, perturbation_views
from repro.datasets.social import locality_affinity_views, social_like
from repro.datasets.synthetic import random_edge_pairs
from repro.datasets.temporal import SECONDS_PER_DAY, SECONDS_PER_YEAR, stackoverflow_like, ts_after
from repro.graph.property_graph import PropertyGraph
from repro.gvdl.ast import And, Comparison, Literal, Predicate, PropRef

EdgeKey = Tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# Table 2 (§5): random-churn collections on an Orkut-like graph
# ---------------------------------------------------------------------------

def orkut_churn_collection(num_nodes: int = 300, num_edges: int = 1500,
                           num_views: int = 20,
                           additions_per_view: int = 25,
                           removals_per_view: int = 25,
                           seed: int = 0,
                           name: str = "churn") -> MaterializedCollection:
    """The §5 controlled experiment: GV1 plus random ± churn per view.

    The paper uses 10M Orkut edges with ±500 (C_1K, very similar views) or
    +2M/−1.5M (C_3.5M, very different views) per view; scale the
    ``*_per_view`` knobs proportionally.
    """
    rng = random.Random(seed)
    pairs = random_edge_pairs(num_nodes, num_edges, seed=seed, rng=rng)
    edge_ids: Dict[Tuple[int, int], int] = {}

    def key_for(pair: Tuple[int, int]) -> EdgeKey:
        eid = edge_ids.setdefault(pair, len(edge_ids))
        return (eid, pair[0], pair[1], 1)

    current = set(pairs)
    diffs: List[Dict[EdgeKey, int]] = [
        {key_for(pair): 1 for pair in sorted(current)}]
    for _view in range(1, num_views):
        diff: Dict[EdgeKey, int] = {}
        removable = sorted(current)
        rng.shuffle(removable)
        for pair in removable[:removals_per_view]:
            current.discard(pair)
            diff[key_for(pair)] = -1
        added = 0
        attempts = 0
        while added < additions_per_view and attempts < 50 * additions_per_view:
            attempts += 1
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u == v or (u, v) in current:
                continue
            current.add((u, v))
            key = key_for((u, v))
            if diff.get(key) == -1:
                del diff[key]
            else:
                diff[key] = 1
            added += 1
        diffs.append(diff)
    return collection_from_diffs(name, diffs, source="orkut-like")


# ---------------------------------------------------------------------------
# Figures 6-7 (§7.2): window collections on the SO-like temporal graph
# ---------------------------------------------------------------------------

def _ts_window_predicate(lo: Optional[int], hi: int) -> Predicate:
    upper = Comparison(PropRef("edge", "ts"), "<", Literal(hi))
    if lo is None:
        return upper
    lower = Comparison(PropRef("edge", "ts"), ">=", Literal(lo))
    return And((lower, upper))


#: Paper window label -> seconds. The SO graph spans 8 years like the real
#: dataset; the default benchmark scale divides counts, not the windows.
CSIM_WINDOWS: Dict[str, int] = {
    "1mo": 30 * SECONDS_PER_DAY,
    "3mo": 91 * SECONDS_PER_DAY,
    "6mo": 182 * SECONDS_PER_DAY,
    "1y": SECONDS_PER_YEAR,
    "2y": 2 * SECONDS_PER_YEAR,
}

CNO_WINDOWS: Dict[str, int] = {
    "6mo": 182 * SECONDS_PER_DAY,
    "1y": SECONDS_PER_YEAR,
    "2y": 2 * SECONDS_PER_YEAR,
    "3y": 3 * SECONDS_PER_YEAR,
    "4y": 4 * SECONDS_PER_YEAR,
}


def csim_collection(graph: PropertyGraph, window_seconds: int,
                    initial_years: float = 5.0, span_years: float = 8.0,
                    max_views: int = 48,
                    name: str = "csim") -> MaterializedCollection:
    """§7.2 C_sim: a 5-year initial window expanded by ``window_seconds``
    per view (each view is a superset of its predecessor)."""
    start = ts_after(years=initial_years)
    end = ts_after(years=span_years)
    views: List[Tuple[str, Predicate]] = [
        ("base", _ts_window_predicate(None, start))]
    bound = start
    index = 1
    while bound < end and len(views) < max_views:
        bound = min(end, bound + window_seconds)
        views.append((f"expand-{index}", _ts_window_predicate(None, bound)))
        index += 1
    definition = ViewCollectionDefinition(name, graph.name, tuple(views))
    return definition.materialize(graph)


def cno_collection(graph: PropertyGraph, window_seconds: int,
                   first_window_days: int = 214, span_years: float = 8.0,
                   max_views: int = 48,
                   name: str = "cno") -> MaterializedCollection:
    """§7.2 C_no: completely disjoint sliding windows (first window
    2008-05..2008-12, then full slides of ``window_seconds``)."""
    views: List[Tuple[str, Predicate]] = []
    lo = ts_after(days=0)
    hi = ts_after(days=first_window_days)
    end = ts_after(years=span_years)
    index = 0
    while lo < end and len(views) < max_views:
        views.append((f"win-{index}", _ts_window_predicate(lo, hi)))
        lo, hi = hi, min(end, hi + window_seconds)
        if hi <= lo:
            break
        index += 1
    definition = ViewCollectionDefinition(name, graph.name, tuple(views))
    return definition.materialize(graph)


# ---------------------------------------------------------------------------
# Table 3 (§7.3): citation-graph collections
# ---------------------------------------------------------------------------

def _year_window_predicate(lo: int, hi: int,
                           max_authors: Optional[int] = None) -> Predicate:
    terms: List[Comparison] = []
    for side in ("src", "dst"):
        terms.append(Comparison(PropRef(side, "year"), ">=", Literal(lo)))
        terms.append(Comparison(PropRef(side, "year"), "<=", Literal(hi)))
        if max_authors is not None:
            terms.append(Comparison(PropRef(side, "authors"), "<=",
                                    Literal(max_authors)))
    return And(tuple(terms))


def csl_collection(graph: PropertyGraph,
                   name: str = "csl") -> MaterializedCollection:
    """§7.3 C_sl: decade windows sliding by 5 years, [1936,1945] ...
    [2011,2020] — 16 views, each adding and removing 5 years of papers."""
    views = []
    for lo in range(1936, 2012, 5):
        hi = lo + 9
        views.append((f"{lo}-{hi}", _year_window_predicate(lo, hi)))
    definition = ViewCollectionDefinition(name, graph.name, tuple(views))
    return definition.materialize(graph)


def cex_sh_sl_collection(graph: PropertyGraph,
                         name: str = "cex-sh-sl") -> MaterializedCollection:
    """§7.3 C_ex-sh-sl: [1995,2000] expands to [1995,2005], shrinks to
    [2000,2005], then slides to [2005,2010], all by one-year steps."""
    windows: List[Tuple[int, int]] = [(1995, 2000)]
    for hi in range(2001, 2006):          # expand
        windows.append((1995, hi))
    for lo in range(1996, 2001):          # shrink
        windows.append((lo, 2005))
    for step in range(1, 6):              # slide
        windows.append((2000 + step, 2005 + step))
    views = [(f"{lo}-{hi}", _year_window_predicate(lo, hi))
             for lo, hi in windows]
    definition = ViewCollectionDefinition(name, graph.name, tuple(views))
    return definition.materialize(graph)


def caut_collection(graph: PropertyGraph,
                    name: str = "caut") -> MaterializedCollection:
    """§7.3 C_aut: the Cartesian product of 5-year non-overlapping year
    windows [1996,2000] ... [2016,2020] with an expanding author-count
    window [0,5] ... [0,25]. Author expansion yields addition-only diffs;
    each year slide is a non-overlapping jump — a natural split point."""
    views = []
    for lo in range(1996, 2017, 5):
        hi = lo + 4
        for authors in range(5, 26, 5):
            views.append((
                f"{lo}-{hi}xA{authors}",
                _year_window_predicate(lo, hi, max_authors=authors),
            ))
    definition = ViewCollectionDefinition(name, graph.name, tuple(views))
    return definition.materialize(graph)


# ---------------------------------------------------------------------------
# Table 4 / Figures 8-9 (§7.4): community-removal perturbation collections
# ---------------------------------------------------------------------------

def perturbation_collection(graph: PropertyGraph, top_n: int, k: int,
                            order_method: str = "identity", seed: int = 0,
                            name: Optional[str] = None
                            ) -> MaterializedCollection:
    """§7.4 C_{N,k}: one view per k-combination of the N largest
    communities, removing those communities. ``order_method`` selects the
    collection ordering (``christofides`` = the paper's Ord., ``random`` =
    the R1/R2/R3 baselines via ``seed``)."""
    views = perturbation_views(graph, top_n, k)
    definition = ViewCollectionDefinition(
        name or f"{graph.name}-{top_n}C{k}", graph.name, tuple(views))
    return definition.materialize(graph, order_method=order_method,
                                  seed=seed)


# ---------------------------------------------------------------------------
# Figure 10 (§7.6): scalability collection on the TW-like graph
# ---------------------------------------------------------------------------

def scalability_collection(num_nodes: int = 400, num_edges: int = 2400,
                           seed: int = 0,
                           name: str = "locality"
                           ) -> Tuple[PropertyGraph, MaterializedCollection]:
    """The 9-view same-city/state/country x affinity collection."""
    graph = social_like(num_nodes, num_edges, seed=seed,
                        with_attributes=True, name="twitter-like")
    views = locality_affinity_views()
    definition = ViewCollectionDefinition(name, graph.name, tuple(views))
    return graph, definition.materialize(graph)


# ---------------------------------------------------------------------------
# Default experiment graphs
# ---------------------------------------------------------------------------

def default_so_graph(scale: float = 1.0, seed: int = 0) -> PropertyGraph:
    return stackoverflow_like(num_nodes=int(300 * scale),
                              num_edges=int(1500 * scale), seed=seed)


def default_pc_graph(scale: float = 1.0, seed: int = 0) -> PropertyGraph:
    return citations_like(num_nodes=int(400 * scale),
                          num_edges=int(1600 * scale), seed=seed)


def default_lj_graph(scale: float = 1.0, seed: int = 0) -> PropertyGraph:
    return community_graph(num_nodes=int(300 * scale),
                           intra_edges=int(1200 * scale),
                           background_edges=int(300 * scale),
                           seed=seed, name="livejournal-like")


def default_wtc_graph(scale: float = 1.0, seed: int = 1) -> PropertyGraph:
    return community_graph(num_nodes=int(250 * scale),
                           intra_edges=int(1000 * scale),
                           background_edges=int(250 * scale),
                           seed=seed, overlap=0.35, name="wiki-topcats-like")
