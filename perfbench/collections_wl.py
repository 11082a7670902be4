"""The two view-collection workloads: GVDL text to the last view's result.

``window_collection`` (paper Fig. 6, C_sim): expanding one-month windows
over an SO-like temporal graph, identity order, WCC then PageRank in
ADAPTIVE mode. The engine dominates; WCC stays differential while
PageRank splits, so both executor strategies run.

``perturbation_collection`` (paper Table 4 / Fig. 8, C_10,4): every way
of removing 4 of the 10 largest communities of an LJ-like graph, ordered
by Christofides, OutDegrees in ADAPTIVE mode. Materialization dominates
and the diffs both add and remove edges.

Both use ``cost_metric="work"`` so the splitter's plan, and with it every
counter, is a function of the input and not of machine noise.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from common import Job, check
from tracing import SpanRecorder, span_layers, traced_by

from repro import ExecutionMode, Graphsurge
from repro.algorithms import OutDegrees, PageRank, Wcc
from repro.core.splitting.optimizer import SplitDecision
from repro.datasets import community_graph, stackoverflow_like
from repro.datasets.community import community_sizes
from repro.datasets.temporal import SECONDS_PER_DAY, ts_after
from repro.verify.oracles import (
    ALGORITHMS,
    describe_map_mismatch,
    output_map,
    view_edge_list,
)

COLLECTION = "bench"


@dataclass
class Shape:
    """Sizes of one collection workload (``quick`` shrinks them)."""

    nodes: int
    edges: int
    views: int
    instances: int


WINDOW = Shape(nodes=100, edges=500, views=24, instances=4)
WINDOW_QUICK = Shape(nodes=30, edges=90, views=6, instances=2)
PERTURBATION = Shape(nodes=150, edges=750, views=210, instances=5)
PERTURBATION_QUICK = Shape(nodes=40, edges=160, views=15, instances=2)
PAGERANK_ITERATIONS = 10
BATCH_SIZE = 1
SETUP_REPEATS = 5


@dataclass
class Instance:
    """One generated input: a graph factory, GVDL text, computations."""

    make_graph: Callable
    gvdl: str
    order: str
    computations: Tuple[Tuple[str, dict], ...]


def window_instance(seed: int, shape: Shape) -> Instance:
    def make_graph():
        return stackoverflow_like(shape.nodes, shape.edges, seed=seed)

    start = ts_after(years=5.0)
    month = 30 * SECONDS_PER_DAY
    views = ", ".join(f"[expand-{i}: ts < {start + i * month}]"
                      for i in range(shape.views))
    return Instance(
        make_graph=make_graph,
        gvdl=f"create view collection {COLLECTION} on stackoverflow {views}",
        order="identity",
        computations=(("wcc", {}),
                      ("pagerank", {"iterations": PAGERANK_ITERATIONS})))


def perturbation_instance(seed: int, shape: Shape) -> Instance:
    background = shape.edges // 5

    def make_graph():
        return community_graph(
            num_nodes=shape.nodes, intra_edges=shape.edges - background,
            background_edges=background, seed=seed, name="livejournal")

    # The GVDL names the 10 largest communities of the generated graph,
    # so the text is a function of the seed like the graph itself.
    top = [comm for comm, _size in community_sizes(make_graph())[:10]]
    views = []
    for combo in itertools.combinations(top, 4):
        terms = " or ".join(f"src.c{c} = true or dst.c{c} = true"
                            for c in combo)
        views.append(f"[drop-{'-'.join(map(str, combo))}: not ({terms})]")
    views = views[:shape.views]
    return Instance(
        make_graph=make_graph,
        gvdl=(f"create view collection {COLLECTION} on livejournal "
              + ", ".join(views)),
        order="christofides",
        computations=(("degrees", {}),))


def _computation(name: str, params: dict):
    return {"wcc": Wcc, "pagerank": PageRank,
            "degrees": OutDegrees}[name](**params)


def _check_outputs(collection, results, instance: Instance) -> None:
    """Every view's output equals the oracle on that view's edge list."""
    for (name, params), result in zip(instance.computations, results):
        spec = ALGORITHMS[name]
        check(not result.failed_views(),
              f"{name}: failed views {result.failed_views()}")
        for index, view in enumerate(result.views):
            check(view.view_name == collection.view_names[index],
                  f"{name}: view {index} is {view.view_name!r}")
            want = spec.oracle(view_edge_list(collection, index), **params)
            got = output_map(view.output)
            mismatch = describe_map_mismatch(got, want)
            check(mismatch is None,
                  f"{name} view {view.view_name}: {mismatch}")


def run_job(instance: Instance, index: int, verify: bool = False,
            recorder: SpanRecorder = None) -> Job:
    """One job: set up, materialize, analyse every computation.

    With ``verify`` every view's output is kept and checked against the
    oracle once the job is done.
    """
    # Setting up takes milliseconds, so it is timed several times.
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        graph = instance.make_graph()
        gs = Graphsurge(order_collections=instance.order)
        gs.add_graph(graph)
        setups.append(time.perf_counter() - started)

    with traced_by(recorder):
        begin = time.perf_counter()
        gs.execute(instance.gvdl)
        materialized = time.perf_counter()
        results = [gs.run_analytics(
            _computation(name, params), COLLECTION,
            mode=ExecutionMode.ADAPTIVE, batch_size=BATCH_SIZE,
            cost_metric="work", keep_outputs=verify)
            for name, params in instance.computations]
        finished = time.perf_counter()

    collection = gs.views.get_collection(COLLECTION)
    if verify:
        _check_outputs(collection, results, instance)
    views = [view for result in results for view in result.views]
    job = Job(instance=index)
    job.scalars = {"setup_s": statistics.median(setups),
                   "materialize_s": materialized - begin,
                   "analytics_s": finished - materialized,
                   "job_s": finished - begin}
    # One op is one view answered for every computation of the workload.
    job.samples = {"op_ms": [1000.0 * sum(r.views[i].wall_seconds
                                          for r in results)
                             for i in range(collection.num_views)]}
    work = sum(r.total_work for r in results)
    parallel = sum(r.total_parallel_time for r in results)
    splits = sum(len(r.split_points) for r in results)
    job.counters = (work, parallel, collection.total_diffs, splits,
                    tuple(v.output_diff_size for v in views))
    job.attempted = len(views) + 1
    job.failed = sum(len(r.failed_views()) for r in results)
    job.layers = _result_layers(results, views, work, parallel, splits)
    if recorder is not None:
        job.layers.update(span_layers(recorder))
        analytics = finished - materialized
        materialize = materialized - begin
        job.layers["differential.analytics_share"] = (
            recorder.total("differential.step") / analytics)
        job.layers["ebm_ordering.materialize_share"] = (
            (recorder.total("ebm.build") + recorder.total("ordering.order"))
            / materialize)
    return job


def _result_layers(results, views, work: int, parallel: int,
                   splits: int) -> Dict[str, float]:
    """Per-layer figures the program's own results report."""
    diff = [v for v in views if v.strategy is SplitDecision.DIFFERENTIAL]
    scratch = [v for v in views if v.strategy is SplitDecision.SCRATCH]

    def us_per_work(group: List) -> float:
        units = sum(v.work for v in group)
        return (1e6 * sum(v.wall_seconds for v in group) / units
                if units else 0.0)

    return {
        "splitting.splits": splits,
        "splitting.scratch_views": len(scratch),
        "executor.diff_view_s": sum(v.wall_seconds for v in diff),
        "executor.scratch_view_s": sum(v.wall_seconds for v in scratch),
        "executor.diff_us_per_work": us_per_work(diff),
        "executor.scratch_us_per_work": us_per_work(scratch),
        "differential.trace_records": sum(
            sum((r.trace_memory or {}).values()) for r in results),
        "meter.work": work,
        "meter.parallel_time": parallel,
    }


def instances_for(workload: str, seeds: List[int], quick: bool):
    if workload == "window_collection":
        shape = WINDOW_QUICK if quick else WINDOW
        return [window_instance(seed, shape) for seed in
                seeds[:shape.instances]]
    shape = PERTURBATION_QUICK if quick else PERTURBATION
    return [perturbation_instance(seed, shape) for seed in
            seeds[:shape.instances]]
