"""``stream_churn``: continuous queries over seeded append/retract churn.

An LJ-like community graph seeds a :class:`repro.stream.StreamEngine`
with continuous ``wcc``, ``degrees`` and ``bfs`` queries (default
compaction). The job ingests every seeded ``churn_batches`` batch (up to
8 appends and up to 8 retracts each) as one epoch and reads a snapshot of
every query every 10 epochs. It is the only workload that writes
retractions into resident dataflows, and it runs frontier compaction but
no materialization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from common import Job, check
from tracing import SpanRecorder, span_layers, traced_by

from repro import Graphsurge
from repro.datasets import community_graph
from repro.errors import StreamError
from repro.graph.property_graph import PropertyGraph
from repro.stream.source import churn_batches
from repro.verify.oracles import (
    ALGORITHMS,
    canonical_diff,
    describe_map_mismatch,
    output_map,
)

SNAPSHOT_EVERY = 10
CHURN = 8


@dataclass
class Shape:
    nodes: int
    epochs: int
    instances: int


STREAM = Shape(nodes=300, epochs=100, instances=5)
STREAM_QUICK = Shape(nodes=40, epochs=20, instances=2)


@dataclass
class Instance:
    seed: int
    shape: Shape


def by_degree(graph: PropertyGraph) -> PropertyGraph:
    """The same graph with vertices numbered by descending degree.

    WCC labels a component by its smallest vertex id, and BFS starts at
    vertex 0. With the busiest vertex as 0, both sit in the giant
    component on every seed. Otherwise a seed that leaves a low id outside
    it pays for whole-component label flips whenever churn links the two,
    which made one input's job cost up to 4x another's.
    """
    degree = {node: 0 for node in graph.nodes}
    for edge in graph.edges:
        degree[edge.src] += 1
        degree[edge.dst] += 1
    order = sorted(graph.nodes, key=lambda node: (-degree[node], node))
    number = {node: index for index, node in enumerate(order)}
    renumbered = PropertyGraph(graph.name, node_schema=graph.node_schema,
                               edge_schema=graph.edge_schema)
    for node in order:
        renumbered.add_node(number[node], graph.nodes[node].properties)
    for edge in graph.edges:
        renumbered.add_edge(number[edge.src], number[edge.dst],
                            edge.properties)
    return renumbered


def _triples(edges: Dict[tuple, int]) -> List[tuple]:
    return [triple for triple, mult in sorted(edges.items())
            for _ in range(mult)]


def run_job(instance: Instance, index: int, verify: bool = False,
            recorder: SpanRecorder = None) -> Job:
    """One job: seed the queries, ingest every batch, read snapshots."""
    shape = instance.shape
    started = time.perf_counter()
    graph = by_degree(community_graph(num_nodes=shape.nodes,
                                      intra_edges=4 * shape.nodes,
                                      background_edges=shape.nodes,
                                      seed=instance.seed,
                                      name="livejournal"))
    batches = churn_batches(instance.seed, shape.epochs,
                            num_nodes=shape.nodes, churn=CHURN)
    gs = Graphsurge()
    gs.add_graph(graph)
    engine = gs.stream("livejournal", [("wcc", {}), ("degrees", {}),
                                       ("bfs", {"source": 0})])
    setup = time.perf_counter() - started

    ingest_ms: List[float] = []
    snapshot_ms: List[float] = []
    snapshots = []
    updates = 0
    failed = 0
    with traced_by(recorder):
        begin = time.perf_counter()
        for number, batch in enumerate(batches, start=1):
            tick = time.perf_counter()
            try:
                engine.ingest(batch)
            except StreamError:
                failed += 1
            ingest_ms.append(1000.0 * (time.perf_counter() - tick))
            updates += batch.size
            if number % SNAPSHOT_EVERY == 0:
                edges = dict(engine.edges)
                for signature in sorted(engine.queries):
                    tick = time.perf_counter()
                    output = engine.snapshot(signature)
                    snapshot_ms.append(1000.0 * (time.perf_counter() - tick))
                    snapshots.append((edges, signature, output))
        finished = time.perf_counter()
    resident = sum(entry["records"]
                   for entry in engine.resident_memory().values())
    work = sum(m.work for m in engine.meter.epochs)
    parallel = sum(m.parallel_time for m in engine.meter.epochs)
    engine.close()

    if verify:
        _check_snapshots(engine, snapshots)
    job = Job(instance=index)
    job.scalars = {"setup_s": setup, "job_s": finished - begin,
                   "ingest_s": sum(ingest_ms) / 1000.0, "updates": updates}
    job.samples = {"op_ms": ingest_ms, "snapshot_ms": snapshot_ms}
    job.counters = (work, parallel, tuple(
        canonical_diff(output) for _e, _s, output in snapshots))
    job.attempted = len(batches) + len(snapshot_ms)
    job.failed = failed
    job.layers = {"meter.work": work, "meter.parallel_time": parallel,
                  "stream.resident_records": resident,
                  "differential.trace_records": resident}
    if recorder is not None:
        job.layers.update(span_layers(recorder))
    return job


def _check_snapshots(engine, snapshots) -> None:
    """Each snapshot equals the oracle on the engine's accumulated edges."""
    for edges, signature, output in snapshots:
        query = engine.queries[signature]
        want = ALGORITHMS[query.name].oracle(_triples(edges), **query.params)
        mismatch = describe_map_mismatch(output_map(output), want)
        check(mismatch is None, f"stream {signature}: {mismatch}")


def instances_for(_workload: str, seeds: List[int],
                  quick: bool) -> List[Instance]:
    shape = STREAM_QUICK if quick else STREAM
    return [Instance(seed, shape) for seed in seeds[:shape.instances]]
