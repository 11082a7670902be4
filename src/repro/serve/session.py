"""Resident session state: load once, keep arrangements hot, feed deltas.

The batch library rebuilds graph, EBM, and dataflow state on every
invocation; the daemon keeps them *resident*. A
:class:`ResidentDataflow` holds one built differential dataflow per
computation signature together with the input multiset it has been fed so
far. Answering a request for any view — of any collection, at any epoch —
is then: diff the requested edge multiset against what the dataflow
already holds, feed only that delta as the next epoch, and read the
output. Overlapping view collections across *separate requests* therefore
share arrangements and traces exactly the way views inside one batch run
do (paper §3.2.2), and the work meter proves it: the second, overlapping
request charges only its difference.

:class:`ServeSession` owns the :class:`repro.core.system.Graphsurge`
facade, the resident registry, the session epoch (bumped by mutations),
and the journal of state-changing operations that the lifecycle layer
checkpoints through the PR 1 journal format.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms import (
    BellmanFord,
    Bfs,
    CompositeScore,
    KCore,
    KTruss,
    LabelPropagation,
    MaxDegree,
    Mpsp,
    OutDegrees,
    PageRank,
    PersonalizedPageRank,
    Scc,
    Triangles,
    Wcc,
)
from repro.core.computation import GraphComputation
from repro.core.resilience import (
    CheckpointState,
    CheckpointWriter,
    FaultPlan,
    RunBudget,
    encode_value,
    load_checkpoint,
)
from repro.core.system import Graphsurge
from repro.differential.dataflow import Dataflow
from repro.differential.multiset import Diff
from repro.errors import CheckpointError, RequestError, UnknownGraphError
from repro.graph.edge_stream import EdgeStream, edge_diff_to_input
from repro.graph.store import ViewStore
from repro.observe.tracer import TraceSink, attached
from repro.timely.meter import WorkSnapshot
from repro.timely.worker import canonical_order_key

#: Computation names the server accepts, with their parameter builders.
_BUILDERS = {
    "wcc": lambda p: Wcc(),
    "scc": lambda p: Scc(),
    "bfs": lambda p: Bfs(source=p.get("source")),
    "bf": lambda p: BellmanFord(source=p.get("source")),
    "sssp": lambda p: BellmanFord(source=p.get("source")),
    "bellman-ford": lambda p: BellmanFord(source=p.get("source")),
    "pagerank": lambda p: PageRank(iterations=int(p.get("iterations", 10))),
    "pr": lambda p: PageRank(iterations=int(p.get("iterations", 10))),
    "mpsp": lambda p: Mpsp([(int(s), int(d))
                            for s, d in p.get("pairs", ())]),
    "kcore": lambda p: KCore(int(p.get("k", 2))),
    "triangles": lambda p: Triangles(),
    "degrees": lambda p: OutDegrees(),
    "maxdegree": lambda p: MaxDegree(),
    # Community & scoring pack (docs/algorithms.md).
    "labelprop": lambda p: LabelPropagation(
        rounds=int(p.get("rounds", 8))),
    "lpa": lambda p: LabelPropagation(rounds=int(p.get("rounds", 8))),
    "ppr": lambda p: PersonalizedPageRank(
        [int(s) for s in p.get("seeds", ())],
        iterations=int(p.get("iterations", 10))),
    "ktruss": lambda p: KTruss(int(p.get("k", 3))),
    "score": lambda p: CompositeScore(
        degree_weight=int(p.get("degree_weight", 1)),
        triangle_weight=int(p.get("triangle_weight", 1)),
        rank_weight=int(p.get("rank_weight", 1)),
        iterations=int(p.get("iterations", 5))),
}

_KNOWN_PARAMS = {"source", "iterations", "k", "pairs", "rounds", "seeds",
                 "degree_weight", "triangle_weight", "rank_weight"}


def build_request_computation(name: str,
                              params: Optional[Dict[str, Any]] = None
                              ) -> GraphComputation:
    """Instantiate a computation from a request's name + parameter dict."""
    params = params or {}
    if not isinstance(params, dict):
        raise RequestError("'params' must be a JSON object")
    unknown = set(params) - _KNOWN_PARAMS
    if unknown:
        raise RequestError(
            f"unknown computation parameter(s): {sorted(unknown)}")
    builder = _BUILDERS.get(str(name).lower())
    if builder is None:
        raise RequestError(
            f"unknown computation {name!r}; expected one of "
            f"{sorted(set(_BUILDERS))}")
    return builder(params)


def computation_signature(name: str,
                          params: Optional[Dict[str, Any]] = None) -> str:
    """A canonical string identity for (computation, parameters)."""
    return json.dumps({"computation": str(name).lower(),
                       "params": params or {}},
                      sort_keys=True, separators=(",", ":"))


def multiset_delta(current: Diff, target: Diff) -> Diff:
    """The difference that advances multiset ``current`` to ``target``."""
    delta: Diff = {}
    for record, mult in target.items():
        change = mult - current.get(record, 0)
        if change:
            delta[record] = change
    for record, mult in current.items():
        if record not in target and mult:
            delta[record] = -mult
    return delta


def render_output(output: Diff) -> List[List[Any]]:
    """JSON-safe, deterministically ordered ``[record, multiplicity]``.

    Ordered by the canonical record order, not ``repr``: records that
    compare equal across numeric spellings (``3`` vs ``3.0``, which
    ``stable_hash`` canonicalizes) must render in the same position no
    matter which spelling a run's dict representative holds.
    """
    return [[encode_value(record), mult]
            for record, mult in sorted(
                output.items(),
                key=lambda item: canonical_order_key(item[0]))]


class ResidentDataflow:
    """One built dataflow kept hot across requests for one computation.

    ``current`` is the input multiset the dataflow has absorbed; a failed
    ``step`` may leave operator state mid-epoch, so any exception poisons
    the instance — the next ``advance`` rebuilds from an empty dataflow
    and feeds the full target (the same rebuild discipline the batch
    executor applies to retries).
    """

    def __init__(self, computation: GraphComputation, workers: int = 1,
                 fault_plan: Optional[FaultPlan] = None):
        self.computation = computation
        self.workers = workers
        self.fault_plan = fault_plan
        self.current: Diff = {}
        self.dataflow: Optional[Dataflow] = None
        self.capture = None
        self.epochs_fed = 0
        self.rebuilds = 0
        #: Whether the *current build* has been stepped at least once.
        #: The zero-delta shortcut in :meth:`advance` is gated on this,
        #: not on the lifetime ``epochs_fed`` counter: a rebuilt dataflow
        #: has no epoch to read output from until it has been stepped.
        self._stepped = False

    def _build(self) -> None:
        dataflow = Dataflow(workers=self.workers,
                            fault_plan=self.fault_plan)
        edges = dataflow.new_input("edges")
        result = self.computation.build(dataflow, edges)
        self.capture = dataflow.capture(result, "results")
        self.dataflow = dataflow
        self.current = {}
        self._stepped = False
        self.rebuilds += 1

    def poison(self) -> None:
        self.dataflow = None
        self.capture = None
        self.current = {}
        self._stepped = False

    def advance(self, target: Diff, budget: Optional[RunBudget] = None,
                tracer: Optional[TraceSink] = None
                ) -> Tuple[Diff, WorkSnapshot]:
        """Step the dataflow to the ``target`` input multiset.

        Returns the accumulated output and the work spent on this step
        alone. The step is skipped entirely when the delta is empty (the
        dataflow is already *at* the target) — zero work, by construction.
        """
        if self.dataflow is None:
            self._build()
        dataflow = self.dataflow
        delta = multiset_delta(self.current, target)
        before = dataflow.meter.snapshot()
        if not delta and self._stepped:
            output = self.capture.value_at_epoch(dataflow.epoch)
            return output, before.delta(dataflow.meter.snapshot())
        dataflow.set_budget(budget)
        try:
            with attached(dataflow, tracer):
                epoch = dataflow.step({"edges": delta})
        except BaseException:
            self.poison()
            raise
        finally:
            if self.dataflow is not None:
                self.dataflow.set_budget(None)
        self.current = dict(target)
        self.epochs_fed += 1
        self._stepped = True
        output = self.capture.value_at_epoch(epoch)
        return output, before.delta(dataflow.meter.snapshot())

    def advance_by(self, delta: Diff, budget: Optional[RunBudget] = None,
                   tracer: Optional[TraceSink] = None,
                   want_output: bool = False
                   ) -> Tuple[Optional[Diff], Diff, WorkSnapshot]:
        """Absorb an incremental input ``delta`` as one epoch.

        The streaming path: the caller already knows the change, so no
        multiset diffing against ``current`` happens and — unlike
        :meth:`advance` — reading the full accumulated output is opt-in
        (``want_output``), keeping per-epoch cost proportional to the
        batch rather than the graph. Returns ``(output or None,
        output_delta, work)`` where ``output_delta`` is the consolidated
        result change this epoch emitted.

        Raises :class:`~repro.errors.DataflowError` when the resident has
        no built dataflow: an incremental delta is only meaningful
        relative to state this build has absorbed, so after a poison the
        caller must re-seed via :meth:`advance` with the full target.
        """
        from repro.differential.multiset import consolidate

        from repro.errors import DataflowError

        if self.dataflow is None:
            raise DataflowError(
                "advance_by on an unbuilt resident dataflow; re-seed with "
                "advance(full_target) after a rebuild")
        dataflow = self.dataflow
        delta = consolidate(dict(delta))
        before = dataflow.meter.snapshot()
        if not delta and self._stepped:
            return (self.capture.value_at_epoch(dataflow.epoch)
                    if want_output else None,
                    {}, before.delta(dataflow.meter.snapshot()))
        dataflow.set_budget(budget)
        try:
            with attached(dataflow, tracer):
                epoch = dataflow.step({"edges": delta})
        except BaseException:
            self.poison()
            raise
        finally:
            if self.dataflow is not None:
                self.dataflow.set_budget(None)
        for record, mult in delta.items():
            count = self.current.get(record, 0) + mult
            if count:
                self.current[record] = count
            else:
                self.current.pop(record, None)
        self.epochs_fed += 1
        self._stepped = True
        output_delta = self.capture.diff_at((epoch,))
        output = (self.capture.value_at_epoch(epoch)
                  if want_output else None)
        return output, output_delta, before.delta(dataflow.meter.snapshot())

    def record_counts(self) -> Dict[str, int]:
        """Stored trace entries per operator (resident-memory figure)."""
        if self.dataflow is None:
            return {}
        from repro.differential.debug import operator_record_counts

        return operator_record_counts(self.dataflow)


class ServeSession:
    """Everything one daemon instance keeps resident between requests."""

    JOURNAL_KIND = "serve-session"

    def __init__(self, system: Optional[Graphsurge] = None,
                 workers: int = 1,
                 fault_plan: Optional[FaultPlan] = None):
        self.gs = system if system is not None else Graphsurge(
            workers=workers)
        self.workers = self.gs.workers
        self.fault_plan = fault_plan
        #: Bumped by every mutation; tags cache entries and responses.
        self.epoch = 0
        self._residents: Dict[str, ResidentDataflow] = {}
        #: At most one streaming session per daemon (see ``/stream``).
        self._stream = None
        #: Ordered journal of state-changing operations (GVDL + mutations)
        #: — what the lifecycle layer checkpoints and restore replays.
        self.journal: List[dict] = []

    # -- state-changing operations -------------------------------------------

    def execute_gvdl(self, text: str) -> List[str]:
        """Run GVDL statements; journals them for checkpoint/restore."""
        created = self.gs.execute(text)
        self.journal.append({"kind": "gvdl", "text": text})
        return created

    def mutate(self, graph: str, add_nodes=(), add_edges=(),
               retract_edges=()) -> dict:
        """Append/retract edges, bump the epoch, re-materialize views.

        The base graph mutates in place; views and collections are
        re-derived by replaying the journaled GVDL against the mutated
        graph (they are *definitions* over the graph, not data in their
        own right). Resident dataflows survive untouched: their input
        state is an edge multiset, so the next request absorbs the
        mutation as one small delta instead of a rebuild.
        """
        counts = self.gs.mutate_graph(
            graph, add_nodes=add_nodes, add_edges=add_edges,
            retract_edges=retract_edges)
        self.journal.append({
            "kind": "mutate", "graph": graph,
            "add_nodes": [[node, props] for node, props in add_nodes],
            "add_edges": [[src, dst, props]
                          for src, dst, props in add_edges],
            "retract_edges": [[src, dst] for src, dst in retract_edges],
        })
        self.epoch += 1
        self._rematerialize_views()
        return dict(counts, epoch=self.epoch)

    def _rematerialize_views(self) -> None:
        self.gs.views = ViewStore()
        for record in self.journal:
            if record["kind"] == "gvdl":
                self.gs.execute(record["text"])

    # -- serving computations -------------------------------------------------

    def resident_for(self, signature: str,
                     computation: GraphComputation) -> ResidentDataflow:
        resident = self._residents.get(signature)
        if resident is None:
            resident = ResidentDataflow(computation, workers=self.workers,
                                        fault_plan=self.fault_plan)
            self._residents[signature] = resident
        return resident

    def run(self, signature: str, computation: GraphComputation,
            target: str, include_output: bool = True,
            budget: Optional[RunBudget] = None,
            tracer: Optional[TraceSink] = None) -> dict:
        """Answer one analytics request from resident state.

        For a collection target every view is fed as a delta off the
        resident dataflow's current input state; for a graph or view
        target the full edge multiset is the (single) target state. The
        payload's per-view ``work`` figures come straight off the meter.
        """
        resident = self.resident_for(signature, computation)
        directed = computation.directed
        views: List[dict] = []
        if self.gs.views.has_collection(target):
            collection = self.gs.views.get_collection(target)
            view_targets = [
                (collection.view_names[index],
                 edge_diff_to_input(collection.full_view_edges(index),
                                    directed=directed))
                for index in range(collection.num_views)]
        else:
            graph = self.gs.resolve(target)
            edges = EdgeStream.from_graph(
                graph, weight=self.gs.weight_property)
            view_targets = [(target, edges.as_input_diff(directed=directed))]
        total_work = 0
        total_parallel = 0
        for view_name, target_input in view_targets:
            mark = tracer.mark() if tracer is not None else 0
            output, spent = resident.advance(target_input, budget=budget,
                                             tracer=tracer)
            total_work += spent.total_work
            total_parallel += spent.parallel_time
            view_payload = {
                "view": view_name,
                "work": spent.total_work,
                "parallel_time": spent.parallel_time,
                "output_size": len(output),
            }
            if include_output:
                view_payload["output"] = render_output(output)
            if tracer is not None:
                from repro.observe.profile import profile_view

                profile = profile_view(tracer, view_name, mark,
                                       tracer.mark())
                view_payload["profile"] = {
                    "critical_path_length": profile.critical_path.length,
                    "top": [[item.operator, item.units]
                            for item in profile.critical_path.top(3)],
                }
            views.append(view_payload)
        return {
            "computation": computation.name,
            "target": target,
            "epoch": self.epoch,
            "views": views,
            "total_work": total_work,
            "total_parallel_time": total_parallel,
        }

    def close(self) -> None:
        """Drop every resident dataflow and close the stream session.

        Idempotent. The serve lifecycle calls this after the drain so an
        open stream journal is flushed and closed before the daemon
        exits.
        """
        for resident in self._residents.values():
            resident.poison()
        self._residents.clear()
        self.stream_close()

    # -- streaming -------------------------------------------------------------
    #
    # The imports are deferred: repro.stream builds on ResidentDataflow
    # from this module, so importing it at module scope would be a cycle.

    def _require_stream(self):
        if self._stream is None:
            raise RequestError(
                "no stream session is open; POST /stream with "
                "action 'open' first")
        return self._stream

    def stream_open(self, graph: Optional[str],
                    queries: List[Tuple[str, dict]]) -> dict:
        """Open the daemon's streaming session against a base graph."""
        from repro.stream import StreamEngine

        if self._stream is not None:
            raise RequestError(
                "a stream session is already open; close it first")
        base = self.gs.resolve(graph) if graph else None
        engine = StreamEngine(
            base, workers=self.workers,
            weight_property=self.gs.weight_property,
            fault_plan=self.fault_plan)
        try:
            signatures = [engine.register(name, params)
                          for name, params in queries]
        except BaseException:
            engine.close()
            raise
        self._stream = engine
        return {"queries": signatures, "stream": engine.describe()}

    def stream_ingest(self, appends, retracts) -> dict:
        """Absorb one append/retract batch as the next stream epoch."""
        from repro.stream import StreamBatch

        engine = self._require_stream()
        return engine.ingest(
            StreamBatch(appends=appends, retracts=retracts))

    def stream_snapshot(self, signature: str) -> dict:
        engine = self._require_stream()
        if signature not in engine.queries:
            # Accept a bare computation name for parameterless queries.
            named = computation_signature(signature, {})
            if named in engine.queries:
                signature = named
        output = engine.snapshot(signature)
        return {"query": signature, "epoch": engine.epoch,
                "output": render_output(output)}

    def stream_describe(self) -> dict:
        engine = self._require_stream()
        return dict(engine.describe(),
                    resident_memory=engine.resident_memory())

    def stream_close(self) -> dict:
        """Tear down the stream session (idempotent)."""
        engine, self._stream = self._stream, None
        epoch = 0
        if engine is not None:
            epoch = engine.epoch
            engine.close()
        return {"closed": engine is not None, "epoch": epoch}

    # -- introspection ---------------------------------------------------------

    def resident_memory(self) -> Dict[str, Any]:
        """Per-signature stored-record counts (the ``trace_memory`` view)."""
        residents = {}
        total = 0
        for signature, resident in sorted(self._residents.items()):
            counts = resident.record_counts()
            records = sum(counts.values())
            total += records
            residents[signature] = {
                "records": records,
                "epochs_fed": resident.epochs_fed,
                "rebuilds": resident.rebuilds,
                "operators": len(counts),
            }
        payload = {"total_records": total, "residents": residents}
        if self._stream is not None:
            payload["stream"] = self._stream.resident_memory()
        return payload

    def describe(self) -> Dict[str, Any]:
        return {
            "graphs": list(self.gs.graphs.names()),
            "views": list(self.gs.views.view_names()),
            "collections": list(self.gs.views.collection_names()),
            "epoch": self.epoch,
            "journal_entries": len(self.journal),
            "workers": self.workers,
        }

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self, path) -> int:
        """Write the journal through the PR 1 checkpoint format.

        One checksummed line per journaled operation; a torn final line
        on crash is tolerated by :func:`load_checkpoint` exactly as for
        run checkpoints. Returns the number of records written.
        """
        header = {
            "kind": self.JOURNAL_KIND,
            "graphs": sorted(self.gs.graphs.names()),
            "epoch": self.epoch,
            "num_views": len(self.journal),
        }
        writer = CheckpointWriter.fresh(path, header)
        try:
            for index, record in enumerate(self.journal):
                writer.append_view(dict(record, index=index))
        finally:
            writer.close()
        return len(self.journal)

    def restore(self, path) -> Optional[CheckpointState]:
        """Replay a session checkpoint written by :meth:`checkpoint`.

        The base graphs must already be loaded (the daemon loads the same
        ``--load`` CSVs); the journal replays GVDL and mutations on top,
        reproducing views, collections, and the epoch counter.
        """
        state = load_checkpoint(path)
        if state is None:
            return None
        if state.header.get("kind") != self.JOURNAL_KIND:
            raise CheckpointError(
                f"checkpoint {path} is not a serve-session journal "
                f"(kind={state.header.get('kind')!r})")
        for graph in state.header.get("graphs", ()):
            if graph not in self.gs.graphs:
                raise UnknownGraphError(
                    f"checkpoint {path} expects base graph {graph!r}; "
                    f"load it before restoring")
        for record in state.views:
            if record["kind"] == "gvdl":
                self.execute_gvdl(record["text"])
            elif record["kind"] == "mutate":
                self.mutate(
                    record["graph"],
                    add_nodes=[(node, props)
                               for node, props in record["add_nodes"]],
                    add_edges=[(src, dst, props)
                               for src, dst, props in record["add_edges"]],
                    retract_edges=[(src, dst)
                                   for src, dst in record["retract_edges"]])
            else:
                raise CheckpointError(
                    f"unknown serve journal record kind "
                    f"{record['kind']!r} in {path}")
        return state
