"""The Graphsurge facade (paper Figure 4).

Ties together the stores, GVDL, the view-collection pipeline, and the
analytics executor::

    gs = Graphsurge()
    gs.load_graph("Calls", "nodes.csv", "edges.csv")
    gs.execute("create view long on Calls edges where duration > 10")
    gs.execute('''create view collection hist on Calls
                  [y2018: year <= 2018], [y2019: year <= 2019]''')
    result = gs.run_analytics(Wcc(), "hist", mode=ExecutionMode.ADAPTIVE)
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.aggregates import compute_aggregate_view
from repro.core.computation import GraphComputation
from repro.core.executor import (
    AnalyticsExecutor,
    CollectionRunResult,
    ExecutionMode,
    ViewRunResult,
)
from repro.core.view_collection import (
    MaterializedCollection,
    ViewCollectionDefinition,
)
from repro.errors import UnknownGraphError
from repro.graph.csv_loader import load_graph_csv
from repro.graph.edge_stream import EdgeStream
from repro.graph.property_graph import PropertyGraph
from repro.graph.store import GraphStore, ViewStore
from repro.gvdl.ast import (
    AggregateViewStmt,
    FilteredViewStmt,
    Statement,
    ViewCollectionStmt,
)
from repro.gvdl.parser import parse_program
from repro.gvdl.predicate import compile_predicate


class Graphsurge:
    """A Graphsurge session: graphs, views, collections, analytics.

    Parameters:

    * ``workers`` — worker count for the execution layer.
    * ``backend`` — ``"inline"`` (default: all shards in this process,
      parallel time simulated) or ``"process"`` (one OS process per
      worker; see ``docs/parallel.md``). Counters and outputs are
      byte-identical between backends.
    * ``order_collections`` — default ordering method applied when
      materializing view collections (``identity`` keeps the user order;
      ``christofides`` enables the §4 optimizer).
    """

    def __init__(self, workers: int = 1,
                 order_collections: str = "identity",
                 weight_property: Optional[str] = None,
                 backend: str = "inline"):
        self.workers = workers
        self.backend = backend
        self.order_collections = order_collections
        self.weight_property = weight_property
        self.graphs = GraphStore()
        self.views = ViewStore()
        self.executor = AnalyticsExecutor(workers=workers, backend=backend)

    # -- graph management ---------------------------------------------------------

    def load_graph(self, name: str, nodes_csv, edges_csv) -> PropertyGraph:
        """Import a base graph from CSV files (paper §3)."""
        graph = load_graph_csv(name, nodes_csv, edges_csv)
        self.graphs.add(graph, name)
        return graph

    def add_graph(self, graph: PropertyGraph,
                  name: Optional[str] = None) -> None:
        """Register an in-memory graph (e.g. from the dataset generators)."""
        self.graphs.add(graph, name)

    def mutate_graph(self, name: str, add_nodes=(), add_edges=(),
                     retract_edges=()) -> dict:
        """Append/retract against a base graph in place.

        ``add_nodes`` — iterable of ``(node_id, properties)``;
        ``add_edges`` — iterable of ``(src, dst, properties)``;
        ``retract_edges`` — iterable of ``(src, dst)`` pairs, each removing
        *all* matching edges. Returns mutation counts. Views and
        collections previously materialized from the graph are **not**
        updated — callers that serve them (the :mod:`repro.serve` session)
        must re-materialize; see :meth:`repro.serve.session.ServeSession.mutate`.
        """
        if name not in self.graphs:
            raise UnknownGraphError(f"unknown base graph {name!r}")
        graph = self.graphs.get(name)
        nodes_added = edges_added = edges_removed = 0
        for node_id, properties in add_nodes:
            graph.add_node(int(node_id), properties)
            nodes_added += 1
        for src, dst, properties in add_edges:
            graph.add_edge(int(src), int(dst), properties)
            edges_added += 1
        for src, dst in retract_edges:
            edges_removed += graph.remove_edges(int(src), int(dst))
        return {"nodes_added": nodes_added, "edges_added": edges_added,
                "edges_removed": edges_removed}

    def resolve(self, name: str) -> PropertyGraph:
        """Find a base graph or a materialized (filtered/aggregate) view."""
        if name in self.graphs:
            return self.graphs.get(name)
        if self.views.has_view(name):
            return self.views.get_view(name)
        raise UnknownGraphError(f"unknown graph or view {name!r}")

    # -- GVDL ------------------------------------------------------------------------

    def execute(self, gvdl_text: str) -> List[str]:
        """Run one or more GVDL statements; returns created object names."""
        created: List[str] = []
        for statement in parse_program(gvdl_text):
            created.append(self._execute_statement(statement))
        return created

    def _execute_statement(self, statement: Statement) -> str:
        if isinstance(statement, FilteredViewStmt):
            self._create_filtered_view(statement)
        elif isinstance(statement, ViewCollectionStmt):
            self._create_collection(statement)
        elif isinstance(statement, AggregateViewStmt):
            self._create_aggregate_view(statement)
        else:  # pragma: no cover - parser produces only the above
            raise TypeError(f"unknown statement {statement!r}")
        return statement.name

    def _create_filtered_view(self, statement: FilteredViewStmt) -> None:
        base = self.resolve(statement.source)
        evaluate = compile_predicate(
            statement.predicate, base.edge_schema, base.node_schema)
        view = base.filter_edges(
            lambda edge, src, dst: evaluate(edge.properties, src, dst),
            name=statement.name)
        self.views.add_view(statement.name, view)

    def _create_collection(self, statement: ViewCollectionStmt) -> None:
        base = self.resolve(statement.source)
        definition = ViewCollectionDefinition(
            statement.name, statement.source, statement.views)
        collection = definition.materialize(
            base,
            order_method=self.order_collections,
            weight_property=self.weight_property,
        )
        self.views.add_collection(statement.name, collection)

    def _create_aggregate_view(self, statement: AggregateViewStmt) -> None:
        base = self.resolve(statement.source)
        view = compute_aggregate_view(base, statement)
        self.views.add_view(statement.name, view)

    def explain(self, name: str, checkpoint_path=None,
                run_result=None, analysis=None) -> str:
        """Summarize a materialized collection (similarity, split hints).

        With ``checkpoint_path``, the summary also reports whether a run
        checkpoint exists for the collection — how many views completed
        and where a resumed run would pick up. With ``run_result`` (the
        value returned by :meth:`run_analytics`), it also reports the
        run's per-operator trace memory. With ``analysis`` (an
        :class:`repro.analyze.AnalysisReport`, e.g. from
        :meth:`analyze`), it appends the static-analysis verdict for the
        plan the collection would be run with.
        """
        from repro.core.diagnostics import summarize_collection

        collection = self.views.get_collection(name)
        return summarize_collection(
            collection, checkpoint_path=checkpoint_path,
            run_result=run_result, analysis=analysis).render()

    def analyze(self, computation: GraphComputation, ignore=(),
                concurrency: bool = False, stream: bool = False):
        """Statically analyze the plan a computation would run with.

        Builds the computation's dataflow exactly as a run would (without
        feeding any view) and returns the
        :class:`repro.analyze.AnalysisReport` of the plan analyzer and
        UDF linter. ``concurrency=True`` adds the shard-safety pass
        (``GS-S3xx``: process-backend hazards, pickle probe);
        ``stream=True`` adds the stream-maintainability pass
        (``GS-M4xx``: retraction and compaction hazards for continuous
        queries). Pass the report to :meth:`explain` to render it
        alongside the collection summary.
        """
        from repro.analyze import analyze_computation

        return analyze_computation(computation, workers=self.workers,
                                   ignore=ignore, concurrency=concurrency,
                                   stream=stream)

    # -- persistence ---------------------------------------------------------------

    def save_session(self, directory) -> None:
        """Persist base graphs, materialized views, and collections.

        Layout: ``graphs/`` and ``views/`` hold CSV graph stores;
        ``collections/`` holds one JSON file per collection.
        """
        from pathlib import Path

        from repro.core.persistence import save_collection
        from repro.graph.store import GraphStore

        directory = Path(directory)
        self.graphs.save(directory / "graphs")
        view_store = GraphStore()
        for name in self.views.view_names():
            view_store.add(self.views.get_view(name), name)
        view_store.save(directory / "views")
        collections_dir = directory / "collections"
        collections_dir.mkdir(parents=True, exist_ok=True)
        for name in self.views.collection_names():
            save_collection(self.views.get_collection(name),
                            collections_dir / f"{name}.json")

    @classmethod
    def load_session(cls, directory, **kwargs) -> "Graphsurge":
        """Restore a session written by :meth:`save_session`."""
        from pathlib import Path

        from repro.core.persistence import load_collection
        from repro.graph.store import GraphStore

        directory = Path(directory)
        session = cls(**kwargs)
        session.graphs = GraphStore.load(directory / "graphs")
        views_dir = directory / "views"
        if (views_dir / "manifest.json").exists():
            for name in (loaded := GraphStore.load(views_dir)).names():
                session.views.add_view(name, loaded.get(name))
        collections_dir = directory / "collections"
        if collections_dir.is_dir():
            for path in sorted(collections_dir.glob("*.json")):
                collection = load_collection(path)
                session.views.add_collection(collection.name, collection)
        return session

    # -- analytics ----------------------------------------------------------------------

    def run_analytics(self, computation: GraphComputation, target: str,
                      mode: ExecutionMode = ExecutionMode.ADAPTIVE,
                      batch_size: int = 10,
                      keep_outputs: bool = False,
                      cost_metric: str = "wall",
                      checkpoint_path=None,
                      resume_from=None,
                      budget=None,
                      retry_policy=None,
                      tracer=None,
                      strict: bool = False,
                      sanitize: bool = False
                      ) -> Union[ViewRunResult, CollectionRunResult]:
        """Run a computation on a view, base graph, or view collection.

        The resilience options (``checkpoint_path``, ``resume_from``,
        ``budget``, ``retry_policy`` — see :mod:`repro.core.resilience`)
        apply to collection runs; ``budget`` also guards single-view runs.
        With ``tracer`` (a :class:`repro.observe.TraceSink`) the run is
        traced: per-view critical-path profiles are attached to the
        result, and the sink holds the exportable span stream. Tracing
        never changes the metered cost counters. With ``strict=True`` the
        plan is statically analyzed at build time and the run refuses
        (:class:`repro.errors.AnalysisError`) on any ERROR finding; on
        the process backend the analysis includes the shard-safety pass.
        With ``sanitize=True`` (process backend only) every epoch is
        shadow-executed inline and the run fails
        (:class:`repro.errors.SanitizerError`) at the first divergent
        ``(operator, timestamp, shard)``; a clean sanitized run's
        counters are byte-identical to an unsanitized one.
        """
        executor = self.executor
        if tracer is not None or strict or sanitize:
            executor = AnalyticsExecutor(workers=self.workers,
                                         tracer=tracer, strict=strict,
                                         backend=self.backend,
                                         sanitize=sanitize)
        if self.views.has_collection(target):
            collection: MaterializedCollection = \
                self.views.get_collection(target)
            return executor.run_on_collection(
                computation, collection, mode=mode, batch_size=batch_size,
                keep_outputs=keep_outputs, cost_metric=cost_metric,
                checkpoint_path=checkpoint_path, resume_from=resume_from,
                budget=budget, retry_policy=retry_policy)
        graph = self.resolve(target)
        edges = EdgeStream.from_graph(graph, weight=self.weight_property)
        return executor.run_on_view(computation, edges,
                                    keep_output=True,
                                    view_name=target, budget=budget)

    def stream(self, target: Optional[str], queries,
               compact_every: int = 8, keep_epochs: int = 4,
               journal_path=None):
        """Open a streaming session over a loaded graph or view.

        ``queries`` is a list of computation names or ``(name, params)``
        pairs; each becomes a continuously maintained query seeded with
        the target's current edges (``target=None`` starts from an empty
        graph — every edge arrives via the stream). Returns a
        :class:`repro.stream.StreamEngine` — feed it
        :class:`repro.stream.StreamBatch` appends/retracts via
        ``ingest`` and read per-epoch deltas or on-demand snapshots.
        With ``journal_path`` every ingested batch is journaled so the
        stream can be :meth:`~repro.stream.StreamEngine.resume`-d after
        a crash.
        """
        from repro.stream import StreamEngine

        graph = self.resolve(target) if target else None
        engine = StreamEngine(
            graph, workers=self.workers, backend=self.backend,
            weight_property=self.weight_property,
            compact_every=compact_every, keep_epochs=keep_epochs)
        for entry in queries:
            if isinstance(entry, str):
                engine.register(entry)
            else:
                name, params = entry
                engine.register(name, params)
        if journal_path is not None:
            engine.attach_journal(journal_path)
        return engine

    def profile(self, computation: GraphComputation, target: str,
                mode: ExecutionMode = ExecutionMode.ADAPTIVE,
                batch_size: int = 10,
                cost_metric: str = "wall",
                trace_out=None):
        """Run a computation traced; answer "why is view k slow".

        Returns a :class:`repro.observe.ProfileReport`: the run result
        (with per-view critical-path profiles attached), ``render()`` for
        the text report, ``chrome_trace()``/``write_chrome_trace(path)``
        for a ``chrome://tracing``-loadable timeline, and ``flame()`` for
        a text rollup. ``trace_out`` writes the Chrome trace as part of
        the call. The metered ``total_work``/``parallel_time`` are
        byte-identical to an untraced run.
        """
        from repro.observe import ProfileReport, TraceSink

        sink = TraceSink(self.workers)
        result = self.run_analytics(
            computation, target, mode=mode, batch_size=batch_size,
            cost_metric=cost_metric, tracer=sink)
        report = ProfileReport(result=result, sink=sink, target=target)
        if trace_out is not None:
            report.write_chrome_trace(trace_out)
        return report
