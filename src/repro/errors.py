"""Exception hierarchy for the Graphsurge reproduction.

All library errors derive from :class:`GraphsurgeError` so callers can catch
a single base class at API boundaries. Every error renders to a uniform
machine-readable payload via :meth:`GraphsurgeError.to_payload` —
``{"error": <code>, "message": <text>, "context": {...}}`` — which is what
the serving layer (:mod:`repro.serve`) returns as JSON error bodies. The
class attributes ``code`` (a stable kebab-case identifier) and
``http_status`` (the status the server maps the error to) are part of the
public contract; see ``docs/serving.md`` for the full table.

Errors that reject bad *configuration* (negative budgets, invalid
algorithm parameters) derive from :class:`ConfigError`, which is both a
:class:`GraphsurgeError` and a :class:`ValueError` so legacy callers that
caught ``ValueError`` keep working.
"""

from __future__ import annotations

from typing import Any, Dict


class GraphsurgeError(Exception):
    """Base class for all errors raised by this library.

    Subclasses set ``code`` (stable machine-readable identifier) and
    ``http_status`` (what the HTTP serving layer maps the error to), and
    override :meth:`payload_context` to expose their structured fields.
    """

    code = "internal-error"
    http_status = 500

    def payload_context(self) -> Dict[str, Any]:
        """Structured, JSON-safe fields specific to this error type."""
        return {}

    def to_payload(self) -> Dict[str, Any]:
        """Render as the uniform machine-readable error payload."""
        return {
            "error": self.code,
            "message": str(self),
            "context": self.payload_context(),
        }


class ConfigError(GraphsurgeError, ValueError):
    """Invalid configuration or parameters on a user-facing path.

    Doubles as a :class:`ValueError` for backward compatibility with
    callers that predate the unified hierarchy.
    """

    code = "invalid-config"
    http_status = 400


class GvdlSyntaxError(GraphsurgeError):
    """A GVDL statement could not be tokenized or parsed.

    Carries the offending position so tools can point at the source text.
    """

    code = "gvdl-syntax"
    http_status = 400

    def __init__(self, message: str, position: int = -1, text: str = ""):
        self.position = position
        self.text = text
        if position >= 0 and text:
            snippet = text[max(0, position - 20):position + 20]
            message = f"{message} (at offset {position}: ...{snippet!r}...)"
        super().__init__(message)

    def payload_context(self) -> Dict[str, Any]:
        return {"position": self.position}


class GvdlTypeError(GraphsurgeError):
    """A GVDL predicate or aggregate references properties inconsistently."""

    code = "gvdl-type"
    http_status = 400


class UnknownGraphError(GraphsurgeError):
    """A statement referenced a graph or view name that is not in the store."""

    code = "unknown-graph"
    http_status = 404


class UnknownPropertyError(GraphsurgeError):
    """A predicate referenced a property that does not exist on the graph."""

    code = "unknown-property"
    http_status = 400


class SchemaError(GraphsurgeError):
    """Graph data did not conform to the declared schema."""

    code = "schema"
    http_status = 400


class DataflowError(GraphsurgeError):
    """The differential dataflow graph was constructed or driven illegally."""

    code = "dataflow"


class ComputationError(GraphsurgeError):
    """A user analytics computation misbehaved (bad records, wrong shape)."""

    code = "computation"


class StreamError(GraphsurgeError, ValueError):
    """An edge-stream batch could not be applied to the live graph.

    Raised by the streaming engine when a batch is inconsistent with the
    accumulated edge multiset — most commonly a retraction of an edge
    that is not present (would drive a multiplicity negative). The
    engine's state is unchanged when this is raised: the offending batch
    is rejected atomically, before any dataflow sees an epoch.
    """

    code = "stream"
    http_status = 400


class OrderingError(GraphsurgeError):
    """The collection ordering optimizer was given unusable input."""

    code = "ordering"
    http_status = 400


class StoreError(GraphsurgeError):
    """Persistence (view store / graph store) failed."""

    code = "store"


class CheckpointError(StoreError):
    """A run checkpoint could not be loaded or does not match the run."""

    code = "checkpoint"


class InjectedFault(GraphsurgeError):
    """A deterministic test fault fired (see :mod:`repro.core.resilience`).

    Carries the fault site and the invocation index at which it fired so
    recovery tests can assert exactly which failure they exercised.
    """

    code = "injected-fault"

    def __init__(self, site: str, invocation: int, context: str = ""):
        self.site = site
        self.invocation = invocation
        self.context = context
        detail = f" ({context})" if context else ""
        super().__init__(
            f"injected fault at site {site!r}, invocation "
            f"{invocation}{detail}")

    def payload_context(self) -> Dict[str, Any]:
        return {"site": self.site, "invocation": self.invocation}


class AnalysisError(GraphsurgeError):
    """Strict mode refused a plan with ERROR-severity analyzer findings.

    Carries the full :class:`repro.analyze.AnalysisReport` as ``report``
    so callers can render every finding, not just the first.
    """

    code = "analysis"
    http_status = 400

    def __init__(self, report):
        self.report = report
        errors = report.errors()
        head = errors[0] if errors else None
        summary = (f"{head.rule} {head.operator}: {head.message}"
                   if head is not None else "no findings")
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(
            f"static analysis found {len(errors)} ERROR finding(s); "
            f"first: {summary}{more}. Run analyze() or the `analyze` CLI "
            f"subcommand for the full report, or drop --strict to run "
            f"anyway.")

    def payload_context(self) -> Dict[str, Any]:
        errors = self.report.errors()
        return {"errors": len(errors),
                "rules": sorted({finding.rule for finding in errors})}


class BudgetExceededError(GraphsurgeError):
    """A :class:`repro.core.resilience.RunBudget` limit was crossed.

    Structured: ``limit`` names the exhausted resource (``wall_seconds``,
    ``work``, or ``iterations``), ``spent``/``allowed`` quantify it, and
    ``site`` says where enforcement tripped. When the analytics executor
    re-raises, ``partial`` holds a ``CollectionRunResult`` of the views
    completed before the budget ran out, so callers keep their progress.
    The serving layer maps this to HTTP 503: the request's deadline or
    work budget ran out, not the client's fault.
    """

    code = "budget-exhausted"
    http_status = 503

    def __init__(self, limit: str, spent, allowed, site: str = ""):
        self.limit = limit
        self.spent = spent
        self.allowed = allowed
        self.site = site
        self.partial = None
        where = f" at {site}" if site else ""
        super().__init__(
            f"run budget exceeded{where}: {limit} {spent} > "
            f"allowed {allowed}")

    def payload_context(self) -> Dict[str, Any]:
        return {"limit": self.limit, "spent": self.spent,
                "allowed": self.allowed, "site": self.site}


# -- serving-layer errors -----------------------------------------------------


class ServeError(GraphsurgeError):
    """Base class for errors raised by the :mod:`repro.serve` daemon."""

    code = "serve"


class RequestError(ServeError):
    """A malformed HTTP request (bad JSON body, missing fields, bad route)."""

    code = "bad-request"
    http_status = 400


class OverloadedError(ServeError):
    """Admission control shed the request: queue full (HTTP 429)."""

    code = "overloaded"
    http_status = 429

    def __init__(self, inflight: int, queued: int, max_inflight: int,
                 max_queue: int):
        self.inflight = inflight
        self.queued = queued
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        super().__init__(
            f"server overloaded: {inflight} in flight, {queued} queued "
            f"(limits {max_inflight}/{max_queue}); retry later")

    def payload_context(self) -> Dict[str, Any]:
        return {"inflight": self.inflight, "queued": self.queued,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue}


class CircuitOpenError(ServeError):
    """A per-algorithm circuit breaker is open: fail fast (HTTP 503)."""

    code = "circuit-open"
    http_status = 503

    def __init__(self, name: str, failures: int, retry_after: float):
        self.name = name
        self.failures = failures
        self.retry_after = retry_after
        super().__init__(
            f"circuit breaker for {name!r} is open after {failures} "
            f"consecutive failure(s); retry in {retry_after:.1f}s")

    def payload_context(self) -> Dict[str, Any]:
        return {"breaker": self.name, "failures": self.failures,
                "retry_after": round(self.retry_after, 3)}


class ShuttingDownError(ServeError):
    """The server is draining and refuses new work (HTTP 503)."""

    code = "shutting-down"
    http_status = 503
