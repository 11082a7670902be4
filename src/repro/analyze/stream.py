"""Pass 3 — stream-maintainability analysis for continuous queries.

A plan registered as a continuous query (:meth:`StreamEngine.register`,
``Graphsurge.stream``, the daemon's ``POST /stream``) is never torn down:
every ingested batch becomes one more epoch, retractions flow through the
whole dataflow, and :meth:`Dataflow.compact` is the only thing bounding
resident state. Plan shapes that are fine for a bounded view collection
become hazards on an unbounded stream — negative differences that cannot
cancel (window expiry retractions drive accumulated multiplicities
negative at snapshot time), retraction waves re-entering ``iterate``
scopes every epoch, and Python-side state that ``compact`` can never
reach.

This pass is opt-in (``analyze(dataflow, stream=True)``);
``StreamEngine.register`` runs it on every query before seeding it and
rejects ERROR-severity plans with an :class:`~repro.errors.AnalysisError`
(HTTP 400 through the daemon). Rule ids are ``GS-M4xx``; the catalog with
examples lives in ``docs/analysis.md``.
"""

from __future__ import annotations

import inspect
import types
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analyze.plan import PlanWalk, _is_cancelling_negate
from repro.analyze.report import Finding, Rule, Severity
from repro.analyze.udf import (
    _RawFinding,
    _callable_name,
    _callable_node,
    _check_external_mutation,
    _suppressed_rules,
    udf_sites,
)
from repro.differential.operators.iterate import IterateOp
from repro.differential.operators.linear import NegateOp

STREAM_RULES: Dict[str, Rule] = {rule.id: rule for rule in (
    Rule("GS-M401", Severity.ERROR, "non-cancelling negate inside iterate",
         "A negate inside an iterate scope is not the record-for-record "
         "cancelling antijoin idiom. Under continuous maintenance every "
         "ingested retraction re-enters the loop as a negative wave that "
         "nothing pairs off, so per-epoch maintenance work grows with "
         "history instead of the batch."),
    Rule("GS-M402", Severity.ERROR, "non-cancelling negate in a maintained "
         "plan",
         "A root-scope negate without cancelling structure lets window "
         "expiry retractions drive accumulated multiplicities negative: "
         "the per-epoch snapshot of a maintained query is an accumulation "
         "and a bare negative multiplicity there is unrepresentable."),
    Rule("GS-M403", Severity.ERROR, "inspect tap accumulates Python-side "
         "state",
         "An inspect callback mutates a closed-over container. That "
         "buffer lives outside every trace, so Dataflow.compact can never "
         "reclaim it: on an unbounded stream it grows with the epoch "
         "count forever. (The batch analyzer exempts inspect taps; a "
         "maintained plan cannot.)"),
    Rule("GS-M404", Severity.WARNING, "nested iterate scopes under "
         "maintenance",
         "An iterate inside an iterate multiplies retraction waves: each "
         "churn batch re-enters the outer fixed point, and every outer "
         "round replays the inner one. Maintenance cost compounds with "
         "nesting depth."),
    Rule("GS-M405", Severity.WARNING, "maintained UDF captures a mutable "
         "container",
         "A callable in a maintained plan closes over a list/dict/set. "
         "Even read-only, the capture is a liability on a stream: the "
         "plan outlives the scope that built the container, and any later "
         "mutation changes results for already-ingested epochs, which "
         "retractions can then never cancel."),
)}


#: Binding values that are code, not data; GS-M405 skips them.
_CODE_TYPES = (types.FunctionType, types.BuiltinFunctionType,
               types.MethodType, types.ModuleType, type)

_MUTABLE_CONTAINERS = (list, dict, set, bytearray)


def _referenced_names(code: types.CodeType) -> Iterable[str]:
    """Global/attribute names referenced by ``code`` and every code object
    nested inside it (comprehensions and lambdas compile to nested code
    objects on Python < 3.12)."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _referenced_names(const)


def closure_bindings(func) -> Dict[str, Any]:
    """``name -> captured value`` for a callable's closure cells, argument
    defaults, and referenced module globals.

    Best-effort and read-only; non-function callables (builtins, partials
    without ``__code__``) yield an empty mapping.
    """
    func = inspect.unwrap(func)
    if inspect.ismethod(func):
        func = func.__func__
    if not inspect.isfunction(func):
        return {}
    bindings: Dict[str, Any] = {}
    code = func.__code__
    for name, cell in zip(code.co_freevars, func.__closure__ or ()):
        try:
            bindings[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue
    defaults = func.__defaults__ or ()
    if defaults:
        arg_names = code.co_varnames[:code.co_argcount]
        for name, value in zip(arg_names[-len(defaults):], defaults):
            bindings.setdefault(name, value)
    for name, value in (func.__kwdefaults__ or {}).items():
        bindings.setdefault(name, value)
    module_globals = getattr(func, "__globals__", None) or {}
    for name in _referenced_names(code):
        if name in module_globals and name not in bindings:
            bindings[name] = module_globals[name]
    return bindings


def _finding(rule_id: str, where: str, message: str,
             hint: str = "") -> Finding:
    rule = STREAM_RULES[rule_id]
    return Finding(rule=rule.id, severity=rule.severity, operator=where,
                   message=message, hint=hint)


def check_stream(dataflow,
                 walk: Optional[PlanWalk] = None
                 ) -> Tuple[List[Finding], int]:
    """Run every stream-maintainability rule; returns (findings, sites)."""
    if walk is None:
        walk = PlanWalk(dataflow)
    findings: List[Finding] = []
    for op in walk.ops:
        if isinstance(op, NegateOp):
            if _is_cancelling_negate(op):
                continue
            if op.scope.depth >= 2:
                findings.append(_finding(
                    "GS-M401", walk.path(op),
                    f"negate {op.name}#{op.index} sits inside iterate "
                    f"scope depth {op.scope.depth} with no cancelling "
                    f"structure; streamed retractions re-enter the loop "
                    f"as unpaired negative waves every epoch",
                    hint="use the antijoin idiom "
                         "A.concat(A.semijoin(K).negate()) whose "
                         "negatives cancel record-for-record, or move "
                         "the subtraction out of the loop"))
            else:
                findings.append(_finding(
                    "GS-M402", walk.path(op),
                    f"negate {op.name}#{op.index} has no cancelling "
                    f"structure; window-expiry retractions on a "
                    f"maintained stream can drive the accumulated "
                    f"snapshot negative",
                    hint="pair the negate with the stream it subtracts "
                         "from (antijoin idiom) or guard it with a "
                         "reduce before the capture"))
        elif isinstance(op, IterateOp) and op.scope.depth >= 2:
            findings.append(_finding(
                "GS-M404", walk.path(op),
                f"iterate {op.name}#{op.index} is nested at scope depth "
                f"{op.scope.depth}; each churn batch replays the inner "
                f"fixed point once per outer round",
                hint="flatten the loops or accept compounding per-epoch "
                     "maintenance cost"))
    sites = 0
    for op, role, func in udf_sites(dataflow):
        sites += 1
        where = f"{walk.path(op)} udf {_callable_name(func)}"
        if role == "inspect":
            node, lines, base = _callable_node(func)
            if node is None:
                continue
            raw: List[_RawFinding] = []
            for item in _check_external_mutation(node):
                raw.append(_RawFinding(
                    "GS-M403", item.line,
                    f"{item.message}; this buffer is unreachable by "
                    f"Dataflow.compact and grows with the epoch count on "
                    f"an unbounded stream",
                    hint="snapshot through a capture (compactable) "
                         "instead of accumulating in Python"))
            if base != 1:
                for item in raw:
                    item.line -= base - 1
            for item in raw:
                ignore = _suppressed_rules(lines[0]) if lines else set()
                if 1 <= item.line <= len(lines):
                    ignore |= _suppressed_rules(lines[item.line - 1])
                if item.rule in ignore:
                    continue
                findings.append(_finding(item.rule, where, item.message,
                                         item.hint))
            continue
        node, lines, _base = _callable_node(func)
        def_ignores = _suppressed_rules(lines[0]) if lines else set()
        if "GS-M405" in def_ignores:
            continue
        for name, value in sorted(closure_bindings(func).items()):
            if isinstance(value, _CODE_TYPES):
                continue
            if isinstance(value, _MUTABLE_CONTAINERS):
                findings.append(_finding(
                    "GS-M405", where,
                    f"captures mutable {type(value).__name__} {name!r} in "
                    f"a maintained plan; later mutation would change "
                    f"results for epochs the stream has already emitted",
                    hint="capture an immutable value (tuple/frozenset) "
                         "instead"))
    return findings, sites
