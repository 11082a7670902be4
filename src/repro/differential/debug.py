"""Introspection and debugging tools for differential dataflows.

* :func:`to_dot` — render the operator graph (with iterate scopes as
  clusters) in Graphviz DOT, for understanding what a computation built.
* :func:`trace_stats` — per-operator state-size statistics: keys held,
  difference entries, pending tasks. Useful for finding state blowups.
* :func:`check_consistency` — re-derive every keyed operator's output from
  its input trace at a probe time and compare against the stored output
  trace: a direct executable statement of the differential invariant
  ``Out(t) = Op(In(t))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.differential.dataflow import Dataflow, Scope
from repro.differential.multiset import consolidate
from repro.differential.operators.arrange import (
    ArrangeEnterOp,
    ArrangeOp,
    JoinArrangedOp,
)
from repro.differential.operators.base import Operator
from repro.differential.operators.iterate import IterateOp, VariableOp
from repro.differential.operators.join import JoinOp
from repro.differential.operators.reduce import ReduceOp
from repro.differential.timestamp import Time


def _scope_ops(dataflow: Dataflow) -> Dict[Scope, List[Operator]]:
    return dataflow._ops_by_scope  # noqa: SLF001 - debug tooling


_FLAG_COLORS = {"error": "red", "warning": "yellow"}


def _flagged_operators(report) -> Dict[int, str]:
    """Worst finding severity per operator index, from an AnalysisReport.

    Finding locations are operator paths (``.../name#index``, UDF
    findings append `` udf <callable>``); the ``#index`` token addresses
    the node.
    """
    import re

    flagged: Dict[int, str] = {}
    for finding in report.findings:
        match = re.search(r"#(\d+)", finding.operator)
        if match is None:
            continue
        index = int(match.group(1))
        severity = finding.severity.value
        if flagged.get(index) != "error":
            flagged[index] = severity
    return flagged


def to_dot(dataflow: Dataflow, report=None) -> str:
    """Render the dataflow as Graphviz DOT with scopes as clusters.

    With ``report`` (a :class:`repro.analyze.AnalysisReport`), operators
    carrying findings are filled red (ERROR) or yellow (WARNING), so the
    analyzer's verdict is visible in the rendered graph.
    """
    flagged = _flagged_operators(report) if report is not None else {}
    lines = ["digraph dataflow {", "  rankdir=LR;"]

    def emit_scope(scope: Scope, indent: str) -> None:
        for op in _scope_ops(dataflow).get(scope, ()):
            shape = "box"
            if isinstance(op, (ReduceOp, VariableOp)):
                shape = "ellipse"
            elif isinstance(op, JoinOp):
                shape = "diamond"
            elif isinstance(op, IterateOp):
                shape = "octagon"
            color = _FLAG_COLORS.get(flagged.get(op.index, ""))
            style = (f' style=filled fillcolor={color}'
                     if color is not None else "")
            lines.append(
                f'{indent}n{op.index} [label="{op.name}" '
                f'shape={shape}{style}];')
        for child in scope.children:
            lines.append(f"{indent}subgraph cluster_{id(child)} {{")
            lines.append(f'{indent}  label="iterate";')
            emit_scope(child, indent + "  ")
            lines.append(f"{indent}}}")

    emit_scope(dataflow.root, "  ")
    for scope, ops in _scope_ops(dataflow).items():
        for op in ops:
            for downstream, port in op.downstream:
                style = ""
                if isinstance(downstream, VariableOp) and port == 1:
                    style = ' [style=dashed label="feedback"]'
                lines.append(
                    f"  n{op.index} -> n{downstream.index}{style};")
    lines.append("}")
    return "\n".join(lines)


@dataclass
class OperatorStats:
    name: str
    kind: str
    keys: int
    entries: int
    pending: int


def trace_stats(dataflow: Dataflow) -> List[OperatorStats]:
    """Per-operator state sizes, largest first."""
    stats: List[OperatorStats] = []
    for ops in _scope_ops(dataflow).values():
        for op in ops:
            if isinstance(op, ReduceOp):
                keys = sum(1 for _ in op.in_trace.keys())
                entries = op.in_trace.record_count() + \
                    op.out_trace.record_count()
                pending = sum(1 for _ in op.pending_times())
                stats.append(OperatorStats(op.name, "reduce", keys,
                                           entries, pending))
            elif isinstance(op, VariableOp):
                keys = sum(1 for _ in op.out_trace.keys())
                entries = (op.in_trace.record_count()
                           + op.body_trace.record_count()
                           + op.out_trace.record_count())
                pending = sum(1 for _ in op.pending_times())
                stats.append(OperatorStats(op.name, "variable", keys,
                                           entries, pending))
            elif isinstance(op, JoinOp):
                keys = sum(1 for _ in op.traces[0].keys()) + \
                    sum(1 for _ in op.traces[1].keys())
                entries = op.traces[0].record_count() + \
                    op.traces[1].record_count()
                stats.append(OperatorStats(op.name, "join", keys,
                                           entries, 0))
            elif isinstance(op, ArrangeOp):
                keys = sum(1 for _ in op.trace.keys())
                stats.append(OperatorStats(op.name, "arrange", keys,
                                           op.trace.record_count(), 0))
            elif isinstance(op, JoinArrangedOp):
                # The arranged side's trace is reported at its ArrangeOp;
                # only the private stream-side trace is this op's state.
                keys = sum(1 for _ in op.left_trace.keys())
                stats.append(OperatorStats(op.name, "join_arranged", keys,
                                           op.left_trace.record_count(), 0))
    stats.sort(key=lambda s: -s.entries)
    return stats


def _operator_traces(op: Operator):
    if isinstance(op, ReduceOp):
        return [op.in_trace, op.out_trace]
    if isinstance(op, VariableOp):
        return [op.in_trace, op.body_trace, op.out_trace]
    if isinstance(op, JoinOp):
        return [op.traces[0], op.traces[1]]
    if isinstance(op, ArrangeOp) and not isinstance(op, ArrangeEnterOp):
        return [op.trace]
    if isinstance(op, JoinArrangedOp):
        return [op.left_trace]  # the arranged trace belongs to its ArrangeOp
    return []


def operator_record_counts(dataflow: Dataflow) -> Dict[str, int]:
    """Stored trace entries per operator (shared arrangements counted once,
    at their ``ArrangeOp``). Feeds ``explain``'s trace-memory report.
    """
    counts: Dict[str, int] = {}
    for ops in _scope_ops(dataflow).values():
        for op in ops:
            traces = _operator_traces(op)
            if traces:
                counts[op.name] = sum(t.record_count() for t in traces)
    return counts


def check_consolidated(dataflow: Dataflow) -> List[str]:
    """Assert the consolidation invariant across all stored traces.

    Every difference the engine stores must be consolidated: no
    zero-multiplicity values and no empty time slots. ``multiset.is_empty``
    is a plain falsiness test *because* of this invariant, so a violation
    here means some operator stored an unconsolidated diff and emptiness
    checks downstream are no longer trustworthy. Returns human-readable
    violations (empty = invariant holds).
    """
    problems: List[str] = []
    for ops in _scope_ops(dataflow).values():
        for op in ops:
            for trace in _operator_traces(op):
                for key in trace.keys():
                    for time, diff in trace.get(key).entries.items():
                        if not diff:
                            problems.append(
                                f"{op.name} ({trace.name}): key {key!r} "
                                f"stores an empty diff at {time}")
                        elif any(mult == 0 for mult in diff.values()):
                            problems.append(
                                f"{op.name} ({trace.name}): key {key!r} "
                                f"stores zero multiplicities at {time}")
    return problems


def check_consistency(dataflow: Dataflow,
                      time: Optional[Time] = None) -> List[str]:
    """Verify ``Out(t) == logic(In(t))`` for every reduce at a probe time.

    Returns a list of human-readable violation descriptions (empty when
    consistent). The probe time defaults to the last completed epoch.
    """
    if time is None:
        time = (dataflow.epoch,)
    problems: List[str] = []
    for ops in _scope_ops(dataflow).values():
        for op in ops:
            if not isinstance(op, ReduceOp):
                continue
            probe = time + (1 << 30,) * (op.scope.depth - len(time))
            for key in list(op.in_trace.keys()):
                acc_in = consolidate(op.in_trace.accumulate(key, probe))
                expected = {}
                if acc_in:
                    if any(mult < 0 for mult in acc_in.values()):
                        problems.append(
                            f"{op.name}: key {key!r} input accumulates "
                            f"negative multiplicities at {probe}")
                        continue
                    for value in op.logic(key, acc_in):
                        expected[value] = expected.get(value, 0) + 1
                actual = consolidate(op.out_trace.accumulate(key, probe))
                if expected != actual:
                    problems.append(
                        f"{op.name}: key {key!r} at {probe}: expected "
                        f"{expected}, stored {actual}")
    return problems
