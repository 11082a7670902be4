"""Aggregate views (paper §6, Graph OLAP).

An aggregate view groups nodes into super-nodes (by property values or by
explicit predicates) and folds the original edges into super-edges between
the groups, computing the requested aggregates on both. The result is a
regular :class:`PropertyGraph`, so aggregate views can be queried and
filtered again — views over views.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import GvdlTypeError, UnknownPropertyError
from repro.graph.property_graph import PropertyGraph
from repro.gvdl.ast import (
    AggregateViewStmt,
    AggSpec,
    GroupByPredicates,
    GroupByProperties,
)
from repro.gvdl.predicate import compile_node_predicate


def _aggregate(func: str, values: List[Any]) -> Any:
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "avg":
        return sum(values) / len(values)
    raise GvdlTypeError(f"unknown aggregate function {func!r}")


def _collect(specs: Iterable[AggSpec], rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for spec in specs:
        if spec.arg == "*":
            values: List[Any] = [1] * len(rows)
        else:
            values = []
            for row in rows:
                if spec.arg not in row:
                    raise UnknownPropertyError(
                        f"aggregate references unknown property {spec.arg!r}")
                values.append(row[spec.arg])
        out[spec.output_name()] = _aggregate(spec.func, values)
    return out


def compute_aggregate_view(graph: PropertyGraph,
                           statement: AggregateViewStmt) -> PropertyGraph:
    """Evaluate an aggregate-view statement against a base graph."""
    group_of: Dict[int, Any] = {}
    group_label: Dict[Any, str] = {}
    if isinstance(statement.group_by, GroupByProperties):
        props = statement.group_by.properties
        for prop in props:
            if len(graph.node_schema) and prop not in graph.node_schema:
                raise UnknownPropertyError(
                    f"group by references unknown node property {prop!r}")
        for node in graph.nodes.values():
            key = tuple(node.properties.get(p) for p in props)
            group_of[node.id] = key
            group_label[key] = ",".join(str(v) for v in key)
    elif isinstance(statement.group_by, GroupByPredicates):
        evaluators = [compile_node_predicate(p, graph.node_schema)
                      for p in statement.group_by.predicates]
        for node in graph.nodes.values():
            for idx, evaluate in enumerate(evaluators):
                if evaluate(node.properties):
                    group_of[node.id] = idx
                    group_label[idx] = f"group-{idx}"
                    break
            # Nodes matching no predicate are dropped from the view.
    else:  # pragma: no cover - exhaustive over the union
        raise GvdlTypeError(f"unknown group-by {statement.group_by!r}")

    # Stable super-node numbering: sort groups by their repr.
    groups = sorted(group_label, key=repr)
    super_id: Dict[Any, int] = {key: idx for idx, key in enumerate(groups)}

    members: Dict[Any, List[Dict[str, Any]]] = {key: [] for key in groups}
    for node_id, key in group_of.items():
        members[key].append(graph.nodes[node_id].properties)

    view = PropertyGraph(statement.name)
    for key in groups:
        props: Dict[str, Any] = {"group": group_label[key]}
        if isinstance(statement.group_by, GroupByProperties):
            for prop, value in zip(statement.group_by.properties, key):
                props[prop] = value
        props.update(_collect(statement.node_aggregates, members[key]))
        view.add_node(super_id[key], props)

    # Bucket original edges by (super(src), super(dst)); edges with an endpoint
    # outside every group are dropped.
    buckets: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for edge in graph.edges:
        src_key = group_of.get(edge.src)
        dst_key = group_of.get(edge.dst)
        if src_key is None or dst_key is None:
            continue
        pair = (super_id[src_key], super_id[dst_key])
        buckets.setdefault(pair, []).append(edge.properties)
    for (src, dst), rows in sorted(buckets.items()):
        props = {"count": len(rows)}
        props.update(_collect(statement.edge_aggregates, rows))
        view.add_edge(src, dst, props)
    return view
