"""Pass 2 — determinism linting of user callables.

Every callable a dataflow carries (``map``/``flat_map``/``filter``/
``reduce``/``join``/``join_arranged``/``inspect``) is re-run for *every*
view of a collection, and differential computation assumes each re-run of
the same record yields the same output. This pass AST-inspects the
callables (``inspect.getsource`` with graceful fallback — builtins and
REPL-defined lambdas are skipped, not failed) and flags the classic
determinism hazards.

Rule ids are ``GS-U2xx``. Findings can be silenced per callable line with
a ``# analyze: ignore[rule-id]`` comment (comma-separate several ids; the
comment may sit on the offending line or on the callable's ``def``/lambda
line).
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analyze.report import Finding, Rule, Severity
from repro.differential.debug import _scope_ops
from repro.differential.operators.arrange import JoinArrangedOp
from repro.differential.operators.join import JoinOp
from repro.differential.operators.linear import (
    FilterOp,
    FlatMapOp,
    InspectOp,
    MapOp,
)
from repro.differential.operators.reduce import ReduceOp

UDF_RULES: Dict[str, Rule] = {rule.id: rule for rule in (
    Rule("GS-U201", Severity.ERROR, "nondeterministic call",
         "The callable consults random numbers, wall-clock time, uuids, or "
         "object identity; re-running it across views (or after a "
         "checkpoint resume) yields different records and corrupts the "
         "difference traces."),
    Rule("GS-U202", Severity.WARNING, "iteration over unordered content",
         "Iterating a set or dict view bakes hash-table order into the "
         "output; fine for order-insensitive aggregates, hazardous when "
         "the order reaches emitted records."),
    Rule("GS-U203", Severity.WARNING, "mutable default argument",
         "A list/dict/set default is created once and shared across every "
         "invocation; state leaks between records and between views."),
    Rule("GS-U204", Severity.ERROR, "write to closed-over or global state",
         "The callable mutates state outside its own frame; operator "
         "re-runs are no longer pure functions of their input and replay "
         "(checkpoint resume, fuzzing, worker resharding) diverges."),
    Rule("GS-U205", Severity.WARNING, "hash() of a value",
         "hash() of str/bytes varies across interpreter runs unless "
         "PYTHONHASHSEED is pinned; use repro.timely.stable_hash for "
         "anything that reaches records or sharding."),
)}

#: Module roots whose every attribute call is a nondeterminism hazard.
_NONDET_MODULES = {"random", "time", "uuid", "secrets"}
#: (module root, attribute) pairs that are hazards on otherwise-fine roots.
_NONDET_MODULE_ATTRS = {
    ("os", "urandom"), ("os", "getpid"), ("os", "times"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
}
#: Method names that are hazards whatever the receiver (rng.choice(...)).
_NONDET_METHODS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "getrandbits", "randbytes",
    "uuid1", "uuid4", "now", "utcnow", "perf_counter", "monotonic",
    "time_ns", "perf_counter_ns", "monotonic_ns",
}
#: Bare-name calls that are hazards.
_NONDET_NAMES = {"id"}

#: Consumers for which unordered iteration is harmless: they are
#: order-insensitive by definition.
_ORDER_INSENSITIVE = {
    "sum", "min", "max", "len", "any", "all", "sorted", "set", "frozenset",
    "dict", "Counter",
}

#: Receiver methods that mutate their object in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse", "write",
    "writelines", "appendleft", "extendleft",
}

_IGNORE_RE = re.compile(r"#\s*analyze:\s*ignore\[([A-Za-z0-9_,\-\s]+)\]")


@dataclass
class _RawFinding:
    rule: str
    line: int  # 1-based within the callable's source block
    message: str
    hint: str = ""


def udf_sites(dataflow) -> List[Tuple[object, str, object]]:
    """Every (operator, role, callable) the dataflow carries."""
    sites: List[Tuple[object, str, object]] = []
    ops = sorted((op for ops in _scope_ops(dataflow).values() for op in ops),
                 key=lambda op: op.index)
    for op in ops:
        if isinstance(op, (MapOp, FlatMapOp)):
            sites.append((op, "map", op.f))
        elif isinstance(op, FilterOp):
            sites.append((op, "filter", op.predicate))
        elif isinstance(op, ReduceOp):
            sites.append((op, "reduce", op.logic))
        elif isinstance(op, (JoinOp, JoinArrangedOp)):
            sites.append((op, "join", op.f))
        elif isinstance(op, InspectOp):
            sites.append((op, "inspect", op.callback))
    return sites


def _callable_name(func) -> str:
    name = getattr(func, "__qualname__", None) or getattr(
        func, "__name__", None) or repr(func)
    # Qualnames of nested lambdas get noisy; keep the tail.
    return name.split(".")[-1] if name.endswith("<lambda>") else name


def _find_node(tree: ast.Module, func, base: int) -> Optional[ast.AST]:
    """Locate the AST node of ``func`` inside its (dedented) source block.

    ``inspect.getsource`` returns the whole statement, which for lambdas
    may contain several lambdas (e.g. two arguments on one line); the
    line offset within the block and the argument count disambiguate.
    ``base`` is the AST line number of the block's first source line (2
    when the block was wrapped to make it parse, else 1).
    """
    code = func.__code__
    if func.__name__ != "<lambda>":
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == func.__name__:
                return node
        return None
    candidates = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Lambda)]
    if len(candidates) <= 1:
        return candidates[0] if candidates else None
    try:
        src_start = inspect.getsourcelines(func)[1]
    except (OSError, TypeError):
        src_start = code.co_firstlineno
    offset = code.co_firstlineno - src_start
    on_line = [n for n in candidates if n.lineno - base == offset]
    pool = on_line or candidates
    by_args = [n for n in pool if len(n.args.args) == code.co_argcount]
    pool = by_args or pool
    if len(pool) > 1:
        # Several lambdas share the line and the arity ("clean, dirty =
        # lambda r: ..., lambda r: ..."): compile each candidate and match
        # its code signature (exact bytecode varies with the enclosing
        # compile context) against the live function.
        import types

        def signature(c: types.CodeType):
            return (c.co_names, c.co_varnames,
                    tuple(const for const in c.co_consts
                          if not isinstance(const, types.CodeType)))

        for candidate in pool:
            try:
                compiled = compile(ast.Expression(body=candidate),
                                   "<analyze>", "eval")
            except (SyntaxError, TypeError, ValueError):
                continue
            inner = next((const for const in compiled.co_consts
                          if isinstance(const, types.CodeType)), None)
            if inner is not None and signature(inner) == signature(code):
                return candidate
    return pool[0]


def _parse_block(source: str) -> Tuple[Optional[ast.Module], int]:
    """Parse a ``getsource`` block, tolerating clause fragments.

    ``getsource`` of a lambda that starts on a continuation line returns
    just that line, complete with the enclosing call's unbalanced trailing
    closers (``lambda rec: f(rec)))``). Try the text as-is, then wrapped
    in ``if True:`` (for indented clauses), then with trailing closers
    trimmed off. Returns ``(tree, base)`` where ``base`` is the AST line
    number of the block's first source line; ``(None, 1)`` when nothing
    parses.
    """
    text = source
    while True:
        try:
            return ast.parse(text), 1
        except SyntaxError:
            pass
        try:
            return (ast.parse(f"if True:\n{textwrap.indent(text, '    ')}"),
                    2)
        except SyntaxError:
            pass
        stripped = text.rstrip()
        if not stripped or stripped[-1] not in ")]},;":
            return None, 1
        text = stripped[:-1]


def _callable_node(func) -> Tuple[Optional[ast.AST], List[str], int]:
    """The AST node of ``func`` plus its source lines and parse base.

    ``(None, lines, base)`` when the source is unavailable or unparsable
    (builtins, REPL lambdas) — skipped, not failed.
    """
    func = inspect.unwrap(func)
    if inspect.ismethod(func):
        func = func.__func__
    if not inspect.isfunction(func):
        return None, [], 1
    try:
        source = textwrap.dedent(inspect.getsource(func))
    except (OSError, TypeError):
        return None, [], 1
    tree, base = _parse_block(source)
    if tree is None:
        return None, source.splitlines(), 1
    return _find_node(tree, func, base), source.splitlines(), base


def lint_callable(func, role: str) -> Tuple[List[_RawFinding], List[str],
                                            bool]:
    """Lint one callable.

    Returns ``(raw findings, source lines, skipped)``; suppression
    comments are *not* applied here (the caller needs the line text).
    """
    node, lines, base = _callable_node(func)
    if node is None:
        return [], lines, True
    findings = list(_lint_node(node, role))
    if base != 1:
        # Wrapped parse shifted AST line numbers; map them back onto the
        # source block so suppression comments line up.
        for item in findings:
            item.line -= base - 1
    return findings, lines, False


def _lint_node(node: ast.AST, role: str) -> Iterable[_RawFinding]:
    yield from _check_nondet_calls(node, role)
    yield from _check_unordered_iteration(node)
    yield from _check_mutable_defaults(node)
    if role != "inspect":
        # Inspect taps exist to observe — mutating a closed-over buffer
        # is their whole point.
        yield from _check_external_mutation(node)


# -- GS-U201 / GS-U205 ------------------------------------------------------


def _dotted_root(expr: ast.AST) -> Optional[Tuple[str, str]]:
    """For ``a.b.c(...)`` return ``("a", "c")``; None when not dotted."""
    if not isinstance(expr, ast.Attribute):
        return None
    attr = expr.attr
    value = expr.value
    while isinstance(value, ast.Attribute):
        value = value.value
    if isinstance(value, ast.Name):
        return value.id, attr
    return None, attr  # type: ignore[return-value]


def _check_nondet_calls(node: ast.AST,
                        role: str = "") -> Iterable[_RawFinding]:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name):
            if func.id in _NONDET_NAMES:
                if role == "inspect":
                    # Inspect taps never emit records, so an id() there
                    # (debug labels, object-identity logging) cannot
                    # corrupt difference traces.
                    continue
                yield _RawFinding(
                    "GS-U201", sub.lineno,
                    f"call to {func.id}() — object identity differs "
                    f"between runs",
                    hint="derive the value from record contents instead")
            elif func.id == "hash":
                yield _RawFinding(
                    "GS-U205", sub.lineno,
                    "call to hash() — str/bytes hashes vary per "
                    "interpreter run",
                    hint="use repro.timely.stable_hash(...)")
            continue
        rooted = _dotted_root(func)
        if rooted is None:
            continue
        root, attr = rooted
        if root in _NONDET_MODULES:
            yield _RawFinding(
                "GS-U201", sub.lineno,
                f"call to {root}.{attr}() — nondeterministic between "
                f"runs",
                hint="precompute outside the dataflow or derive from "
                     "record contents")
        elif (root, attr) in _NONDET_MODULE_ATTRS:
            yield _RawFinding(
                "GS-U201", sub.lineno,
                f"call to {root}.{attr}() — nondeterministic between "
                f"runs",
                hint="precompute outside the dataflow or derive from "
                     "record contents")
        elif attr in _NONDET_METHODS:
            yield _RawFinding(
                "GS-U201", sub.lineno,
                f"call to .{attr}() — a random/clock source by "
                f"convention",
                hint="seeded randomness must stay outside operator "
                     "callables")


# -- GS-U202 ----------------------------------------------------------------


def _is_unordered_expr(expr: ast.AST) -> Optional[str]:
    """Describe ``expr`` when its iteration order is hash-dependent."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in {
                "values", "keys", "items"}:
            return f".{func.attr}()"
        if isinstance(func, ast.Name) and func.id in {"list", "tuple",
                                                      "iter"}:
            if expr.args:
                inner = _is_unordered_expr(expr.args[0])
                if inner is not None:
                    return f"{func.id}({inner})"
    return None


def _order_insensitive_calls(node: ast.AST) -> Set[int]:
    """ids of iterable expressions consumed by order-insensitive callables."""
    safe: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else None
            if name in _ORDER_INSENSITIVE:
                for arg in sub.args:
                    safe.add(id(arg))
    return safe


def _check_unordered_iteration(node: ast.AST) -> Iterable[_RawFinding]:
    safe = _order_insensitive_calls(node)
    iters: List[ast.AST] = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.For, ast.AsyncFor)):
            iters.append(sub.iter)
        elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp)):
            if id(sub) in safe:
                # The whole comprehension feeds an order-insensitive
                # consumer (sum(... for ... in d.items())): harmless.
                continue
            for gen in sub.generators:
                iters.append(gen.iter)
    for expr in iters:
        if id(expr) in safe:
            continue
        described = _is_unordered_expr(expr)
        if described is not None:
            yield _RawFinding(
                "GS-U202", expr.lineno,
                f"iterates {described}, whose order is hash-dependent",
                hint="wrap the iterable in sorted(...) when order can "
                     "reach the output, or silence with "
                     "# analyze: ignore[GS-U202] when it cannot")


# -- GS-U203 ----------------------------------------------------------------


def _is_mutable_literal(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in {"list", "dict", "set", "bytearray",
                                "defaultdict", "deque"}
    return False


def _check_mutable_defaults(node: ast.AST) -> Iterable[_RawFinding]:
    for sub in ast.walk(node):
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        args = sub.args
        for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None]:
            if _is_mutable_literal(default):
                yield _RawFinding(
                    "GS-U203", default.lineno,
                    "mutable default argument is created once and shared "
                    "across every invocation",
                    hint="default to None and create the container in "
                         "the body")


# -- GS-U204 ----------------------------------------------------------------


def _own_names(node: ast.AST) -> Set[str]:
    """Names bound inside the callable (params + assignments + loops)."""
    names: Set[str] = set()
    args = node.args if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.Lambda)) else None
    if args is not None:
        for arg in (list(args.args) + list(args.posonlyargs)
                    + list(args.kwonlyargs)):
            names.add(arg.arg)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(sub.name)
        elif isinstance(sub, ast.comprehension):
            for name_node in ast.walk(sub.target):
                if isinstance(name_node, ast.Name):
                    names.add(name_node.id)
    return names


def _root_name(expr: ast.AST) -> Optional[str]:
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _check_external_mutation(node: ast.AST) -> Iterable[_RawFinding]:
    own = _own_names(node)
    declared: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared:
                        yield _RawFinding(
                            "GS-U204", sub.lineno,
                            f"assigns {target.id!r}, declared "
                            f"global/nonlocal",
                            hint="thread state through records or use an "
                                 "inspect() tap")
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root is not None and root not in own:
                        yield _RawFinding(
                            "GS-U204", sub.lineno,
                            f"writes into closed-over or global object "
                            f"{root!r}",
                            hint="operator callables must be pure; "
                                 "collect side outputs with inspect()")
        elif isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _MUTATING_METHODS:
                root = _root_name(func.value)
                if root is not None and root not in own:
                    yield _RawFinding(
                        "GS-U204", sub.lineno,
                        f"calls {root}.{func.attr}(...) on closed-over "
                        f"or global object {root!r}",
                        hint="operator callables must be pure; collect "
                             "side outputs with inspect()")


# -- suppression + assembly -------------------------------------------------


def _suppressed_rules(line: str) -> Set[str]:
    match = _IGNORE_RE.search(line)
    if not match:
        return set()
    return {part.strip() for part in match.group(1).split(",") if
            part.strip()}


def check_udfs(dataflow, path_of) -> Tuple[List[Finding], int, int, int]:
    """Lint every callable; returns (findings, scanned, skipped,
    suppressed)."""
    findings: List[Finding] = []
    scanned = skipped = suppressed = 0
    # Keyed by (code identity, role): linting is role-dependent (inspect
    # taps are exempt from the mutation and id() rules).
    cache: Dict[Tuple[int, str],
                Tuple[List[_RawFinding], List[str], bool]] = {}
    for op, role, func in udf_sites(dataflow):
        code = getattr(func, "__code__", None)
        key = (id(code) if code is not None else id(func), role)
        if key in cache:
            raw, lines, was_skipped = cache[key]
        else:
            raw, lines, was_skipped = lint_callable(func, role)
            cache[key] = (raw, lines, was_skipped)
        if was_skipped:
            skipped += 1
            continue
        scanned += 1
        where = f"{path_of(op)} udf {_callable_name(func)}"
        for item in raw:
            ignore = set()
            if 1 <= item.line <= len(lines):
                ignore |= _suppressed_rules(lines[item.line - 1])
            if lines:
                ignore |= _suppressed_rules(lines[0])
            if item.rule in ignore:
                suppressed += 1
                continue
            rule = UDF_RULES[item.rule]
            findings.append(Finding(
                rule=rule.id, severity=rule.severity, operator=where,
                message=item.message, hint=item.hint))
    return findings, scanned, skipped, suppressed
