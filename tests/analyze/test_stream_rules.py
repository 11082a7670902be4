"""Planted-defect battery for the stream-maintainability rules (GS-M4xx).

Each rule gets a trigger and a near-miss. The pass is opt-in
(``analyze(df, stream=True)``); ``StreamEngine.register`` runs it on
every continuous query, which tests/stream covers end to end.
"""

from repro.analyze import analyze
from repro.analyze.stream import closure_bindings
from repro.differential import Dataflow


def lint(build, **kwargs):
    """Build a dataflow via ``build(df, edges)`` (returning the collection
    to capture) and analyze it with the stream pass enabled."""
    df = Dataflow()
    edges = df.new_input("edges")
    df.capture(build(df, edges), "out")
    return analyze(df, stream=True, **kwargs)


def rules_of(report):
    return {finding.rule for finding in report.findings}


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


def keyed(edges):
    return edges.map(lambda rec: (rec[0], rec[1]), name="keyed")


class TestLoopNegate:
    """GS-M401: non-cancelling negate inside an iterate scope."""

    def test_trigger_bare_negate_in_loop(self):
        report = lint(lambda df, edges: keyed(edges).iterate(
            lambda inner, scope: inner.concat(
                inner.map(lambda rec: rec, name="flip").negate()),
            name="loop"))
        hits = findings_for(report, "GS-M401")
        assert hits
        assert hits[0].severity.value == "error"
        assert "unpaired negative waves" in hits[0].message
        assert "antijoin" in hits[0].hint

    def test_near_miss_antijoin_idiom_in_loop(self):
        def build(df, edges):
            return keyed(edges).iterate(
                lambda inner, scope: inner.concat(
                    inner.semijoin(
                        scope.enter(edges).map(lambda rec: rec[0],
                                               name="keys")).negate()),
                name="loop")

        report = lint(build)
        assert "GS-M401" not in rules_of(report)


class TestRootNegate:
    """GS-M402: non-cancelling negate in the maintained root scope."""

    def test_trigger_bare_root_negate(self):
        report = lint(lambda df, edges: keyed(edges).negate())
        hits = findings_for(report, "GS-M402")
        assert hits
        assert hits[0].severity.value == "error"
        assert "snapshot negative" in hits[0].message

    def test_near_miss_root_antijoin(self):
        def build(df, edges):
            banned = edges.map(lambda rec: rec[0], name="banned")
            return keyed(edges).antijoin(banned)

        report = lint(build)
        assert "GS-M402" not in rules_of(report)

    def test_batch_analysis_allows_root_negate(self):
        # A bounded collection run tears the plan down; only maintained
        # plans treat a root negate as an error.
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(keyed(edges).negate(), "out")
        report = analyze(df)
        assert "GS-M402" not in rules_of(report)


class TestInspectAccumulation:
    """GS-M403: inspect taps buffering state compact can't reach."""

    def test_trigger_inspect_appends_to_closed_over_list(self):
        seen = []

        def tap(rec):
            seen.append(rec)

        report = lint(lambda df, edges: keyed(edges).inspect(tap))
        hits = findings_for(report, "GS-M403")
        assert hits
        assert hits[0].severity.value == "error"
        assert "'seen'" in hits[0].message
        assert "Dataflow.compact" in hits[0].message

    def test_near_miss_stateless_inspect(self):
        def tap(rec):
            print("saw", rec)

        report = lint(lambda df, edges: keyed(edges).inspect(tap))
        assert "GS-M403" not in rules_of(report)

    def test_near_miss_batch_analysis_exempts_inspect(self):
        # The default (batch) passes exempt inspect taps entirely.
        seen = []

        def tap(rec):
            seen.append(rec)

        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(keyed(edges).inspect(tap), "out")
        report = analyze(df)
        assert "GS-M403" not in rules_of(report)
        assert "GS-U204" not in rules_of(report)


class TestNestedIterate:
    """GS-M404: iterate scopes nested under maintenance."""

    def test_trigger_nested_fixed_point(self):
        report = lint(lambda df, edges: keyed(edges).iterate(
            lambda inner, scope: inner.iterate(
                lambda inner2, scope2: inner2.map(lambda rec: rec),
                name="inner.loop"),
            name="outer.loop"))
        hits = findings_for(report, "GS-M404")
        assert len(hits) == 1
        assert hits[0].severity.value == "warning"
        assert "inner.loop" in hits[0].message

    def test_near_miss_single_iterate(self):
        report = lint(lambda df, edges: keyed(edges).iterate(
            lambda inner, scope: inner.concat(
                scope.enter(keyed(edges))).min_by_key(),
            name="loop"))
        assert "GS-M404" not in rules_of(report)


class TestMaintainedCaptures:
    """GS-M405: maintained UDFs closing over mutable containers."""

    def test_trigger_map_captures_dict(self):
        table = {"a": 1}

        def translate(rec):
            return (table.get(rec[0], 0), rec[1])

        report = lint(lambda df, edges: edges.map(translate))
        hits = findings_for(report, "GS-M405")
        assert hits
        assert hits[0].severity.value == "warning"
        assert "'table'" in hits[0].message
        assert "already emitted" in hits[0].message

    def test_near_miss_immutable_capture(self):
        table = (("a", 1),)

        def translate(rec):
            return (dict(table).get(rec[0], 0), rec[1])

        report = lint(lambda df, edges: edges.map(translate))
        assert "GS-M405" not in rules_of(report)

    def test_near_miss_inspect_is_covered_by_m403_instead(self):
        # A read-only mutable capture in an inspect tap is not a result
        # hazard (taps don't emit records); only mutation is (GS-M403).
        labels = ["debug"]

        def tap(rec):
            print(labels[0], rec)

        report = lint(lambda df, edges: keyed(edges).inspect(tap))
        assert "GS-M405" not in rules_of(report)
        assert "GS-M403" not in rules_of(report)

    def test_suppression_on_def_line(self):
        table = {"a": 1}

        def translate(rec):  # analyze: ignore[GS-M405]
            return (table.get(rec[0], 0), rec[1])

        report = lint(lambda df, edges: edges.map(translate))
        assert "GS-M405" not in rules_of(report)


#: A module global read by ``_reads_global`` below.
GLOBAL_TABLE = {"a": 1}


def _reads_global(rec):
    return GLOBAL_TABLE.get(rec, 0)


class TestClosureBindings:
    """What GS-M405 sees as a callable's captured state."""

    def test_closure_cells(self):
        table = [1]

        def read(rec):
            return table[0] + rec

        assert closure_bindings(read) == {"table": [1]}

    def test_positional_and_keyword_defaults(self):
        def read(rec, scale=2, *, offset=(1,)):
            return rec * scale + offset[0]

        assert closure_bindings(read) == {"scale": 2, "offset": (1,)}

    def test_referenced_module_globals(self):
        assert closure_bindings(_reads_global)["GLOBAL_TABLE"] is \
            GLOBAL_TABLE

    def test_names_inside_nested_code_objects(self):
        def read(recs):
            return [GLOBAL_TABLE.get(rec, 0) for rec in recs]

        assert "GLOBAL_TABLE" in closure_bindings(read)

    def test_non_function_callables_have_no_bindings(self):
        assert closure_bindings(len) == {}
        assert closure_bindings(str.upper) == {}


class TestPassIsOptIn:
    def test_default_analyze_reports_no_stream_findings(self):
        seen = []
        df = Dataflow()
        edges = df.new_input("edges")
        df.capture(keyed(edges).negate().inspect(
            lambda rec: seen.append(rec)), "out")
        report = analyze(df)
        assert not any(rule.startswith("GS-M4") for rule in rules_of(report))
