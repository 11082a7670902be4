"""The benchmark's metric catalogue: names, units, and what each one means.

``END_TO_END`` metrics are printed by every untraced run (``--trace 0``);
``PER_LAYER`` metrics by every traced run (``--trace 1``). Both lists must
match ``BENCHMARK.json`` exactly (the self-test checks it).

Every workload prints every metric. A per-layer metric of a layer that a
workload never enters reads 0 there: the layer ran zero times.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median it may worsen
# by). Over two sets of ten seeds on a shared 2-core VM, the quartile
# spread of every time metric stayed within 0.17 of its median and the
# sets' medians within 8% of each other; memory spread within 0.05.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, moves (end-to-end metric . workload it should move)
PER_LAYER = (
    ("gvdl.parse_s", "s", "lower", "job_s . perturbation_collection"),
    ("ebm.build_s", "s", "lower",
     "job_s . perturbation_collection; op_p50_ms . serve_mixed (mutate)"),
    ("ebm.cells", "count", "lower", "job_s . perturbation_collection"),
    ("ordering.order_s", "s", "lower", "job_s . perturbation_collection"),
    ("ordering.diffs", "count", "lower",
     "job_s . perturbation_collection (materialize and analytics)"),
    ("ordering.diff_ratio", "ratio", "higher",
     "job_s . perturbation_collection"),
    ("diff_stream.compute_s", "s", "lower",
     "job_s . perturbation_collection"),
    ("splitting.decide_s", "s", "lower", "job_s . window_collection"),
    ("splitting.splits", "count", "lower", "job_s . window_collection"),
    ("splitting.scratch_views", "count", "lower",
     "job_s . window_collection"),
    ("executor.diff_view_s", "s", "lower",
     "job_s, op_p50_ms . window_collection"),
    ("executor.scratch_view_s", "s", "lower",
     "job_s, op_p90_ms . window_collection"),
    ("executor.diff_us_per_work", "us", "lower",
     "job_s . window_collection (Table 2 wall/work gap)"),
    ("executor.scratch_us_per_work", "us", "lower",
     "job_s . window_collection (Table 2 wall/work gap)"),
    ("differential.step_s", "s", "lower",
     "job_s . window_collection; op_p90_ms . stream_churn"),
    ("differential.schedule_s", "s", "lower",
     "job_s . window_collection; op_p90_ms . stream_churn"),
    ("differential.schedule_calls", "count", "lower",
     "job_s . window_collection"),
    ("differential.accumulate_s", "s", "lower",
     "job_s . window_collection; op_p90_ms . stream_churn"),
    ("differential.accumulate_calls", "count", "lower",
     "job_s . window_collection"),
    ("differential.reduce_flush_s", "s", "lower",
     "job_s . window_collection"),
    ("differential.join_s", "s", "lower", "job_s . window_collection"),
    ("differential.iterate_self_s", "s", "lower",
     "job_s . window_collection"),
    ("differential.compact_s", "s", "lower", "op_p90_ms . stream_churn"),
    ("differential.trace_records", "count", "lower",
     "peak_rss_mb . stream_churn"),
    ("differential.analytics_share", "ratio", "lower",
     "job_s . window_collection (share of analytics spent in Dataflow.step)"),
    ("meter.work", "count", "lower", "job_s . window_collection"),
    ("meter.parallel_time", "count", "lower", "job_s . window_collection"),
    ("meter.record_s", "s", "lower", "job_s . window_collection"),
    ("ebm_ordering.materialize_share", "ratio", "lower",
     "job_s . perturbation_collection (share of materialize in EBM + "
     "ordering)"),
    ("stream.advance_s", "s", "lower", "op_p50_ms, op_p90_ms . stream_churn"),
    ("stream.ingest_self_s", "s", "lower", "op_p50_ms . stream_churn"),
    ("stream.resident_records", "count", "lower",
     "peak_rss_mb . stream_churn"),
    ("serve.compute_s", "s", "lower", "op_p90_ms, job_s . serve_mixed"),
    ("serve.mutate_s", "s", "lower", "op_p50_ms . serve_mixed (mutate)"),
    ("serve.rematerialize_s", "s", "lower",
     "op_p50_ms . serve_mixed (mutate)"),
    ("serve.queue_wait_ms", "ms", "lower", "op_p90_ms, job_s . serve_mixed"),
    ("serve.cache_hit_ratio", "ratio", "higher",
     "op_p50_ms . serve_mixed (hits)"),
    ("serve.shed", "count", "lower", "job_s . serve_mixed"),
    ("tracing.job_s", "s", "lower", "none: the traced job time"),
    ("tracing.overhead_s", "s", "lower",
     "none: traced minus untraced job_s"),
)

WORKLOADS = (
    ("window_collection",
     "Fig. 6 C_sim windows, WCC + PageRank adaptive: the engine dominates "
     "and both executor strategies run"),
    ("perturbation_collection",
     "Table 4 C_10,4 with Christofides ordering: materialization dominates "
     "and diffs add and remove"),
    ("stream_churn",
     "continuous wcc/degrees/bfs over seeded churn: the only retractions "
     "into resident dataflows, with compaction"),
    ("serve_mixed",
     "two closed-loop clients on a real daemon: HTTP, cache, compute lock "
     "and the mutate -> re-materialize path"),
)


def end_to_end_units():
    return {name: unit for name, unit, _better, _bound in END_TO_END}


def per_layer_units():
    return {name: unit for name, unit, _better, _moves in PER_LAYER}
