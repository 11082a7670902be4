"""Render experiment results to Markdown, CSV, ASCII charts, and JSON.

Used by ``python -m repro.bench <exp> --save DIR`` to archive runs, and
handy for comparing against the records in EXPERIMENTS.md. The JSON
helpers back the hot-path benchmark-regression gate
(``benchmarks/bench_hotpath.py`` against the committed
``BENCH_engine.json`` baseline).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.bench.harness import ExperimentResult

PathLike = Union[str, Path]

_FIELDS = ["experiment", "dataset", "algorithm", "config", "mode",
           "num_views", "wall_seconds", "work", "parallel_time", "splits"]


def to_csv(rows: Iterable[ExperimentResult], path: PathLike) -> None:
    """Write rows as CSV."""
    rows = list(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS)
        for row in rows:
            writer.writerow([getattr(row, field) for field in _FIELDS])


def to_markdown(rows: Iterable[ExperimentResult],
                title: str = "") -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    rows = list(rows)
    lines: List[str] = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(_FIELDS) + " |")
    lines.append("|" + "|".join("---" for _ in _FIELDS) + "|")
    for row in rows:
        cells = []
        for field in _FIELDS:
            value = getattr(row, field)
            if isinstance(value, float):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def ascii_chart(series: Sequence[Tuple[str, float]], width: int = 50,
                title: str = "") -> str:
    """Horizontal ASCII bar chart (for figure-style results).

    ``series`` is (label, value) pairs; bars are scaled to ``width``.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    if not series:
        lines.append("(no data)")
        return "\n".join(lines)
    peak = max(value for _label, value in series)
    label_width = max(len(label) for label, _value in series)
    for label, value in series:
        bar = "#" * (int(width * value / peak) if peak > 0 else 0)
        lines.append(f"{label.rjust(label_width)} | "
                     f"{bar} {value:g}")
    return "\n".join(lines)


def save_report(rows: Iterable[ExperimentResult], directory: PathLike,
                name: str) -> None:
    """Write both CSV and Markdown for an experiment's rows."""
    rows = list(rows)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    to_csv(rows, directory / f"{name}.csv")
    (directory / f"{name}.md").write_text(
        to_markdown(rows, title=name) + "\n")


# -- per-view profile summaries (traced runs) ---------------------------------

_PROFILE_FIELDS = ["view", "strategy", "work", "parallel_time",
                   "critical_path", "supersteps", "top_contributor"]


def profile_rows(result) -> List[Dict[str, object]]:
    """Per-view profile summary rows for a traced collection run.

    ``result`` is a ``CollectionRunResult`` produced with tracing enabled
    (``AnalyticsExecutor(tracer=...)`` / ``Graphsurge.profile``); views
    without a profile (e.g. restored from a checkpoint) are skipped.
    """
    rows: List[Dict[str, object]] = []
    for view in result.views:
        profile = getattr(view, "profile", None)
        if profile is None:
            continue
        path = profile.critical_path
        top = path.contributors[0] if path.contributors else None
        rows.append({
            "view": view.view_name,
            "strategy": view.strategy.value,
            "work": view.work,
            "parallel_time": view.parallel_time,
            "critical_path": path.length,
            "supersteps": path.supersteps,
            "top_contributor": (
                f"{top.operator}@{top.epoch} ({top.units})" if top else ""),
        })
    return rows


def profiles_to_markdown(result, title: str = "") -> str:
    """Render a traced run's per-view critical paths as a Markdown table."""
    rows = profile_rows(result)
    lines: List[str] = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(_PROFILE_FIELDS) + " |")
    lines.append("|" + "|".join("---" for _ in _PROFILE_FIELDS) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(row[field])
                                       for field in _PROFILE_FIELDS) + " |")
    return "\n".join(lines)


# -- benchmark-baseline JSON (the hot-path regression gate) -------------------

#: Schema version of the benchmark-baseline files. Bump when the payload
#: layout changes incompatibly; the gate refuses to compare across versions.
BENCH_SCHEMA = 1


def bench_to_json(payload: Dict[str, object], path: PathLike) -> None:
    """Write a benchmark payload (see :func:`compare_benchmarks`) as JSON.

    The payload is produced by ``benchmarks/bench_hotpath.py`` and looks
    like::

        {"suite": "hotpath", "schema": 1, "calibration_seconds": 0.12,
         "workers": 1,
         "scenarios": {"join_heavy": {"wall_seconds": ..., "score": ...,
                                      "work": ..., "parallel_time": ...}}}

    ``workers`` records the execution configuration of the run; the
    regression gate compares only per-scenario ``score`` and ``work``,
    so baselines with fewer or extra top-level fields (older baselines
    also record ``backend``) still load and compare.

    The write is atomic (temp file + ``os.replace``), so a crash or an
    interrupted ``--update-baseline`` run never leaves a torn baseline
    behind for the gate to choke on.
    """
    from repro.core.persistence import atomic_write_text

    atomic_write_text(
        Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench_json(path: PathLike) -> Dict[str, object]:
    """Load a benchmark baseline written by :func:`bench_to_json`."""
    with open(path) as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"benchmark baseline {path} has schema {schema!r}; "
            f"this build reads schema {BENCH_SCHEMA}")
    return payload


def compare_benchmarks(current: Dict[str, object],
                       baseline: Dict[str, object],
                       tolerance: float = 0.25) -> List[str]:
    """Compare a benchmark run against a baseline; return regressions.

    Wall clock is compared through the calibration-normalized ``score``
    (scenario seconds divided by the run's pure-Python calibration loop
    seconds), which absorbs machine-speed differences between the laptop
    that committed the baseline and the CI runner. The deterministic cost
    counters (``work``, ``parallel_time``) are compared directly.

    A scenario regresses when its score or work exceeds the baseline by
    more than ``tolerance`` (fractional, e.g. ``0.25`` = 25%). Missing
    scenarios are regressions too — a gate that silently stops measuring
    is not a gate — and so are scenarios present in the current run but
    absent from the baseline: an unbaselined scenario is unguarded until
    someone reruns ``--update-baseline``, and the gate must say so rather
    than silently pass it. A zero or near-zero baseline value (below
    ``1e-9``) cannot anchor a meaningful ratio, so it is reported as a
    problem instead of being skipped or dividing to ``inf``. Returns
    human-readable problem messages (empty = pass).
    """
    problems: List[str] = []
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name, base in sorted(base_scenarios.items()):
        cur = cur_scenarios.get(name)
        if cur is None:
            problems.append(f"{name}: scenario missing from current run")
            continue
        for metric in ("score", "work"):
            base_value = base.get(metric)
            cur_value = cur.get(metric)
            if base_value is None or cur_value is None:
                continue
            if not base_value > 1e-9:
                problems.append(
                    f"{name}: baseline {metric} is {base_value!r}; a zero "
                    f"or near-zero baseline cannot gate regressions — "
                    f"re-record it with --update-baseline")
                continue
            ratio = cur_value / base_value
            if ratio > 1.0 + tolerance:
                problems.append(
                    f"{name}: {metric} regressed {ratio:.2f}x "
                    f"({base_value:g} -> {cur_value:g}, "
                    f"tolerance {tolerance:.0%})")
    for name in sorted(set(cur_scenarios) - set(base_scenarios)):
        problems.append(
            f"{name}: scenario has no baseline entry — run "
            f"--update-baseline to start gating it")
    return problems
