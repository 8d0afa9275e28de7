"""Correctness checks on the files a job wrote.

Each check returns (attempted, failed, problems): the job's work units,
how many of them failed, and one line per failure.

* chain-sweep rows fail when they break ratio_out <= (M - D) * ratio_in
  or when any column differs from refs.json by more than REL_TOL
  relative.  A missing or extra row also fails.
* exp-sweep rows fail when any column differs from refs.json by more
  than REL_TOL relative.
* a search run's candidates all fail when re-evaluating the reported
  best interferometer moves the value by more than 1e-10 or fewer than
  `trials` candidates were scored; otherwise each reported bound
  violation fails one candidate.
"""

from __future__ import annotations

import csv
import io
import math

REL_TOL = 1e-8
BOUND_SLACK = 1e-9
REEVALUATE_TOL = 1e-10


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _rows(text: str, columns: list) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != columns:
        raise ValueError(f"header {header} differs from {columns}")
    return [[float(x) for x in row] for row in reader]


def check_sweep(text: str, ref: dict, config: dict) -> tuple[int, int, list]:
    """Compare sweep rows with their reference; chain rows also get the bound."""
    expected = ref["rows"]
    columns = ref["columns"]
    if config != ref["config"]:
        raise ValueError("workload config differs from the one refs.json was built for")
    try:
        rows = _rows(text, columns)
    except ValueError as exc:
        return len(expected), len(expected), [f"unreadable output: {exc}"]
    bound_factor = None
    if "ratio_out" in columns:
        bound_factor = config["modes"] - config["detected"]
    problems = []
    for i in range(max(len(rows), len(expected))):
        if i >= len(rows):
            problems.append(f"row {i}: missing")
            continue
        if i >= len(expected) or len(rows[i]) != len(columns):
            problems.append(f"row {i}: unexpected row {rows[i]}")
            continue
        row = dict(zip(columns, rows[i]))
        if bound_factor is not None:
            allowed = bound_factor * row["ratio_in"] + BOUND_SLACK
            if not row["ratio_out"] <= allowed:
                problems.append(
                    f"row {i} (epsilon={row['epsilon']:.3g}): ratio_out {row['ratio_out']:.6g} "
                    f"breaks the bound {allowed:.6g}"
                )
                continue
        off = [
            f"{name} {got:.10g} vs {want:.10g}"
            for name, got, want in zip(columns, rows[i], expected[i])
            if not _close(got, want)
        ]
        if off:
            problems.append(f"row {i} (epsilon={row['epsilon']:.3g}): " + "; ".join(off))
    attempted = max(len(rows), len(expected))
    return attempted, len(problems), problems


def max_rel_err(text: str, ref: dict) -> float:
    """Largest relative difference of any written value from its reference.

    The difference is |a - b| / max(|a|, |b|), at most 2 for finite values;
    a NaN or infinite value counts as 2.
    """
    worst = 0.0
    for row, want in zip(_rows(text, ref["columns"]), ref["rows"]):
        for a, b in zip(row, want):
            if a != b:
                scale = max(abs(a), abs(b))
                worst = max(worst, abs(a - b) / scale if math.isfinite(scale) else 2.0)
    return worst


def check_search(report: dict, reevaluated: float, trials: int) -> tuple[int, int, list]:
    """The acceptance-test checks on a search report."""
    attempted = max(int(report["trials_run"]), 1)
    problems = []
    if abs(reevaluated - report["best_value"]) > REEVALUATE_TOL:
        problems.append(
            f"re-evaluated best value {reevaluated!r} differs from reported {report['best_value']!r}"
        )
    if report["trials_run"] < trials:
        problems.append(f"only {report['trials_run']} of {trials} trials scored")
    if problems:
        return attempted, attempted, problems
    violations = int(report["bound_violations"])
    if violations:
        problems.append(f"{violations} ratio-bound violations")
    return attempted, min(violations, attempted), problems
