"""Per-layer metrics derived from one traced job's span dump.

Self time of a span is its duration minus the union of the intervals its
direct child spans cover.  A layer's self time sums that over the layer's
spans.  See tracing.py for the span layout.
"""

from __future__ import annotations

import json
from collections import defaultdict

MAX_DIMENSION = 11  # permanent metrics cover expanded dimensions 0..11


def _union_ns(intervals: list) -> int:
    covered, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            covered += b - a
            end = b
        elif b > end:
            covered += b - end
            end = b
    return covered


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def layer_metrics(spans: list, threads: int) -> dict:
    """Every per-layer metric that comes from spans, keyed by metric name."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    by_name = defaultdict(list)
    self_ns = defaultdict(int)
    for s in spans:
        by_name[s[1]].append(s)
        kids = children.get(s[0], ())
        self_ns[s[1]] += (s[3] - s[2]) - _union_ns([(k[2], k[3]) for k in kids])

    def self_s(*names) -> float:
        return sum(self_ns[n] for n in names) / 1e9

    def durations(name) -> list:
        return [s[3] - s[2] for s in by_name[name]]

    def parent_name(s):
        parent = by_id.get(s[4])
        return None if parent is None else parent[1]

    m = {}
    perms = by_name["permanent.permanent_with_multiplicity"] + by_name["permanent.permanent"]
    per_dim = defaultdict(list)
    for s in perms:
        per_dim[s[6]].append(s[3] - s[2])
    for k in range(MAX_DIMENSION + 1):
        times = per_dim.get(k, [])
        m[f"permanent.calls.d{k}"] = len(times)
        m[f"permanent.us_per_call.d{k}"] = sum(times) / len(times) / 1e3 if times else 0.0
    m["permanent.self_s"] = self_s("permanent.permanent_with_multiplicity", "permanent.permanent")
    traced_self = sum(v for k, v in self_ns.items() if k != "setup.import") / 1e9
    m["permanent.self_share"] = m["permanent.self_s"] / traced_self if traced_self else 0.0

    steps = by_name["fock.enumerate_inputs"]
    m["fock.enumerate_inputs.self_s"] = self_s("fock.enumerate_inputs")
    m["fock.configs_yielded"] = sum(s[6] for s in steps)

    conds = by_name["conditioner.condition_mixed"]
    m["conditioner.condition_mixed.calls"] = len(conds)
    m["conditioner.condition_mixed.self_s"] = self_s("conditioner.condition_mixed")
    m["conditioner.condition_mixed.p50_us"] = _quantile(durations("conditioner.condition_mixed"), 0.5) / 1e3
    under_cond = sum(1 for s in perms if parent_name(s) == "conditioner.condition_mixed")
    m["conditioner.permanents_per_call"] = under_cond / len(conds) if conds else 0.0
    m["conditioner.zero_probability_share"] = sum(s[6] for s in conds) / len(conds) if conds else 0.0

    observes = by_name["detectors.observe"]
    true_patterns = [s for s in conds if parent_name(s) == "detectors.observe"]
    m["detectors.observe.self_s"] = self_s("detectors.observe")
    m["detectors.true_patterns_per_observe"] = len(true_patterns) / len(observes) if observes else 0.0
    m["detectors.zero_pattern_share"] = (
        sum(s[6] for s in true_patterns) / len(true_patterns) if true_patterns else 0.0
    )

    evals = durations("search.evaluate_candidate")
    haar_in_search = sum(
        1 for s in by_name["interferometer.haar_random"] if parent_name(s) == "search.search_improvement"
    )
    m["search.evaluate_candidate.calls"] = len(evals)
    m["search.evaluate_candidate.p50_ms"] = _quantile(evals, 0.5) / 1e6
    m["search.evaluate_candidate.p99_ms"] = _quantile(evals, 0.99) / 1e6
    m["search.refine_evals"] = len(evals) - haar_in_search
    m["search.unitary_from_angles.self_s"] = self_s("search.unitary_from_angles")
    m["interferometer.haar_random.self_s"] = self_s("interferometer.haar_random")
    m["interferometer.compose.self_s"] = self_s("interferometer.compose")

    roots = by_name["cli.main"]
    wall = sum(durations("cli.main"))
    root_threads = {s[5] for s in roots}
    busy_cpu = sum(s[6] for s in roots) + sum(
        s[6] for s in by_name["cli.point"] if s[5] not in root_threads
    )
    m["cli.self_s"] = self_s("cli.main", "cli.point")
    m["cli.parallel_efficiency"] = busy_cpu / (threads * wall) if wall else 0.0

    m["setup.import_s"] = sum(durations("setup.import")) / 1e9
    m["schemes.build_chain.self_s"] = self_s("schemes.build_chain")
    m["merit.figures_of_merit.self_s"] = self_s("merit.figures_of_merit")
    return m
