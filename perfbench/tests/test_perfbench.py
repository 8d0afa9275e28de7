"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The tiny size runs every workload end to end in a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["correct"] and result["failed"] == 0, proc.stdout
    if workload == "chain-sweep-11":
        assert "the eps 1e-1..1e-6 probe wrote" in proc.stdout


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "search-4mode", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _chain_csv(rows):
    ref = REFS["chain-sweep-11/tiny"]
    lines = [",".join(ref["columns"])]
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_chain_checker_accepts_reference_rows():
    ref = REFS["chain-sweep-11/tiny"]
    config = WORKLOADS["chain-sweep-11"](0, "tiny").config
    assert checks.check_sweep(_chain_csv(ref["rows"]), ref, config) == (len(ref["rows"]), 0, [])


def test_chain_checker_flags_a_corrupted_row():
    ref = REFS["chain-sweep-11/tiny"]
    config = WORKLOADS["chain-sweep-11"](0, "tiny").config
    rows = [list(r) for r in ref["rows"]]
    col = ref["columns"].index("ratio_gain")
    rows[2][col] *= 1.0 + 1e-6
    attempted, failed, problems = checks.check_sweep(_chain_csv(rows), ref, config)
    assert (attempted, failed) == (len(rows), 1)
    assert "row 2" in problems[0] and "ratio_gain" in problems[0]


def test_chain_checker_flags_bound_break_and_missing_row():
    ref = REFS["chain-sweep-11/tiny"]
    config = WORKLOADS["chain-sweep-11"](0, "tiny").config
    rows = [list(r) for r in ref["rows"]][:-1]
    bound = (config["modes"] - config["detected"]) * rows[0][ref["columns"].index("ratio_in")]
    rows[0][ref["columns"].index("ratio_out")] = 1.01 * bound
    attempted, failed, problems = checks.check_sweep(_chain_csv(rows), ref, config)
    assert (attempted, failed) == (len(ref["rows"]), 2)
    assert "breaks the bound" in problems[0]
    assert "missing" in problems[1]


def test_max_rel_err_of_reference_rows_is_zero_and_grows_with_a_corruption():
    ref = REFS["chain-small-eps/tiny"]
    assert checks.max_rel_err(_chain_csv(ref["rows"]), ref) == 0.0
    rows = [list(r) for r in ref["rows"]]
    rows[4][ref["columns"].index("ratio_out")] *= 1.5
    assert checks.max_rel_err(_chain_csv(rows), ref) == pytest.approx(1.0 / 3.0)
    rows[5][ref["columns"].index("fano_out")] = float("nan")
    assert checks.max_rel_err(_chain_csv(rows), ref) == 2.0


def test_search_checker_fails_every_candidate_on_reevaluation_mismatch():
    report = {"trials_run": 40, "best_value": 0.6, "bound_violations": 0}
    assert checks.check_search(report, 0.6, trials=8) == (40, 0, [])
    attempted, failed, _ = checks.check_search(report, 0.6 + 1e-9, trials=8)
    assert (attempted, failed) == (40, 40)
    attempted, failed, _ = checks.check_search(dict(report, bound_violations=3), 0.6, trials=8)
    assert (attempted, failed) == (40, 3)


def test_self_time_subtracts_children_across_threads():
    # root 0..100 in thread 0; two overlapping worker spans 10..60 and 40..90
    # each with a 10-unit permanent child; one root-thread step 95..99.
    s = [
        [0, "cli.main", 0, 100, None, 0, 20],
        [1, "cli.point", 10, 60, 0, 1, 30],
        [2, "cli.point", 40, 90, 0, 2, 30],
        [3, "permanent.permanent_with_multiplicity", 20, 30, 1, 1, 6],
        [4, "permanent.permanent_with_multiplicity", 50, 60, 2, 2, 7],
        [5, "fock.enumerate_inputs", 95, 99, 0, 0, 1],
    ]
    m = spans.layer_metrics(s, threads=2)
    assert m["cli.self_s"] == pytest.approx((100 - 80 - 4 + 40 + 40) / 1e9)
    assert m["permanent.self_s"] == pytest.approx(20 / 1e9)
    assert m["permanent.calls.d6"] == 1 and m["permanent.calls.d7"] == 1
    assert m["permanent.us_per_call.d6"] == pytest.approx(0.01)
    assert m["fock.configs_yielded"] == 1
    assert m["cli.parallel_efficiency"] == pytest.approx((20 + 30 + 30) / (2 * 100))
