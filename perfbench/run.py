"""photonpost benchmark: timed CLI jobs with correctness checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each job is a fresh interpreter
(child.py) that imports photonpost from src/ and calls
`photonpost.cli.main` on a config generated from the seed (workloads.py).
Jobs repeat, one after another, until the next one would end past
`--seconds`; every job's output is checked (checks.py) and must match
the first job's byte for byte.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, medians over
the jobs.  --trace 1 alternates an untraced and a traced job and reports
the per-layer metrics, derived from the traced jobs' spans (tracing.py,
spans.py).  A workload with a probe (workloads.PROBES) first runs it once,
untimed: its wrong rows are a known defect, reported on their own lines
and in per-layer metrics, not counted as failed work.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give
quartiles, failures and the machine.  `--size tiny` shrinks every
workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
from workloads import PROBES, SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0  # every run ends within this, whatever --seconds says


class Run:
    """What the jobs of one run measured, and what their checks found."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.layers: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_output: bytes | None = None
        self.probe: dict | None = None


def spawn(job, work: str, trace: bool, spans_out: str, deadline: float) -> tuple[dict | None, str]:
    config_path = os.path.join(work, "config.json")
    out_path = os.path.join(work, "out")
    if os.path.exists(out_path):
        os.remove(out_path)
    request = {
        "argv": job.argv(config_path, out_path),
        "config": config_path,
        "out": out_path,
        "trace": trace,
        "spans_out": spans_out,
    }
    env = dict(os.environ, PYTHONPATH=SRC)
    request["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-400:]
    return json.loads(lines[-1]), proc.stderr.strip()[-400:]


def check_job(run: Run, job, record: dict | None, stderr: str, work: str, refs: dict) -> int:
    """Check one job's output; returns its work units."""
    out_path = os.path.join(work, "out")
    if job.ref_key is not None:
        expected = len(refs[job.ref_key]["rows"])
    else:
        expected = job.config["trials"]
    if record is None or record["code"] != 0 or not os.path.exists(out_path):
        code = None if record is None else record["code"]
        run.attempted += expected
        run.failed += expected
        run.problems.append(f"job exited with code {code}: {stderr}")
        return expected
    with open(out_path, "rb") as fh:
        output = fh.read()
    if job.ref_key is not None:
        attempted, failed, problems = checks.check_sweep(
            output.decode("utf-8"), refs[job.ref_key], job.config
        )
    else:
        attempted, failed, problems = checks.check_search(
            json.loads(output), record["reevaluated"], job.config["trials"]
        )
    if run.first_output is None:
        run.first_output = output
    elif output != run.first_output:
        failed = attempted
        problems = problems + ["output differs from the first job's"]
    run.attempted += attempted
    run.failed += failed
    run.problems.extend(problems)
    return attempted


def run_probe(run: Run, probe, work: str, refs: dict) -> None:
    """Run a known-defect probe once and record what it got wrong."""
    work = os.path.join(work, "probe")
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(probe.config, fh)
    record, stderr = spawn(probe, work, False, "", run.deadline)
    ref = refs[probe.ref_key]
    out_path = os.path.join(work, "out")
    run.probe = {"rows": len(ref["rows"]), "wrong_rows": 0, "max_rel_err": 0.0, "refused_jobs": 0}
    if record is None or record["code"] != 0 or not os.path.exists(out_path):
        code = None if record is None else record["code"]
        run.probe["refused_jobs"] = 1
        run.probe["problems"] = [f"probe wrote no rows, exit code {code}: {stderr}"]
        return
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    _, wrong, problems = checks.check_sweep(text, ref, probe.config)
    try:
        worst = checks.max_rel_err(text, ref)
    except ValueError:
        worst = 2.0
    run.probe.update(wrong_rows=wrong, max_rel_err=worst, problems=problems)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> Run:
    run = Run(deadline=time.monotonic() + DEADLINE_S)
    job = WORKLOADS[name](seed, size)
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    work = os.path.join(HERE, "_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans_out = os.path.join(work, "spans.json")
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(job.config, fh)
    began = time.monotonic()
    try:
        if name in PROBES:
            run_probe(run, PROBES[name](size), work, refs)
        while True:
            t0 = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                record, stderr = spawn(job, work, traced, spans_out, run.deadline)
                units = check_job(run, job, record, stderr, work, refs)
                if record is None:
                    continue
                record["ops_per_s"] = units / record["run_s"]
                if traced:
                    run.traced.append(record)
                    run.layers.append(spans.layer_metrics(spans.load(spans_out), job.threads))
                else:
                    run.untraced.append(record)
            now = time.monotonic()
            if now + (now - t0) - began > seconds or record is None:
                break
    finally:
        if os.path.exists(spans_out):  # keep the last traced job's spans
            os.replace(spans_out, os.path.join(HERE, "_work", f"spans-{name}.json"))
        shutil.rmtree(work, ignore_errors=True)
    return run


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "photonpost", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:])) or "unknown"
    return head or "unknown (not a git checkout)"


def machine_facts() -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}-{kind}"] = _read(f"{index}/size")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "photonpost", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(run: Run) -> dict:
    jobs = run.untraced
    values = {k: [j[k] for j in jobs] for k in ("run_s", "ops_per_s", "setup_s", "peak_rss_mb")}
    values["ok_share"] = [1.0 - run.failed / run.attempted]
    return values


def per_layer(run: Run) -> dict:
    values = {k: [m[k] for m in run.layers] for k in run.layers[0]}
    untraced = statistics.median(j["run_s"] for j in run.untraced)
    values["trace.overhead_share"] = [j["run_s"] / untraced - 1.0 for j in run.traced]
    values["src.lines"] = [src_lines()]
    probe = run.probe or {}
    for key in ("wrong_rows", "max_rel_err", "refused_jobs"):
        values[f"chain.small_eps.{key}"] = [probe.get(key, 0)]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "photonpost", "cli.py")):
        print(f"no photonpost sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if not run.untraced or (args.trace and not run.layers):
        for problem in run.problems[:5]:
            print(problem, file=sys.stderr)
        print("no job completed; nothing to report", file=sys.stderr)
        return 1
    values = per_layer(run) if args.trace else end_to_end(run)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(run.untraced)} untraced and {len(run.traced)} traced jobs")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        q1, median, q3 = quartiles(values[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:42s} {median:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n {len(values[name])}"
              f"  [{' '.join(f'{v:.4g}' for v in values[name])}]")
    print(f"checks: {run.failed} of {run.attempted} ops failed")
    for problem in sorted(set(run.problems))[:20]:
        print(f"  FAILED {problem}")
    if run.probe is not None:
        p = run.probe
        print(f"known defect, not counted as failed (ROADMAP item 2): the eps 1e-1..1e-6 probe "
              f"wrote {p['wrong_rows']} wrong rows of {p['rows']}, max relative error "
              f"{p['max_rel_err']:.3g}, refused jobs {p['refused_jobs']}")
        for problem in p["problems"]:
            print(f"  WRONG {problem}")
    print("facts " + json.dumps(machine_facts(), sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
