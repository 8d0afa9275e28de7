"""One benchmark job in a fresh interpreter: import photonpost, run the CLI.

    python3 child.py JOB_JSON

JOB_JSON names the CLI argv, the config path, whether to trace (and
where to dump the spans), and the monotonic time the runner spawned this
process.  The last stdout line is a JSON record of the job: setup and
run times, the CLI exit code, peak RSS and, for search jobs, the
re-evaluated best value, computed after the timed region.
"""

import json
import resource
import sys
import time


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    t0 = time.perf_counter_ns()
    import photonpost.cli as cli

    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.record("setup.import", t0, t1)
    with open(job["config"], encoding="utf-8") as fh:
        json.load(fh)
    setup_s = time.monotonic() - job["spawned"]

    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    code = cli.main(job["argv"])
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.dump(job["spans_out"])
    if code == 0 and job["argv"][0] == "search":
        from photonpost.search import SearchReport, reevaluate

        with open(job["out"], encoding="utf-8") as fh:
            report = SearchReport.from_json_dict(json.load(fh))
        record["reevaluated"] = reevaluate(report)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
