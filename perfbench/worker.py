"""One workload process: set up, signal readiness, run its share of the
timed window, check.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and one
BLAS thread. Set-up is the import of ``xxzchain``, input generation and one
warm-up command; ``ready`` on stdout marks its end. The worker then runs
every ``--parts``-th round of the workload, starting at round ``--part``,
until ``--seconds`` have passed; checks run after that. The last stdout line
is this process's record as JSON; ``run.py`` pools the records of a run.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import xxzchain
    from xxzchain import cli, contours, errors

    if not os.path.abspath(xxzchain.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"xxzchain imported from {xxzchain.__file__}, not from {SRC}")

    import workloads

    lib = argparse.Namespace(cli=cli, contours=contours, XXZError=errors.XXZError)
    wl = workloads.WORKLOADS[args.workload](args.seed, lib)
    wl.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    records, cpu = [], []
    start, cpu_start = time.perf_counter(), time.process_time()
    for ops in itertools.islice(wl.rounds(), args.part, None, args.parts):
        for op in ops:
            if tracer:
                tracer.op = len(records)
            t0, c0 = time.perf_counter(), time.process_time()
            ok, output, error = op.call()
            records.append(workloads.Record(op, time.perf_counter() - t0, ok, output, error))
            cpu.append(time.process_time() - c0)
            if tracer and isinstance(output, str):
                tracer.count("cli.output.bytes", len(output.encode()))
        if time.perf_counter() - start >= args.seconds:
            break
    window = time.perf_counter() - start
    window_cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems = wl.check(records)
    errored = [i for i, rec in enumerate(records) if not rec.ok]
    result = {
        "attempted": len(records),
        "failed": len(errored) + sum(1 for i in problems if i is not None),
        "correct": not problems,
        "window_s": window,
        "window_cpu_s": window_cpu,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [rec.seconds for rec in records],
        "cpu_s": cpu,
        "succeeded": [rec.ok and i not in problems for i, rec in enumerate(records)],
        "kinds": [rec.op.kind for rec in records],
        "errors": {i: {"op": records[i].op.meta, "error": records[i].error}
                   for i in errored[:20]},
        "problems": {str(k): v for k, v in sorted(
            problems.items(), key=lambda kv: -1 if kv[0] is None else kv[0])[:20]},
    }
    if tracer:
        result["layers"] = tracer.metrics(len(records))
        result["missing"] = tracer.missing
        tracer.dump(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
