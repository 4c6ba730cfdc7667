"""Benchmark of the `xxz` pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each worker process gets one BLAS thread,
the checkout's ``src`` on ``PYTHONPATH``, and the run's fresh
``XXZ_CACHE_DIR`` and private ``HOME``. With ``--trace 0`` the timed window
is split over ``WINDOW_WORKERS`` fresh workers run one after another, each
on its own share of the rounds, and their ops are pooled; set-up is timed
over ``SETUP_PROBES`` worker starts and reported as their median. Op
latencies and throughput are read on the process CPU clock: the ops are
single-threaded and compute-bound, so CPU time equals wall time except
while the host takes the CPU away (see README, Steadiness). With
``--trace 1`` one traced worker runs the whole window and gives the
per-layer metrics. The last stdout line holds the metrics; details of each
run go to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("ground-state", "asymptotics", "contour-verify")
WINDOW_WORKERS = 3
SETUP_PROBES = 5  # window workers included
DEADLINE_S = 170.0
END_TO_END = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, argv, env, deadline):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + argv,
            stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def setup_seconds(self) -> float:
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError("worker did not finish set-up")
        return time.perf_counter() - self.start

    def finish(self) -> str:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return out

    def kill(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args, env, deadline, trace_file):
    """Set-up times of every worker start and the records of the window workers."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if trace_file:
        runs = [common + ["--seconds", str(args.seconds), "--trace-file", trace_file]]
    else:
        share = str(args.seconds / WINDOW_WORKERS)
        runs = [common + ["--seconds", share, "--part", str(k), "--parts", str(WINDOW_WORKERS)]
                for k in range(WINDOW_WORKERS)]
        runs += [common + ["--setup-only"]] * (SETUP_PROBES - WINDOW_WORKERS)
    setups, records = [], []
    for argv in runs:
        worker = Worker(argv, env, deadline)
        try:
            setups.append(worker.setup_seconds())
            lines = worker.finish().strip().splitlines()
        finally:
            worker.kill()
        if "--setup-only" not in argv:
            if not lines:
                raise RuntimeError("worker printed no result")
            records.append(json.loads(lines[-1]))
    return setups, records


def _latency_stats(lat):
    if len(lat) < 2:
        return lat[0], lat[0]
    return statistics.median(lat), statistics.quantiles(lat, n=20, method="inclusive")[18]


def pool(records) -> dict:
    """One run's result from the records of its window workers."""
    res = {key: [x for rec in records for x in rec[key]]
           for key in ("latencies_s", "cpu_s", "succeeded", "kinds")}
    res.update(
        attempted=sum(rec["attempted"] for rec in records),
        failed=sum(rec["failed"] for rec in records),
        correct=all(rec["correct"] for rec in records),
        window_s=sum(rec["window_s"] for rec in records),
        window_cpu_s=sum(rec["window_cpu_s"] for rec in records),
        peak_rss_mb=max(rec["peak_rss_mb"] for rec in records),
        problems={f"w{k}:{i}": msgs for k, rec in enumerate(records)
                  for i, msgs in rec["problems"].items()},
        errors={f"w{k}:{i}": err for k, rec in enumerate(records)
                for i, err in rec["errors"].items()},
    )
    ok = [t for t, good in zip(res["cpu_s"], res["succeeded"]) if good]
    res["latency_p50_s"], res["latency_p95_s"] = _latency_stats(ok or [res["window_cpu_s"]])
    res["throughput_ops_per_s"] = len(ok) / res["window_cpu_s"]
    if "layers" in records[0]:
        res["layers"], res["missing"] = records[0]["layers"], records[0]["missing"]
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "xxzchain", "cli.py")):
        print(f"perfbench: no xxzchain sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    rundir = os.path.join(RESULTS, f"run-{tag}-{os.getpid()}")
    home = os.path.join(rundir, "home")
    cache = os.path.join(rundir, "cache")
    os.makedirs(home, exist_ok=True)
    os.makedirs(cache, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, XXZ_CACHE_DIR=cache, HOME=home)
    env.update({name: "1" for name in THREAD_ENV})
    trace_file = os.path.join(RESULTS, f"trace-{tag}.json") if args.trace else None
    try:
        setups, records = measure(args, env, deadline, trace_file)
        res = pool(records)
        home_cache = os.path.join(home, ".cache", "xxzchain")
        if os.path.exists(home_cache):
            res["correct"] = False
            res["problems"]["run"] = [f"the default cache {home_cache} was written"]
        res["cache_files"] = len(os.listdir(cache))
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    res["setup_s"] = statistics.median(setups)
    res.update(setups_s=setups, workload=args.workload, seed=args.seed,
               seconds=args.seconds, blas_threads=1)
    if args.trace:
        metrics = res["layers"]
        if res["missing"]:
            print("perfbench: not traced, name missing: " + ", ".join(res["missing"]))
    else:
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END.items()}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    for key, msgs in res["problems"].items():
        print(f"perfbench: check failed (op {key}): {msgs}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
