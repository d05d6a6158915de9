"""cutlab benchmark: runs one workload (or all three) and prints its metrics.

    python3 perfbench/run.py                      # all workloads, seed 1
    python3 perfbench/run.py --workload exact_tournaments --seed 3 --seconds 30
    python3 perfbench/run.py --workload giant_scaling --trace 1

Each workload runs in its own process with cutlab imported from ./src and
one worker.  Set-up is timed from process start to "ready" in SETUPS
processes (the last one goes on to run the workload) and reported as their
median.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("giant_scaling", "exact_tournaments", "edge_list_io")
SETUPS = 3
TIME_LIMIT_S = 170.0

# (name, unit) of the end-to-end metrics; BENCHMARK.json lists the same
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def _spawn(argv, deadline):
    """Run a worker; return (seconds to its "ready" line, stdout after it,
    peak RSS in MB)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(max(deadline - monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = perf_counter() - t0
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return ready_s, rest, usage.ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace) -> dict:
    deadline = monotonic() + TIME_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    # the traced run reports no set-up time, so it sets up only once
    for _ in range(SETUPS - 1 if not trace else 0):
        setups.append(_spawn(argv + ["--setup-only"], deadline)[0])
    ready_s, rest, rss_mb = _spawn(argv, deadline)
    setups.append(ready_s)
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {name} printed no result")
    worker = json.loads(lines[-1])
    worker["setup_s"] = statistics.median(setups)
    worker["setups"] = setups
    worker["peak_rss_mb"] = rss_mb
    return worker


def result_line(worker, trace) -> dict:
    if trace:
        metrics = worker["layers"]
    else:
        metrics = {name: {"value": worker[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": worker["correct"], "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}


def summary(name, seed, worker, trace) -> str:
    out = [f"workload {name}  seed {seed}  trace {trace}",
           f"  operations attempted {worker['attempted']}  failed "
           f"{worker['failed']}  rounds {worker['rounds']}  checks "
           f"{'passed' if worker['correct'] else 'FAILED'}"]
    if trace:
        layers = worker["layers"]
        out.append(f"  traced operation time {layers['trace.op_wall_s']['value']:.4f} s,"
                   f" {100 * layers['trace.wrapped_share']['value']:.2f}% of it"
                   " inside wrapped calls")
        out.append("  wrapped call                           self_s    calls")
        for fn, self_s, calls in worker["table"]:
            out.append(f"    {fn:<34} {self_s:>10.4f} {calls:>8}")
        return "\n".join(out)
    for metric, unit in END_TO_END:
        out.append(f"  {metric:<28} {worker[metric]:>14.6g} {unit}")
    if worker["op_tail_s"] is not None:
        done = worker["attempted"] - worker["failed"]
        out.append(f"  {'op_tail_s':<28} {worker['op_tail_s']:>14.6g} s"
                   f"  (11th slowest of {done} operations)")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 40:
        ap.error("--seed must lie in [0, 2^40)")
    if not (ROOT / "src" / "cutlab" / "__init__.py").is_file():
        print(f"error: no cutlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            worker = run_workload(name, args.seed, args.seconds, args.trace)
        except (WorkerError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(summary(name, args.seed, worker, args.trace), flush=True)
        results[name] = result_line(worker, args.trace)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
