"""One workload in one process: set up, say "ready", run rounds, report.

run.py starts this script and times set-up from process start to the
"ready" line.  The last line of standard output is one JSON object with the
operation counts, the per-operation timings and, when traced, the
per-layer metrics.  Problems found by the checks go to standard error.

    python3 perfbench/worker.py --workload exact_tournaments --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_cutlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cutlab
    if Path(cutlab.__file__).resolve().parent != (src / "cutlab").resolve():
        raise ImportError(f"cutlab imported from {cutlab.__file__}, not {src}")
    return cutlab


def tail(times):
    """The highest order statistic with ten samples above it; None below
    forty samples, where it would be no tail."""
    return sorted(times)[-11] if len(times) >= 40 else None


def op_p50(slots):
    """The median operation time: the median, over the operations of a
    round, of each operation's mean time over the run's rounds.

    The host's speed changes by up to a third over tens of seconds, so the
    plain median of all times jumps between its fast and slow spells; the
    mean over rounds first averages those out, as ops_per_s does."""
    means = [statistics.fmean(slot) for slot in slots if slot]
    return statistics.median(means) if means else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cutlab = _import_cutlab()
    from probe import PER_LAYER, Probe
    from workloads import WORKLOADS

    kind = WORKLOADS[args.workload]
    probe = Probe(timing=bool(args.trace), capture=kind.capture)
    probe.install()
    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = kind(cutlab, probe, args.seed, out_dir)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # The inputs and the benchmark's own objects live for the whole run;
    # frozen, they are left out of every collection, so the collector's
    # work during an operation is the operation's own, and the collection
    # before each operation costs microseconds, not tens of milliseconds.
    gc.freeze()

    slots = []  # slots[i]: the times of the i-th operation of each round
    attempted = failed = rounds = 0
    busy = spent = 0.0  # time of the operations that succeeded / of all
    problems = []
    start = perf_counter()
    # a run measures --seconds of operation time; the wall-clock cap ends
    # a run whose operations all fail at once
    while rounds < workload.min_rounds or (
            spent < args.seconds and perf_counter() - start < 4 * args.seconds):
        for i, op in enumerate(workload.ops(rounds)):
            if i == len(slots):
                slots.append([])
            fresh = op.fresh()
            gc.collect()  # each operation starts from the same collector state
            attempted += 1
            probe.active = True
            t0 = perf_counter()
            try:
                out = op.run(*fresh)
            except Exception:
                failed += 1
                print(f"{op.label}: failed\n{traceback.format_exc()}",
                      file=sys.stderr)
                probe.captured.clear()
                continue
            finally:
                elapsed = perf_counter() - t0
                spent += elapsed
                probe.active = False
            slots[i].append(elapsed)
            busy += elapsed
            try:
                found = op.check(out)
            except Exception:
                found = [f"check raised\n{traceback.format_exc()}"]
            problems += [f"{op.label}: {p}" for p in found]
        rounds += 1
    wall = perf_counter() - start

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    times = [t for slot in slots for t in slot]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "wall_s": wall,
        "ops_per_s": len(times) / busy if busy > 0 else 0.0,
        "op_p50_s": op_p50(slots),
        "op_tail_s": tail(times),
    }
    if args.trace:
        values = probe.layer_metrics(busy, workload.accept_ratio)
        result["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit, _ in PER_LAYER}
        result["table"] = probe.table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
