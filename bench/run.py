"""Benchmark of switchdiff: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports `switchdiff` from ./src).  The
run measures set-up (import plus scenario parsing, in fresh interpreters),
then repeats whole rounds of the workload's CLI commands for --seconds
seconds, checks every artifact, and prints the metrics named in
BENCHMARK.json: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  The last line of standard output is the JSON result.  A run
record with the machine fingerprint, and with --trace 1 the spans, go to
bench/out/.

Times in `wall_s` and `setup_s` are scaled by CAL_REF_S over the median time
of a fixed calibration loop run next to them: between a round's operations,
and before and after each set-up interpreter.  On a shared host whose speed
swings by up to 2x from one half-minute to the next, this keeps the figure
of the same code steady; the raw times are in the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
CAL_REPEATS = 3  # calibration loops before each operation and after the last
CAL_REF_S = 0.02  # calibration time that wall_s is scaled to

# timed in a fresh interpreter: import the package and parse the scenarios
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import switchdiff
n = int(sys.argv[2])
for name in sys.argv[3:3 + n]:
    switchdiff.preset(name)
for path in sys.argv[3 + n:]:
    switchdiff.load_scenario(path)
print(repr(time.perf_counter() - t0))
"""


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload) -> list:
    """(seconds to import switchdiff and parse the workload's scenarios, median
    calibration seconds around it), once per fresh interpreter.  The
    calibration runs in this warm process; in the fresh one it would still be
    paying for first calls."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC, str(len(workload.presets))]
    argv += workload.presets + workload.files
    calibrate()
    times = []
    for _ in range(SETUP_REPEATS):
        cal = [calibrate() for _ in range(CAL_REPEATS)]
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        cal += [calibrate() for _ in range(CAL_REPEATS)]
        times.append((float(done.stdout.strip().splitlines()[-1]), statistics.median(cal)))
    return times


def calibrate() -> float:
    """Seconds for a fixed piece of work shaped like the program's inner
    loops: a scalar Euler recursion with math calls, and a 2x2 numpy
    recursion.  It does not touch switchdiff, so no change to the program
    moves it; only the machine's speed does."""
    import numpy as np

    t0 = time.perf_counter()
    x, s = 0.3, 0.0
    for k in range(20000):
        x = x + (-x * abs(x)) * 0.001 + 0.01 * math.sin(x)
        s += math.exp(-0.001 * k) * x
    a = np.array([[-1.0, 0.5], [0.0, -1.0]])
    v = np.array([0.1, 0.2])
    for _ in range(3000):
        v = v + (a @ v) * 0.001
        s += float(v[0])
    return time.perf_counter() - t0


def run_op(cli, op, tracer) -> tuple:
    """Run one CLI command; returns (seconds, exit code, error text)."""
    sink = io.StringIO()
    span = tracer.begin("cli.command") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(op.argv)
        err = "" if rc == 0 else f"exit code {rc}"
    except Exception:  # a crash is a failed operation, not a failed run
        rc, err = -1, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if span is not None:
        tracer.end(span)
    return elapsed, rc, err


def run_round(cli, workload, tracer) -> dict:
    """One pass over the workload's operations.  The calibration loops run
    before every operation and after the last, outside the timings."""
    ops = []
    cal = []
    for op in workload.ops:
        cal += [calibrate() for _ in range(CAL_REPEATS)]
        elapsed, rc, err = run_op(cli, op, tracer)
        ops.append({"name": op.name, "seconds": elapsed, "rc": rc, "error": err})
    cal += [calibrate() for _ in range(CAL_REPEATS)]
    wall = sum(e["seconds"] for e in ops)
    scale = CAL_REF_S / statistics.median(cal)
    for entry, op in zip(ops, workload.ops):
        if entry["rc"] != 0:
            continue
        try:
            entry["problems"] = op.check(op.out)
        except Exception:
            entry["problems"] = ["check raised: " + traceback.format_exc()]
    return {
        "wall_s": wall,
        "calibration_s": cal,
        "scaled_wall_s": wall * scale,
        "traced": tracer is not None,
        "ops": ops,
    }


def throughput(workload, rnd: dict, attr: str) -> float:
    work = sum(getattr(op, attr) for op in workload.ops)
    secs = sum(
        e["seconds"] for e, op in zip(rnd["ops"], workload.ops) if getattr(op, attr)
    )
    return work / secs if secs else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "switchdiff", "__init__.py")):
        print(f"error: no switchdiff sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds positive", file=sys.stderr)
        return 2

    sys.path.insert(0, BENCH_DIR)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # the program's default: one thread, no pool
    os.environ.pop("SWITCHDIFF_THREADS", None)
    run_out = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_out, ignore_errors=True)
    os.makedirs(run_out)
    workload = workloads.BUILDERS[args.workload](ROOT, run_out, args.seed)

    setup_times = measure_setup(workload)
    sys.path.insert(0, SRC)
    from switchdiff import cli

    rounds = []
    traced_runs = []
    start = time.perf_counter()
    elapsed = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            with tracing.patched(tracer):
                rnd = run_round(cli, workload, tracer)
            rnd["layers"] = tracing.layer_metrics(tracer)
            traced_runs.append(tracer)
        else:
            rnd = run_round(cli, workload, None)
        rounds.append(rnd)
        last = time.perf_counter() - start - elapsed
        elapsed += last
        need_more = args.trace and len(rounds) < 2
        if not need_more and elapsed + last > args.seconds:
            break

    entries = [e for r in rounds for e in r["ops"]]
    attempted = len(entries)
    failed = sum(e["rc"] != 0 for e in entries)
    problems = [f"{e['name']}: {p}" for e in entries for p in e.get("problems", [])]
    for e in entries:
        if e["rc"] != 0:
            print(f"{e['name']} failed: {e['error']}", file=sys.stderr)
    for p in sorted(set(problems)):
        print(f"check failed: {p}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        layered = [r["layers"] for r in rounds if r["traced"]]
        metrics = {k: statistics.median(m[k] for m in layered) for k in layered[0]}
        untraced_s = statistics.median(r["scaled_wall_s"] for r in plain)
        traced_s = statistics.median(r["scaled_wall_s"] for r in rounds if r["traced"])
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        for key, attr in (
            ("throughput.paths_per_s", "paths"),
            ("throughput.coupled_paths_per_s", "coupled_paths"),
            ("throughput.steps_per_s", "steps"),
        ):
            metrics[key] = statistics.median(throughput(workload, r, attr) for r in plain)
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(t * CAL_REF_S / cal for t, cal in setup_times),
            "wall_s": statistics.median(r["scaled_wall_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "argv": [op.argv for op in workload.ops],
        "setup_s": setup_times,
        "rounds": rounds,
        "result": result,
    }
    tag = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(OUT, f"record-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if traced_runs:
        with open(os.path.join(OUT, f"spans-{tag}.json"), "w") as fh:
            json.dump(
                [{"spans": t.to_records(), "counters": t.counters} for t in traced_runs], fh
            )

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
