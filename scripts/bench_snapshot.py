"""Write one snapshot of the benchmark to BENCH_<n>.json.

    python3 scripts/bench_snapshot.py --number 8
    python3 scripts/bench_snapshot.py --root <other source tree> --out before.json

For each workload in BENCHMARK.json it runs

    python3 bench/run.py --workload <w> --seed <seed> --seconds <s> --trace 0|1

from the root of the source tree, and keeps the JSON result that run.py
prints on its last line: the end-to-end medians at --trace 0, the per-layer
medians at --trace 1.  The machine fingerprint comes from run.py's run record.
A run that exits nonzero, or prints no result, is recorded with its exit code
and the tail of its error output; it is not retried.

The snapshot also carries an engine_us_per_step block, timed in this process
on the tree's own src/ (see engine_timings): the benchmark's tracer does not
see the batched engine, so its per-step figures for vector and coupled paths
read 0.  Next to it, engine_calibrate_s is the median time of bench/run.py's
calibrate() over the same rounds, a fixed piece of work that only the
machine's speed moves, so that engine figures of two snapshots can be set
against the speed of the host they were taken on.  It also carries
src_lines, the line count of each module of the tree's src/switchdiff and
their total (see src_lines), the size measure by which the roadmap tracks
deleted code.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time
from functools import partial

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_one(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    entry: dict = {"exit_code": done.returncode}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or result is None:
        entry["error"] = done.stderr.strip().splitlines()[-5:]
        return entry
    entry["correct"] = result["correct"]
    entry["attempted"] = result["attempted"]
    entry["failed"] = result["failed"]
    entry["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return entry


def read_fingerprint(root: str, workload: str, seed: int):
    path = os.path.join(root, "bench", "out", f"record-{workload}-seed{seed}-trace0.json")
    try:
        with open(path) as fh:
            return json.load(fh)["fingerprint"]
    except (OSError, KeyError, json.JSONDecodeError):
        return None


# (name, preset, paths, horizon, coupled, x0): paths None is one path of the
# float loop, through simulate.  The two float-loop cases differ in their
# density of events: two_state_switching records twice and is a candidate to
# switch on 0.2% of its steps; example51_stable records every 10th step, is a
# candidate on about 6% and exits early on some paths
ENGINE_CASES = (
    ("float_loop_two_state_switching", "two_state_switching", None, 20.0, False, None),
    ("float_loop_example51_stable", "example51_stable", 15, 15.0, False, None),
    ("batch_example52_stable_P5", "example52_stable", 5, 10.0, False, None),
    ("batch_example52_stable_P256", "example52_stable", 256, 2.0, False, None),
    ("coupled_example52_stable_P40", "example52_stable", 40, 1.0, True, [0.3, 0.0]),
)
ENGINE_REPEATS = 5


def bench_calibrate():
    """calibrate() of this repository's bench/run.py, loaded from its file."""
    path = os.path.join(REPO, "bench", "run.py")
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibrate


def engine_timings(root: str) -> tuple:
    """(cases, calibrate_s): the minimum CPU microseconds per step of each
    engine case, over ENGINE_REPEATS rounds of all cases, with switchdiff
    imported from root/src, and the median wall seconds of bench/run.py's
    calibrate(), run once at the end of each round.  The cases go through
    the public simulate and run_ensemble (no functionals), so any tree with
    that API can be timed; a step of a case with paths advances each of
    them once (a path that has exited, not).  Rounds run the cases in turn,
    so that a slow phase of a shared host costs each case one repeat rather
    than all of them."""
    sys.path.insert(0, os.path.join(root, "src"))
    import dataclasses

    import numpy as np
    from switchdiff import preset, run_ensemble, simulate

    runs = {}
    for name, scenario, paths, horizon, coupled, x0 in ENGINE_CASES:
        bundle = preset(scenario)
        config = dataclasses.replace(bundle.sim, horizon=horizon)
        x0 = bundle.x0 if x0 is None else np.array(x0)
        if paths is None:
            run = partial(simulate, bundle.model, config, x0, bundle.i0)
        else:
            run = partial(
                run_ensemble, bundle.model, None, config, paths, [], x0, bundle.i0,
                coupled=coupled,
            )
        runs[name] = (run, paths or 1, int(round(horizon / config.dt)))
    calibrate = bench_calibrate()
    best = dict.fromkeys(runs, math.inf)
    calibrations = []
    for _ in range(ENGINE_REPEATS):
        for name, (run, _, _) in runs.items():
            t0 = time.process_time()
            run()
            best[name] = min(best[name], time.process_time() - t0)
        calibrations.append(calibrate())
    cases = {
        name: {"paths": paths, "steps": steps, "us_per_step": best[name] / steps * 1e6}
        for name, (_, paths, steps) in runs.items()
    }
    return cases, statistics.median(calibrations)


def src_lines(root: str) -> dict:
    """Lines of each module root/src/switchdiff/*.py, counted as wc -l
    counts them (newline characters), and their total."""
    src = os.path.join(root, "src", "switchdiff")
    modules = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                modules[name] = fh.read().count(b"\n")
    return {"modules": modules, "total": sum(modules.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=REPO, help="source tree to benchmark")
    parser.add_argument("--number", type=int, help="write BENCH_<number>.json in this repository")
    parser.add_argument("--out", help="output path (instead of --number)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    if (args.number is None) == (args.out is None):
        parser.error("give exactly one of --number and --out")
    out = args.out or os.path.join(REPO, f"BENCH_{args.number}.json")

    with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]

    snapshot: dict = {"seed": args.seed, "seconds": seconds, "fingerprint": None, "workloads": {}}
    snapshot["src_lines"] = src_lines(args.root)
    # timed first: right after minutes of benchmark load the same cases read
    # up to 1.7x higher on a shared 2-core host
    snapshot["engine_us_per_step"], snapshot["engine_calibrate_s"] = engine_timings(args.root)
    for name in names:
        runs = {}
        for trace in (0, 1):
            runs[f"trace{trace}"] = entry = run_one(args.root, name, args.seed, seconds, trace)
            status = "ok" if "metrics" in entry else f"exit code {entry['exit_code']}"
            print(f"{name} --trace {trace}: {status}", file=sys.stderr)
        snapshot["workloads"][name] = runs
        if snapshot["fingerprint"] is None:
            snapshot["fingerprint"] = read_fingerprint(args.root, name, args.seed)

    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    failed = [
        f"{w} {t}" for w, runs in snapshot["workloads"].items()
        for t, e in runs.items() if "metrics" not in e
    ]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
