"""The benchmark's tracer and snapshot script against the package as it stands.

bench/tracer.py wraps public functions of the package and reads fields of
every parsed scenario, the float forms among them, to label float-loop
paths.  A change to the package that breaks a traced run fails here, not
only when the benchmark runs.  The tracer is loaded from its file, as is;
so is scripts/bench_snapshot.py, whose line count of the package must match
a plain count of its modules, and whose engine cases must sit on both sides
of the simulator's FLOAT_PATHS.
"""

import importlib.util
import os

from switchdiff import cli, simulator

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_round_completes_and_times_the_float_loop(tmp_path):
    bench = load_tracer()
    runs = [
        ["analyze", "--scenario", "example52_stable"],
        ["simulate", "--scenario", "example51_stable", "--paths", "2", "--horizon", "0.5"],
    ]
    with bench.patched(bench.Tracer()) as tracer:
        codes = [cli.main(argv + ["--out", str(tmp_path / argv[0])]) for argv in runs]
    assert codes == [0, 0]
    metrics = bench.layer_metrics(tracer)
    assert metrics["simulator.scalar_us_per_step"] > 0
    # the reported grid, 18 radii x 5 directions x 120 regimes, not the rows
    # the scan evaluates, so that the figures compare across snapshots
    assert metrics["model.drift_scan_points"] == 10800


def test_snapshot_counts_the_source_lines():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_snapshot.py")
    spec = importlib.util.spec_from_file_location("bench_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    src = os.path.join(root, "src", "switchdiff")
    counted = snapshot.src_lines(root)
    want = {}
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            want[name] = len(fh.readlines())
    assert counted == {"modules": want, "total": sum(want.values())}


def test_snapshot_times_both_sides_of_the_engine_crossover():
    # example52's plain paths run the float loop below FLOAT_PATHS and
    # batched from there on; the engine cases name the engine that runs them
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_snapshot.py")
    spec = importlib.util.spec_from_file_location("bench_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    cases = {
        paths: name for name, preset, paths, _, coupled, _ in snapshot.ENGINE_CASES
        if preset == "example52_stable" and not coupled
    }
    below = [p for p in cases if p < simulator.FLOAT_PATHS]
    assert simulator.FLOAT_PATHS in cases and below
    assert all(cases[p].startswith("float_loop_") for p in below)
    assert all(cases[p].startswith("batch_") for p in cases if p >= simulator.FLOAT_PATHS)
