"""The benchmark's tracer against the package as it stands.

bench/tracer.py wraps public functions of the package and reads fields of
every parsed scenario, the float forms among them, to label float-loop
paths.  A change to the package that breaks a traced run fails here, not
only when the benchmark runs.  The tracer is loaded from its file, as is.
"""

import importlib.util
import os

from switchdiff import cli

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
    assert bench.layer_metrics(tracer)["simulator.scalar_us_per_step"] > 0
