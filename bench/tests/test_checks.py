"""Every correctness check accepts switchdiff's output as it is today and
rejects a perturbed copy.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import contextlib
import copy
import io
import json
import math
import os

import numpy as np
import pytest

import checks
import workloads
from switchdiff import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def read(path):
    with open(path) as fh:
        return json.load(fh)


def matrices(name):
    return read(os.path.join(ROOT, "scenarios", f"{name}.json"))["model"]["params"]["matrices"]


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


# ---------------------------------------------------------------------------
# certify


@pytest.fixture(scope="module")
def analyzed(out):
    dirs = {}
    for name in ("example51_stable", "example52_stable"):
        d = os.path.join(out, name)
        run_cli(["analyze", "--scenario", name, "--out", d])
        dirs[name] = d
    return dirs


@pytest.mark.parametrize("name", ["example51_stable", "example52_stable"])
def test_geometric_measure(analyzed, name):
    nu = checks.read_measure_csv(os.path.join(analyzed[name], "measure.csv"))
    assert checks.check_geometric_measure(nu) == []
    shifted = nu.copy()
    shifted[3] += 1e-6
    assert checks.check_geometric_measure(shifted)


def test_verdict(analyzed):
    report = read(os.path.join(analyzed["example52_stable"], "report.json"))
    assert checks.check_verdict(report, "stable_certified") == []
    flipped = dict(report, overall_verdict="unstable_certified")
    assert checks.check_verdict(flipped, "stable_certified")


def test_prop41(analyzed):
    report = read(os.path.join(analyzed["example52_stable"], "report.json"))
    mats = matrices("example52_stable")
    assert checks.check_prop41(report, mats) == []
    bad = copy.deepcopy(report)
    bad["proposition41"]["stable_value"] += 1e-6
    assert checks.check_prop41(bad, mats)
    # the other preset's matrices give another value
    assert checks.check_prop41(report, matrices("example52_unstable"))


def test_lumped_measure_matches_program():
    import switchdiff as sd

    kernel = sd.build_kernel("example52_q", {"scale": 1.0})
    nu = sd.invariant_measure(sd.truncate(kernel, 30, "lump")).nu
    assert np.max(np.abs(nu - checks.lumped_geometric_measure(30))) < 1e-12


# ---------------------------------------------------------------------------
# ensemble


@pytest.fixture(scope="module")
def simulated(out):
    dirs = {}
    for name, paths in (("example51_stable", 5), ("example51_unstable", 5), ("example52_stable", 4)):
        d = os.path.join(out, "sim-" + name)
        run_cli(["simulate", "--scenario", name, "--paths", str(paths), "--out", d])
        dirs[name] = read(os.path.join(d, "ensemble.json"))
    return dirs


def set_estimate(doc, prefix, value):
    doc = copy.deepcopy(doc)
    checks.functional(doc, prefix)["estimate"] = value
    return doc


def test_stay_in_ball(simulated):
    stable, unstable = simulated["example51_stable"], simulated["example51_unstable"]
    assert checks.check_stay_in_ball(stable, stable=True) == []
    assert checks.check_stay_in_ball(unstable, stable=False) == []
    assert checks.check_stay_in_ball(set_estimate(stable, "stay_in_ball", 0.9), stable=True)
    assert checks.check_stay_in_ball(set_estimate(unstable, "stay_in_ball", 0.6), stable=False)
    # a flipped split fails both ways
    assert checks.check_stay_in_ball(unstable, stable=True)
    assert checks.check_stay_in_ball(stable, stable=False)


def test_expected_occupation_two_state_closed_form():
    a, b, T = 1.5, 0.5, 3.0
    Q = np.array([[-a, a], [b, -b]])
    closed = b / (a + b) + a / ((a + b) ** 2 * T) * (1.0 - math.exp(-(a + b) * T))
    assert abs(checks.expected_occupation(Q, T) - closed) < 1e-10


def test_occupation(simulated):
    doc = simulated["example52_stable"]
    want = checks.expected_occupation(checks.example52_generator(30), 10.0)
    assert 0.5 < want < 0.6  # starting in regime 1 biases the average upward
    assert checks.check_occupation(doc, want) == []
    # a chain that never switches, or never returns to regime 1
    for wrong in (1.0, 0.0):
        assert checks.check_occupation(set_estimate(doc, "occupation(i=1)", wrong), want)


@pytest.fixture(scope="module")
def coupled(out):
    d = os.path.join(out, "coupled")
    os.makedirs(d)
    scenario = os.path.join(d, "edge.json")
    workloads._coupled_scenario(ROOT, scenario, seed=3)
    run_cli(["coupled-test", "--scenario", scenario, "--paths", "20", "--horizon", "1", "--out", d])
    return read(os.path.join(d, "coupled.json"))


def test_coupled(coupled):
    assert checks.check_coupled(coupled, 0.5) == []
    assert checks.check_coupled(dict(coupled, sup_xi=coupled["sup_xi"] + 1e-6), 0.5)
    assert checks.check_coupled(dict(coupled, decoupling_probability=0.99), 0.5)
    assert checks.check_coupled(dict(coupled, n_decoupled=coupled["n_decoupled"] + 1), 0.5)


# ---------------------------------------------------------------------------
# rate_fit


@pytest.fixture(scope="module")
def rates(out):
    docs = {}
    d = os.path.join(out, "contraction")
    run_cli(["verify-rate", "--scenario", "contraction_benchmark", "--paths", "2", "--out", d])
    docs["contraction"] = read(os.path.join(d, "rate.json"))
    d = os.path.join(out, "rate51")
    run_cli(["verify-rate", "--scenario", "example51_stable", "--paths", "1",
             "--horizon", "30", "--out", d])
    docs["example51_stable"] = read(os.path.join(d, "rate.json"))
    return docs


def test_contraction_lambda(rates):
    doc = rates["contraction"]
    assert checks.check_contraction(doc, 0.001) == []
    k = int(np.flatnonzero(checks.LAMBDA_GRID == doc["lambda_hat"])[0])
    for wrong in (checks.LAMBDA_GRID[k - 1], checks.LAMBDA_GRID[k + 1]):
        assert checks.check_contraction(dict(doc, lambda_hat=float(wrong)), 0.001)
    assert 1.8 <= checks.contraction_lambda(0.001) <= 2.0


def test_rate_stable(rates):
    doc = rates["example51_stable"]
    assert checks.check_rate_stable(doc) == []
    assert checks.check_rate_stable(dict(doc, lambda_hat=None))
    assert checks.check_rate_stable(dict(doc, n_paths=20, n_excluded=2))


@pytest.mark.parametrize("which", ["contraction", "example51_stable"])
def test_quantile_curve(rates, which):
    doc = rates[which]
    assert checks.check_quantile_curve(doc) == []
    bad = copy.deepcopy(doc)
    curve = bad["quantile_curve"]
    k = next(i for i in range(1, len(curve)) if curve[i]["quantile"] > 0)
    curve[k]["quantile"], curve[k - 1]["quantile"] = (
        curve[k - 1]["quantile"], curve[k]["quantile"] + 1.0,
    )
    assert checks.check_quantile_curve(bad)


# ---------------------------------------------------------------------------
# long_path


def test_two_state_occupation(out):
    d = os.path.join(out, "two_state")
    run_cli(["simulate", "--scenario", "two_state_switching", "--paths", "1",
             "--horizon", "200", "--out", d])
    doc = read(os.path.join(d, "ensemble.json"))
    assert checks.check_two_state_occupation(doc, 1.0, 2.0, 200.0) == []
    assert checks.check_two_state_occupation(
        set_estimate(doc, "occupation(i=1)", 0.5), 1.0, 2.0, 200.0
    )
    # swapped rates put the mean at 1/3
    assert checks.check_two_state_occupation(doc, 2.0, 1.0, 200.0)
