"""The four workloads: the switchdiff commands each round issues, and the
checks on what they write.

A workload is a list of operations.  An operation is one `switchdiff.cli.main`
call, with the argv a user would type, plus the check of its artifacts and the
work it requests (plain paths, coupled paths, Euler steps).  The benchmark
seed n reaches the program only through the inputs built here: every
simulating command gets `--seed <preset seed + n>`, and the generated
coupled-test scenario draws its start direction from n.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

CERTIFY_PRESETS = (
    "example51_stable",
    "example51_unstable",
    "example52_stable",
    "example52_unstable",
)

# sizes, chosen so that one round of every workload takes 1-4 s on a 2-core
# machine and a run holds five or more rounds to take medians over
ENSEMBLE_PATHS = {"example51_stable": 15, "example51_unstable": 10, "example52_stable": 5}
COUPLED_PATHS = 40
COUPLED_HORIZON = 1.0
COUPLED_RADIUS = 0.3  # start near the ball edge (0.5) so that decouplings occur
CONTRACTION_PATHS = 2
RATE_PATHS = 2
LONG_PATH_HORIZON = 150.0


@dataclass
class Op:
    """One CLI command of a round and what it asks of the simulator."""

    name: str
    argv: list
    out: str
    check: Callable[[str], list]
    paths: int = 0
    coupled_paths: int = 0
    steps: int = 0


@dataclass
class Workload:
    name: str
    ops: list
    presets: list = field(default_factory=list)  # scenarios parsed at set-up
    files: list = field(default_factory=list)


def _scenario_doc(root: str, name: str) -> dict:
    with open(os.path.join(root, "scenarios", f"{name}.json")) as fh:
        return json.load(fh)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _steps(doc: dict, horizon: float | None = None) -> int:
    sim = doc["sim"]
    T = sim["horizon"] if horizon is None else horizon
    return int(round(T / sim["dt"]))


def certify(root: str, out: str, seed: int) -> Workload:
    """analyze on the four worked presets.  analyze is deterministic; the seed
    reaches only the provenance block of report.json."""
    ops = []
    for name in CERTIFY_PRESETS:
        doc = _scenario_doc(root, name)
        expected = "stable_certified" if name.endswith("_stable") else "unstable_certified"
        matrices = doc["model"]["params"].get("matrices")
        op_out = os.path.join(out, name)

        def check(d, expected=expected, matrices=matrices):
            report = _read_json(os.path.join(d, "report.json"))
            problems = checks.check_verdict(report, expected)
            problems += checks.check_geometric_measure(
                checks.read_measure_csv(os.path.join(d, "measure.csv"))
            )
            if matrices is not None:
                problems += checks.check_prop41(report, matrices)
            return problems

        seed_arg = str(doc["sim"]["seed"] + seed)
        argv = ["analyze", "--scenario", name, "--seed", seed_arg, "--out", op_out]
        ops.append(Op(name, argv, op_out, check))
    return Workload("certify", ops, presets=list(CERTIFY_PRESETS))


def _coupled_scenario(root: str, path: str, seed: int) -> dict:
    doc = _scenario_doc(root, "example52_stable")
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    doc["name"] = "example52_edge"
    doc["sim"]["x0"] = [COUPLED_RADIUS * math.cos(theta), COUPLED_RADIUS * math.sin(theta)]
    doc["sim"]["seed"] = doc["sim"]["seed"] + seed
    doc["outputs"] = os.path.dirname(path)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def ensemble(root: str, out: str, seed: int) -> Workload:
    """Many short paths: the stay-in-ball split on example51 (scalar loop,
    early exits), example52 (2-D vector loop), and the coupled test."""
    ops = []
    for name, paths in ENSEMBLE_PATHS.items():
        doc = _scenario_doc(root, name)
        op_out = os.path.join(out, name)
        if name.startswith("example51"):
            stable = name.endswith("_stable")

            def check(d, stable=stable):
                return checks.check_stay_in_ball(
                    _read_json(os.path.join(d, "ensemble.json")), stable
                )
        else:
            N = doc["chain"]["N"]
            scale = doc["kernel"]["params"]["scale"]
            want = checks.expected_occupation(
                checks.example52_generator(N, scale), doc["sim"]["horizon"], doc["sim"]["i0"]
            )

            def check(d, want=want):
                return checks.check_occupation(
                    _read_json(os.path.join(d, "ensemble.json")), want
                )

        argv = [
            "simulate", "--scenario", name, "--paths", str(paths),
            "--seed", str(doc["sim"]["seed"] + seed), "--out", op_out,
        ]
        ops.append(Op(name, argv, op_out, check, paths=paths, steps=paths * _steps(doc)))

    op_out = os.path.join(out, "coupled")
    os.makedirs(op_out, exist_ok=True)
    scenario = os.path.join(op_out, "example52_edge.json")
    doc = _coupled_scenario(root, scenario, seed)
    h = doc["sim"]["stop_radius"]

    def check_coupled(d):
        return checks.check_coupled(_read_json(os.path.join(d, "coupled.json")), h)

    argv = [
        "coupled-test", "--scenario", scenario, "--paths", str(COUPLED_PATHS),
        "--horizon", repr(COUPLED_HORIZON), "--out", op_out,
    ]
    ops.append(Op("coupled", argv, op_out, check_coupled, coupled_paths=COUPLED_PATHS))
    return Workload("ensemble", ops, presets=list(ENSEMBLE_PATHS), files=[scenario])


def rate_fit(root: str, out: str, seed: int) -> Workload:
    """verify-rate: certificate gate, recorded paths, envelope-rate scan."""
    ops = []
    doc = _scenario_doc(root, "contraction_benchmark")
    dt = doc["sim"]["dt"]
    op_out = os.path.join(out, "contraction_benchmark")

    def check_contraction(d):
        rate = _read_json(os.path.join(d, "rate.json"))
        return checks.check_contraction(rate, dt) + checks.check_quantile_curve(rate)

    argv = [
        "verify-rate", "--scenario", "contraction_benchmark",
        "--paths", str(CONTRACTION_PATHS),
        "--seed", str(doc["sim"]["seed"] + seed), "--out", op_out,
    ]
    steps = CONTRACTION_PATHS * _steps(doc, doc["mc"]["rate_horizon"])
    ops.append(Op("contraction_benchmark", argv, op_out, check_contraction,
                  paths=CONTRACTION_PATHS, steps=steps))

    doc = _scenario_doc(root, "example51_stable")
    op_out = os.path.join(out, "example51_stable")

    def check_stable(d):
        rate = _read_json(os.path.join(d, "rate.json"))
        return checks.check_rate_stable(rate) + checks.check_quantile_curve(rate)

    argv = [
        "verify-rate", "--scenario", "example51_stable", "--paths", str(RATE_PATHS),
        "--seed", str(doc["sim"]["seed"] + seed), "--out", op_out,
    ]
    steps = RATE_PATHS * _steps(doc, doc["mc"]["rate_horizon"])
    ops.append(Op("example51_stable", argv, op_out, check_stable, paths=RATE_PATHS, steps=steps))
    return Workload("rate_fit", ops, presets=["contraction_benchmark", "example51_stable"])


def long_path(root: str, out: str, seed: int) -> Workload:
    """One path of the two-state chain at a reduced horizon."""
    doc = _scenario_doc(root, "two_state_switching")
    params = doc["kernel"]["params"]
    op_out = os.path.join(out, "two_state_switching")

    def check(d):
        return checks.check_two_state_occupation(
            _read_json(os.path.join(d, "ensemble.json")),
            params["q12"], params["q21"], LONG_PATH_HORIZON,
        )

    argv = [
        "simulate", "--scenario", "two_state_switching", "--paths", "1",
        "--horizon", repr(LONG_PATH_HORIZON),
        "--seed", str(doc["sim"]["seed"] + seed), "--out", op_out,
    ]
    op = Op("two_state_switching", argv, op_out, check, paths=1,
            steps=_steps(doc, LONG_PATH_HORIZON))
    return Workload("long_path", [op], presets=["two_state_switching"])


BUILDERS = {
    "certify": certify,
    "ensemble": ensemble,
    "rate_fit": rate_fit,
    "long_path": long_path,
}
