"""Command-line front end.

Subcommands:
  analyze       build the full certificate report for a scenario
  simulate      run a Monte Carlo ensemble and write trajectory/ensemble files
  verify-rate   estimate the pathwise convergence rate against the envelope
  coupled-test  measure the coupling decoupling probability against its bound
  reproduce     run the bundled presets end to end

Every artifact carries the scenario hash and library versions.  A pipeline
that fails mid-way still writes what it has, marked with "partial": true,
and exits nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import scipy

from .artifacts import atomic_open
from .errors import ConfigurationError, SwitchDiffError
from .markov_chain import (
    ergodicity_diagnostic,
    ergodicity_times,
    invariant_measure,
    transition_matrix,  # noqa: F401  bound here for bench/tracer.py, which wraps cli.transition_matrix
    truncate,
    write_measure_csv,
)
from .model import radial_grid, verify_drift_condition
from .rates import estimate_pathwise_rate, write_quantile_curve
from .scenarios import ScenarioBundle, load_scenario, preset, preset_names
from .simulator import (
    ConvergesToZero,
    Occupation,
    StayInBall,
    run_ensemble,
    simulate,  # noqa: F401  bound here for bench/tracer.py, which wraps cli.simulate
    simulate_coupled,  # noqa: F401  bound here for bench/tracer.py, which wraps cli.simulate_coupled
    write_trajectory_csv,
)
from .stability import (
    REQUIRED,
    THEOREMS,
    check_theorem_hypotheses,
    k_scan,
    linearize,
    proposition41_criterion,
    scan_kernel_continuity,
    scan_mg,
)

_ANALYZE_PRESETS = (
    "example51_stable",
    "example51_unstable",
    "example52_stable",
    "example52_unstable",
)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: str, doc: dict) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, default=_json_default)
        fh.write("\n")


def _resolve_scenario(ref: str) -> ScenarioBundle:
    if os.path.exists(ref):
        return load_scenario(ref)
    names = preset_names()
    if ref in names:
        return preset(ref)
    raise SwitchDiffError(
        f"scenario {ref!r} is neither a file nor a bundled preset "
        f"(presets: {', '.join(names)})"
    )


def _drift_dict(view, is_reversed: bool) -> dict:
    return {
        "ok": view.ok,
        "reversed": is_reversed,
        "n_checked": view.n_checked,
        "max_residual": view.max_residual,
        "n_violations": view.n_violations,
        "worst_violations": [
            {
                "x": [float(v) for v in viol.x],
                "regime": viol.regime,
                "residual": viol.residual,
            }
            for viol in view.worst(5)
        ],
    }


def _analyze_core(bundle: ScenarioBundle, truncation_override, report: dict, evidence: dict) -> None:
    """Run the whole certificate pipeline, mutating report stage by stage so a
    failure still leaves the completed stages behind."""
    model, lyap = bundle.model, bundle.lyap
    kernel = model.rate_kernel
    N = bundle.chain_N if truncation_override is None else truncation_override

    chain = truncate(kernel, N, bundle.chain_mode)
    report["truncation"] = {
        "N": N,
        "mode": bundle.chain_mode,
        "lumped_tail": chain.lumped_tail,
        "truncation_leak": chain.truncation_leak,
    }
    nu = invariant_measure(chain)
    evidence["nu"] = nu
    report["invariant_measure"] = {
        "nu": [float(v) for v in nu.nu],
        "residual": nu.residual,
        "tail_mass": nu.tail_mass,
        "sum": nu.sum(),
    }

    diag = ergodicity_diagnostic(chain, ergodicity_times(chain, nu), nu)
    report["ergodicity"] = diag.to_dict()

    K = k_scan(N)
    regimes = range(1, K + 1)
    radii = np.geomspace(1e-6, lyap.domain_radius, 18)
    grid = radial_grid(model.dim, radii, regimes)
    drift = verify_drift_condition(model, lyap, grid)
    report["drift_forward"] = _drift_dict(drift.forward, False)
    report["drift_reversed"] = _drift_dict(drift.reversed, True)

    mg = scan_mg(model, lyap, regimes=regimes)
    report["mg_scan"] = mg.to_dict()
    kscan = scan_kernel_continuity(
        kernel,
        model.dim,
        radii=np.geomspace(1e-6, max(lyap.domain_radius, 1e-5), 25),
        regimes=regimes,
    )
    report["kernel_continuity"] = kscan.to_dict()

    criteria = []
    for which in THEOREMS:
        criteria.append(
            check_theorem_hypotheses(
                which,
                lyap,
                nu,
                drift_report=drift,
                mg_scan=mg,
                kernel_scan=kscan if "kernel_scan" in REQUIRED[which] else None,
                ergodicity=diag,
            )
        )
    report["criteria"] = [r.to_dict() for r in criteria]

    lin = linearize(model, range(1, N + 1))
    prop = proposition41_criterion(lin, nu)
    report["linearization"] = lin.to_dict()
    report["proposition41"] = prop.to_dict()

    stable = [r.theorem for r in criteria if r.verdict == "stable_certified"]
    unstable = [r.theorem for r in criteria if r.verdict == "unstable_certified"]
    basis = stable + unstable
    if prop.verdict != "inconclusive":
        basis.append("proposition41")
    if stable and (unstable or prop.verdict == "unstable_certified"):
        overall = "contradictory_evidence"
    elif unstable and prop.verdict == "stable_certified":
        overall = "contradictory_evidence"
    elif stable:
        overall = "stable_certified"
    elif unstable:
        overall = "unstable_certified"
    else:
        overall = prop.verdict
    report["overall_verdict"] = overall
    report["overall_basis"] = basis


def cmd_analyze(bundle: ScenarioBundle, config, flags: dict, out_dir: str, report: dict) -> list:
    evidence: dict = {}
    try:
        _analyze_core(bundle, flags.get("truncation"), report, evidence)
    finally:
        # the measure is written whenever it was computed, also when a later stage failed
        if "nu" in evidence:
            write_measure_csv(os.path.join(out_dir, "measure.csv"), evidence["nu"])
    lines = [f"{entry['theorem']}: {entry['verdict']}" for entry in report["criteria"]]
    return lines + [
        f"proposition41: {report['proposition41']['verdict']}",
        f"overall: {report['overall_verdict']}",
    ]


def cmd_simulate(bundle: ScenarioBundle, config, flags: dict, out_dir: str, doc: dict) -> list:
    lyap = bundle.lyap
    functionals = [
        StayInBall(h=lyap.domain_radius),
        ConvergesToZero(tol=0.01 * lyap.domain_radius),
        Occupation(1),
    ]
    doc["config"] = {
        "dt": config.dt,
        "horizon": config.horizon,
        "stop_radius": config.stop_radius,
        "record_stride": config.record_stride,
        "x0": [float(v) for v in bundle.x0],
        "i0": bundle.i0,
    }
    doc["n_paths"] = flags["paths"]

    def write_path0(traj) -> None:
        # paths run in index order, so the first one to finish is path 0
        if "trajectory_csv" not in doc:
            write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
            doc["trajectory_csv"] = "trajectory.csv"

    summary, _ = run_ensemble(
        bundle.model, lyap, config, flags["paths"], functionals, bundle.x0, bundle.i0,
        collect=write_path0,
    )
    doc["results"] = [
        {
            "functional": f.name,
            "estimate": f.estimate,
            "ci_low": f.ci_low,
            "ci_high": f.ci_high,
            "n_paths": summary.n_paths,
            "n_blowups": summary.n_blowups,
            "n_exited": summary.n_exited,
            "seed": summary.seed,
        }
        for f in summary.functionals
    ]
    lines = [
        f"{f.name}: {f.estimate:.4f}  ci=[{f.ci_low:.4f}, {f.ci_high:.4f}]"
        for f in summary.functionals
    ]
    return lines + [f"blow-ups: {summary.n_blowups}  exits: {summary.n_exited}"]


def cmd_verify_rate(bundle: ScenarioBundle, config, flags: dict, out_dir: str, doc: dict) -> list:
    n_paths = flags["paths"]
    T0 = bundle.mc.rate_T0 if bundle.mc.rate_T0 else config.horizon / 4.0
    if T0 >= config.horizon:
        # a scenario-pinned T0 can exceed an explicitly overridden horizon
        T0 = config.horizon / 4.0
    lyap = bundle.lyap

    gate: dict = {}
    gate_error = None
    try:
        _analyze_core(bundle, flags.get("truncation"), gate, {})
    except SwitchDiffError as exc:
        gate_error = str(exc)
    verdict = gate.get("overall_verdict", "inconclusive")
    certified = verdict == "stable_certified"
    if not certified:
        detail = gate_error if gate_error else f"verdict={verdict}"
        print(
            f"warning: no stability certificate for {bundle.name} ({detail}); "
            "the fitted rate is a descriptive statistic only",
            file=sys.stderr,
        )

    doc.update(
        horizon=config.horizon,
        T0=T0,
        epsilon=bundle.mc.epsilon,
        n_paths=n_paths,
        stability={
            "certified": certified,
            "verdict": None if gate_error else verdict,
            "error": gate_error,
        },
    )
    _, collected = run_ensemble(
        bundle.model, lyap, config, n_paths, [], bundle.x0, bundle.i0, collect=lambda tr: tr
    )
    est = estimate_pathwise_rate(collected, lyap, lyap.g, T0=T0, epsilon=bundle.mc.epsilon)
    doc.update(est.to_dict())
    write_quantile_curve(os.path.join(out_dir, "quantile_curve.csv"), est)
    doc["quantile_curve_csv"] = "quantile_curve.csv"
    lam = doc["lambda_hat"]
    return [
        f"lambda_hat: {lam if lam is not None else 'none (no grid rate passed)'}",
        f"excluded paths: {doc['n_excluded']} of {n_paths}",
    ]


def cmd_coupled_test(bundle: ScenarioBundle, config, flags: dict, out_dir: str, doc: dict) -> list:
    n_paths = flags["paths"]
    model = bundle.model
    confine = config.stop_radius if config.stop_radius else bundle.lyap.domain_radius
    doc.update(horizon=config.horizon, n_paths=n_paths)

    kscan = scan_kernel_continuity(
        model.rate_kernel,
        model.dim,
        radii=np.geomspace(1e-6, confine, 25),
        regimes=range(1, k_scan(bundle.chain_N) + 1),
    )
    sup_xi = float(np.max(kscan.s_values))

    _, collected = run_ensemble(
        model, bundle.lyap, config, n_paths, [], bundle.x0, bundle.i0,
        collect=lambda tr: np.nan if tr.vartheta is None else tr.vartheta,
        coupled=True,
    )
    varthetas = np.array(collected)
    decoupled = ~np.isnan(varthetas)

    p_hat = float(np.mean(decoupled))
    sigma = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
    bound = config.horizon * sup_xi
    doc.update(
        {
            "sup_xi": sup_xi,
            "bound": bound,
            "n_decoupled": int(np.sum(decoupled)),
            "decoupling_probability": p_hat,
            "sigma": sigma,
            "within_bound": bool(p_hat <= bound + 3.0 * sigma),
            "mean_vartheta": (
                float(np.nanmean(varthetas)) if np.any(decoupled) else None
            ),
        }
    )
    return [
        f"decoupling probability: {doc['decoupling_probability']:.4f} "
        f"(bound {doc['bound']:.4f} + 3 sigma, within={doc['within_bound']})"
    ]


class _Command(NamedTuple):
    """A scenario command.  body(bundle, config, flags, out_dir, doc) fills
    the artifact doc, writes any other file into out_dir and returns the
    lines to print.  flags are the flags it reads besides --scenario and
    --out; defaults(bundle) gives the scenario's values for those the sim
    config does not hold."""

    body: Callable
    artifact: str
    flags: tuple
    defaults: Callable
    help: str


_SIM_FLAGS = ("seed", "paths", "dt", "horizon")

_COMMANDS = {
    "analyze": _Command(
        cmd_analyze, "report.json", ("seed", "truncation"), lambda b: {},
        "build the certificate report",
    ),
    "simulate": _Command(
        cmd_simulate, "ensemble.json", _SIM_FLAGS, lambda b: {"paths": b.mc.n_paths},
        "run a Monte Carlo ensemble",
    ),
    "verify-rate": _Command(
        cmd_verify_rate, "rate.json", _SIM_FLAGS + ("truncation",),
        lambda b: {"paths": b.mc.rate_paths, "horizon": b.mc.rate_horizon},
        "fit the pathwise envelope rate",
    ),
    "coupled-test": _Command(
        cmd_coupled_test, "coupled.json", _SIM_FLAGS, lambda b: {"paths": b.mc.n_paths},
        "measure the decoupling probability of the coupling",
    ),
}

_FLAGS = {
    "seed": (int, "override the base seed"),
    "paths": (int, "override path count"),
    "dt": (float, "override the step size"),
    "horizon": (float, "override the horizon"),
    "truncation": (int, "override the chain truncation size"),
}


def _run(args) -> int:
    """The artifact protocol of the scenario commands.  Resolve the scenario,
    reject a count flag below 1 before any work, apply the command's --seed,
    --dt and --horizon, start the artifact with the scenario and its
    provenance, and run the command's body.  The artifact is written either
    way: a SwitchDiffError in the body marks it partial and exits 3."""
    command = _COMMANDS[args.command]
    bundle = _resolve_scenario(args.scenario)
    given = {k: v for k, v in vars(args).items() if k in command.flags and v is not None}
    for name in ("paths", "truncation"):
        if given.get(name, 1) < 1:
            raise ConfigurationError(f"--{name} must be >= 1, got {given[name]}")
    flags = {k: v for k, v in command.defaults(bundle).items() if v is not None}
    flags.update(given)
    config = replace(bundle.sim, **{k: flags[k] for k in ("seed", "dt", "horizon") if k in flags})
    out_dir = args.out or bundle.outputs
    doc = {
        "scenario": bundle.name,
        "scenario_sha256": bundle.sha256,
        "provenance": {
            "seed": config.seed,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    path = os.path.join(out_dir, command.artifact)
    os.makedirs(out_dir, exist_ok=True)
    try:
        lines = command.body(bundle, config, flags, out_dir, doc)
    except SwitchDiffError as exc:
        doc["partial"] = True
        doc["error"] = str(exc)
        _write_json(path, doc)
        print(f"{args.command}: pipeline stopped early: {exc}", file=sys.stderr)
        return 3
    _write_json(path, doc)
    for line in lines:
        print(line)
    return 0


def cmd_reproduce(args) -> int:
    if args.paths is not None and args.paths < 1:
        raise ConfigurationError(f"--paths must be >= 1, got {args.paths}")
    if args.horizon is not None and args.horizon <= 0:
        raise ConfigurationError(f"--horizon must be positive, got {args.horizon}")
    out_root = args.out or "out"
    scale = [
        f"--{k}={v!r}" for k, v in (("paths", args.paths), ("horizon", args.horizon)) if v is not None
    ]
    stages = [(name, "analyze", []) for name in _ANALYZE_PRESETS] + [
        ("contraction_benchmark", "verify-rate", scale),
        ("example51_stable", "verify-rate", scale),
        ("two_state_switching", "simulate", scale),
    ]

    entries = []
    failures = 0
    for name, stage, extra in stages:
        argv = [stage, f"--scenario={name}", f"--out={os.path.join(out_root, name)}", *extra]
        try:
            rc = _run(build_parser().parse_args(argv))
        except SwitchDiffError as exc:
            print(f"{name} [{stage}] failed: {exc}", file=sys.stderr)
            rc = 3
        entries.append({"preset": name, "stage": stage, "exit_code": rc})
        failures += rc != 0
        print(f"{name} [{stage}]: exit {rc}")
    summary = {"stages": entries, "failures": failures}
    if failures:
        summary["partial"] = True
    _write_json(os.path.join(out_root, "reproduce_summary.json"), summary)
    return 0 if failures == 0 else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Each scenario command takes --scenario, --out and only the flags its
    body reads.  parse_args starts each call from a fresh namespace, so no
    flag carries over, and the bodies look up the library names in this
    module's globals when they run, so a name patched after the first call
    still takes effect."""
    parser = argparse.ArgumentParser(
        prog="switchdiff",
        description="certificates and Monte Carlo checks for diffusions with "
        "countable state-dependent regime switching",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument(
            "--scenario", required=True, help="scenario file path or bundled preset name"
        )
        for flag in command.flags:
            kind, text = _FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind, help=text)
        sp.add_argument("--out", help="output directory")
        sp.set_defaults(func=_run)

    sp = sub.add_parser("reproduce", help="run the bundled presets end to end")
    sp.add_argument("--out", default=None, help="output root directory")
    sp.add_argument("--paths", type=int, default=None, help="scale down path counts")
    sp.add_argument("--horizon", type=float, default=None, help="scale down horizons")
    sp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SwitchDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
