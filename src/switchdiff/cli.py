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


def _provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


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


def _apply_sim_overrides(config, args):
    kwargs = {}
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "dt", None) is not None:
        kwargs["dt"] = args.dt
    if getattr(args, "horizon", None) is not None:
        kwargs["horizon"] = args.horizon
    return replace(config, **kwargs) if kwargs else config


def _resolve_paths(value, default: int) -> int:
    """Apply a --paths override, rejecting non-positive counts up front."""
    n_paths = default if value is None else value
    if n_paths < 1:
        raise ConfigurationError(f"--paths must be >= 1, got {n_paths}")
    return n_paths


def _check_truncation_flag(args) -> None:
    if args.truncation is not None and args.truncation < 1:
        raise ConfigurationError(
            f"--truncation must be >= 1, got {args.truncation}"
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


def cmd_analyze(args) -> int:
    bundle = _resolve_scenario(args.scenario)
    _check_truncation_flag(args)
    config = _apply_sim_overrides(bundle.sim, args)
    out_dir = args.out or bundle.outputs
    report = {
        "scenario": bundle.name,
        "scenario_sha256": bundle.sha256,
        "provenance": _provenance(config.seed),
    }
    evidence: dict = {}
    os.makedirs(out_dir, exist_ok=True)
    try:
        _analyze_core(bundle, args.truncation, report, evidence)
    except SwitchDiffError as exc:
        report["partial"] = True
        report["error"] = str(exc)
        if "nu" in evidence:
            write_measure_csv(os.path.join(out_dir, "measure.csv"), evidence["nu"])
        _write_json(os.path.join(out_dir, "report.json"), report)
        print(f"analyze: pipeline stopped early: {exc}", file=sys.stderr)
        return 3
    write_measure_csv(os.path.join(out_dir, "measure.csv"), evidence["nu"])
    _write_json(os.path.join(out_dir, "report.json"), report)
    for entry in report["criteria"]:
        print(f"{entry['theorem']}: {entry['verdict']}")
    print(f"proposition41: {report['proposition41']['verdict']}")
    print(f"overall: {report['overall_verdict']}")
    return 0


def cmd_simulate(args) -> int:
    bundle = _resolve_scenario(args.scenario)
    config = _apply_sim_overrides(bundle.sim, args)
    n_paths = _resolve_paths(args.paths, bundle.mc.n_paths)
    out_dir = args.out or bundle.outputs
    model, lyap = bundle.model, bundle.lyap
    functionals = [
        StayInBall(h=lyap.domain_radius),
        ConvergesToZero(tol=0.01 * lyap.domain_radius),
        Occupation(1),
    ]
    doc = {
        "scenario": bundle.name,
        "scenario_sha256": bundle.sha256,
        "provenance": _provenance(config.seed),
        "config": {
            "dt": config.dt,
            "horizon": config.horizon,
            "stop_radius": config.stop_radius,
            "record_stride": config.record_stride,
            "x0": [float(v) for v in bundle.x0],
            "i0": bundle.i0,
        },
        "n_paths": n_paths,
    }

    def write_path0(traj) -> None:
        # paths run in index order, so the first one to finish is path 0
        if "trajectory_csv" not in doc:
            os.makedirs(out_dir, exist_ok=True)
            write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
            doc["trajectory_csv"] = "trajectory.csv"

    try:
        summary, _ = run_ensemble(
            model, lyap, config, n_paths, functionals, bundle.x0, bundle.i0,
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
    except SwitchDiffError as exc:
        doc["partial"] = True
        doc["error"] = str(exc)
        _write_json(os.path.join(out_dir, "ensemble.json"), doc)
        print(f"simulate: pipeline stopped early: {exc}", file=sys.stderr)
        return 3
    _write_json(os.path.join(out_dir, "ensemble.json"), doc)
    for f in summary.functionals:
        print(f"{f.name}: {f.estimate:.4f}  ci=[{f.ci_low:.4f}, {f.ci_high:.4f}]")
    print(f"blow-ups: {summary.n_blowups}  exits: {summary.n_exited}")
    return 0


def cmd_verify_rate(args) -> int:
    bundle = _resolve_scenario(args.scenario)
    _check_truncation_flag(args)
    config = _apply_sim_overrides(bundle.sim, args)
    if args.horizon is None and bundle.mc.rate_horizon is not None:
        config = replace(config, horizon=bundle.mc.rate_horizon)
    n_paths = _resolve_paths(args.paths, bundle.mc.rate_paths)
    T0 = bundle.mc.rate_T0 if bundle.mc.rate_T0 else config.horizon / 4.0
    if T0 >= config.horizon:
        # a scenario-pinned T0 can exceed an explicitly overridden horizon
        T0 = config.horizon / 4.0
    out_dir = args.out or bundle.outputs
    model, lyap = bundle.model, bundle.lyap

    gate: dict = {}
    gate_error = None
    try:
        _analyze_core(bundle, args.truncation, gate, {})
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

    doc = {
        "scenario": bundle.name,
        "scenario_sha256": bundle.sha256,
        "provenance": _provenance(config.seed),
        "horizon": config.horizon,
        "T0": T0,
        "epsilon": bundle.mc.epsilon,
        "n_paths": n_paths,
        "stability": {
            "certified": certified,
            "verdict": None if gate_error else verdict,
            "error": gate_error,
        },
    }
    try:
        _, collected = run_ensemble(
            model,
            lyap,
            config,
            n_paths,
            functionals=[],
            x0=bundle.x0,
            i0=bundle.i0,
            collect=lambda tr: tr,
        )
        est = estimate_pathwise_rate(
            collected, lyap, lyap.g, T0=T0, epsilon=bundle.mc.epsilon
        )
        doc.update(est.to_dict())
        os.makedirs(out_dir, exist_ok=True)
        write_quantile_curve(os.path.join(out_dir, "quantile_curve.csv"), est)
        doc["quantile_curve_csv"] = "quantile_curve.csv"
    except SwitchDiffError as exc:
        doc["partial"] = True
        doc["error"] = str(exc)
        _write_json(os.path.join(out_dir, "rate.json"), doc)
        print(f"verify-rate: pipeline stopped early: {exc}", file=sys.stderr)
        return 3
    _write_json(os.path.join(out_dir, "rate.json"), doc)
    lam = doc["lambda_hat"]
    print(f"lambda_hat: {lam if lam is not None else 'none (no grid rate passed)'}")
    print(f"excluded paths: {doc['n_excluded']} of {n_paths}")
    return 0


def cmd_coupled_test(args) -> int:
    bundle = _resolve_scenario(args.scenario)
    config = _apply_sim_overrides(bundle.sim, args)
    n_paths = _resolve_paths(args.paths, bundle.mc.n_paths)
    out_dir = args.out or bundle.outputs
    model, lyap = bundle.model, bundle.lyap
    confine = config.stop_radius if config.stop_radius else lyap.domain_radius

    doc = {
        "scenario": bundle.name,
        "scenario_sha256": bundle.sha256,
        "provenance": _provenance(config.seed),
        "horizon": config.horizon,
        "n_paths": n_paths,
    }
    try:
        kscan = scan_kernel_continuity(
            model.rate_kernel,
            model.dim,
            radii=np.geomspace(1e-6, confine, 25),
            regimes=range(1, k_scan(bundle.chain_N) + 1),
        )
        sup_xi = float(np.max(kscan.s_values))

        _, collected = run_ensemble(
            model, lyap, config, n_paths, [], bundle.x0, bundle.i0,
            collect=lambda tr: np.nan if tr.vartheta is None else tr.vartheta,
            coupled=True,
        )
        varthetas = np.array(collected)
        flags = ~np.isnan(varthetas)

        p_hat = float(np.mean(flags))
        sigma = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
        bound = config.horizon * sup_xi
        doc.update(
            {
                "sup_xi": sup_xi,
                "bound": bound,
                "n_decoupled": int(np.sum(flags)),
                "decoupling_probability": p_hat,
                "sigma": sigma,
                "within_bound": bool(p_hat <= bound + 3.0 * sigma),
                "mean_vartheta": (
                    float(np.nanmean(varthetas)) if np.any(flags) else None
                ),
            }
        )
    except SwitchDiffError as exc:
        doc["partial"] = True
        doc["error"] = str(exc)
        _write_json(os.path.join(out_dir, "coupled.json"), doc)
        print(f"coupled-test: pipeline stopped early: {exc}", file=sys.stderr)
        return 3
    _write_json(os.path.join(out_dir, "coupled.json"), doc)
    print(
        f"decoupling probability: {doc['decoupling_probability']:.4f} "
        f"(bound {doc['bound']:.4f} + 3 sigma, within={doc['within_bound']})"
    )
    return 0


def _namespace(**kwargs) -> argparse.Namespace:
    base = {
        "scenario": None,
        "seed": None,
        "paths": None,
        "dt": None,
        "horizon": None,
        "out": None,
        "truncation": None,
    }
    base.update(kwargs)
    return argparse.Namespace(**base)


def cmd_reproduce(args) -> int:
    if args.paths is not None and args.paths < 1:
        raise ConfigurationError(f"--paths must be >= 1, got {args.paths}")
    if args.horizon is not None and args.horizon <= 0:
        raise ConfigurationError(f"--horizon must be positive, got {args.horizon}")
    out_root = args.out or "out"
    stages = []
    for name in _ANALYZE_PRESETS:
        stages.append((name, "analyze", cmd_analyze, {}))
    stages.append(
        ("contraction_benchmark", "verify-rate", cmd_verify_rate,
         {"paths": args.paths, "horizon": args.horizon})
    )
    stages.append(
        ("example51_stable", "verify-rate", cmd_verify_rate,
         {"paths": args.paths, "horizon": args.horizon})
    )
    stages.append(
        ("two_state_switching", "simulate", cmd_simulate,
         {"paths": args.paths, "horizon": args.horizon})
    )

    entries = []
    failures = 0
    for name, stage, fn, extra in stages:
        ns = _namespace(scenario=name, out=os.path.join(out_root, name), **extra)
        try:
            rc = fn(ns)
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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--scenario",
        required=True,
        help="scenario file path or bundled preset name",
    )
    sp.add_argument("--seed", type=int, default=None, help="override the base seed")
    sp.add_argument("--paths", type=int, default=None, help="override path count")
    sp.add_argument("--dt", type=float, default=None, help="override the step size")
    sp.add_argument("--horizon", type=float, default=None, help="override the horizon")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument(
        "--truncation", type=int, default=None, help="override the chain truncation size"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    parse_args starts each call from a fresh namespace, so no flag carries
    over, and the cmd_* functions look up the library names in this module's
    globals when they run, so a name patched after the first call still
    takes effect."""
    parser = argparse.ArgumentParser(
        prog="switchdiff",
        description="certificates and Monte Carlo checks for diffusions with "
        "countable state-dependent regime switching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="build the certificate report")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("simulate", help="run a Monte Carlo ensemble")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify-rate", help="fit the pathwise envelope rate")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_rate)

    sp = sub.add_parser(
        "coupled-test", help="measure the decoupling probability of the coupling"
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_coupled_test)

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
