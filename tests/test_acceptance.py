"""Acceptance gate: ten frozen end-to-end checks with pinned tolerances.

Each test records a one-line PASS/FAIL entry that the terminal summary prints
(see conftest).  The checks run the full stack on the bundled scenarios:
invariant measure recovery, the Poisson equation by two independent routes,
ergodicity fits, switching-law statistics, Euler convergence order, the
stable/unstable stay-in-ball split, pathwise rate certification, the coupling
decoupling bound, byte-level determinism, and the envelope transform.  The
Monte Carlo checks use the pinned scenario seeds; tolerances are sized so
sampling noise sits far from every threshold.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import scipy.linalg
from scipy import stats

import switchdiff as sd
from conftest import record_acceptance
from switchdiff import cli
from switchdiff.markov_chain import solve_poisson, solve_poisson_integral
from switchdiff.rates import G, G_inverse, custom_profile, identity_profile, power_profile
from switchdiff.simulator import occupation_fraction
from switchdiff.stability import k_scan, scan_kernel_continuity


def doubling_chain(N=30):
    kernel = sd.build_kernel("example52_q", {"scale": 1.0})
    return sd.truncate(kernel, N, "lump")


def test_criterion_01_invariant_measure_doubling_chain():
    t0 = time.perf_counter()
    chain = doubling_chain(30)
    nu = sd.invariant_measure(chain)
    elapsed = time.perf_counter() - t0

    target = 0.5 ** np.arange(1, 21)
    err = float(np.max(np.abs(nu.nu[:20] - target)))
    passed = err < 1e-8 and elapsed < 1.0
    record_acceptance(1, passed, f"max|nu_i - 2^-i| = {err:.2e}, {elapsed*1e3:.1f} ms")
    assert err < 1e-8
    assert elapsed < 1.0


def test_criterion_02_poisson_equation_two_routes():
    # two-state symmetric chain with a centered right-hand side
    kernel = sd.build_kernel("two_state", {"q12": 1.0, "q21": 1.0})
    chain = sd.truncate(kernel, 2, "drop")
    nu = sd.invariant_measure(chain)
    b = np.array([1.0, -1.0])
    direct = solve_poisson(chain, nu, b)
    integral = solve_poisson_integral(chain, nu, b)
    integral = integral - float(nu.nu @ integral)
    route_gap = float(np.max(np.abs(direct.gamma - integral)))
    resid = float(np.max(np.abs(chain.Q @ direct.gamma - b)))
    analytic_gap = float(np.max(np.abs(direct.gamma - np.array([-0.5, 0.5]))))

    # doubling chain with b = lam*1 + c, lam chosen so nu.b = 0 exactly
    chain30 = doubling_chain(30)
    nu30 = sd.invariant_measure(chain30)
    c = sd.preset("example52_stable").lyap.c
    cvec = np.array([c(i) for i in range(1, 31)])
    lam = -float(nu30.nu @ cvec)
    sol30 = solve_poisson(chain30, nu30, lam + cvec, project=False)

    passed = (
        route_gap < 1e-6
        and resid < 1e-8
        and analytic_gap < 1e-8
        and sol30.residual < 1e-8
    )
    record_acceptance(
        2,
        passed,
        f"route gap {route_gap:.2e}, residuals {resid:.2e} / {sol30.residual:.2e}",
    )
    assert route_gap < 1e-6
    assert resid < 1e-8
    assert analytic_gap < 1e-8
    assert sol30.residual < 1e-8
    assert sol30.shift == 0.0


def test_criterion_03_ergodicity_diagnostic():
    kernel = sd.build_kernel("two_state", {"q12": 1.0, "q21": 1.0})
    two = sd.truncate(kernel, 2, "drop")
    diag2 = sd.ergodicity_diagnostic(two, np.geomspace(0.05, 2.0, 12))
    rel = abs(diag2.lam - 2.0) / 2.0

    diag30 = sd.ergodicity_diagnostic(doubling_chain(30), np.geomspace(0.25, 10.0, 12))

    passed = rel < 0.05 and diag30.lam > 0 and diag30.r_squared > 0.99
    record_acceptance(
        3,
        passed,
        f"two-state lam {diag2.lam:.4f} (gap 2), doubling lam {diag30.lam:.4f} "
        f"R2 {diag30.r_squared:.6f}",
    )
    assert rel < 0.05
    assert diag30.lam > 0
    assert diag30.r_squared > 0.99


def test_criterion_04_switching_law_statistics():
    bundle = sd.preset("two_state_switching")
    t0 = time.perf_counter()
    traj = sd.simulate(bundle.model, config=bundle.sim, x0=bundle.x0, i0=bundle.i0)
    elapsed = time.perf_counter() - t0

    occ = occupation_fraction(traj, 1)
    T = bundle.sim.horizon
    mu1, mu2 = 1.0, 0.5  # mean sojourns at rates q12=1, q21=2
    sigma = math.sqrt(2.0 * mu1**2 * mu2**2 / ((mu1 + mu2) ** 3 * T))
    occ_dev = abs(occ - 2.0 / 3.0)

    # pooled rate-rescaled sojourns are iid Exp(1) under the model
    rates = {1: 1.0, 2: 2.0}
    times = [0.0] + [j[0] for j in traj.jumps]
    states = [1] + [j[2] for j in traj.jumps]
    u = np.array(
        [rates[states[k - 1]] * (times[k] - times[k - 1]) for k in range(1, len(times))]
    )
    ks = stats.kstest(u[:10000], "expon")

    passed = (
        occ_dev <= 3.0 * sigma
        and u.size >= 10000
        and ks.pvalue > 0.01
        and elapsed < 30.0
    )
    record_acceptance(
        4,
        passed,
        f"occ {occ:.4f} ({occ_dev/sigma:.2f} sigma), KS p {ks.pvalue:.3f} "
        f"on 10^4 of {u.size}, {elapsed:.1f} s",
    )
    assert occ_dev <= 3.0 * sigma
    assert u.size >= 10000
    assert ks.pvalue > 0.01
    assert elapsed < 30.0


def test_criterion_05_euler_convergence_order():
    A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    model = sd.build_model(
        {"family": "linear", "params": {"matrices": [A.tolist()]}},
        sd.build_kernel("custom_table", {"rows": {}}),
    )
    x0 = np.array([1.0, 0.5])
    exact = scipy.linalg.expm(A) @ x0
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        config = sd.SimConfig(dt=dt, horizon=1.0, seed=0)
        traj = sd.simulate(model, config=config, x0=x0, i0=1)
        errs.append(float(np.linalg.norm(traj.x_path[-1] - exact)))
    ratios = [errs[k] / errs[k + 1] for k in range(2)]

    passed = all(1.6 <= r <= 2.4 for r in ratios)
    record_acceptance(
        5, passed, "error ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    )
    for r in ratios:
        assert 1.6 <= r <= 2.4


def test_criterion_06_stay_in_ball_split():
    stable = sd.preset("example51_stable")
    unstable = sd.preset("example51_unstable")
    h = stable.lyap.domain_radius
    t0 = time.perf_counter()

    # delta sweep: screen each candidate start with 500 paths on the stable
    # side and keep the largest delta whose estimate clears 0.97
    chosen = stable.mc.delta_sweep[-1]
    screens = []
    for k, delta in enumerate(stable.mc.delta_sweep):
        config = replace(stable.sim, seed=stable.sim.seed + 1 + k)
        summary, _ = sd.run_ensemble(
            stable.model,
            stable.lyap,
            config,
            500,
            [sd.StayInBall(h=h)],
            np.array([delta]),
            stable.i0,
        )
        est = summary.estimate("stay_in_ball").estimate
        screens.append(f"{delta:g}:{est:.3f}")
        if est >= 0.97:
            chosen = delta
            break

    x0 = np.array([chosen])
    summary_s, _ = sd.run_ensemble(
        stable.model,
        stable.lyap,
        stable.sim,
        stable.mc.n_paths,
        [sd.StayInBall(h=h)],
        x0,
        stable.i0,
    )
    est_s = summary_s.estimate("stay_in_ball")

    summary_u, _ = sd.run_ensemble(
        unstable.model,
        unstable.lyap,
        unstable.sim,
        unstable.mc.n_paths,
        [sd.StayInBall(h=h)],
        x0,
        unstable.i0,
    )
    est_u = summary_u.estimate("stay_in_ball")
    elapsed = time.perf_counter() - t0

    passed = (
        est_s.estimate > 0.95
        and est_s.ci_low > 0.90
        and est_u.estimate < 0.5
        and elapsed < 300.0
    )
    record_acceptance(
        6,
        passed,
        f"delta {chosen:g}, stable {est_s.estimate:.4f} (ci_low {est_s.ci_low:.4f}), "
        f"unstable {est_u.estimate:.4f}, {elapsed:.0f} s",
    )
    assert est_s.estimate > 0.95
    assert est_s.ci_low > 0.90
    assert est_u.estimate < 0.5
    assert elapsed < 300.0


def test_criterion_07_pathwise_rate():
    # deterministic contraction: the grid point inside [1.8, 2.0] must pass
    bench = sd.preset("contraction_benchmark")
    config = replace(bench.sim, horizon=bench.mc.rate_horizon)
    _, collected = sd.run_ensemble(
        bench.model,
        bench.lyap,
        config,
        bench.mc.rate_paths,
        [],
        bench.x0,
        bench.i0,
        collect=lambda tr: tr,
    )
    est_bench = sd.estimate_pathwise_rate(
        collected, bench.lyap, bench.lyap.g, T0=config.horizon / 4.0,
        epsilon=bench.mc.epsilon,
    )
    bench_ok = est_bench.lambda_hat is not None and 1.8 <= est_bench.lambda_hat <= 2.0

    # stable mixed-sign scenario: positive certified rate, nearly all paths
    # surviving, and t^{1/gamma} X^2(t) at t = T bounded across the ensemble
    stable = sd.preset("example51_stable")
    config = replace(stable.sim, horizon=stable.mc.rate_horizon)
    _, paths = sd.run_ensemble(
        stable.model,
        stable.lyap,
        config,
        stable.mc.rate_paths,
        [],
        stable.x0,
        stable.i0,
        collect=lambda tr: tr,
    )
    est = sd.estimate_pathwise_rate(
        paths, stable.lyap, stable.lyap.g, T0=stable.mc.rate_T0,
        epsilon=stable.mc.epsilon,
    )
    surviving = est.n_paths - est.n_excluded
    frac = surviving / est.n_paths
    gamma = 0.5
    end_stats = np.array(
        [
            t.times[-1] ** (1.0 / gamma) * float(t.x_path[-1][0]) ** 2
            for t in paths
            if not (t.exited or t.blew_up)
        ]
    )
    ratio = float(np.max(end_stats) / np.median(end_stats))

    passed = (
        bench_ok
        and est.lambda_hat is not None
        and est.lambda_hat > 0
        and frac >= 0.95
        and ratio < 10.0
    )
    record_acceptance(
        7,
        passed,
        f"benchmark {est_bench.lambda_hat}, stable lam {est.lambda_hat:.3f}, "
        f"surviving {frac:.1%}, max/median {ratio:.2f}",
    )
    assert bench_ok
    assert est.lambda_hat is not None and est.lambda_hat > 0
    assert frac >= 0.95
    assert ratio < 10.0


def test_criterion_08_coupling_decoupling_bound():
    bundle = sd.preset("example52_stable")
    config = replace(bundle.sim, horizon=1.0)
    x0 = np.array([1e-3, 0.0])
    n_paths = 10000

    kscan = scan_kernel_continuity(
        bundle.model.rate_kernel,
        bundle.model.dim,
        radii=np.geomspace(1e-6, config.stop_radius, 25),
        regimes=range(1, k_scan(bundle.chain_N) + 1),
    )
    sup_xi = float(np.max(kscan.s_values))

    t0 = time.perf_counter()
    _, decoupled = sd.run_ensemble(
        bundle.model, bundle.lyap, config, n_paths, [], x0, bundle.i0,
        collect=lambda traj: traj.decoupled, coupled=True,
    )
    elapsed = time.perf_counter() - t0
    n_decoupled = sum(decoupled)
    p_hat = n_decoupled / n_paths
    sigma = math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
    bound = config.horizon * sup_xi + 3.0 * sigma

    passed = p_hat <= bound
    record_acceptance(
        8,
        passed,
        f"p_hat {p_hat:.4f} <= T*sup_xi + 3 sigma = {bound:.4f} "
        f"(sup_xi {sup_xi:.4f}, {n_decoupled} decoupled, {elapsed:.1f} s)",
    )
    assert p_hat <= bound


def test_criterion_09_byte_identical_across_threads(tmp_path):
    # A path depends only on (scenario, seed, path_index): the same command
    # writes the same bytes before and after another scenario runs in this
    # process, and its trajectory.csv is path 0 simulated on its own, whether
    # path 0 shares its batch with five other paths or runs alone.
    argv_for = lambda out, paths=6: [
        "simulate",
        "--scenario",
        "example52_stable",
        "--paths",
        str(paths),
        "--horizon",
        "2",
        "--out",
        str(out),
    ]
    other = ["simulate", "--scenario", "example51_stable", "--paths", "3",
             "--horizon", "1", "--out", str(tmp_path / "other")]
    runs = {}
    for label, argv in (("a", argv_for(tmp_path / "a")), ("other", other),
                        ("b", argv_for(tmp_path / "b")),
                        ("one", argv_for(tmp_path / "one", paths=1))):
        assert cli.main(argv) == 0
        out = tmp_path / label
        runs[label] = {
            "csv": (out / "trajectory.csv").read_bytes(),
            "doc": json.loads((out / "ensemble.json").read_text()),
        }

    bundle = sd.preset("example52_stable")
    alone = sd.simulate(bundle.model, replace(bundle.sim, horizon=2.0), bundle.x0, bundle.i0)
    sd.write_trajectory_csv(str(tmp_path / "alone.csv"), alone)

    alone_csv = (tmp_path / "alone.csv").read_bytes()
    csv_match = runs["a"]["csv"] == runs["b"]["csv"] == alone_csv
    # path 0 does not depend on how many paths share its batch
    batch_match = runs["one"]["csv"] == alone_csv
    results_match = runs["a"]["doc"]["results"] == runs["b"]["doc"]["results"]

    passed = csv_match and results_match and batch_match
    record_acceptance(
        9,
        passed,
        f"trajectory bytes match across runs and a standalone path 0: {csv_match}, "
        f"with --paths 1: {batch_match}, "
        f"functional estimates match across runs: {results_match}",
    )
    assert csv_match
    assert results_match
    assert batch_match


def test_criterion_10_envelope_transform():
    profiles = [
        ("identity", identity_profile(h=0.25)),
        ("power_0.25", power_profile(gamma=0.25, h=0.25)),
        ("power_0.5", power_profile(gamma=0.5, h=0.25)),
        ("power_0.75", power_profile(gamma=0.75, h=0.25)),
        ("custom", custom_profile(lambda y: y + y * y, h=1.0)),
    ]
    worst_roundtrip = 0.0
    for _, profile in profiles:
        ys = np.geomspace(1e-6 * profile.h, profile.h, 64)
        back = np.array([G_inverse(profile, G(profile, float(y))) for y in ys])
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back - ys))))

    # closed forms against the quadrature route, on a range where the
    # integrator's relative tolerance guarantees 1e-9 absolutely
    ys = np.geomspace(0.05, 1.0, 64)
    pairs = [
        (custom_profile(lambda y: y, h=1.0), identity_profile(h=1.0)),
        (custom_profile(lambda y: y**1.5, h=1.0), power_profile(gamma=0.5, h=1.0)),
    ]
    worst_quad = 0.0
    for quad_profile, closed_profile in pairs:
        gap = np.abs(
            np.array([G(quad_profile, float(y)) for y in ys])
            - np.array([G(closed_profile, float(y)) for y in ys])
        )
        worst_quad = max(worst_quad, float(np.max(gap)))

    passed = worst_roundtrip < 1e-8 and worst_quad < 1e-9
    record_acceptance(
        10,
        passed,
        f"roundtrip {worst_roundtrip:.2e} over 5 profiles x 64 points, "
        f"closed-vs-quadrature {worst_quad:.2e}",
    )
    assert worst_roundtrip < 1e-8
    assert worst_quad < 1e-9
