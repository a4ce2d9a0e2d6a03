"""Path integration, thinned switching, coupling, and ensemble aggregation."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import switchdiff as sd
from conftest import single_regime_linear, two_state_kernel
from switchdiff.simulator import _select_target


def with_kernel(spec, kernel):
    return dataclasses.replace(spec, rate_kernel=kernel)


def absorbing_kernel(rate):
    """Single jump 1 -> 2 at the given rate; state 2 is absorbing."""

    def row(x, i):
        return ((2, rate),) if i == 1 else ()

    return sd.RateKernel(row=row, global_bound=rate, x_independent=True)


class TestStep:
    def test_deterministic_euler_update(self):
        spec = single_regime_linear(-1.0)
        traj = sd.simulate(spec, sd.SimConfig(dt=0.1, horizon=0.1), np.array([1.0]), 1)
        assert traj.x_path[-1] == pytest.approx(np.array([0.9]))
        assert traj.regime_path[-1] == 1

    def test_noise_enters_through_the_diffusion_matrix(self):
        # both update forms: the float callbacks and the array callbacks with @
        fast = single_regime_linear(-1.0, s=1.0)
        slow = dataclasses.replace(fast, scalar_drift=None, scalar_diffusion=None)
        z = sd.path_streams(3, 0)[0].standard_normal((1, 1))[0, 0]
        for spec in (fast, slow):
            traj = sd.simulate(spec, sd.SimConfig(dt=0.1, horizon=0.1, seed=3), np.array([1.0]), 1)
            assert traj.x_path[-1, 0] == 1.0 - 0.1 + math.sqrt(0.1) * z


class TestSwitchStep:
    def test_acceptance_threshold_is_rate_times_dt(self):
        # one unguarded step jumps exactly when its acceptance uniform is below q dt
        q, dt = 1.0, 0.05
        spec = with_kernel(single_regime_linear(-1.0), absorbing_kernel(q))
        jumped = []
        for p in range(200):
            cfg = sd.SimConfig(dt=dt, horizon=dt, seed=8, path_index=p)
            traj = sd.simulate(spec, cfg, np.array([1.0]), 1)
            u = sd.path_streams(8, p)[1].random(1)[0]
            assert bool(traj.jumps) == (u < q * dt)
            jumped.append(bool(traj.jumps))
        assert any(jumped) and not all(jumped)

    def test_target_selection_splits_by_rate_mass(self):
        row = ((2, 0.3), (3, 0.7))
        assert _select_target(row, 0.2) == 2
        assert _select_target(row, 0.3001) == 3
        assert _select_target(row, 0.99999) == 3


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "horizon": 1.0},
            {"dt": 0.1, "horizon": 0.05},
            {"dt": 0.1, "horizon": 1.0, "switch_scheme": "gillespie"},
            {"dt": 0.1, "horizon": 1.0, "stop_radius": 0.0},
            {"dt": 0.1, "horizon": 1.0, "record_stride": 0},
            {"dt": 0.1, "horizon": 1.0, "seed": -1},
        ],
    )
    def test_bad_configs_are_rejected(self, kwargs):
        with pytest.raises(sd.ConfigurationError):
            sd.SimConfig(**kwargs)

    def test_simulate_validates_initial_data(self):
        spec = single_regime_linear(-1.0)
        cfg = sd.SimConfig(dt=0.1, horizon=1.0)
        with pytest.raises(sd.ConfigurationError):
            sd.simulate(spec, cfg, np.array([1.0]), 0)
        with pytest.raises(sd.ConfigurationError):
            sd.simulate(spec, cfg, np.array([1.0, 2.0]), 1)


class TestSimulatePaths:
    def test_noiseless_linear_path_matches_euler_recursion(self):
        spec = single_regime_linear(-1.0, s=0.0)
        cfg = sd.SimConfig(dt=0.1, horizon=1.0, seed=3)
        traj = sd.simulate(spec, cfg, np.array([1.0]), 1)
        # sigma = 0 means the noise draws cannot enter: x_k = 0.9^k exactly
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.x_path[:, 0] == pytest.approx(0.9 ** np.arange(11), abs=1e-15)
        assert not traj.exited and not traj.blew_up

    def test_same_stream_identity_reproduces_bitwise(self):
        spec = single_regime_linear(-0.5, s=0.4)
        cfg = sd.SimConfig(dt=0.01, horizon=2.0, seed=9, path_index=4)
        a = sd.simulate(spec, cfg, np.array([0.3]), 1)
        b = sd.simulate(spec, cfg, np.array([0.3]), 1)
        assert np.array_equal(a.x_path, b.x_path)
        c = sd.simulate(spec, dataclasses.replace(cfg, path_index=5), np.array([0.3]), 1)
        assert not np.array_equal(a.x_path, c.x_path)

    def test_stream_chunk_size_does_not_change_the_path(self, monkeypatch):
        # noise and accept uniforms are drawn in chunks; the split must not show
        fast = with_kernel(single_regime_linear(-0.5, s=0.4), two_state_kernel(2.0, 2.0))
        slow = dataclasses.replace(fast, scalar_drift=None, scalar_diffusion=None)
        cfg = sd.SimConfig(dt=0.01, horizon=2.0, seed=13, record_stride=3)
        for spec in (fast, slow):
            a = sd.simulate(spec, cfg, np.array([0.3]), 1)
            monkeypatch.setattr(sd.simulator, "STREAM_CHUNK", 7)
            b = sd.simulate(spec, cfg, np.array([0.3]), 1)
            monkeypatch.undo()
            assert a.jumps
            assert np.array_equal(a.x_path, b.x_path)
            assert a.jumps == b.jumps

    def test_scalar_and_vector_engines_agree(self):
        fast = with_kernel(single_regime_linear(-0.5, s=0.4), two_state_kernel(2.0, 2.0))
        slow = dataclasses.replace(fast, scalar_drift=None, scalar_diffusion=None)
        cfg = sd.SimConfig(dt=0.01, horizon=2.0, seed=13)
        a = sd.simulate(fast, cfg, np.array([0.3]), 1)
        b = sd.simulate(slow, cfg, np.array([0.3]), 1)
        assert np.allclose(a.x_path, b.x_path, atol=1e-12)
        assert np.array_equal(a.regime_path, b.regime_path)
        assert a.jumps == b.jumps

    def test_stop_radius_sets_exit_time_and_truncates(self):
        spec = single_regime_linear(+5.0, s=0.0)
        cfg = sd.SimConfig(dt=0.01, horizon=10.0, stop_radius=1.0)
        traj = sd.simulate(spec, cfg, np.array([0.5]), 1)
        assert traj.exited
        assert traj.tau_h == pytest.approx(traj.times[-1])
        assert abs(traj.x_path[-1, 0]) >= 1.0
        assert traj.times[-1] < 10.0

    def test_start_outside_the_ball_exits_immediately(self):
        spec = single_regime_linear(-1.0)
        cfg = sd.SimConfig(dt=0.01, horizon=1.0, stop_radius=1.0)
        traj = sd.simulate(spec, cfg, np.array([2.0]), 1)
        assert traj.exited and traj.tau_h == 0.0
        assert traj.times.size == 1

    def test_explosive_path_is_flagged_not_raised(self):
        def row(x, i):
            return ()

        spec = sd.ModelSpec(
            dim=1,
            noise_dim=1,
            drift=lambda x, i: x**3,
            diffusion=lambda x, i: np.zeros((1, 1)),
            rate_kernel=sd.RateKernel(row=row, global_bound=0.0, x_independent=True),
            scalar_drift=lambda x, i: x**3,
            scalar_diffusion=lambda x, i: 0.0,
        )
        traj = sd.simulate(spec, sd.SimConfig(dt=0.5, horizon=10.0), np.array([2.0]), 1)
        assert traj.blew_up
        assert traj.times[-1] < 10.0

    def test_record_stride_thins_the_grid_but_keeps_the_endpoint(self):
        spec = single_regime_linear(-1.0)
        cfg = sd.SimConfig(dt=0.1, horizon=1.0, record_stride=3)
        traj = sd.simulate(spec, cfg, np.array([1.0]), 1)
        assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])

    def test_jump_log_is_complete_regardless_of_stride(self):
        spec = with_kernel(single_regime_linear(-0.2, s=0.1), two_state_kernel(3.0, 3.0))
        dense = sd.SimConfig(dt=0.01, horizon=5.0, seed=21)
        sparse = dataclasses.replace(dense, record_stride=50)
        a = sd.simulate(spec, dense, np.array([0.1]), 1)
        b = sd.simulate(spec, sparse, np.array([0.1]), 1)
        assert a.jumps == b.jumps
        assert len(a.jumps) > 5

    def test_absorbing_regime_stays_put(self):
        spec = with_kernel(single_regime_linear(-1.0, s=0.2), two_state_kernel(1.0, 1.0))
        cfg = sd.SimConfig(dt=0.01, horizon=2.0, seed=2)
        traj = sd.simulate(spec, cfg, np.array([0.5]), 5)
        assert traj.jumps == []
        assert np.all(traj.regime_path == 5)

    def test_guarded_steps_subdivide_instead_of_failing(self):
        spec = with_kernel(single_regime_linear(-1.0, s=0.0), absorbing_kernel(30.0))
        cfg = sd.SimConfig(dt=0.01, horizon=1.0, seed=5)  # q dt = 0.3 > guard
        traj = sd.simulate(spec, cfg, np.array([0.5]), 1)
        assert len(traj.jumps) == 1
        t, src, dst = traj.jumps[0]
        assert (src, dst) == (1, 2)
        assert 0.0 < t <= 1.0
        assert int(traj.regime_path[-1]) == 2

    def test_jump_probability_matches_the_exponential_law(self):
        # P(one 1 -> 2 jump by T) = 1 - exp(-q T) for the absorbing kernel.
        q, T = 0.5, 1.0
        spec = with_kernel(single_regime_linear(0.0, s=0.0), absorbing_kernel(q))
        expected = 1.0 - math.exp(-q * T)
        for scheme in ("per_step_thinning", "exponential_proposals"):
            hits = 0
            n = 400
            for p in range(n):
                cfg = sd.SimConfig(
                    dt=0.01, horizon=T, seed=100, path_index=p, switch_scheme=scheme
                )
                traj = sd.simulate(spec, cfg, np.array([1.0]), 1)
                hits += bool(traj.jumps)
            se = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(hits / n - expected) < 3.5 * se, scheme

    def test_exponential_proposals_require_a_global_bound(self):
        kernel = sd.RateKernel(row=lambda x, i: (), global_bound=None)
        spec = with_kernel(single_regime_linear(-1.0), kernel)
        cfg = sd.SimConfig(dt=0.1, horizon=1.0, switch_scheme="exponential_proposals")
        with pytest.raises(sd.ConfigurationError):
            sd.simulate(spec, cfg, np.array([1.0]), 1)

    def test_exponential_proposals_catch_understated_bounds(self):
        kernel = sd.RateKernel(
            row=lambda x, i: ((i + 1, 5.0),), global_bound=1.0, x_independent=True
        )
        spec = with_kernel(single_regime_linear(-1.0), kernel)
        cfg = sd.SimConfig(dt=0.1, horizon=50.0, switch_scheme="exponential_proposals", seed=1)
        with pytest.raises(sd.GuardError):
            sd.simulate(spec, cfg, np.array([1.0]), 1)


class TestCoupledPaths:
    def test_state_independent_rates_never_decouple(self):
        kernel = sd.build_kernel("birth_death", {"up": 2.0, "down": 3.0})
        spec = with_kernel(single_regime_linear(-0.5, s=0.3), kernel)
        for p in range(40):
            cfg = sd.SimConfig(dt=0.01, horizon=3.0, seed=40, path_index=p)
            ct = sd.simulate_coupled(spec, cfg, np.array([0.4]), 2)
            assert not ct.decoupled
            assert np.array_equal(ct.alpha_path, ct.alpha_hat_path)
            assert ct.jumps_alpha == ct.jumps_alpha_hat

    def test_decoupling_happens_for_state_dependent_rates(self):
        kernel = sd.build_kernel("example52_q", {"scale": 1.0})
        spec = with_kernel(single_regime_linear(0.0, s=0.0), kernel)
        decoupled = 0
        for p in range(60):
            cfg = sd.SimConfig(dt=0.005, horizon=4.0, seed=41, path_index=p)
            ct = sd.simulate_coupled(spec, cfg, np.array([1.0]), 1)  # sin(1) lifts q(x) well above q(0)
            if ct.decoupled:
                decoupled += 1
                assert ct.vartheta > 0.0
        assert decoupled > 10

    def test_driving_regime_marginal_matches_plain_simulation(self):
        kernel = sd.build_kernel("example52_q", {"scale": 1.0})
        spec = with_kernel(single_regime_linear(-0.1, s=0.2), kernel)
        n = 150
        occ_coupled = np.empty(n)
        occ_plain = np.empty(n)
        for p in range(n):
            cfg = sd.SimConfig(dt=0.01, horizon=5.0, seed=42, path_index=p)
            ct = sd.simulate_coupled(spec, cfg, np.array([0.5]), 1)
            proxy = SimpleNamespace(
                times=ct.times, regime_path=ct.alpha_path, jumps=ct.jumps_alpha
            )
            occ_coupled[p] = sd.occupation_fraction(proxy, 1)
            cfg2 = sd.SimConfig(dt=0.01, horizon=5.0, seed=4242, path_index=p)
            occ_plain[p] = sd.occupation_fraction(
                sd.simulate(spec, cfg2, np.array([0.5]), 1), 1
            )
        diff = occ_coupled.mean() - occ_plain.mean()
        se = math.sqrt(occ_coupled.var(ddof=1) / n + occ_plain.var(ddof=1) / n)
        assert abs(diff) < 3.0 * se

    def test_guarded_steps_do_not_bias_the_driving_regime(self):
        # q dt = 0.2 exceeds the guard, so every step is sub-divided.  With an
        # x-independent kernel alpha_hat never leaves alpha, and alpha must make
        # the same jumps as the plain simulation on the same streams.
        spec = with_kernel(single_regime_linear(-1.0, s=0.2), two_state_kernel(100.0, 100.0))
        coupled = plain = 0
        for p in range(200):
            cfg = sd.SimConfig(dt=0.002, horizon=1.0, seed=44, path_index=p)
            ct = sd.simulate_coupled(spec, cfg, np.array([0.5]), 1)
            assert not ct.decoupled
            coupled += len(ct.jumps_alpha)
            plain += len(sd.simulate(spec, cfg, np.array([0.5]), 1).jumps)
        assert coupled == plain


class TestFunctionals:
    def make_traj(self, xs, times=None, **flags):
        xs = np.asarray(xs, dtype=float).reshape(-1, 1)
        times = np.linspace(0.0, 1.0, xs.shape[0]) if times is None else np.asarray(times)
        return sd.Trajectory(
            times=times,
            x_path=xs,
            regime_path=np.ones(xs.shape[0], dtype=np.int64),
            **flags,
        )

    def test_stay_in_ball_is_a_strict_sup_bound(self):
        f = sd.StayInBall(1.0)
        assert f.evaluate(self.make_traj([0.2, 0.5, 0.99])) == 1.0
        assert f.evaluate(self.make_traj([0.2, 1.0, 0.5])) == 0.0
        assert f.evaluate(self.make_traj([0.2], exited=True)) == 0.0
        assert f.kind == "binary" and "1" in f.name

    def test_converges_to_zero_reads_the_state_at_time_T(self):
        f = sd.ConvergesToZero(tol=0.1, T=0.6)
        traj = self.make_traj([1.0, 0.05, 1.0], times=np.array([0.0, 0.5, 1.0]))
        assert f.evaluate(traj) == 1.0  # judged at t = 0.5, the last grid point <= T
        assert sd.ConvergesToZero(tol=0.1).evaluate(traj) == 0.0  # endpoint rule
        assert f.evaluate(self.make_traj([0.0], blew_up=True)) == 0.0

    def test_sup_ratio_certifies_rates_below_the_true_decay(self):
        times = np.linspace(0.0, 5.0, 201)
        xs = np.exp(-times).reshape(-1, 1)
        traj = sd.Trajectory(times=times, x_path=xs, regime_path=np.ones(201, dtype=np.int64))
        prof = sd.identity_profile(h=1.0)
        V = lambda x: float(np.dot(x, x))
        assert sd.SupRatio(V, prof, lam=1.5, T0=1.0).evaluate(traj) == 1.0
        assert sd.SupRatio(V, prof, lam=2.5, T0=1.0).evaluate(traj) == 0.0

    def test_occupation_uses_the_exact_jump_times(self):
        traj = sd.Trajectory(
            times=np.array([0.0, 1.0]),
            x_path=np.zeros((2, 1)),
            regime_path=np.array([1, 1], dtype=np.int64),
            jumps=[(0.25, 1, 2), (0.75, 2, 1)],
        )
        assert sd.occupation_fraction(traj, 1) == pytest.approx(0.5)
        assert sd.occupation_fraction(traj, 2) == pytest.approx(0.5)
        assert sd.Occupation(1).evaluate(traj) == pytest.approx(0.5)

    def test_wilson_interval_reference_values(self):
        lo, hi = sd.wilson_interval(8, 10)
        assert lo == pytest.approx(0.4902, abs=2e-4)
        assert hi == pytest.approx(0.9433, abs=2e-4)
        assert sd.wilson_interval(0, 0) == (0.0, 1.0)
        assert sd.wilson_interval(10, 10)[1] == pytest.approx(1.0)
        assert sd.wilson_interval(0, 10)[0] == pytest.approx(0.0)


class TestEnsembles:
    def test_summary_counts_and_prefix_lookup(self):
        spec = single_regime_linear(-1.0, s=0.1)
        cfg = sd.SimConfig(dt=0.01, horizon=1.0, seed=7)
        summary, collected = sd.run_ensemble(
            spec, None, cfg, 8, [sd.StayInBall(10.0), sd.Occupation(1)], np.array([0.5]), 1
        )
        assert summary.n_paths == 8
        assert summary.n_blowups == 0 and summary.n_exited == 0
        ball = summary.estimate("stay_in_ball")
        assert ball.estimate == 1.0
        occ = summary.estimate("occupation")
        assert occ.estimate == 1.0 and occ.ci_low == 1.0 == occ.ci_high
        with pytest.raises(KeyError):
            summary.estimate("no_such_functional")
        assert collected == [None] * 8

    def test_collect_returns_per_path_results_in_order(self):
        spec = single_regime_linear(-1.0, s=0.3)
        cfg = sd.SimConfig(dt=0.01, horizon=1.0, seed=7, path_index=100)
        _, collected = sd.run_ensemble(
            spec, None, cfg, 4, [], np.array([0.5]), 1, collect=lambda tr: tr
        )
        endpoints = [float(tr.x_path[-1, 0]) for tr in collected]
        assert len(set(endpoints)) == 4  # distinct noise per path slot
        again = sd.simulate(spec, dataclasses.replace(cfg, path_index=102), np.array([0.5]), 1)
        assert endpoints[2] == float(again.x_path[-1, 0])

    def test_trajectory_csv_roundtrips_exactly(self, tmp_path):
        spec = single_regime_linear(-0.5, s=0.4)
        traj = sd.simulate(spec, sd.SimConfig(dt=0.01, horizon=0.5, seed=2), np.array([0.3]), 1)
        out = tmp_path / "traj.csv"
        sd.write_trajectory_csv(str(out), traj)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,regime"
        assert len(lines) == 1 + traj.times.size
        t, x, r = lines[5].split(",")  # row 5 holds grid point 4
        assert float(t) == traj.times[4]
        assert float(x) == traj.x_path[4, 0]
        assert int(r) == traj.regime_path[4]
