"""Path integration, thinned switching, coupling, and ensemble aggregation."""

import csv
import dataclasses
import io
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


def assert_same_path(a, b):
    """Every field equal; arrays bit for bit, signed zeros included."""
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert (va.dtype, va.shape) == (vb.dtype, vb.shape), f.name
            assert va.tobytes() == vb.tobytes(), f.name
        else:
            assert va == vb, f.name


def paths(spec, cfg, n, x0, i0, coupled=False):
    """Trajectories of paths 0..n-1 of cfg, each equal to its own run alone."""
    _, trajs = sd.run_ensemble(
        spec, None, cfg, n, [], x0, i0, collect=lambda tr: tr, coupled=coupled
    )
    return trajs


def regime_mix_spec(
    dim: int = 2, with_batch_rows: bool = True, global_bound=None, noise_dim: int = 1
) -> sd.ModelSpec:
    """Linear model whose paths from one start go every way a path can.

    Regime 1 grows (in 2-D it spirals out: dX = [[1, 1], [-1, 1]] X dt +
    0.8 X dW), so some paths leave |x| < 1.5, and it leaves for 2 at rate
    4|x|^2, which breaks the thinning guard at dt = 0.05 once |x| >
    1/sqrt(2).  Regime 2 contracts and leaves for 1 at rate 1 or for 3 at
    rate 0.2.  Regime 3 blows up in one step.  In 1-D the model has an
    Euler map (scalar_step).  Rates are read at pre-step states, inside the
    ball, so they stay below 4 * 1.5^2 = 9.  With noise_dim = 2 (2-D only)
    a second noise column rotates X.
    """

    def row(x, i):
        if i == 1:
            return ((2, 4.0 * float(np.dot(x, x))),)
        if i == 2:
            return ((1, 1.0), (3, 0.2))
        return ()

    def batch_rows(X, I):
        one, two = I == 1, I == 2
        targets = np.stack([np.select([one, two], [2, 1], 0), np.where(two, 3, 0)], axis=1)
        rates = np.stack(
            [np.select([one, two], [4.0 * np.vecdot(X, X), 1.0], 0.0), np.where(two, 0.2, 0.0)],
            axis=1,
        )
        return targets, rates

    kernel = sd.RateKernel(
        row=row,
        global_bound=global_bound,
        x_independent=False,
        batch_rows=batch_rows if with_batch_rows else None,
    )
    eye = np.eye(dim)
    grow = [[1.0, 1.0], [-1.0, 1.0]] if dim == 2 else [[1.0]]
    turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sigma = [
        [(c * eye).tolist()] + ([(c * turn).tolist()] if noise_dim == 2 else [])
        for c in (0.8, 0.3, 0.0)
    ]
    params = {"matrices": [grow, (-eye).tolist(), (1e16 * eye).tolist()], "sigma_matrices": sigma}
    return sd.build_model({"family": "linear", "params": params}, kernel)


MIX_CONFIG = sd.SimConfig(dt=0.05, horizon=2.0, seed=3, stop_radius=1.5, record_stride=3)


def assert_mixed(batch, coupled=False):
    """The batch holds paths that run out the horizon, exit and blow up, and
    paths with and without guarded (off-grid) jumps."""
    log = [tr.jumps_alpha if coupled else tr.jumps for tr in batch]
    dt = MIX_CONFIG.dt
    guarded = [any(abs(t / dt - round(t / dt)) > 1e-9 for t, _, _ in js) for js in log]
    assert any(tr.exited for tr in batch) and any(tr.blew_up for tr in batch)
    assert any(not (tr.exited or tr.blew_up) for tr in batch)
    assert any(guarded) and not all(guarded)


class TestStep:
    def test_deterministic_euler_update(self):
        spec = single_regime_linear(-1.0)
        traj = sd.simulate(spec, sd.SimConfig(dt=0.1, horizon=0.1), np.array([1.0]), 1)
        assert traj.x_path[-1] == pytest.approx(np.array([0.9]))
        assert traj.regime_path[-1] == 1

    def test_noise_enters_through_the_diffusion_matrix(self):
        # both update forms: the Euler map on floats and the array callbacks
        fast = single_regime_linear(-1.0, s=1.0)
        slow = dataclasses.replace(fast, scalar_step=None)
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
            {"dt": 0.1, "horizon": 1.0, "path_index": -1},
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
        # noise and accept uniforms are drawn in chunks; the split must not
        # show in the float loop, nor in the batched engine, for one path or
        # several, plain or coupled
        fast = with_kernel(single_regime_linear(-0.5, s=0.4), two_state_kernel(2.0, 2.0))
        slow = dataclasses.replace(fast, scalar_step=None)
        cfg = sd.SimConfig(dt=0.01, horizon=2.0, seed=13, record_stride=3)
        x0 = np.array([0.3])

        def run():
            out = [sd.simulate(fast, cfg, x0, 1), sd.simulate(slow, cfg, x0, 1)]
            out.append(sd.simulate_coupled(fast, cfg, x0, 1))
            return out + paths(slow, cfg, 4, x0, 1) + paths(slow, cfg, 4, x0, 1, coupled=True)

        a = run()
        monkeypatch.setattr(sd.simulator, "STREAM_CHUNK", 7)
        b = run()
        assert all(tr.jumps for tr in a[:2])
        for ta, tb in zip(a, b):
            assert_same_path(ta, tb)

    def test_scalar_and_vector_engines_agree(self):
        fast = with_kernel(single_regime_linear(-0.5, s=0.4), two_state_kernel(2.0, 2.0))
        slow = dataclasses.replace(fast, scalar_step=None)
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
            scalar_step=lambda i, dt: lambda x, w: x + x**3 * dt + 0.0 * w,
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
        hits = 0
        n = 400
        for p in range(n):
            cfg = sd.SimConfig(dt=0.01, horizon=T, seed=100, path_index=p)
            traj = sd.simulate(spec, cfg, np.array([1.0]), 1)
            hits += bool(traj.jumps)
        se = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(hits / n - expected) < 3.5 * se


def grow_or_blow_spec(kernel_kind: str) -> sd.ModelSpec:
    """1-D linear model run by the float loop.  Regime 1 grows (dX = 5 X dt
    + 0.5 X dW) and leaves for 2 at rate 8; regime 2 (drift 1e16 x) blows
    up on its next step and leaves for 1 at rate 8.  kernel_kind picks how
    the float loop reads rates: a per-regime table, gated reads of an
    x-dependent kernel, or reads on every step without a bound."""
    kernel = two_state_kernel(8.0, 8.0)
    if kernel_kind != "table":
        kernel = dataclasses.replace(kernel, x_independent=False)
    if kernel_kind == "every_step":
        kernel = dataclasses.replace(kernel, global_bound=None)
    params = {"matrices": [[[5.0]], [[1e16]]], "sigma_matrices": [[[[0.5]]], [[[0.0]]]]}
    return sd.build_model({"family": "linear", "params": params}, kernel)


class TestFloatLoop:
    @pytest.mark.parametrize("kernel_kind", ["table", "gated", "every_step"])
    def test_exit_and_blowup_steps(self, kernel_kind):
        # a path that leaves the ball on a step that jumps logs the jump and
        # records the post-jump regime at tau_h; a path that blows up records
        # the pre-step regime and logs no jump at that step, even when its
        # accept uniform is below q dt
        spec = grow_or_blow_spec(kernel_kind)
        cfg = sd.SimConfig(dt=0.01, horizon=2.0, seed=4, stop_radius=1.0)
        trajs = paths(spec, cfg, 200, np.array([0.5]), 1)
        exit_jumps = blowup_draws = 0
        for p, tr in enumerate(trajs):
            t_end = tr.times[-1]
            assert all(t <= t_end for t, _, _ in tr.jumps)
            assert tr.regime_path[-1] == (tr.jumps[-1][2] if tr.jumps else 1)
            if tr.exited:
                assert tr.tau_h == t_end
                if tr.jumps and tr.jumps[-1][0] == t_end:
                    assert tr.jumps[-1][1:] == (1, 2)
                    exit_jumps += 1
            elif tr.blew_up:
                assert tr.regime_path[-1] == 2 and tr.jumps[-1][0] < t_end
                k = int(round(t_end / cfg.dt)) - 1
                u = sd.path_streams(cfg.seed, p)[1].random(k + 1)[k]
                blowup_draws += u < 8.0 * cfg.dt
        assert exit_jumps > 0 and blowup_draws > 0

    @pytest.mark.parametrize("x_independent", [False, True], ids=["gated", "table"])
    def test_an_invalid_per_point_row_raises(self, x_independent):
        # a self-target, which padded_rows and the batched engine reject too
        kernel = sd.RateKernel(
            row=lambda x, i: ((i, 0.5),), global_bound=1.0, x_independent=x_independent
        )
        spec = with_kernel(single_regime_linear(-1.0), kernel)
        cfg = sd.SimConfig(dt=0.01, horizon=5.0, seed=1)
        with pytest.raises(sd.EvaluationError, match=r"row 1 has invalid entry \(1, 0.5\)"):
            sd.simulate(spec, cfg, np.array([0.5]), 1)


class TestCoupledPaths:
    def test_state_independent_rates_never_decouple(self):
        kernel = sd.build_kernel("birth_death", {"up": 2.0, "down": 3.0})
        spec = with_kernel(single_regime_linear(-0.5, s=0.3), kernel)
        cfg = sd.SimConfig(dt=0.01, horizon=3.0, seed=40)
        for ct in paths(spec, cfg, 40, np.array([0.4]), 2, coupled=True):
            assert not ct.decoupled
            assert np.array_equal(ct.alpha_path, ct.alpha_hat_path)
            assert ct.jumps_alpha == ct.jumps_alpha_hat

    def test_decoupling_happens_for_state_dependent_rates(self):
        kernel = sd.build_kernel("example52_q", {"scale": 1.0})
        spec = with_kernel(single_regime_linear(0.0, s=0.0), kernel)
        cfg = sd.SimConfig(dt=0.005, horizon=4.0, seed=41)
        decoupled = 0
        # sin(1) lifts q(x) well above q(0)
        for ct in paths(spec, cfg, 60, np.array([1.0]), 1, coupled=True):
            if ct.decoupled:
                decoupled += 1
                assert ct.vartheta > 0.0
        assert decoupled > 10

    def test_driving_regime_marginal_matches_plain_simulation(self):
        kernel = sd.build_kernel("example52_q", {"scale": 1.0})
        spec = with_kernel(single_regime_linear(-0.1, s=0.2), kernel)
        n = 150
        x0 = np.array([0.5])
        cfg = sd.SimConfig(dt=0.01, horizon=5.0, seed=42)
        occ_coupled = np.array([
            sd.occupation_fraction(
                SimpleNamespace(times=ct.times, regime_path=ct.alpha_path, jumps=ct.jumps_alpha), 1
            )
            for ct in paths(spec, cfg, n, x0, 1, coupled=True)
        ])
        cfg2 = dataclasses.replace(cfg, seed=4242)
        occ_plain = np.array([sd.occupation_fraction(tr, 1) for tr in paths(spec, cfg2, n, x0, 1)])
        diff = occ_coupled.mean() - occ_plain.mean()
        se = math.sqrt(occ_coupled.var(ddof=1) / n + occ_plain.var(ddof=1) / n)
        assert abs(diff) < 3.0 * se

    def test_guarded_steps_do_not_bias_the_driving_regime(self):
        # q dt = 0.2 exceeds the guard, so every step is sub-divided.  With an
        # x-independent kernel alpha_hat never leaves alpha, and alpha must make
        # the same jumps as the plain simulation on the same streams.
        spec = with_kernel(single_regime_linear(-1.0, s=0.2), two_state_kernel(100.0, 100.0))
        cfg = sd.SimConfig(dt=0.002, horizon=1.0, seed=44)
        x0 = np.array([0.5])
        coupled = plain = 0
        for ct in paths(spec, cfg, 200, x0, 1, coupled=True):
            assert not ct.decoupled
            coupled += len(ct.jumps_alpha)
        for tr in paths(spec, cfg, 200, x0, 1):
            plain += len(tr.jumps)
        assert coupled == plain


class TestBatchedEngine:
    @pytest.mark.parametrize("with_batch_rows", [True, False], ids=["batch_rows", "per_point"])
    @pytest.mark.parametrize("coupled", [False, True], ids=["vector", "coupled"])
    def test_every_path_equals_its_batch_of_one(self, monkeypatch, coupled, with_batch_rows):
        spec = regime_mix_spec(2, with_batch_rows)
        x0 = np.array([0.45, 0.15])
        whole = paths(spec, MIX_CONFIG, 24, x0, 1, coupled)
        monkeypatch.setattr(sd.simulator, "PATH_BLOCK", 5)
        blocks = paths(spec, MIX_CONFIG, 24, x0, 1, coupled)
        one = sd.simulate_coupled if coupled else sd.simulate
        for p, traj in enumerate(whole):
            alone = one(spec, dataclasses.replace(MIX_CONFIG, path_index=p), x0, 1)
            assert_same_path(traj, alone)
            assert_same_path(blocks[p], alone)
        assert_mixed(whole, coupled)

    @pytest.mark.parametrize("with_batch_rows", [True, False], ids=["batch_rows", "per_point"])
    def test_batched_engine_matches_the_float_loop(self, with_batch_rows):
        # the float loop is the reference: a 1-D model without its Euler map
        # runs through the batched engine, path for path the same
        fast = regime_mix_spec(1, with_batch_rows)
        slow = dataclasses.replace(fast, scalar_step=None)
        x0 = np.array([0.5])
        batch = paths(slow, MIX_CONFIG, 24, x0, 1)
        for p, traj in enumerate(batch):
            cfg = dataclasses.replace(MIX_CONFIG, path_index=p)
            assert_same_path(traj, sd.simulate(fast, cfg, x0, 1))
        assert_mixed(batch)

    @pytest.mark.parametrize(
        "kernel",
        [
            sd.build_kernel("example52_q", {"scale": 1.0}),
            sd.build_kernel("birth_death", {"up": 0.7, "down": 1.3, "modulation": 2.0}),
            sd.build_kernel(
                "custom_table", {"rows": {"1": [[3, 0.3], [2, 1.1]], "2": [[1, 0.4]], "3": [[1, 2.0], [2, 0.5]]}}
            ),
        ],
        ids=["example52_q", "birth_death", "custom_table"],
    )
    def test_pair_totals_equal_the_per_point_sum(self, kernel):
        # the reference: the coupling's total rate summed one target at a
        # time in ascending order, from per-point rows
        assert 300 > sd.simulator.FEW_PAIRS
        rng = np.random.default_rng(0)
        X = rng.uniform(-2.0, 2.0, (300, 2))
        S = rng.integers(1, 5, (300, 2))
        rates = sd.simulator._pair_rates(kernel, 2)
        q, row_of = rates(X, S)
        # batches of up to FEW_PAIRS pairs sum in Python, larger ones as
        # arrays: both must give the same totals and rows
        few = sd.simulator.FEW_PAIRS
        for start in range(0, len(S), few):
            q_few, row_few = rates(X[start : start + few], S[start : start + few])
            assert q_few.tolist() == q[start : start + few].tolist()
            assert [row_few(l) for l in range(len(q_few))] == [
                row_of(start + l) for l in range(len(q_few))
            ]
        for x, (a, b), total in zip(X, S.tolist(), q.tolist()):
            rates_a = dict(kernel.row(x, a))
            rates_b = dict(kernel.row(np.zeros(2), b))
            want = 0.0
            for j in sorted(set(rates_a) | set(rates_b)):
                want += max(rates_a.get(j, 0.0), rates_b.get(j, 0.0))
            assert total == want

    def test_frozen_rows_are_read_only_in_visited_regimes(self):
        # a kernel defined on regimes 5..7 alone: alpha_hat's rows at 0 are
        # evaluated for the regimes it reaches, never below them
        def row(x, i):
            if i not in (5, 6, 7):
                raise KeyError(i)
            return ((5 if i == 7 else i + 1, 1.0 + float(np.dot(x, x))),)

        matrices = {"matrices": [(-np.eye(2)).tolist()]}
        spec = sd.build_model({"family": "linear", "params": matrices}, sd.RateKernel(row=row))
        cfg = sd.SimConfig(dt=0.01, horizon=2.0)
        coupled = paths(spec, cfg, 5, np.array([0.5, 0.5]), 5, coupled=True)
        assert any(ct.decoupled for ct in coupled)
        assert {int(i) for ct in coupled for i in ct.alpha_hat_path} == {5, 6, 7}

    @pytest.mark.parametrize("noise_dim", [1, 2])
    @pytest.mark.parametrize("dt", [0.005, 0.05], ids=["gated", "guard_fires"])
    @pytest.mark.parametrize("coupled", [False, True], ids=["vector", "coupled"])
    def test_bound_maps_equal_the_per_point_maps(self, monkeypatch, coupled, dt, noise_dim):
        # the batch forms gather each regime's matrices when the engine binds
        # them, so it must rebind after a jump, after a guarded sub-division
        # and after paths leave; the per-point maps read the regimes when
        # called.  The reference declares no bound, so every step screens
        # every path, while the bounded spec screens only the steps in hot.
        # Short chunks give many hot vectors.
        monkeypatch.setattr(sd.simulator, "STREAM_CHUNK", 8)
        cfg = dataclasses.replace(MIX_CONFIG, dt=dt)
        x0 = MIX_X0[2]
        bound = regime_mix_spec(2, global_bound=9.0, noise_dim=noise_dim)
        per_point = dataclasses.replace(
            regime_mix_spec(2, noise_dim=noise_dim), batch_drift=None, batch_diffusion=None
        )
        got = paths(bound, cfg, 24, x0, 1, coupled)
        want = paths(per_point, cfg, 24, x0, 1, coupled)
        for a, b in zip(got, want):
            assert_same_path(a, b)
        assert any(tr.exited for tr in got) and any(tr.blew_up for tr in got)
        log = [tr.jumps_alpha if coupled else tr.jumps for tr in got]
        off_grid = [abs(t / dt - round(t / dt)) > 1e-9 for js in log for t, _, _ in js]
        assert off_grid and any(off_grid) == (dt == 0.05)

    def test_one_noise_column_keeps_the_sign_of_zero(self):
        # with d = 1 the engine multiplies sigma by the noise elementwise,
        # adding +0.0 as matmul's sum does: a product of -0.0 must reach X as
        # +0.0.  The reference is the Euler step with matmul.  The first spec
        # at x = (-0.0, -0.0) has X + b dt = -0.0 and sigma w = -0.0 where
        # w < 0; example52 has zero diffusion.
        signed = sd.ModelSpec(
            dim=2, noise_dim=1, drift=lambda x, i: x.copy(),
            diffusion=lambda x, i: -x[:, None], rate_kernel=sd.RateKernel(row=lambda x, i: ()),
        )
        odd = {"matrices": [[[-0.0, 0.5], [0.25, -0.0]]], "sigma_matrices": [[[[-0.0, 1.0], [-0.5, 0.0]]]]}
        no_switching = sd.RateKernel(row=lambda x, i: (), global_bound=0.0, x_independent=True)
        specs = [signed, sd.preset("example52_stable").model,
                 sd.build_model({"family": "linear", "params": odd}, no_switching)]
        cfg = sd.SimConfig(dt=0.002, horizon=0.002, seed=4)
        sq = math.sqrt(cfg.dt)
        W = np.array([sd.path_streams(cfg.seed, p)[0].standard_normal((1, 1))[0] for p in range(8)])
        assert (W > 0).any() and (W < 0).any()
        for spec in specs:
            for x0 in ([-0.0, -0.0], [0.0, -0.0], [-0.0, 0.3], [-0.7, 0.0]):
                X = np.tile(x0, (8, 1))
                I = np.ones(8, dtype=np.int64)
                noise = np.matmul(spec.diffusions(X, I), (W * sq)[:, :, None])[:, :, 0]
                want = X + spec.drifts(X, I) * cfg.dt + noise
                trajs = sd.simulator._batch_paths(spec, cfg, np.array(x0), 1, 8, coupled=False)
                got = np.array([tr.x_path[-1] for tr in trajs])
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_coupled_ensemble_counts_exits_and_blowups(self):
        summary, collected = sd.run_ensemble(
            regime_mix_spec(), None, MIX_CONFIG, 24, [], np.array([0.45, 0.15]), 1,
            collect=lambda tr: tr, coupled=True,
        )
        assert all(isinstance(tr, sd.CoupledTrajectory) for tr in collected)
        assert summary.n_exited == sum(tr.exited for tr in collected) > 0
        assert summary.n_blowups == sum(tr.blew_up for tr in collected) > 0


# (dim, coupled) of the mixed model: batched plain and coupled paths in 2-D,
# and in 1-D the float loop on its x-dependent kernel
KINDS = {"vector": (2, False), "coupled": (2, True), "float_loop": (1, False)}
MIX_X0 = {2: np.array([0.45, 0.15]), 1: np.array([0.5])}


class TestBoundGate:
    @pytest.mark.parametrize("dt", [0.005, 0.05], ids=["gated", "guard_fires"])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_gate_leaves_every_path_unchanged(self, kind, dt):
        # with a declared bound, rows are read only where an accept uniform
        # is below q_bar dt; without one, every step reads them.  At dt =
        # 0.05, q_bar dt breaks the guard, so the gate is off and guarded
        # steps occur.
        dim, coupled = KINDS[kind]
        cfg = dataclasses.replace(MIX_CONFIG, dt=dt)
        bounded = regime_mix_spec(dim, global_bound=9.0)
        gate = sd.simulator._thinning_bound(bounded.rate_kernel, dt, coupled)[1]
        assert (gate <= sd.simulator.THINNING_GUARD) == (dt == 0.005)
        gated = paths(bounded, cfg, 24, MIX_X0[dim], 1, coupled)
        ungated = paths(regime_mix_spec(dim), cfg, 24, MIX_X0[dim], 1, coupled)
        for a, b in zip(gated, ungated):
            assert_same_path(a, b)
        assert any(tr.exited for tr in gated) and any(tr.blew_up for tr in gated)
        log = [tr.jumps_alpha if coupled else tr.jumps for tr in gated]
        off_grid = [abs(t / dt - round(t / dt)) > 1e-9 for js in log for t, _, _ in js]
        assert off_grid and any(off_grid) == (dt == 0.05)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_understated_bound_raises(self, kind):
        # regime 1's rate 4|x|^2 passes 1 once |x| > 0.5
        dim, coupled = KINDS[kind]
        spec = regime_mix_spec(dim, global_bound=1.0)
        with pytest.raises(sd.EvaluationError, match="regime .* exceeds"):
            paths(spec, MIX_CONFIG, 24, MIX_X0[dim], 1, coupled)

    def test_rows_are_read_only_on_steps_with_a_candidate(self):
        # example52: q_bar dt = 0.008, so about one step in six of 20 paths
        # has a candidate, and each read covers exactly the candidates
        bundle = sd.preset("example52_stable")
        kernel = bundle.model.rate_kernel
        sizes = []

        def counting(X, I):
            sizes.append(len(I))
            return kernel.batch_rows(X, I)

        spec = with_kernel(bundle.model, dataclasses.replace(kernel, batch_rows=counting))
        cfg = sd.SimConfig(dt=bundle.sim.dt, horizon=1.0, seed=5)
        n, n_steps = 20, 500
        trajs = paths(spec, cfg, n, bundle.x0, bundle.i0)
        assert not any(tr.exited or tr.blew_up for tr in trajs)
        gate = sd.simulator._thinning_bound(kernel, cfg.dt)[1]
        assert gate == (4.0 + sd.model.RATE_BOUND_TOL) * cfg.dt
        U = np.array([sd.path_streams(cfg.seed, p)[1].random(n_steps) for p in range(n)])
        candidates = np.count_nonzero(U < gate, axis=0)
        assert 0 < np.count_nonzero(candidates) < n_steps
        assert sizes == candidates[candidates > 0].tolist()


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

    def test_trajectory_csv_bytes_equal_per_element_formatting(self, tmp_path):
        # the writer formats whole columns; the reference formats element by
        # element with repr(float(v)) and int(i), on an example51_unstable
        # path and on edge values
        def reference(traj):
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(["t"] + [f"x{k+1}" for k in range(traj.x_path.shape[1])] + ["regime"])
            for m in range(traj.times.size):
                writer.writerow(
                    [repr(float(traj.times[m]))]
                    + [repr(float(v)) for v in traj.x_path[m]]
                    + [int(traj.regime_path[m])]
                )
            return buf.getvalue().encode()

        bundle = sd.preset("example51_unstable")
        edges = sd.Trajectory(
            times=np.array([0.0, 5e-324, 0.1 + 0.2, 1e300]),
            x_path=np.array([[-0.0, 1e-300], [math.inf, -math.inf], [math.nan, -1.5], [0.1, 2.0**60]]),
            regime_path=np.array([1, 2, 10**12, 3]),
        )
        for traj in (sd.simulate(bundle.model, bundle.sim, bundle.x0, bundle.i0), edges):
            out = tmp_path / "traj.csv"
            sd.write_trajectory_csv(str(out), traj)
            assert out.read_bytes() == reference(traj)
        # columns of unequal length are refused, not cut to the shortest
        for cut in ("times", "x_path", "regime_path"):
            short = dataclasses.replace(edges, **{cut: getattr(edges, cut)[:-1]})
            with pytest.raises(sd.ContractError, match="one of each per recorded point"):
                sd.write_trajectory_csv(str(tmp_path / "short.csv"), short)
            assert not (tmp_path / "short.csv").exists()

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
