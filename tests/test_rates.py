"""Envelope transform G, its inverse, and the pathwise rate estimator."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import switchdiff as sd


def synthetic_path(decay, T=5.0, n=501, x0=1.0):
    times = np.linspace(0.0, T, n)
    xs = (x0 * np.exp(-decay * times)).reshape(-1, 1)
    return SimpleNamespace(times=times, x_path=xs, exited=False, blew_up=False)


V_SQUARE = SimpleNamespace(V=lambda x: float(np.dot(x, x)))


def reference_G_inverse(profile, s):
    """Scalar G_inverse as computed point by point with math before the
    array kernel; custom profiles share the bisection route."""
    if s > 1e-12:
        raise sd.DomainError(f"G_inverse is defined on (-inf, 0]; got s = {s}")
    s = min(s, 0.0)
    h = profile.h
    if profile.kind == "identity":
        return h * math.exp(s)
    if profile.kind == "power_1_plus_gamma":
        gam = profile.gamma
        return (h ** (-gam) - gam * s) ** (-1.0 / gam)
    return sd.rates._bisect_G(profile, s)


def reference_estimate(trajectories, lyap, profile, T0, epsilon, lambdas):
    """The per-path, per-lambda, per-point scan that the blocked kernel replaced.

    Returns (lambda_hat, curve, n_excluded) with curve = [(lam, q, n_surviving)].
    """
    survivors = []
    n_excluded = 0
    for traj in trajectories:
        if traj.exited or traj.blew_up:
            n_excluded += 1
            continue
        mask = traj.times >= T0
        vs = np.array([float(lyap.V(np.asarray(x, dtype=float))) for x in traj.x_path[mask]])
        survivors.append((traj.times[mask], vs))
    curve = []
    lambda_hat = None
    for lam in lambdas:
        ratios = np.empty(len(survivors))
        for p, (ts, vs) in enumerate(survivors):
            env = np.array([reference_G_inverse(profile, float(v)) for v in -lam * ts])
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                r = np.where(vs == 0.0, 0.0, vs / env)
            r = np.where((env == 0.0) & (vs > 0.0), np.inf, r)
            ratios[p] = min(float(np.max(r)), sd.rates.RATIO_CAP)
        q = float(np.quantile(ratios, 1.0 - epsilon))
        curve.append((float(lam), q, len(survivors)))
        if q <= 1.0 + 1e-12:
            lambda_hat = float(lam)
    return lambda_hat, curve, n_excluded


def oracle_paths(T=10.0, n=401):
    """Decaying paths with multiplicative wiggle, one that reaches V = 0, one
    exited and one blown-up path."""
    rng = np.random.default_rng(7)
    paths = []
    for decay in (0.3, 0.6, 0.9, 1.2):
        p = synthetic_path(decay, T=T, n=n)
        p.x_path = p.x_path * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=p.x_path.shape))
        paths.append(p)
    zeroed = synthetic_path(0.8, T=T, n=n)
    zeroed.x_path[zeroed.times >= 0.5 * T] = 0.0
    paths.append(zeroed)
    exited = synthetic_path(0.1, T=T, n=n)
    exited.exited = True
    blown = synthetic_path(-0.5, T=T, n=n)
    blown.blew_up = True
    return paths + [exited, blown]


class TestEnvelopeTransform:
    def test_identity_profile_closed_form(self):
        prof = sd.identity_profile(h=1.0)
        assert sd.G(prof, 0.5) == pytest.approx(math.log(0.5), abs=1e-14)
        assert sd.G(prof, 1.0) == 0.0
        assert sd.G_inverse(prof, 0.0) == 1.0
        # the envelope decays exponentially in t
        for lam, t in [(0.5, 1.0), (2.0, 3.0)]:
            assert sd.G_inverse(prof, -lam * t) == pytest.approx(math.exp(-lam * t))

    def test_power_profile_closed_form(self):
        prof = sd.power_profile(gamma=0.5, h=1.0)
        assert sd.G(prof, 0.25) == pytest.approx(-2.0, abs=1e-12)
        # envelope (h^-g + g lam t)^(-1/g) decays algebraically
        lam, t = 1.0, 8.0
        expected = (1.0 + 0.5 * lam * t) ** (-2.0)
        assert sd.G_inverse(prof, -lam * t) == pytest.approx(expected, rel=1e-12)

    def test_anchor_scales_the_identity_transform(self):
        prof = sd.identity_profile(h=0.25)
        assert sd.G(prof, 0.125) == pytest.approx(math.log(0.5), abs=1e-14)

    @pytest.mark.parametrize(
        "prof",
        [
            sd.identity_profile(h=1.0),
            sd.identity_profile(h=0.25),
            sd.power_profile(0.25, h=1.0),
            sd.power_profile(0.5, h=0.25),
            sd.power_profile(0.75, h=2.0),
            sd.custom_profile(lambda y: y / (1.0 + y), h=1.0),
        ],
    )
    def test_roundtrip_on_log_grid(self, prof):
        ys = np.geomspace(1e-6 * prof.h, prof.h, 64)
        back = np.array([sd.G_inverse(prof, sd.G(prof, y)) for y in ys])
        assert float(np.max(np.abs(back - ys) / ys)) < 1e-8

    def test_quadrature_matches_closed_forms(self):
        pairs = [
            (sd.custom_profile(lambda y: y, h=1.0), sd.identity_profile(h=1.0)),
            (
                sd.custom_profile(lambda y: y**1.5, h=1.0),
                sd.power_profile(0.5, h=1.0),
            ),
        ]
        for custom, closed in pairs:
            for y in np.geomspace(0.05, 1.0, 9):
                assert abs(sd.G(custom, y) - sd.G(closed, y)) < 1e-9

    def test_domain_errors(self):
        prof = sd.identity_profile(h=1.0)
        with pytest.raises(sd.DomainError):
            sd.G(prof, 0.0)
        with pytest.raises(sd.DomainError):
            sd.G(prof, 1.5)
        with pytest.raises(sd.DomainError):
            sd.G_inverse(prof, 0.5)
        # one bad element anywhere in an array is enough
        for bad_y in ([0.5, 0.0], [[0.5, 1.5]], [0.5, float("nan")]):
            with pytest.raises(sd.DomainError):
                sd.G(prof, np.array(bad_y))
        with pytest.raises(sd.DomainError):
            sd.G_inverse(prof, np.array([-1.0, 0.5]))

    def test_vectorized_evaluation_keeps_shape(self):
        prof = sd.power_profile(0.5, h=1.0)
        ys = np.array([[0.1, 0.2], [0.4, 1.0]])
        out = sd.G(prof, ys)
        assert out.shape == ys.shape
        assert sd.G_inverse(prof, sd.G(prof, ys)) == pytest.approx(ys)
        assert type(sd.G(prof, 0.5)) is float
        assert type(sd.G_inverse(prof, np.float64(-1.0))) is float
        assert sd.G_inverse(prof, np.array([-1.0])).shape == (1,)


class TestProfileValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(sd.ConfigurationError):
            sd.RateProfile(kind="cubic", h=1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, float("inf")])
    def test_bad_anchor_rejected(self, h):
        with pytest.raises(sd.ConfigurationError):
            sd.identity_profile(h=h)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, None])
    def test_power_exponent_must_be_interior(self, gamma):
        with pytest.raises(sd.ConfigurationError):
            sd.RateProfile(kind="power_1_plus_gamma", h=1.0, gamma=gamma)

    def test_custom_profile_family_membership_checks(self):
        with pytest.raises(sd.ConfigurationError):
            sd.RateProfile(kind="custom", h=1.0)  # no callable
        with pytest.raises(sd.ConfigurationError):
            sd.custom_profile(lambda y: y + 0.1)  # g(0) != 0
        with pytest.raises(sd.ConfigurationError):
            sd.custom_profile(lambda y: -y)  # negative
        with pytest.raises(sd.ConfigurationError):
            sd.custom_profile(lambda y: y * (1.0 - y))  # not increasing on [0, 1]


class TestLambdaGrid:
    def test_default_grid_shape_and_span(self):
        grid = sd.default_lambda_grid()
        assert grid.size == 64
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e2)
        assert np.all(np.diff(grid) > 0)
        assert np.any((grid >= 1.8) & (grid <= 2.0))


class TestPathwiseRateEstimate:
    def test_exact_exponential_decay_is_rated_at_the_grid_point_below_two(self):
        # V(X(t)) = exp(-2t) with the identity profile: every rate below 2
        # is certified, everything above fails, so the scan stops at the
        # largest grid value under 2.
        paths = [synthetic_path(1.0) for _ in range(4)]
        est = sd.estimate_pathwise_rate(paths, V_SQUARE, sd.identity_profile(1.0), T0=1.0)
        assert est.lambda_hat == pytest.approx(1.9306977288832496, rel=1e-12)
        assert est.n_excluded == 0
        assert est.n_paths == 4

    def test_quantile_curve_is_nondecreasing_in_lambda(self):
        paths = [synthetic_path(0.6), synthetic_path(0.8)]
        est = sd.estimate_pathwise_rate(paths, V_SQUARE, sd.identity_profile(1.0), T0=0.5)
        qs = np.array([q for _, q, _ in est.quantile_curve])
        assert np.all(np.diff(qs) >= -1e-12)
        assert all(n == 2 for _, _, n in est.quantile_curve)

    def test_exited_paths_are_excluded_not_counted(self):
        good = synthetic_path(1.0)
        bad = synthetic_path(1.0)
        bad.exited = True
        est = sd.estimate_pathwise_rate([good, bad], V_SQUARE, sd.identity_profile(1.0), T0=1.0)
        assert est.n_excluded == 1
        assert est.quantile_curve[0][2] == 1

    def test_all_paths_excluded_raises(self):
        bad = synthetic_path(1.0)
        bad.blew_up = True
        with pytest.raises(sd.RateEstimationError):
            sd.estimate_pathwise_rate([bad], V_SQUARE, sd.identity_profile(1.0), T0=1.0)

    def test_burn_in_beyond_the_horizon_raises(self):
        with pytest.raises(sd.ConfigurationError):
            sd.estimate_pathwise_rate(
                [synthetic_path(1.0, T=2.0)], V_SQUARE, sd.identity_profile(1.0), T0=3.0
            )

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2])
    def test_epsilon_must_be_interior(self, eps):
        with pytest.raises(sd.ConfigurationError):
            sd.estimate_pathwise_rate(
                [synthetic_path(1.0)], V_SQUARE, sd.identity_profile(1.0), T0=1.0, epsilon=eps
            )

    def test_lambda_grid_must_increase(self):
        with pytest.raises(sd.ConfigurationError):
            sd.estimate_pathwise_rate(
                [synthetic_path(1.0)],
                V_SQUARE,
                sd.identity_profile(1.0),
                T0=1.0,
                lambdas=np.array([1.0, 0.5]),
            )

    @pytest.mark.parametrize(
        "prof",
        [
            sd.identity_profile(h=1.0),
            sd.power_profile(0.25, h=1.0),
            sd.power_profile(0.5, h=0.5),
            sd.power_profile(0.75, h=2.0),
        ],
        ids=["identity", "power_0.25", "power_0.5", "power_0.75"],
    )
    def test_blocked_kernel_matches_the_per_point_scan(self, prof):
        paths = oracle_paths()
        lambdas = sd.default_lambda_grid()
        est = sd.estimate_pathwise_rate(paths, V_SQUARE, prof, T0=1.0, epsilon=0.3)
        lam_hat, curve, n_excluded = reference_estimate(paths, V_SQUARE, prof, 1.0, 0.3, lambdas)
        assert est.lambda_hat == lam_hat
        assert est.n_excluded == n_excluded == 2
        assert [c[0] for c in est.quantile_curve] == [c[0] for c in curve]
        assert [c[2] for c in est.quantile_curve] == [c[2] for c in curve] == [5] * lambdas.size
        for (_, q, _), (_, q_ref, _) in zip(est.quantile_curve, curve):
            assert q == q_ref or abs(q - q_ref) <= 1e-12 * abs(q_ref)
        if prof.kind == "identity":
            # lam * t > 750 underflows exp: the capped ratio, never NaN
            assert est.quantile_curve[-1][1] == sd.rates.RATIO_CAP

    def test_custom_profile_matches_the_per_point_scan(self):
        prof = sd.custom_profile(lambda y: y + y * y, h=1.0)
        paths = oracle_paths(T=4.0, n=9)
        lambdas = np.array([0.1, 0.5, 2.0])
        est = sd.estimate_pathwise_rate(
            paths, V_SQUARE, prof, T0=1.0, epsilon=0.3, lambdas=lambdas
        )
        lam_hat, curve, n_excluded = reference_estimate(paths, V_SQUARE, prof, 1.0, 0.3, lambdas)
        assert est.lambda_hat == lam_hat
        assert est.n_excluded == n_excluded
        assert est.quantile_curve == curve

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_lambda_block_size_does_not_change_the_curve(self, monkeypatch, rows):
        paths = oracle_paths()
        prof = sd.power_profile(0.5, h=1.0)
        n_t = int((paths[0].times >= 1.0).sum())
        a = sd.estimate_pathwise_rate(paths, V_SQUARE, prof, T0=1.0, epsilon=0.3)
        monkeypatch.setattr(sd.rates, "SUP_RATIO_BLOCK", rows * n_t)
        b = sd.estimate_pathwise_rate(paths, V_SQUARE, prof, T0=1.0, epsilon=0.3)
        assert a.quantile_curve == b.quantile_curve
        assert a.lambda_hat == b.lambda_hat

    def test_quantile_curve_csv_roundtrip(self, tmp_path):
        est = sd.estimate_pathwise_rate(
            [synthetic_path(1.0)], V_SQUARE, sd.identity_profile(1.0), T0=1.0
        )
        out = tmp_path / "curve.csv"
        sd.write_quantile_curve(str(out), est)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "lambda,quantile,n_surviving"
        assert len(rows) == 1 + len(est.quantile_curve)
        lam0, q0, n0 = rows[1].split(",")
        assert float(lam0) == est.quantile_curve[0][0]
        assert float(q0) == est.quantile_curve[0][1]
