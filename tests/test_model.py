"""Generator arithmetic, kernel row validation, and drift-condition scans."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchdiff as sd
from conftest import single_regime_linear, square_lyapunov, two_state_kernel


def quadratic_lyap(radius=1.0, with_derivatives=True):
    return sd.LyapunovSpec(
        V=lambda x: float(np.dot(x, x)),
        g=sd.identity_profile(h=radius**2),
        c=lambda i: 0.0,
        c_bound=1.0,
        domain_radius=radius,
        grad_V=(lambda x: 2.0 * np.asarray(x, dtype=float)) if with_derivatives else None,
        hess_V=(lambda x: 2.0 * np.eye(np.asarray(x).size)) if with_derivatives else None,
    )


class TestDiffusionGenerator:
    def test_matches_hand_computed_value_with_additive_noise(self):
        # dX = -X dt + dW, V = x^2: L V(x) = -2 x^2 + 1, so L V(0.5) = 0.5.
        def row(x, i):
            return ()

        spec = sd.ModelSpec(
            dim=1,
            noise_dim=1,
            drift=lambda x, i: -np.asarray(x, dtype=float),
            diffusion=lambda x, i: np.ones((1, 1)),
            rate_kernel=sd.RateKernel(row=row, global_bound=0.0, x_independent=True),
            zero_fixed=False,
        )
        val = sd.apply_generator_Li(spec, quadratic_lyap(), np.array([0.5]), 1)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_for_saturating_scalar_family(self, stable51):
        # drift b_i x |x|^(2 gamma), diffusion sigma_i sin(x)^2, V = x^2:
        #   L_i V = 2 b_i |x|^(2 + 2 gamma) + sigma_i^2 sin(x)^4.
        bundle = stable51
        b, sigma, gamma = 1.0, 0.3, 0.5
        x = 0.1
        expected = 2.0 * b * abs(x) ** (2.0 + 2.0 * gamma) + sigma**2 * math.sin(x) ** 4
        got = sd.apply_generator_Li(bundle.model, bundle.lyap, np.array([x]), 1)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_finite_difference_derivatives_agree_with_analytic(self, stable51):
        bundle = stable51
        lyap_fd = sd.LyapunovSpec(
            V=bundle.lyap.V,
            g=bundle.lyap.g,
            c=bundle.lyap.c,
            c_bound=bundle.lyap.c_bound,
            domain_radius=bundle.lyap.domain_radius,
        )
        for x in (0.03, 0.2, 0.45):
            exact = sd.apply_generator_Li(bundle.model, bundle.lyap, np.array([x]), 2)
            fd = sd.apply_generator_Li(bundle.model, lyap_fd, np.array([x]), 2)
            assert fd == pytest.approx(exact, rel=1e-5, abs=1e-10)

    def test_rejects_the_origin(self):
        spec = single_regime_linear(-1.0)
        with pytest.raises(sd.DomainError):
            sd.apply_generator_Li(spec, quadratic_lyap(), np.zeros(1), 1)

    @given(
        a=st.floats(-3.0, 3.0),
        x=st.floats(1e-6, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_noiseless_generator_is_exact(self, a, x, sign):
        # dX = a X dt, V = x^2: L V = 2 a x^2 for every x != 0.
        spec = single_regime_linear(a)
        val = sd.apply_generator_Li(spec, quadratic_lyap(), np.array([sign * x]), 1)
        assert val == pytest.approx(2.0 * a * x * x, rel=1e-9, abs=1e-300)


class TestFullGenerator:
    def test_includes_switching_sum(self):
        # f(x, i) = i x^2, drift -x, no noise, q_{12} = 1:
        #   L f(x, 1) = -2 x^2 + (f(x, 2) - f(x, 1)) = -2 x^2 + x^2 = -x^2.
        def row(x, i):
            return ((2, 1.0),) if i == 1 else ((1, 2.0),)

        spec = sd.ModelSpec(
            dim=1,
            noise_dim=1,
            drift=lambda x, i: -np.asarray(x, dtype=float),
            diffusion=lambda x, i: np.zeros((1, 1)),
            rate_kernel=sd.RateKernel(row=row, global_bound=2.0, x_independent=True),
        )
        f = lambda x, i: float(i * np.dot(x, x))
        got = sd.apply_full_generator(spec, f, np.array([0.5]), 1)
        assert got == pytest.approx(-0.25, abs=1e-6)

    def test_reduces_to_diffusion_part_without_switching(self):
        spec = single_regime_linear(-1.0)
        lyap = quadratic_lyap(with_derivatives=False)
        f = lambda x, i: lyap.V(x)
        x = np.array([0.3])
        assert sd.apply_full_generator(spec, f, x, 1) == pytest.approx(
            sd.apply_generator_Li(spec, lyap, x, 1), abs=1e-12
        )


class TestRateKernelRows:
    def test_valid_row_passes(self):
        kernel = two_state_kernel(1.0, 2.0)
        targets, rates = kernel.padded_rows(np.zeros((1, 1)), np.array([1]))
        assert (targets.tolist(), rates.tolist()) == ([[2]], [[1.0]])

    @pytest.mark.parametrize(
        "row",
        [
            ((1, 0.5),),  # self jump
            ((0, 0.5),),  # target below the state space
            ((2.5, 0.5),),  # fractional target
            ((2, -0.1),),  # negative rate
            ((2, float("nan")),),  # non-finite rate
            ((2, 0.5), (2, 0.25)),  # repeated target
            ((0, 0.0),),  # a padding-like entry
        ],
    )
    def test_invalid_rows_are_rejected(self, row):
        kernel = sd.RateKernel(row=lambda x, i: row, global_bound=None)
        with pytest.raises(sd.EvaluationError):
            kernel.padded_rows(np.zeros((1, 1)), np.array([1]))


class TestSpecValidation:
    def test_dimension_must_be_positive(self):
        with pytest.raises(sd.ConfigurationError):
            sd.ModelSpec(
                dim=0,
                noise_dim=1,
                drift=lambda x, i: x,
                diffusion=lambda x, i: x,
                rate_kernel=two_state_kernel(1.0, 1.0),
            )

    def test_drift_shape_mismatch_is_reported(self):
        spec = sd.ModelSpec(
            dim=2,
            noise_dim=1,
            drift=lambda x, i: np.zeros(3),
            diffusion=lambda x, i: np.zeros((2, 1)),
            rate_kernel=two_state_kernel(1.0, 1.0),
        )
        with pytest.raises(sd.EvaluationError, match=r"drift returned shape \(3,\), want \(2,\)"):
            spec.drifts(np.zeros((1, 2)), np.array([1]))

    def test_validate_flags_moving_origin(self):
        spec = sd.ModelSpec(
            dim=1,
            noise_dim=1,
            drift=lambda x, i: np.ones(1),
            diffusion=lambda x, i: np.zeros((1, 1)),
            rate_kernel=two_state_kernel(1.0, 1.0),
            zero_fixed=True,
        )
        with pytest.raises(sd.EvaluationError):
            spec.validate(regimes=(1, 2))

    def test_validate_flags_rates_above_declared_bound(self):
        kernel = sd.RateKernel(
            row=lambda x, i: ((i + 1, 5.0),), global_bound=1.0, x_independent=True
        )
        spec = sd.ModelSpec(
            dim=1,
            noise_dim=1,
            drift=lambda x, i: 0.0 * np.asarray(x, dtype=float),
            diffusion=lambda x, i: np.zeros((1, 1)),
            rate_kernel=kernel,
        )
        with pytest.raises(sd.EvaluationError):
            spec.validate(regimes=(1,))

    def test_validate_refuses_an_x_independent_kernel_whose_rates_move(self):
        # the float loop keeps such a kernel's rows per regime and the
        # kernel-continuity scan reads none, so the flag must be true
        kernel = sd.RateKernel(
            row=lambda x, i: ((i + 1, 1.0 + abs(float(np.asarray(x).reshape(-1)[0]))),),
            global_bound=2.0,
            x_independent=True,
        )
        spec = dataclasses.replace(single_regime_linear(-1.0), rate_kernel=kernel)
        with pytest.raises(sd.EvaluationError, match="x_independent"):
            spec.validate()
        honest = dataclasses.replace(kernel, x_independent=False)
        dataclasses.replace(spec, rate_kernel=honest).validate()

    def test_validate_refuses_too_few_distinct_regimes(self):
        kernel = sd.build_kernel("custom_table", {"rows": {}})
        for params, last in (
            ({"b": [1.0, -0.5, 2.0], "sigma": [0.3], "gamma": 0.5}, 3),
            ({"matrices": [[[-1.0]], [[0.5]]], "sigma_matrices": [[[[0.3]]], [[[0.3]]], [[[0.4]]]]}, 3),
        ):
            family = "example51" if "b" in params else "linear"
            spec = sd.build_model({"family": family, "params": params}, kernel)
            assert spec.distinct_regimes == last
            spec.validate()
            with pytest.raises(sd.EvaluationError, match="distinct_regimes is 2"):
                dataclasses.replace(spec, distinct_regimes=2).validate()

    def test_distinct_regimes_must_be_a_positive_integer(self):
        spec = single_regime_linear(-1.0)
        for bad in (0, -1, 1.5, "2"):
            with pytest.raises(sd.ConfigurationError, match="distinct_regimes"):
                dataclasses.replace(spec, distinct_regimes=bad)

    def test_lyapunov_validation_catches_offset_and_bound(self):
        bad_origin = square_lyapunov(c=0.0, c_bound=1.0)
        object.__setattr__(bad_origin, "V", lambda x: float(np.dot(x, x)) + 1.0)
        with pytest.raises(sd.EvaluationError):
            bad_origin.validate(dim=1)

        over_bound = square_lyapunov(c=lambda i: 2.0 * i, c_bound=3.0)
        with pytest.raises(sd.EvaluationError):
            over_bound.validate(dim=1)

    def test_c_vector_enumerates_from_regime_one(self):
        lyap = square_lyapunov(c=lambda i: float(i), c_bound=10.0)
        assert np.allclose(lyap.c_vector(4), [1.0, 2.0, 3.0, 4.0])


class TestDriftConditionScan:
    def test_contraction_satisfies_negative_coefficient(self):
        # dX = -X dt, V = x^2: L V = -2 V, so c = -2 holds with equality.
        spec = single_regime_linear(-1.0)
        lyap = square_lyapunov(c=-2.0, c_bound=2.0)
        grid = sd.radial_grid(1, np.geomspace(1e-4, 1.0, 9), [1])
        report = sd.verify_drift_condition(spec, lyap, grid).forward
        assert report.ok
        assert report.n_checked == 18
        assert report.max_residual <= 1e-12

    def test_too_small_coefficient_yields_violations_with_residuals(self):
        spec = single_regime_linear(-1.0)
        lyap = square_lyapunov(c=-3.0, c_bound=3.0)
        grid = sd.radial_grid(1, [0.5], [1])
        report = sd.verify_drift_condition(spec, lyap, grid).forward
        assert not report.ok
        # residual = L V - c g(V) = -2 V + 3 V = V = 0.25 at |x| = 0.5
        assert report.violations[0].residual == pytest.approx(0.25, abs=1e-10)
        assert report.max_residual == pytest.approx(0.25, abs=1e-10)

    def test_reversed_inequality_certifies_expansion(self):
        spec = single_regime_linear(+1.0)
        lyap = square_lyapunov(c=2.0, c_bound=2.0)
        grid = sd.radial_grid(1, np.geomspace(1e-4, 1.0, 9), [1])
        report = sd.verify_drift_condition(spec, lyap, grid)
        assert report.reversed.ok

    def test_one_scan_reports_both_directions(self):
        # dX = -X dt, V = x^2, c = -1: L V - c V = -V, so the forward
        # inequality holds with room to spare and the reversed one fails
        spec = single_regime_linear(-1.0)
        lyap = square_lyapunov(c=-1.0, c_bound=1.0)
        grid = sd.radial_grid(1, np.geomspace(1e-3, 1.0, 7), [1])
        report = sd.verify_drift_condition(spec, lyap, grid)
        assert report.forward.ok and not report.reversed.ok
        assert report.forward.n_checked == report.reversed.n_checked == report.n_checked
        assert report.n_checked == len(grid)
        gaps = [
            sd.apply_generator_Li(spec, lyap, x, i) - lyap.c(i) * lyap.g.g(lyap.V(x))
            for x, i in grid
        ]
        assert report.forward.max_residual == max(gaps)
        assert report.reversed.max_residual == -min(gaps)
        assert len(report.reversed.violations) == len(grid)

    def test_grid_points_outside_the_domain_ball_are_rejected(self):
        spec = single_regime_linear(-1.0)
        lyap = square_lyapunov(c=-2.0, c_bound=2.0, radius=0.5)
        with pytest.raises(sd.DomainError):
            sd.verify_drift_condition(spec, lyap, sd.ScanGrid(np.ones((1, 1)), np.array([1])))
        with pytest.raises(sd.DomainError):
            sd.verify_drift_condition(spec, lyap, sd.ScanGrid(np.zeros((1, 1)), np.array([1])))

    def test_empty_grid_is_a_configuration_error(self):
        spec = single_regime_linear(-1.0)
        lyap = square_lyapunov(c=-2.0, c_bound=2.0)
        with pytest.raises(sd.ConfigurationError):
            sd.verify_drift_condition(spec, lyap, sd.radial_grid(1, [], [1]))


class TestRadialGrid:
    def test_one_dimensional_grid_uses_both_signs(self):
        grid = sd.radial_grid(1, [0.1, 0.2], [1, 2, 3])
        assert len(grid) == 2 * 2 * 3
        radii = sorted({round(float(np.linalg.norm(x)), 12) for x, _ in grid})
        assert radii == [0.1, 0.2]

    def test_higher_dimensions_add_a_diagonal_direction(self):
        grid = sd.radial_grid(3, [1.0], [1])
        assert len(grid) == 7  # +/- three axes plus the normalized diagonal
        for x, i in grid:
            assert float(np.linalg.norm(x)) == pytest.approx(1.0, rel=1e-12)
            assert i == 1

    @given(
        radii=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4),
        n_regimes=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_grid_size_is_the_product_of_factors(self, radii, n_regimes):
        grid = sd.radial_grid(2, radii, range(1, n_regimes + 1))
        assert len(grid) == len(radii) * 5 * n_regimes
