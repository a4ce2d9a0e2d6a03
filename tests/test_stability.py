"""Certificate assembly: averaged drift, scans, and the linearized criterion."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchdiff as sd
from conftest import single_regime_linear, square_lyapunov, two_state_kernel


def measure(nu, tail_mass=0.0, residual=0.0):
    nu = np.asarray(nu, dtype=float)
    return sd.InvariantMeasure(
        nu=nu, residual=residual, truncation_size=nu.size, tail_mass=tail_mass
    )


def linear_regimes(a_values, s_values=None):
    """Linear 1D model whose regime i has drift slope a_values[i-1]."""
    a_values = list(a_values)
    s_values = [0.0] * len(a_values) if s_values is None else list(s_values)

    def at(values, i):
        return values[min(i, len(values)) - 1]

    def row(x, i):
        return ()

    return sd.ModelSpec(
        dim=1,
        noise_dim=1,
        drift=lambda x, i: at(a_values, i) * np.asarray(x, dtype=float),
        diffusion=lambda x, i: np.array([[at(s_values, i) * float(x[0])]]),
        rate_kernel=sd.RateKernel(row=row, global_bound=0.0, x_independent=True),
        linearization=sd.ExactLinearization(
            drift_matrix=lambda i: np.array([[at(a_values, i)]]),
            diffusion_matrices=lambda i: [np.array([[at(s_values, i)]])],
        ),
    )


class TestMeanDrift:
    def test_constant_coefficient_on_an_exact_chain(self):
        res = sd.mean_drift_criterion(lambda i: -1.0, measure([0.5, 0.5]), c_bound=1.0)
        assert res.value == pytest.approx(-1.0)
        assert res.tail_bound == 0.0
        assert res.sign == "negative"

    def test_alternating_coefficients_on_a_geometric_truncation(self):
        chain = sd.truncate(sd.build_kernel("example52_q", {"scale": 1.0}), 20, "lump")
        nu = sd.invariant_measure(chain)
        res = sd.mean_drift_criterion(lambda i: (-1.0) ** i, nu, c_bound=1.0)
        # sum (-1)^i 2^-i = -1/3; the lumped boundary shifts it by O(2^-19)
        assert res.value == pytest.approx(-1.0 / 3.0, abs=1e-5)
        assert res.tail_bound == pytest.approx(2.0 * nu.tail_mass, rel=1e-12)
        assert res.sign == "negative"

    def test_positive_and_indeterminate_signs(self):
        assert sd.mean_drift_criterion([2.0, 2.0], measure([0.5, 0.5])).sign == "positive"
        shaky = sd.mean_drift_criterion(
            lambda i: 0.01, measure([0.6, 0.4], tail_mass=0.1), c_bound=1.0
        )
        assert shaky.sign == "indeterminate"
        assert shaky.tail_bound == pytest.approx(0.2)

    def test_sequence_input_is_accepted(self):
        res = sd.mean_drift_criterion([-1.0, 3.0], measure([0.75, 0.25]), c_bound=3.0)
        assert res.value == pytest.approx(0.0)

    def test_declared_bound_is_enforced(self):
        with pytest.raises(sd.ConfigurationError):
            sd.mean_drift_criterion(lambda i: float(i), measure([0.2] * 5), c_bound=3.0)
        with pytest.raises(sd.ConfigurationError):
            sd.mean_drift_criterion(lambda i: math.nan, measure([1.0]))

    @given(kappa=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_value_is_linear_in_the_coefficients(self, kappa):
        nu = measure([0.5, 0.3, 0.2])
        base = sd.mean_drift_criterion(lambda i: -float(i), nu)
        scaled = sd.mean_drift_criterion(lambda i: -kappa * float(i), nu)
        assert scaled.value == pytest.approx(kappa * base.value, rel=1e-12)


class TestMgScan:
    def test_vanishing_noise_ratio_is_finite(self, stable51):
        scan = sd.scan_mg(stable51.model, stable51.lyap, regimes=range(1, 5))
        # |2x sigma_i sin(x)^2| / (x^2)^(3/2) -> 2 sigma_i, worst regime 0.4
        assert scan.finite
        assert scan.sup_value == pytest.approx(0.8, abs=1e-3)
        assert scan.regimes_scanned == 4

    def test_additive_noise_with_identity_profile_diverges(self):
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
        lyap = square_lyapunov(c=0.0, c_bound=1.0)
        scan = sd.scan_mg(spec, lyap, regimes=[1])
        assert not scan.finite

    def test_radii_must_stay_in_the_domain(self, stable51):
        with pytest.raises(sd.ConfigurationError):
            sd.scan_mg(stable51.model, stable51.lyap, radii=[0.1, 2.0])


class TestKernelContinuityScan:
    def test_sine_modulated_rates_vanish_toward_zero(self):
        kernel = sd.build_kernel("example52_q", {"scale": 1.0})
        scan = sd.scan_kernel_continuity(kernel, dim=1, regimes=range(1, 20))
        assert scan.vanishing
        # worst row discrepancy is 2 sin(r), largest at the outer radius
        assert scan.s_values[-1] == pytest.approx(2.0 * math.sin(0.5), rel=1e-12)
        assert scan.s_values[0] == pytest.approx(2.0e-6, rel=1e-3)

    def test_state_independent_rates_are_exactly_continuous(self):
        kernel = sd.build_kernel("birth_death", {"up": 1.0, "down": 2.0})
        scan = sd.scan_kernel_continuity(kernel, dim=1, regimes=range(1, 10))
        assert scan.vanishing
        assert float(np.max(scan.s_values)) == 0.0

    def test_jump_discontinuity_at_the_origin_is_caught(self):
        def row(x, i):
            r = 1.0 if float(np.linalg.norm(np.atleast_1d(x))) > 0 else 0.5
            return ((i + 1, r),)

        kernel = sd.RateKernel(row=row, global_bound=1.0)
        scan = sd.scan_kernel_continuity(kernel, dim=1, regimes=range(1, 5))
        assert not scan.vanishing

    def test_radii_validation(self):
        kernel = sd.build_kernel("two_state", {"q12": 1.0, "q21": 1.0})
        with pytest.raises(sd.ConfigurationError):
            sd.scan_kernel_continuity(kernel, dim=1, radii=[0.0, 0.1])


class TestKScan:
    def test_scan_depth_grows_with_the_truncation(self):
        assert sd.k_scan(10) == 100
        assert sd.k_scan(25) == 100
        assert sd.k_scan(26) == 104
        assert sd.k_scan(40) == 160


def contraction_evidence():
    """Complete evidence bundle for dX = -X dt with no switching."""
    spec = single_regime_linear(-1.0)
    lyap = square_lyapunov(c=-2.0, c_bound=2.0)
    chain = sd.truncate(spec.rate_kernel, 1, mode="drop")
    nu = sd.invariant_measure(chain)
    grid = sd.radial_grid(1, np.geomspace(1e-5, 1.0, 9), [1])
    drift = sd.verify_drift_condition(spec, lyap, grid)
    mg = sd.scan_mg(spec, lyap, regimes=[1])
    ker = sd.scan_kernel_continuity(spec.rate_kernel, dim=1, regimes=[1])
    erg = sd.ergodicity_diagnostic(chain, [0.5, 1.0, 2.0, 4.0])
    return spec, lyap, nu, drift, mg, ker, erg


class TestTheoremChecks:
    def test_contraction_certifies_the_identity_profile_criterion(self):
        _, lyap, nu, drift, mg, ker, erg = contraction_evidence()
        report = sd.check_theorem_hypotheses(
            "T3_1", lyap, nu, drift_report=drift, kernel_scan=ker, ergodicity=erg
        )
        assert report.verdict == "stable_certified"
        assert report.hypotheses == {
            "strong_ergodicity": "holds",
            "kernel_continuity": "holds",
            "g_is_identity": "holds",
            "drift_condition": "holds",
            "c_bounded": "holds",
            "mean_drift_negative": "holds",
        }
        assert report.mean_drift == pytest.approx(-2.0)
        assert report.tail_bound == 0.0
        # the degenerate one-state chain sits at nu already
        assert any("floor" in n for n in report.notes)
        assert report.notes[-1] == "numeric scans are grid evidence, not proof"
        assert report.scan_cutoffs["K_scan"] == 100
        assert report.scan_cutoffs["tail_window_start"] == 51
        assert report.scan_cutoffs["drift_grid_points"] == drift.n_checked

    def test_negative_tail_variant_also_certifies(self):
        _, lyap, nu, drift, mg, ker, erg = contraction_evidence()
        report = sd.check_theorem_hypotheses(
            "T3_2", lyap, nu, drift_report=drift, mg_scan=mg, ergodicity=erg
        )
        assert report.verdict == "stable_certified"
        assert report.limsup_tail_c == pytest.approx(-2.0)
        assert "kernel_continuity" not in report.hypotheses
        with_scan = sd.check_theorem_hypotheses(
            "T3_2", lyap, nu, drift_report=drift, mg_scan=mg, kernel_scan=ker, ergodicity=erg
        )
        assert with_scan.hypotheses["kernel_continuity"] == "holds"

    def test_expansion_certifies_both_instability_variants(self):
        spec = single_regime_linear(+1.0)
        lyap = square_lyapunov(c=+2.0, c_bound=2.0)
        chain = sd.truncate(spec.rate_kernel, 1, mode="drop")
        nu = sd.invariant_measure(chain)
        grid = sd.radial_grid(1, np.geomspace(1e-5, 1.0, 9), [1])
        drift = sd.verify_drift_condition(spec, lyap, grid)
        mg = sd.scan_mg(spec, lyap, regimes=[1])
        ker = sd.scan_kernel_continuity(spec.rate_kernel, dim=1, regimes=[1])
        erg = sd.ergodicity_diagnostic(chain, [0.5, 1.0, 2.0, 4.0])
        ergodic = sd.check_theorem_hypotheses(
            "T3_5_ergodic", lyap, nu, drift_report=drift, mg_scan=mg, ergodicity=erg
        )
        strong = sd.check_theorem_hypotheses(
            "T3_5_strong",
            lyap,
            nu,
            drift_report=drift,
            mg_scan=mg,
            kernel_scan=ker,
            ergodicity=erg,
        )
        assert ergodic.verdict == "unstable_certified"
        assert ergodic.hypotheses["liminf_tail_c_positive"] == "holds"
        assert strong.verdict == "unstable_certified"

    def test_failed_hypothesis_downgrades_to_inconclusive(self):
        _, lyap, nu, drift, mg, ker, erg = contraction_evidence()
        power_lyap = square_lyapunov(
            c=-2.0, c_bound=2.0, profile=sd.power_profile(0.5, h=1.0)
        )
        report = sd.check_theorem_hypotheses(
            "T3_1", power_lyap, nu, drift_report=drift, kernel_scan=ker, ergodicity=erg
        )
        assert report.hypotheses["g_is_identity"] == "fails"
        assert report.verdict == "inconclusive"

    def test_missing_evidence_is_named(self):
        _, lyap, nu, drift, mg, ker, erg = contraction_evidence()
        with pytest.raises(sd.ConfigurationError, match="mg_scan"):
            sd.check_theorem_hypotheses(
                "T3_3", lyap, nu, drift_report=drift, kernel_scan=ker, ergodicity=erg
            )

    def test_unknown_criterion_name(self):
        _, lyap, nu, drift, mg, ker, erg = contraction_evidence()
        with pytest.raises(sd.ConfigurationError):
            sd.check_theorem_hypotheses("T9_9", lyap, nu, drift_report=drift)


class TestLinearize:
    def test_exact_matrices_are_used_when_declared(self, stable52):
        data = sd.linearize(stable52.model, range(1, 31))
        assert data.Lam1[1] == pytest.approx(-5.5)
        assert data.lam1[1] == pytest.approx(-6.5)
        assert data.Lam1[2] == pytest.approx(1.25)
        assert data.lam1[2] == pytest.approx(0.75)
        assert data.Lam1[17] == data.Lam1[2]  # saturating regime lookup
        assert data.warning is None
        assert data.residuals == [0.0, 0.0, 0.0]

    def test_finite_differences_recover_linear_slopes(self):
        spec = dataclasses.replace(linear_regimes([-0.3, 0.7]), linearization=None)
        data = sd.linearize(spec, [1, 2])
        assert data.Lam1[1] == pytest.approx(-0.3, abs=1e-9)
        assert data.Lam1[2] == pytest.approx(0.7, abs=1e-9)

    def test_superlinear_drift_linearizes_to_zero(self, stable51):
        data = sd.linearize(stable51.model, [1, 2])
        # b x |x| and sigma sin^2 x both have zero derivative at 0
        assert data.Lam1 == {1: 0.0, 2: 0.0} and data.lam1 == {1: 0.0, 2: 0.0}
        assert data.Lam2 == {1: [0.0], 2: [0.0]} and data.lam2 == {1: [0.0], 2: [0.0]}
        assert data.warning is None
        assert data.residuals[0] > data.residuals[-1]

    def test_example51_criterion_is_inconclusive(self, stable51, unstable51):
        # a zero linear part carries no sign, so Prop. 4.1 must not decide
        for bundle in (stable51, unstable51):
            chain = sd.truncate(bundle.model.rate_kernel, bundle.chain_N, bundle.chain_mode)
            data = sd.linearize(bundle.model, range(1, bundle.chain_N + 1))
            report = sd.proposition41_criterion(data, sd.invariant_measure(chain))
            assert report.verdict == "inconclusive"
            assert report.stable_value == 0.0 and report.unstable_value == 0.0

    def test_sublinear_drift_raises_the_residual_warning(self):
        def row(x, i):
            return ()

        spec = sd.ModelSpec(
            dim=1,
            noise_dim=1,
            drift=lambda x, i: np.cbrt(np.asarray(x, dtype=float)),
            diffusion=lambda x, i: np.zeros((1, 1)),
            rate_kernel=sd.RateKernel(row=row, global_bound=0.0, x_independent=True),
        )
        data = sd.linearize(spec, [1], probe_radii=(1e-2, 1e-5, 1e-8))
        assert data.warning is not None

    def test_preconditions(self):
        spec = dataclasses.replace(single_regime_linear(-1.0), zero_fixed=False)
        with pytest.raises(sd.ConfigurationError):
            sd.linearize(spec, [1])
        with pytest.raises(sd.ConfigurationError):
            sd.linearize(single_regime_linear(-1.0), [])


class TestLinearizedCriterion:
    def test_two_regime_oracle(self):
        data = sd.linearize(linear_regimes([-3.0, 1.0], [1.0, 0.0]), [1, 2])
        report = sd.proposition41_criterion(data, measure([0.5, 0.5]))
        assert report.stable_value == pytest.approx(-0.75)
        assert report.unstable_value == pytest.approx(-0.75)
        assert report.verdict == "stable_certified"
        assert "symmetric part" in report.note

    def test_single_regime_contraction(self):
        data = sd.linearize(linear_regimes([-1.0]), [1])
        report = sd.proposition41_criterion(data, measure([1.0]))
        assert report.stable_value == pytest.approx(-1.0)
        assert report.verdict == "stable_certified"

    def test_expansion_is_certified_unstable(self):
        data = sd.linearize(linear_regimes([1.0, 1.0]), [1, 2])
        report = sd.proposition41_criterion(data, measure([0.5, 0.5]))
        assert report.verdict == "unstable_certified"

    def test_balanced_regimes_are_inconclusive(self):
        data = sd.linearize(linear_regimes([-1.0, 1.0]), [1, 2])
        report = sd.proposition41_criterion(data, measure([0.5, 0.5]))
        assert report.stable_value == pytest.approx(0.0)
        assert report.verdict == "inconclusive"

    def test_tail_mass_blocks_marginal_calls(self):
        data = sd.linearize(linear_regimes([-0.05, -0.05]), [1, 2])
        confident = sd.proposition41_criterion(data, measure([0.5, 0.5]))
        assert confident.verdict == "stable_certified"
        shaky = sd.proposition41_criterion(data, measure([0.5, 0.5], tail_mass=0.6))
        assert shaky.tail_bound == pytest.approx(0.05 * 1.2)
        assert shaky.verdict == "inconclusive"

    def test_orthogonal_similarity_leaves_the_values_unchanged(self):
        B = np.array([[-2.0, 1.0], [0.0, -1.0]])
        th = 0.7
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])

        def spec_for(mat):
            def row(x, i):
                return ()

            return sd.ModelSpec(
                dim=2,
                noise_dim=1,
                drift=lambda x, i: mat @ x,
                diffusion=lambda x, i: np.zeros((2, 1)),
                rate_kernel=sd.RateKernel(row=row, global_bound=0.0, x_independent=True),
                linearization=sd.ExactLinearization(drift_matrix=lambda i: mat),
            )

        plain = sd.proposition41_criterion(
            sd.linearize(spec_for(B), [1]), measure([1.0])
        )
        rotated = sd.proposition41_criterion(
            sd.linearize(spec_for(R @ B @ R.T), [1]), measure([1.0])
        )
        assert rotated.stable_value == pytest.approx(plain.stable_value, abs=1e-10)
        assert rotated.unstable_value == pytest.approx(plain.unstable_value, abs=1e-10)

    def test_measure_beyond_linearized_regimes_is_rejected(self):
        data = sd.linearize(linear_regimes([-1.0]), [1])
        with pytest.raises(sd.ConfigurationError):
            sd.proposition41_criterion(data, measure([0.5, 0.5]))

    def test_worked_example_oracles(self, stable52, unstable52):
        nu = sd.invariant_measure(
            sd.truncate(stable52.model.rate_kernel, 30, mode="lump")
        )
        stable_report = sd.proposition41_criterion(
            sd.linearize(stable52.model, range(1, 31)), nu
        )
        # nu-average of (-5.5, 1.25, 1.25, ...) with nu_i = 2^-i
        assert stable_report.stable_value == pytest.approx(-2.125, abs=1e-6)
        assert stable_report.verdict == "stable_certified"

        nu2 = sd.invariant_measure(
            sd.truncate(unstable52.model.rate_kernel, 30, mode="lump")
        )
        unstable_report = sd.proposition41_criterion(
            sd.linearize(unstable52.model, range(1, 31)), nu2
        )
        # nu-average of the minimum eigenvalues (3.75, -1.125, -1.125, ...)
        assert unstable_report.unstable_value == pytest.approx(1.3125, abs=1e-6)
        assert unstable_report.verdict == "unstable_certified"


# ---------------------------------------------------------------------------
# Scans at the distinct regimes: a spec that declares distinct_regimes is
# scanned only in the regimes with coefficients of their own, and a kernel
# that declares x_independent reads no rows; both must report, bit for bit,
# what the full scans report


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_scans_equal_the_full_scans(spec, lyap, radii, regimes):
    """The drift and M_g scans of spec equal those of the same spec without
    its distinct_regimes claim."""
    full = dataclasses.replace(spec, distinct_regimes=None)
    grid = sd.radial_grid(spec.dim, radii, regimes)
    got, want = (sd.verify_drift_condition(s, lyap, grid) for s in (spec, full))
    for view, full_view in ((got.forward, want.forward), (got.reversed, want.reversed)):
        assert_bits_equal(view.residuals, full_view.residuals)
        np.testing.assert_array_equal(view.violated, full_view.violated)
    got, want = (sd.scan_mg(s, lyap, regimes=regimes) for s in (spec, full))
    assert_bits_equal(got.values_by_radius, want.values_by_radius)
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("name", sd.preset_names())
def test_preset_scans_at_the_distinct_regimes_equal_the_full_scans(name):
    bundle = sd.preset(name)
    spec, lyap = bundle.model, bundle.lyap
    assert spec.distinct_regimes is not None
    radii = np.geomspace(1e-6, lyap.domain_radius, 18)
    assert_scans_equal_the_full_scans(spec, lyap, radii, range(1, sd.k_scan(bundle.chain_N) + 1))


def counted_rows(kernel, calls):
    def rows(X, I):
        calls.append(len(I))
        return kernel.batch_rows(X, I)

    return dataclasses.replace(kernel, batch_rows=rows)


@pytest.mark.parametrize("name", sd.preset_names())
def test_an_x_independent_kernel_scan_reads_no_rows_and_equals_the_full_scan(name):
    bundle = sd.preset(name)
    kernel = bundle.model.rate_kernel
    regimes = range(1, sd.k_scan(bundle.chain_N) + 1)
    calls = []
    got = sd.scan_kernel_continuity(counted_rows(kernel, calls), bundle.model.dim, regimes=regimes)
    full = dataclasses.replace(kernel, x_independent=False)
    want = sd.scan_kernel_continuity(full, bundle.model.dim, regimes=regimes)
    assert_bits_equal(got.s_values, want.s_values)
    assert got.to_dict() == want.to_dict()
    assert got.regimes_scanned == len(regimes)
    if kernel.x_independent:
        assert calls == [] and not np.any(got.s_values)
    else:
        assert calls and np.any(got.s_values)


def counted_coefficients(spec, rows):
    """spec with its batch forms wrapped to add up the rows they evaluate."""

    def counted(name, form):
        def bind(I):
            rows[name] += len(I)
            return form(I)

        return bind

    return dataclasses.replace(
        spec,
        batch_drift=counted("drift", spec.batch_drift),
        batch_diffusion=counted("diffusion", spec.batch_diffusion),
    )


@pytest.mark.parametrize(
    "name, drift_rows, mg_rows",
    [
        # example51: 2 directions, example52: 5; 2 distinct regimes each, of
        # K = 160 and 120 scanned
        ("example51_stable", 18 * 2 * 2, 37 * 2 * 2),
        ("example51_unstable", 18 * 2 * 2, 37 * 2 * 2),
        ("example52_stable", 18 * 5 * 2, 37 * 5 * 2),
        ("example52_unstable", 18 * 5 * 2, 37 * 5 * 2),
    ],
)
def test_the_scans_evaluate_each_distinct_regime_once(name, drift_rows, mg_rows):
    bundle = sd.preset(name)
    lyap, regimes = bundle.lyap, range(1, sd.k_scan(bundle.chain_N) + 1)
    grid = sd.radial_grid(bundle.model.dim, np.geomspace(1e-6, lyap.domain_radius, 18), regimes)
    rows = {"drift": 0, "diffusion": 0}
    spec = counted_coefficients(bundle.model, rows)
    report = sd.verify_drift_condition(spec, lyap, grid)
    assert rows == {"drift": drift_rows, "diffusion": drift_rows}
    assert report.n_checked == len(grid) == drift_rows // 2 * len(regimes)
    rows["diffusion"] = 0
    mg = sd.scan_mg(spec, lyap, regimes=regimes)
    assert rows["diffusion"] == mg_rows and mg.regimes_scanned == len(regimes)


table_entry = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def table_models(draw):
    """A linear (n in {1, 2}) or example51 model config with per-regime
    tables of 1 to 4 entries."""
    if draw(st.booleans()):
        tables = st.lists(table_entry, min_size=1, max_size=4)
        params = {"b": draw(tables), "sigma": draw(tables), "gamma": draw(st.sampled_from([0.3, 0.5]))}
        return {"family": "example51", "params": params}
    n, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    matrix = st.lists(st.lists(table_entry, min_size=n, max_size=n), min_size=n, max_size=n)
    noise = st.lists(matrix, min_size=d, max_size=d)
    params = {
        "matrices": draw(st.lists(matrix, min_size=1, max_size=4)),
        "sigma_matrices": draw(st.lists(noise, min_size=1, max_size=4)),
    }
    return {"family": "linear", "params": params}


@given(model=table_models(), K=st.integers(1, 16))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_scans_at_the_distinct_regimes_equal_the_full_scans(model, K):
    # built without parse_scenario, so that validate does not vouch for the claim
    spec = sd.build_model(model, sd.build_kernel("custom_table", {"rows": {}}))
    lyap = square_lyapunov(c=lambda i: -1.0 + 0.25 * i, c_bound=10.0)
    assert_scans_equal_the_full_scans(spec, lyap, np.geomspace(1e-4, 1.0, 5), range(1, K + 1))
