"""Truncated regime chains: invariant mass, mixing diagnostics, Poisson solves."""

import dataclasses

import numpy as np
import pytest

import switchdiff as sd
from conftest import two_state_kernel


def doubling_kernel():
    # From every state jump back to 1 and up one step at the same rate,
    # so the invariant mass halves with each level.
    return sd.build_kernel("example52_q", {"scale": 1.0})


class TestTruncate:
    def test_row_sums_are_exactly_zero(self):
        for mode in ("lump", "drop"):
            chain = sd.truncate(doubling_kernel(), 12, mode=mode)
            assert float(np.max(np.abs(chain.Q.sum(axis=1)))) == 0.0

    def test_lump_redirects_long_jumps_to_the_boundary(self):
        def row(x, i):
            if i == 1:
                return ((3, 1.0),)
            return ((1, 1.0),)

        kernel = sd.RateKernel(row=row, global_bound=1.0, x_independent=True)
        lumped = sd.truncate(kernel, 2, mode="lump")
        assert lumped.lumped_tail
        assert lumped.Q[0, 1] == 1.0
        dropped = sd.truncate(kernel, 2, mode="drop")
        assert dropped.truncation_leak == 1.0
        assert dropped.Q[0, 1] == 0.0

    def test_bad_size_and_mode_are_rejected(self):
        with pytest.raises(sd.ConfigurationError):
            sd.truncate(doubling_kernel(), 0)
        with pytest.raises(sd.ConfigurationError):
            sd.truncate(doubling_kernel(), 3, mode="middle")


def reference_truncate(kernel, N, mode):
    """The per-row loop that truncate's one batch read replaced: one row
    call per regime at the origin, the same float sums in the same order."""
    Q = np.zeros((N, N))
    leak, lumped = 0.0, False
    for i in range(1, N + 1):
        out = 0.0
        for j, r in kernel.row(0.0, i):
            if r == 0.0:
                continue
            if j <= N:
                Q[i - 1, j - 1] += r
            elif mode == "lump":
                lumped = True
                if i != N:
                    Q[i - 1, N - 1] += r
            else:
                out += r
        leak = max(leak, out)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q, leak, lumped


# rows with targets at N = 4 and beyond it, interleaved, and zero rates;
# 0.1 + 0.2 + 0.3 sums to 0.6000000000000001 in this order and to 0.6 in
# the reverse one, so a lumped or dropped mass shows the order of the sum
EDGE_ROWS = {
    "1": [[2, 0.5], [4, 0.1], [5, 0.2], [6, 0.3]],
    "2": [[1, 0.0], [3, 1.1], [7, 0.1]],
    "3": [[1, 0.4], [5, 0.1], [7, 0.2], [9, 0.3], [2, 0.0]],
    "4": [[5, 0.1], [6, 0.2], [3, 0.3], [1, 0.1]],
    "5": [[4, 1.0]],
}

# a per-point kernel's rows, in no particular target order
UNSORTED_ROWS = {
    1: ((5, 0.1), (2, 0.5), (6, 0.2), (3, 0.0), (4, 0.3)),
    2: ((4, 0.2), (6, 0.09), (1, 0.3)),
    3: ((7, 0.1), (9, 0.2), (1, 0.0), (8, 0.3)),
    4: ((3, 0.6), (8, 0.2), (2, 0.1)),
}


class TestTruncateBatchRead:
    @pytest.mark.parametrize("mode", ["lump", "drop"])
    @pytest.mark.parametrize("case", ["custom_table", "per_point_table", "per_point", "birth_death"])
    def test_equals_the_per_row_loop_bit_for_bit(self, case, mode):
        table = sd.build_kernel("custom_table", {"rows": EDGE_ROWS})
        kernel = {
            "custom_table": table,
            "per_point_table": dataclasses.replace(table, batch_rows=None),
            "per_point": sd.RateKernel(row=lambda x, i: UNSORTED_ROWS[i]),
            "birth_death": sd.build_kernel("birth_death", {"up": 0.3, "down": 0.7}),
        }[case]
        chain = sd.truncate(kernel, 4, mode=mode)
        Q, leak, lumped = reference_truncate(kernel, 4, mode)
        np.testing.assert_array_equal(chain.Q.view(np.uint64), Q.view(np.uint64))
        assert (chain.truncation_leak, chain.lumped_tail) == (leak, lumped)

    def test_reads_the_rows_in_one_batch(self):
        calls = []

        def counting(X, I):
            calls.append(I.tolist())
            return table.batch_rows(X, I)

        table = sd.build_kernel("custom_table", {"rows": EDGE_ROWS})
        sd.truncate(dataclasses.replace(table, batch_rows=counting), 4)
        assert calls == [[1, 2, 3, 4]]


class TestInvariantMeasure:
    def test_doubling_chain_has_geometric_mass(self):
        chain = sd.truncate(doubling_kernel(), 30, mode="lump")
        measure = sd.invariant_measure(chain)
        expected = 0.5 ** np.arange(1, 21)
        assert float(np.max(np.abs(measure.nu[:20] - expected))) < 1e-10
        assert measure.sum() == pytest.approx(1.0, abs=1e-12)
        assert measure.tail_mass == pytest.approx(measure.nu[-1])

    def test_product_form_matches_direct_solve(self):
        kernel = sd.build_kernel("birth_death", {"up": 10.0, "down": 20.0})
        direct = sd.invariant_measure(sd.truncate(kernel, 25, mode="lump"))
        product = sd.birth_death_invariant(lambda i: 10.0, lambda i: 20.0, 25)
        assert float(np.max(np.abs(direct.nu - product.nu))) < 1e-10
        assert product.tail_mass > 0.0

    def test_divergent_product_form_is_flagged(self):
        with pytest.raises(sd.ErgodicityError):
            sd.birth_death_invariant(lambda i: 2.0, lambda i: 1.0, 10)

    def test_reducible_truncation_is_a_structural_error(self):
        def row(x, i):
            pairs = {1: 2, 2: 1, 3: 4, 4: 3}
            return ((pairs[i], 1.0),)

        kernel = sd.RateKernel(row=row, global_bound=1.0, x_independent=True)
        with pytest.raises(sd.StructuralError):
            sd.invariant_measure(sd.truncate(kernel, 4, mode="drop"))

    def test_single_state_chain_is_trivial(self):
        def row(x, i):
            return ()

        kernel = sd.RateKernel(row=row, global_bound=0.0, x_independent=True)
        measure = sd.invariant_measure(sd.truncate(kernel, 1, mode="drop"))
        assert measure.nu.tolist() == [1.0]
        assert measure.residual == 0.0


def two_state_closed_form(a, b, t):
    # P(t) = Pi + exp(-(a+b)t)(I - Pi) for the generator [[-a, a], [b, -b]]
    Pi = np.array([[b, a], [b, a]]) / (a + b)
    return Pi + np.exp(-(a + b) * t) * (np.eye(2) - Pi)


class TestTransitionMatrix:
    def test_agrees_with_matrix_exponential(self):
        for a, b in ((1.0, 2.0), (30.0, 40.0)):
            chain = sd.truncate(two_state_kernel(a, b), 2, mode="drop")
            for lam_t in np.geomspace(0.1, 2000.0, 25):
                t = lam_t / max(a, b)
                P = sd.transition_matrix(chain, t)
                assert float(np.max(np.abs(P - two_state_closed_form(a, b, t)))) < 1e-13
        chain = sd.truncate(doubling_kernel(), 8, mode="lump")
        for s, t in ((0.05, 0.7), (0.7, 3.0), (3.0, 3.0)):
            P = sd.transition_matrix(chain, s + t)
            semigroup = sd.transition_matrix(chain, s) @ sd.transition_matrix(chain, t)
            assert np.allclose(P, semigroup, rtol=0.0, atol=1e-13)
            assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(P >= -1e-14)

    def test_time_zero_is_the_identity(self):
        chain = sd.truncate(two_state_kernel(1.0, 2.0), 2, mode="drop")
        assert np.array_equal(sd.transition_matrix(chain, 0.0), np.eye(2))

    def test_large_times_stay_finite(self):
        chain = sd.truncate(two_state_kernel(30.0, 40.0), 2, mode="drop")
        P = sd.transition_matrix(chain, 50.0)
        assert np.all(np.isfinite(P))
        assert float(np.max(np.abs(P - two_state_closed_form(30.0, 40.0, 50.0)))) < 1e-13

    def test_negative_time_is_rejected(self):
        chain = sd.truncate(two_state_kernel(1.0, 1.0), 2, mode="drop")
        with pytest.raises(sd.ConfigurationError):
            sd.transition_matrix(chain, -0.1)


class TestErgodicityDiagnostic:
    def test_symmetric_two_state_fit_recovers_the_decay_constant(self):
        # P(t) - nu decays exactly like exp(-2t) here.
        chain = sd.truncate(two_state_kernel(1.0, 1.0), 2, mode="drop")
        diag = sd.ergodicity_diagnostic(chain, np.geomspace(0.1, 3.0, 10))
        assert diag.verdict == "strongly_exponentially_ergodic"
        assert diag.lam == pytest.approx(2.0, rel=1e-6)
        assert diag.r_squared > 0.999999
        assert diag.to_dict()["lambda"] == diag.lam

    def test_already_stationary_chain_reads_as_mixed(self):
        def row(x, i):
            return ()

        kernel = sd.RateKernel(row=row, global_bound=0.0, x_independent=True)
        chain = sd.truncate(kernel, 1, mode="drop")
        diag = sd.ergodicity_diagnostic(chain, [0.5, 1.0, 2.0, 4.0])
        assert diag.verdict == "mixed"
        assert diag.lam is None

    def test_time_grid_of_the_symmetric_two_state_chain(self):
        # d(t) = exp(-2t) < 1 for every t > 0, so the first probe at
        # 1 / max rate = 1 already passes and anchors the grid
        chain = sd.truncate(two_state_kernel(1.0, 1.0), 2, mode="drop")
        times = sd.ergodicity_times(chain, sd.invariant_measure(chain))
        assert np.array_equal(times, np.geomspace(0.25, 4.0, 12))

    def test_grid_validation(self):
        chain = sd.truncate(two_state_kernel(1.0, 1.0), 2, mode="drop")
        with pytest.raises(sd.ConfigurationError):
            sd.ergodicity_diagnostic(chain, [1.0, 2.0, 3.0])
        with pytest.raises(sd.ConfigurationError):
            sd.ergodicity_diagnostic(chain, [1.0, 1.0, 2.0, 3.0])


class TestPoissonEquation:
    def setup_method(self):
        self.chain = sd.truncate(two_state_kernel(1.0, 1.0), 2, mode="drop")
        self.measure = sd.invariant_measure(self.chain)

    def test_centered_data_has_the_closed_form_solution(self):
        sol = sd.solve_poisson(self.chain, self.measure, np.array([1.0, -1.0]), project=False)
        assert np.allclose(sol.gamma, [-0.5, 0.5], atol=1e-12)
        assert sol.residual < 1e-12
        assert sol.shift == 0.0

    def test_uncentered_data_is_projected(self):
        sol = sd.solve_poisson(self.chain, self.measure, np.array([1.0, 0.0]))
        assert sol.shift == pytest.approx(0.5)
        assert np.allclose(sol.gamma, [-0.25, 0.25], atol=1e-12)

    def test_projection_can_be_disabled(self):
        with pytest.raises(sd.ContractError):
            sd.solve_poisson(self.chain, self.measure, np.array([1.0, 0.0]), project=False)

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(sd.ConfigurationError):
            sd.solve_poisson(self.chain, self.measure, np.ones(3))

    def test_integral_representation_agrees(self):
        b = np.array([1.0, -1.0])
        sol = sd.solve_poisson(self.chain, self.measure, b, project=False)
        via_integral = sd.solve_poisson_integral(self.chain, self.measure, b)
        via_integral = via_integral - float(self.measure.nu @ via_integral)
        assert float(np.max(np.abs(via_integral - sol.gamma))) < 1e-8
