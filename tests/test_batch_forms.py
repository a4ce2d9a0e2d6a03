"""The batch coefficient protocol against per-point references.

Every scenario family's batch form must equal the family's closed-form
coefficient, written out below point by point with the same float
operations, bit for bit; and the batched scans must give what the
per-point scans gave, both through the families' batch forms and through
the per-point adapter.  The reference scans below are the per-point loops
the batched scans replaced, and the per-radius and per-regime loops that
the unit-grid scans and the stacked eigenvalue calls replaced.
"""

import dataclasses
import math

import numpy as np
import pytest

import switchdiff as sd
from conftest import single_regime_linear, square_lyapunov, two_state_kernel
from switchdiff.model import DRIFT_TOL, _fd_gradient, _fd_hessian, row_norms
from switchdiff.stability import _positive_sup, _row_distance


def assert_bits_equal(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def scenario(model, kernel, lyapunov=None):
    lyapunov = lyapunov or {"family": "square", "g": {"kind": "identity"}}
    lyapunov = {"domain_radius": 1.0, "c": {"kind": "constant", "value": -1.0}, **lyapunov}
    return sd.parse_scenario({"model": model, "kernel": kernel, "lyapunov": lyapunov})


def random_batch(dim, size=64, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(size, dim))
    X[:4] = 0.0  # the origin
    X[4:8] *= 1e-7  # tiny radii
    I = rng.integers(1, 13, size=size)
    return X, I


B51 = {"b": [1.0, -0.5, 2.0], "sigma": [0.3, 0.7], "gamma": 0.3}
M2 = [[[-1.0, 0.3], [0.2, -0.7]], [[0.4, -1.1], [0.9, 0.25]], [[1.3, 0.0], [-0.6, 2.0]]]
S2 = [[[[0.1, 0.2], [0.0, 0.3]], [[0.5, 0.0], [0.1, 0.2]]],
      [[[0.3, -0.1], [0.2, 0.1]], [[0.0, 0.4], [0.7, -0.2]]]]
M3 = [np.diag([-1.0, 0.5, 2.0]).tolist(), [[0.1, 0.2, 0.3], [0.4, -0.5, 0.6], [0.7, 0.8, -0.9]]]
NO_SWITCHING = {"family": "custom_table", "params": {"rows": {}}}

MODELS = {
    "example51": (1, {"family": "example51", "params": B51}),
    "linear_1d": (1, {"family": "linear", "params": {"matrices": [[[-1.0]], [[0.5]]]}}),
    "linear_1d_sigma": (1, {"family": "linear", "params": {
        "matrices": [[[-1.0]], [[0.5]]], "sigma_matrices": [[[[0.3]]], [[[-0.2]]]]}}),
    # coefficients that are not powers of two, so that the order of the
    # products shows in the last bit
    "linear_1d_odd": (1, {"family": "linear", "params": {
        "matrices": [[[-1.3]], [[0.7]], [[2.9]]], "sigma_matrices": [[[[0.3]]], [[[-0.6]]]]}}),
    "linear_2d": (2, {"family": "example52", "params": {"matrices": M2, "noise_dim": 2}}),
    "linear_2d_sigma": (2, {"family": "linear", "params": {"matrices": M2, "sigma_matrices": S2}}),
}


def regime_entry(values, i):
    """Regime i's entry of a per-regime list whose last entry covers the tail."""
    return values[min(i, len(values)) - 1]


def closed_form_coefficients(model):
    """Per-point drift and diffusion of a model family, written out with the
    float operations of its batch forms."""
    params = model["params"]
    if model["family"] == "example51":
        two_gamma = 2.0 * params["gamma"]

        def drift(x, i):
            x = float(x[0])
            return [regime_entry(params["b"], i) * x * abs(x) ** two_gamma]

        def diffusion(x, i):
            s = math.sin(float(x[0]))
            return [[regime_entry(params["sigma"], i) * s * s]]

        return drift, diffusion
    mats = [np.array(m, dtype=float) for m in params["matrices"]]
    zeros = [[np.zeros_like(mats[0])] * params.get("noise_dim", 1)]
    sigmas = [[np.array(m, dtype=float) for m in r] for r in params.get("sigma_matrices", zeros)]

    def drift(x, i):
        return regime_entry(mats, i) @ x

    def diffusion(x, i):
        return np.column_stack([m @ x for m in regime_entry(sigmas, i)])

    return drift, diffusion


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_batch_forms_equal_per_point(name):
    dim, model = MODELS[name]
    spec = scenario(model, NO_SWITCHING).model
    assert spec.batch_drift is not None and spec.batch_diffusion is not None
    drift, diffusion = closed_form_coefficients(model)
    X, I = random_batch(dim)
    pairs = list(zip(X, I.tolist()))
    assert_bits_equal(spec.drifts(X, I), [drift(x, i) for x, i in pairs])
    assert_bits_equal(spec.diffusions(X, I), [diffusion(x, i) for x, i in pairs])


def test_regimes_below_one_never_reach_the_batch_forms():
    # the families gather per-regime constants at I - 1 with mode="clip",
    # so every public way into them rejects a regime below 1
    bundle = sd.preset("example52_stable")
    spec, lyap, x = bundle.model, bundle.lyap, np.array([0.1, 0.0])
    calls = [
        lambda: sd.verify_drift_condition(spec, lyap, sd.ScanGrid(x[None], np.array([0]))),
        lambda: sd.apply_generator_Li(spec, lyap, x, 0),
        lambda: sd.generator_Li(spec, lyap, x[None], np.array([-1])),
        lambda: sd.scan_mg(spec, lyap, regimes=[0, 1]),
        lambda: sd.scan_kernel_continuity(spec.rate_kernel, 2, regimes=[1, 0]),
        lambda: sd.linearize(spec, [0]),
    ]
    for call in calls:
        with pytest.raises(sd.ConfigurationError, match="positive integers"):
            call()


def test_per_point_forms_reject_regimes_below_one():
    # the per-point forms read per-regime constants at i - 1 too: unchecked,
    # the drift at (x, 0) on example52_stable was the last matrix's product
    bundle = sd.preset("example52_stable")
    spec, x = bundle.model, np.array([0.3, 0.1])
    kernel, X = spec.rate_kernel, x[None]
    per_point = dataclasses.replace(spec, batch_drift=None, batch_diffusion=None)
    rows_per_point = dataclasses.replace(kernel, batch_rows=None)
    np.testing.assert_allclose(spec.drifts(X, np.array([1]))[0], [-1.7, -0.6])
    calls = [
        lambda: spec.drifts(X, np.array([0])),
        lambda: spec.diffusions(X, np.array([-1])),
        lambda: spec.drifts(np.repeat(X, 2, axis=0), np.array([1, 0])),
        lambda: spec.diffusions(X, np.array([-2])),
        lambda: per_point.drifts(X, np.array([0])),
        lambda: per_point.diffusions(X, np.array([0])),
        lambda: per_point.drift_of(np.array([0]))(X),
        lambda: kernel.padded_rows(X, np.array([0])),
        lambda: rows_per_point.padded_rows(X, np.array([-1])),
        lambda: rows_per_point.rows(X, np.array([0])),
    ]
    for call in calls:
        with pytest.raises(sd.ConfigurationError, match="positive integers"):
            call()


def c_table_bundle():
    c = {"kind": "table", "values": [-1.0, -2.0], "tail": -3.0}
    lyapunov = {"family": "square", "g": {"kind": "identity"}, "c": c}
    return scenario(MODELS["example51"][1], NO_SWITCHING, lyapunov)


X51, X52 = np.array([0.5]), np.array([0.3, 0.1])
E51, E52 = (lambda: sd.preset("example51_stable")), (lambda: sd.preset("example52_stable"))
FAMILY_CALLABLES = {
    "example51-scalar_drift": (E51, lambda b, i: b.model.scalar_drift(0.5, i)),
    "example51-scalar_run": (E51, lambda b, i: b.model.scalar_run(i, 0.01)),
    "example51-drift": (E51, lambda b, i: b.model.drift(X51, i)),
    "birth_death-row": (E51, lambda b, i: b.model.rate_kernel.row(X51, i)),
    "example52-drift": (E52, lambda b, i: b.model.drift(X52, i)),
    "example52-drift_matrix": (E52, lambda b, i: b.model.linearization.drift_matrix(i)),
    "example52_q-row": (E52, lambda b, i: b.model.rate_kernel.row(X52, i)),
    "two_state-row": (
        lambda: sd.preset("two_state_switching"), lambda b, i: b.model.rate_kernel.row(X51, i)),
    "custom_table-row": (
        lambda: sd.preset("contraction_benchmark"), lambda b, i: b.model.rate_kernel.row(X51, i)),
    "c-table": (c_table_bundle, lambda b, i: b.lyap.c(i)),
}


@pytest.mark.parametrize("regime", [0, -3])
@pytest.mark.parametrize("name", sorted(FAMILY_CALLABLES))
def test_family_callables_reject_regimes_below_one(name, regime):
    # the families' own callables, called directly: unchecked,
    # scalar_drift(0.5, 0) on example51_stable returned -0.5 (the last b),
    # example52_q's row(x, -3) held target -2, the two_state and
    # custom_table rows were empty at regime 0, and a table c returned its
    # tail at 0 and values[-2] at -1
    bundle, call = FAMILY_CALLABLES[name]
    with pytest.raises(sd.ConfigurationError, match="positive integers"):
        call(bundle(), regime)


def test_c_table_reads_its_values_then_the_tail():
    c = c_table_bundle().lyap.c
    assert [c(i) for i in range(1, 6)] == [-1.0, -2.0, -3.0, -3.0, -3.0]


def float_form_states(spec, i, dt, x, ws):
    """The reference for the float loop's map: x + b dt + sigma w from the
    two float forms, one step at a time; the states x_0 = x, x_1, ..."""
    states = [x]
    for w in ws:
        x = x + spec.scalar_drift(x, i) * dt + spec.scalar_diffusion(x, i) * w
        states.append(x)
    return states


def assert_run_equals(got, want):
    assert len(got) == 3 and got[2] == want[2]
    assert_bits_equal(got[:2], want[:2])


@pytest.mark.parametrize("name", sorted(n for n, (dim, _) in MODELS.items() if dim == 1))
def test_scalar_run_equals_the_float_forms(name):
    # the float loop's per-regime Euler map over a stretch ws[a:e] against
    # the float forms step by step, through the saturating tail of the
    # regime lists: (x after the last step, x before it, e)
    _, model = MODELS[name]
    spec = scenario(model, NO_SWITCHING).model
    assert spec.scalar_run is not None
    listed = max(len(v) for v in model["params"].values() if isinstance(v, list))
    tiny = float(np.finfo(float).tiny)
    ws = [0.0447, -1.3, 0.0, -0.0, 0.2, 2.5, -0.7]
    a = 2
    for i in range(1, listed + 3):
        for dt in (0.002, 0.1):
            run = spec.scalar_run(i, dt)
            for x in (0.0, -0.0, tiny, -tiny, 0.3, -0.3, 1e6, -1e6):
                states = float_form_states(spec, i, dt, x, ws[a:])
                for e in range(a, len(ws) + 1):
                    before = states[max(e - a - 1, 0)]
                    assert_run_equals(run(x, ws, a, e, math.inf), (states[e - a], before, e))


@pytest.mark.parametrize("name", sorted(n for n, (dim, _) in MODELS.items() if dim == 1))
def test_scalar_run_stops_at_the_first_step_not_below_lim(name):
    _, model = MODELS[name]
    spec = scenario(model, NO_SWITCHING).model
    ws = [0.3, -0.2, 0.9, 0.4, -1.1, 0.6, 0.25, -0.05]
    for i in (1, 2):
        run = spec.scalar_run(i, 0.1)
        states = float_form_states(spec, i, 0.1, 0.8, ws)
        # |x| meets lim exactly at the first step that reaches its largest |x|
        top = max(map(abs, states[1:]))
        k = next(k for k in range(len(ws)) if abs(states[k + 1]) == top)
        assert_run_equals(run(0.8, ws, 0, len(ws), top), (states[k + 1], states[k], k))
        # a lim below the start stops the first step, whatever it gives
        assert_run_equals(run(0.8, ws, 0, len(ws), 0.0), (states[1], 0.8, 0))
        # NaN is not below lim: from the start, or from the noise
        x, ox, k = run(math.nan, ws, 0, len(ws), math.inf)
        assert math.isnan(x) and math.isnan(ox) and k == 0
        with_nan = ws[:3] + [math.nan] + ws[4:]
        x, ox, k = run(0.8, with_nan, 0, len(ws), math.inf)
        assert math.isnan(x) and k == 3
        assert_bits_equal(ox, states[3])
        # an empty stretch returns the state twice, signed zeros kept
        for x in (0.0, -0.0):
            assert_run_equals(run(x, ws, 4, 4, 1.0), (x, x, 4))
            first = float_form_states(spec, i, 0.1, x, ws[:1])[1]
            assert_run_equals(run(x, ws, 0, 1, 0.0), (first, x, 0))


LYAPUNOV = {
    "square_1d": (1, {"family": "square", "g": {"kind": "identity"}}),
    "square_3d": (3, {"family": "square", "g": {"kind": "identity"}}),
    "power_p_1d": (1, {"family": "power_p", "p": 1.7, "g": {"kind": "identity"}}),
    "power_p_3d": (3, {"family": "power_p", "p": 2.6, "g": {"kind": "identity"}}),
}


def closed_form_lyapunov(lyapunov, dim):
    """(V, grad V, hess V) of a Lyapunov family at one point, written out
    with the float operations of its batch forms."""
    if lyapunov["family"] == "square":
        return (lambda x: float(np.dot(x, x))), (lambda x: 2.0 * x), (lambda x: 2.0 * np.eye(dim))
    p = float(lyapunov["p"])
    norm = lambda x: float(np.linalg.norm(x))

    def hess(x):
        r = norm(x)
        return p * r ** (p - 2.0) * np.eye(dim) + p * (p - 2.0) * r ** (p - 4.0) * np.outer(x, x)

    return (lambda x: norm(x) ** p), (lambda x: p * norm(x) ** (p - 2.0) * x), hess


@pytest.mark.parametrize("name", sorted(LYAPUNOV))
def test_lyapunov_batch_forms_equal_per_point(name):
    dim, lyapunov = LYAPUNOV[name]
    model = MODELS["linear_1d"][1] if dim == 1 else {
        "family": "linear", "params": {"matrices": M3}}
    lyap = scenario(model, NO_SWITCHING, lyapunov).lyap
    V, grad, hess = closed_form_lyapunov(lyapunov, dim)
    X, _ = random_batch(dim)
    assert_bits_equal(lyap.values(X), [V(x) for x in X])
    away = X[8:]  # the derivatives of power_p are singular at the origin
    assert_bits_equal(lyap.gradients(away), [grad(x) for x in away])
    assert_bits_equal(lyap.hessians(away), [hess(x) for x in away])


KERNELS = {
    "birth_death": {"family": "birth_death", "params": {"up": 1.5, "down": 2.5}},
    "birth_death_modulated": {
        "family": "birth_death", "params": {"up": 1.5, "down": 2.5, "modulation": 0.7}},
    "example52_q": {"family": "example52_q", "params": {"scale": 1.3}},
    "two_state": {"family": "two_state", "params": {"q12": 1.0, "q21": 2.0}},
    "custom_table": {"family": "custom_table", "params": {
        "rows": {
            "1": [[2, 1.0], [4, 0.5]], "2": [[1, 3.0]], "4": [[1, 0.25], [2, 0.0], [3, 2.0]]}}},
}


def pad(rows):
    width = max(map(len, rows), default=0)
    targets = np.zeros((len(rows), width), dtype=np.int64)
    rates = np.zeros((len(rows), width))
    for p, row in enumerate(rows):
        for k, (j, r) in enumerate(row):
            targets[p, k], rates[p, k] = j, r
    return targets, rates


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_batch_rows_equal_per_point(name, dim):
    model = MODELS["linear_1d" if dim == 1 else "linear_2d"][1]
    kernel = scenario(model, KERNELS[name]).model.rate_kernel
    assert kernel.batch_rows is not None
    X, I = random_batch(dim)
    targets, rates = kernel.padded_rows(X, I)
    want_t, want_r = pad([kernel.row(x, i) for x, i in zip(X, I.tolist())])
    # a family pads every row to its widest possible row
    want_t = np.pad(want_t, ((0, 0), (0, targets.shape[1] - want_t.shape[1])))
    want_r = np.pad(want_r, ((0, 0), (0, rates.shape[1] - want_r.shape[1])))
    np.testing.assert_array_equal(targets, want_t)
    assert_bits_equal(rates, want_r)


# ---------------------------------------------------------------------------
# Completion: every spec reads through batch forms, derived once when built


def test_replace_rebuilds_the_completed_forms():
    spec = single_regime_linear(-1.0, s=0.5)
    X, I = np.array([[0.4], [-2.0]]), np.array([1, 1])
    doubled = dataclasses.replace(spec, drift=lambda x, i: 2.0 * x)
    assert_bits_equal(doubled.drifts(X, I), 2.0 * X)
    assert_bits_equal(spec.drifts(X, I), -1.0 * X)
    kernel = two_state_kernel(1.0, 2.0)
    moved = dataclasses.replace(kernel, row=lambda x, i: ((i + 2, 0.5),))
    targets, rates = moved.padded_rows(X, I)
    assert (targets.tolist(), rates.tolist()) == ([[3], [3]], [[0.5], [0.5]])
    # dropping a batch form falls back to the callbacks, and back again
    bundle = sd.preset("example52_stable")
    family = bundle.model.rate_kernel
    per_point = dataclasses.replace(family, batch_rows=None)
    assert per_point.rows != family.rows
    assert dataclasses.replace(per_point, batch_rows=family.batch_rows).rows == family.batch_rows


def test_derived_forms_read_the_callbacks_when_called():
    # bench/tracer.py swaps the callbacks of a built spec for counting ones
    spec = single_regime_linear(-1.0)
    kernel = spec.rate_kernel
    X, I = np.array([[0.5]]), np.array([1])
    spec.drift = lambda x, i: np.array([7.0])
    spec.diffusion = lambda x, i: np.array([[3.0]])
    kernel.row = lambda x, i: ((2, 0.25),)
    assert spec.drifts(X, I).tolist() == [[7.0]]
    assert spec.diffusions(X, I).tolist() == [[[3.0]]]
    assert kernel.padded_rows(X, I)[1].tolist() == [[0.25]]
    lyap = square_lyapunov(c=-1.0, c_bound=1.0)
    lyap.V = lambda x: 5.0
    lyap.grad_V = None
    assert lyap.values(X).tolist() == [5.0]
    assert lyap.gradients(X).tolist() == [[0.0]]  # finite differences of the new V


def test_wrong_shapes_of_a_per_point_spec_raise_through_the_batch_reads():
    spec = sd.ModelSpec(
        dim=2,
        noise_dim=1,
        drift=lambda x, i: np.zeros(3),
        diffusion=lambda x, i: np.zeros((2, 2)),
        rate_kernel=two_state_kernel(1.0, 1.0),
    )
    X, I = np.zeros((2, 2)), np.array([1, 2])
    with pytest.raises(sd.EvaluationError, match=r"drift returned shape \(3,\), want \(2,\)"):
        spec.drifts(X, I)
    with pytest.raises(sd.EvaluationError, match=r"want \(2, 1\)"):
        spec.diffusions(X, I)
    with pytest.raises(sd.EvaluationError, match="drift returned shape"):
        spec.validate()


def counting_spec(bundle, calls):
    """bundle's model with its batch forms wrapped to log each call."""
    spec, kernel = bundle.model, bundle.model.rate_kernel

    def counted(name, form):
        def wrapper(*args):
            calls.append(name)
            return form(*args)

        return wrapper

    rows = counted("rows", kernel.batch_rows)
    return dataclasses.replace(
        spec,
        batch_drift=counted("drift", spec.batch_drift),
        batch_diffusion=counted("diffusion", spec.batch_diffusion),
        rate_kernel=dataclasses.replace(kernel, batch_rows=rows),
    )


@pytest.mark.parametrize("name", ["example51_stable", "example52_stable"])
def test_validate_reads_each_coefficient_and_the_rows_once(name):
    # the validation made 4 batch-of-one coefficient reads and a row read
    # per regime, 25 reads for the default five regimes
    calls = []
    spec = counting_spec(sd.preset(name), calls)
    spec.validate()
    assert sorted(calls) == ["diffusion", "drift", "rows"]
    # and still finds what the per-regime checks found
    moving = dataclasses.replace(spec, drift=lambda x, i: np.ones(spec.dim), batch_drift=None)
    with pytest.raises(sd.EvaluationError, match=r"drift\(0, 1\) != 0"):
        moving.validate()
    over = dataclasses.replace(spec.rate_kernel, global_bound=0.1)
    with pytest.raises(sd.EvaluationError, match="row 1 exceeds declared global bound"):
        dataclasses.replace(spec, rate_kernel=over).validate()


# ---------------------------------------------------------------------------
# Reference scans: the per-point loops that the batched scans replaced


def one_point(x, i):
    """(X, I) of the batch of one at (x, i)."""
    return np.asarray(x, dtype=float)[None], np.array([i])


def reference_Li(spec, grad, hess, x, i):
    b = spec.drifts(*one_point(x, i))[0]
    sig = spec.diffusions(*one_point(x, i))[0]
    return float(np.asarray(grad(x)) @ b) + 0.5 * float(
        np.trace(np.asarray(hess(x)) @ (sig @ sig.T))
    )


def reference_drift_residuals(spec, lyap, grad, hess, grid):
    return [
        reference_Li(spec, grad, hess, x, i)
        - float(lyap.c(i)) * float(lyap.g.g(float(lyap.V(x))))
        for x, i in grid
    ]


def reference_mg(spec, lyap, grad_V, radii, regimes):
    dirs = [x for x, _ in sd.radial_grid(spec.dim, [1.0], [1])]
    values = []
    for r in radii:
        worst = 0.0
        for d in dirs:
            x = r * d
            gv = float(lyap.g.g(float(lyap.V(x))))
            grad = grad_V(x)
            for i in regimes:
                sig = spec.diffusions(*one_point(x, i))[0]
                num = float(np.linalg.norm(np.asarray(grad) @ sig))
                ratio = math.inf if gv == 0.0 and num > 0.0 else (num / gv if gv else 0.0)
                worst = max(worst, ratio)
        values.append(worst)
    return values


def row_at(kernel, x, i):
    """Row i at x as {target: rate}, read as a batch of one."""
    targets, rates = kernel.padded_rows(*one_point(x, i))
    return {j: r for j, r in zip(targets[0].tolist(), rates[0].tolist()) if j >= 1}


def reference_kernel_scan(kernel, dim, radii, regimes):
    dirs = [x for x, _ in sd.radial_grid(dim, [1.0], [1])]
    base = {i: row_at(kernel, np.zeros(dim), i) for i in regimes}
    s = []
    for r in radii:
        worst = 0.0
        for d in dirs:
            for i in regimes:
                here = row_at(kernel, r * d, i)
                total = 0.0
                for j in set(here) | set(base[i]):
                    total += abs(here.get(j, 0.0) - base[i].get(j, 0.0))
                worst = max(worst, total)
        s.append(worst)
    return s


def per_point_case():
    """Only per-point callables: conftest fixtures, V without derivatives
    (finite differences) and an x-dependent kernel callable whose targets
    change away from the origin."""
    spec = single_regime_linear(-0.8, s=0.6)
    two_state = two_state_kernel(1.0, 2.0)

    def row(x, i):
        r = float(np.linalg.norm(x))
        if i == 3:
            return ((4, r),) if r > 1e-2 else ((5, 0.2),)
        return tuple((j, q * (1.0 + r)) for j, q in two_state.row(x, i))

    spec.rate_kernel = sd.RateKernel(row=row)
    fixture = square_lyapunov(c=lambda i: -1.0 + 0.1 * i, c_bound=2.0)
    lyap = sd.LyapunovSpec(
        V=fixture.V, g=fixture.g, c=fixture.c, c_bound=2.0, domain_radius=1.0
    )
    assert spec.batch_drift is None and lyap.batch_V is None and lyap.grad_V is None
    return spec, lyap


@pytest.mark.parametrize("case", ["per_point", "example51_unstable", "example52_unstable"])
def test_batched_scans_equal_the_per_point_scans(case):
    if case == "per_point":
        spec, lyap = per_point_case()
        grad = lambda x: _fd_gradient(lyap.V, x)
        hess = lambda x: _fd_hessian(lyap.V, x)
    else:
        bundle = sd.preset(case)
        spec, lyap = bundle.model, bundle.lyap
        _, grad, hess = closed_form_lyapunov(bundle.raw["lyapunov"], spec.dim)
    regimes = range(1, 7)
    radii = np.geomspace(1e-6, lyap.domain_radius, 9)
    grid = sd.radial_grid(spec.dim, radii, regimes)

    drift = sd.verify_drift_condition(spec, lyap, grid)
    want = reference_drift_residuals(spec, lyap, grad, hess, grid)
    assert_bits_equal(drift.forward.residuals, want)
    assert_bits_equal(drift.reversed.residuals, [-w for w in want])
    assert drift.forward.max_residual == max(want)
    assert [v.residual for v in drift.forward.violations] == [w for w in want if w > DRIFT_TOL]

    mg = sd.scan_mg(spec, lyap, radii=radii, regimes=regimes)
    assert_bits_equal(mg.values_by_radius, reference_mg(spec, lyap, grad, mg.radii, regimes))

    kernel = spec.rate_kernel
    ker = sd.scan_kernel_continuity(kernel, spec.dim, radii=radii, regimes=regimes)
    assert_bits_equal(ker.s_values, reference_kernel_scan(kernel, spec.dim, radii, regimes))


@pytest.mark.parametrize("name", ["example51_stable", "example52_unstable"])
def test_drift_residuals_do_not_depend_on_how_the_grid_is_split(name):
    bundle = sd.preset(name)
    grid = sd.radial_grid(bundle.model.dim, np.geomspace(1e-6, 0.5, 5), range(1, 21))
    whole = sd.verify_drift_condition(bundle.model, bundle.lyap, grid).forward.residuals
    for size in (1, 7):
        pieces = [
            sd.verify_drift_condition(
                bundle.model, bundle.lyap, sd.ScanGrid(grid.points[k : k + size], grid.regimes)
            ).forward.residuals
            for k in range(0, len(grid.points), size)
        ]
        assert_bits_equal(np.concatenate(pieces), whole)


def test_worst_violations_break_ties_in_grid_order():
    spec = single_regime_linear(-1.0)
    lyap = square_lyapunov(c=-3.0, c_bound=3.0)
    # +/- x give equal residuals; the +x point comes first in the grid
    view = sd.verify_drift_condition(spec, lyap, sd.radial_grid(1, [0.25, 0.5], [1])).forward
    want = sorted(view.violations, key=lambda v: -v.residual)
    got = view.worst(3)
    assert [(float(v.x[0]), v.residual) for v in got] == [
        (float(v.x[0]), v.residual) for v in want[:3]
    ]


# ---------------------------------------------------------------------------
# Per-radius and per-regime references: the loops that the unit-grid scans,
# the column-wise row distance and the stacked eigenvalue calls replaced


def reference_row_distance(t1, r1, t2, r2):
    same = t1[:, :, None] == t2[:, None, :]
    matched = (same * r2[:, None, :]).sum(axis=2)
    unmatched = np.where(same.any(axis=1), 0.0, r2)
    return np.abs(r1 - matched).sum(axis=1) + np.abs(unmatched).sum(axis=1)


def random_padded_rows(rng, rows, width, n_targets=30):
    """Padded rows with distinct targets drawn from 1..n_targets; a row holds
    0..width entries, so some rows are all padding."""
    targets = np.zeros((rows, width), dtype=np.int64)
    rates = np.zeros((rows, width))
    for p in range(rows):
        k = rng.integers(0, width + 1)
        targets[p, :k] = rng.choice(np.arange(1, n_targets + 1), size=k, replace=False)
        rates[p, :k] = rng.lognormal(0.0, 2.0, size=k)
    return targets, rates


def test_row_distance_equals_the_cube_formula():
    rng = np.random.default_rng(14)
    # widths cross 8, where numpy stops summing a row in sequence
    for w1 in range(1, 21):
        for w2 in (1, 3, 8, 13, 20):
            t1, r1 = random_padded_rows(rng, 150, w1)
            t2, r2 = random_padded_rows(rng, 150, w2)
            t1[:5], r1[:5] = 0, 0.0  # all-padding rows on both sides
            t2[3:8], r2[3:8] = 0, 0.0
            got = _row_distance(t1, r1, t2, r2)
            want = reference_row_distance(t1, r1, t2, r2)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


SCAN_CASES = ["example51_stable", "example52_stable", "linear_noise_dim_2"]


def scan_case(name):
    if name == "linear_noise_dim_2":
        bundle = scenario(MODELS["linear_2d_sigma"][1], KERNELS["birth_death_modulated"])
        assert bundle.model.noise_dim == 2
    else:
        bundle = sd.preset(name)
    return bundle.model, bundle.lyap


def default_scan_radii(domain_radius):
    return np.geomspace(1e-9, domain_radius, 37), np.geomspace(1e-6, 0.5, 25)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_unit_grid_times_radius_is_the_radial_grid(dim):
    regimes = range(1, 101)
    unit = sd.radial_grid(dim, [1.0], regimes)
    for domain_radius in (0.5, 1.0):
        for r in np.concatenate(default_scan_radii(domain_radius)):
            grid = sd.radial_grid(dim, [r], regimes)
            assert_bits_equal(r * unit.X, grid.X)
            np.testing.assert_array_equal(unit.I, grid.I)


def per_radius_mg(spec, lyap, radii, regimes):
    points = sd.radial_grid(spec.dim, radii, [1]).X
    n_dirs = len(points) // radii.size
    gvs = lyap.g.g(lyap.values(points))
    grads = lyap.gradients(points)
    values = np.zeros(radii.size)
    for k, r in enumerate(radii):
        at_r = slice(k * n_dirs, (k + 1) * n_dirs)
        gv = np.repeat(gvs[at_r], len(regimes))
        grad = np.repeat(grads[at_r], len(regimes), axis=0)
        grid = sd.radial_grid(spec.dim, [r], regimes)
        num = row_norms(np.matmul(grad[:, None, :], spec.diffusions(grid.X, grid.I))[:, 0, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gv == 0.0, np.where(num > 0.0, math.inf, 0.0), num / gv)
        values[k] = _positive_sup(ratio)
    return values


def per_radius_kernel_scan(kernel, dim, radii, regimes):
    regimes = np.asarray(list(regimes), dtype=np.int64)
    n_dirs = len(sd.radial_grid(dim, [1.0], [1]))
    base_t, base_r = kernel.padded_rows(np.zeros((regimes.size, dim)), regimes)
    base_t, base_r = np.tile(base_t, (n_dirs, 1)), np.tile(base_r, (n_dirs, 1))
    s = np.zeros(radii.size)
    for k, r in enumerate(radii):
        grid = sd.radial_grid(dim, [r], regimes)
        here_t, here_r = kernel.padded_rows(grid.X, grid.I)
        s[k] = _positive_sup(reference_row_distance(here_t, here_r, base_t, base_r))
    return s


@pytest.mark.parametrize("name", SCAN_CASES)
def test_unit_grid_scans_equal_the_per_radius_scans(name):
    spec, lyap = scan_case(name)
    regimes = range(1, 101)
    mg_radii, kernel_radii = default_scan_radii(lyap.domain_radius)
    mg = sd.scan_mg(spec, lyap)
    assert_bits_equal(mg.radii, mg_radii)
    assert_bits_equal(mg.values_by_radius, per_radius_mg(spec, lyap, mg_radii, regimes))
    ker = sd.scan_kernel_continuity(spec.rate_kernel, spec.dim)
    assert_bits_equal(ker.radii, kernel_radii)
    want = per_radius_kernel_scan(spec.rate_kernel, spec.dim, kernel_radii, regimes)
    assert_bits_equal(ker.s_values, want)
    if name == "linear_noise_dim_2":
        assert np.all(mg.values_by_radius > 0.0) and np.all(ker.s_values > 0.0)


def test_stacked_eigenvalues_equal_the_per_regime_calls():
    spec, _ = scan_case("linear_noise_dim_2")
    regimes = list(range(1, 8))
    data = sd.linearize(spec, regimes)
    for i in regimes:
        b = data.b_matrices[i]
        eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
        assert (data.Lam1[i], data.lam1[i]) == (float(eigs[-1]), float(eigs[0]))
        grams = [np.linalg.eigvalsh(m @ m.T) for m in data.sigma_matrices[i]]
        assert data.Lam2[i] == [float(g[-1]) for g in grams]
        assert data.lam2[i] == [max(0.0, float(g[0])) for g in grams]
    # the two noise columns have distinct Gram spectra, so a wrong stack axis shows
    assert all(len(set(data.Lam2[i])) == 2 for i in regimes)
