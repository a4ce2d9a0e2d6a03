"""Correctness checks on switchdiff's artifacts.

Every expected value is computed here, apart from the program: closed-form
invariant measures, eigenvalues of the scenario matrices, the exact decay of
the Euler path, matrix exponentials of a generator built from the closed-form
rates.  Each check returns a list of problems; an empty list means the
artifact passed.

Monte Carlo checks allow Z_TOL standard errors rather than the 1.96 of a 95%
interval: the benchmark runs each check a few hundred times per evaluation,
and a check that fails by chance one run in twenty would flag working code.
A real fault moves these statistics by far more (a 1/2 occupation where 2/3
is right sits 5 sigma off at the long_path horizon).
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.integrate
import scipy.linalg

Z_TOL = 4.0
NU_TOL = 1e-8
SUP_XI_TOL = 1e-9
PROP41_TOL = 1e-9

# the default lambda grid of the rate estimator, as documented in rates.py
LAMBDA_GRID = np.geomspace(1e-4, 1e2, 64)


def read_measure_csv(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["state", "nu"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return np.array([float(r[1]) for r in rows[1:]])


def functional(doc: dict, prefix: str) -> dict:
    for entry in doc["results"]:
        if entry["functional"].startswith(prefix):
            return entry
    raise KeyError(prefix)


# ---------------------------------------------------------------------------
# certify


def check_verdict(report: dict, expected: str) -> list:
    got = report.get("overall_verdict")
    return [] if got == expected else [f"overall verdict {got!r}, want {expected!r}"]


def check_geometric_measure(nu: np.ndarray, n_check: int = 20) -> list:
    """Both worked chains have nu_i = 2^-i: the example52 doubling chain and
    the birth-death chain whose up/down ratio is 1/2."""
    if nu.size < n_check:
        return [f"measure has {nu.size} states, want at least {n_check}"]
    target = 0.5 ** np.arange(1, n_check + 1)
    err = float(np.max(np.abs(nu[:n_check] - target)))
    return [] if err <= NU_TOL else [f"max |nu_i - 2^-i| = {err:.3e} > {NU_TOL}"]


def lumped_geometric_measure(N: int) -> np.ndarray:
    """nu of the doubling chain lump-truncated at N: 2^-i below N, and the
    boundary state keeps the whole tail mass 2^-(N-1)."""
    nu = 0.5 ** np.arange(1, N + 1)
    nu[-1] = 0.5 ** (N - 1)
    return nu


def prop41_stable_value(matrices: list, N: int) -> float:
    """sum_i nu_i lambda_max((A_i + A_i^T)/2) with the saturating regime
    lookup of the linear family and zero diffusion."""
    lam = [float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1]) for A in map(np.asarray, matrices)]
    per_regime = np.array([lam[min(i, len(lam)) - 1] for i in range(1, N + 1)])
    return float(per_regime @ lumped_geometric_measure(N))


def check_prop41(report: dict, matrices: list) -> list:
    N = report["truncation"]["N"]
    want = prop41_stable_value(matrices, N)
    got = report["proposition41"]["stable_value"]
    if abs(got - want) <= PROP41_TOL * max(1.0, abs(want)):
        return []
    return [f"proposition41 stable_value {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# ensemble


def check_stay_in_ball(doc: dict, stable: bool) -> list:
    est = functional(doc, "stay_in_ball")["estimate"]
    if stable and not est > 0.95:
        return [f"stable stay-in-ball {est} is not > 0.95"]
    if not stable and not est < 0.5:
        return [f"unstable stay-in-ball {est} is not < 0.5"]
    return []


def example52_generator(N: int, scale: float = 1.0) -> np.ndarray:
    """Frozen-at-origin generator of the example52 kernel, lump-truncated:
    1 -> 2 at rate r, i -> 1 and i -> i+1 at rate r, r = scale (1 + sin 0)."""
    r = scale
    Q = np.zeros((N, N))
    Q[0, 1] = r
    for i in range(2, N + 1):
        Q[i - 1, 0] += r
        if i < N:
            Q[i - 1, i] += r
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def expected_occupation(Q: np.ndarray, T: float, start: int = 1) -> float:
    """(1/T) int_0^T P_{start,1}(t) dt, i.e. 1/2 plus the start bias."""
    integral, _ = scipy.integrate.quad(
        lambda t: scipy.linalg.expm(Q * t)[start - 1, 0], 0.0, T, limit=200
    )
    return integral / T


def check_occupation(doc: dict, expected: float) -> list:
    entry = functional(doc, "occupation(i=1)")
    est = entry["estimate"]
    se = (entry["ci_high"] - entry["ci_low"]) / (2.0 * 1.959963984540054)
    if abs(est - expected) <= Z_TOL * se + 1e-12:
        return []
    return [f"occupation(i=1) {est} is {abs(est - expected):.4f} from {expected:.4f} (se {se:.4f})"]


def check_coupled(doc: dict, h: float) -> list:
    problems = []
    want = 2.0 * math.sin(h)
    if abs(doc["sup_xi"] - want) > SUP_XI_TOL:
        problems.append(f"sup_xi {doc['sup_xi']!r}, want 2 sin({h}) = {want!r}")
    p = doc["decoupling_probability"]
    n = doc["n_paths"]
    sigma = math.sqrt(p * (1.0 - p) / n)
    if not p <= doc["horizon"] * want + 3.0 * sigma:
        problems.append(f"decoupling probability {p} exceeds T * 2 sin(h) + 3 sigma")
    if doc["n_decoupled"] != round(p * n):
        problems.append(f"n_decoupled {doc['n_decoupled']} disagrees with p * n = {p * n}")
    return problems


# ---------------------------------------------------------------------------
# rate_fit


def contraction_lambda(dt: float, grid: np.ndarray = LAMBDA_GRID) -> float:
    """Largest grid rate the Euler path x_k = (1 - dt)^k passes: V = x^2 sits
    under the envelope exp(-lam t) for every t iff lam <= -ln((1-dt)^2)/dt."""
    exact = -math.log((1.0 - dt) ** 2) / dt
    return float(grid[grid <= exact][-1])


def check_contraction(doc: dict, dt: float) -> list:
    want = contraction_lambda(dt)
    got = doc["lambda_hat"]
    return [] if got == want else [f"contraction lambda_hat {got!r}, want {want!r}"]


def check_rate_stable(doc: dict) -> list:
    problems = []
    lam = doc["lambda_hat"]
    if lam is None or not lam > 0:
        problems.append(f"lambda_hat {lam!r} is not positive")
    survived = (doc["n_paths"] - doc["n_excluded"]) / doc["n_paths"]
    if survived < 0.95:
        problems.append(f"only {survived:.1%} of paths survived")
    return problems


def check_quantile_curve(doc: dict) -> list:
    curve = doc["quantile_curve"]
    lams = [c["lambda"] for c in curve]
    qs = [c["quantile"] for c in curve]
    if lams != sorted(lams):
        return ["quantile curve lambdas are not increasing"]
    drops = [k for k in range(1, len(qs)) if qs[k] < qs[k - 1]]
    return [f"quantile curve decreases at lambda {lams[drops[0]]}"] if drops else []


# ---------------------------------------------------------------------------
# long_path


def two_state_sigma(q12: float, q21: float, T: float) -> float:
    """Renewal-theory standard deviation of the occupation fraction of state 1."""
    mu1, mu2 = 1.0 / q12, 1.0 / q21
    return math.sqrt(2.0 * mu1**2 * mu2**2 / ((mu1 + mu2) ** 3 * T))


def check_two_state_occupation(doc: dict, q12: float, q21: float, T: float) -> list:
    est = functional(doc, "occupation(i=1)")["estimate"]
    want = q21 / (q12 + q21)
    sigma = two_state_sigma(q12, q21, T)
    if abs(est - want) <= Z_TOL * sigma:
        return []
    return [f"occupation(i=1) {est} is {abs(est - want) / sigma:.1f} sigma from {want:.4f}"]
