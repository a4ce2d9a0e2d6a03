"""Model primitives: coefficients, switching kernels, Lyapunov data, generators.

The hybrid process is (X(t), alpha(t)): X solves dX = b(X, alpha) dt +
sigma(X, alpha) dW in R^n, alpha ranges over the positive integers and jumps
from i to j at state-dependent rate q_ij(X(t)).  The operator split is

    L f(x, i) = L_i f(x, i) + sum_{j != i} q_ij(x) [f(x, j) - f(x, i)],
    L_i V(x)  = grad V(x) . b(x, i) + (1/2) tr(hess V(x) A(x, i)),

with A = sigma sigma^T.  The drift condition L_i V <= c_i g(V) and the
reversed inequality are checked together, pointwise on caller-supplied grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError
from .rates import RateProfile

# Finite-difference steps.  The gradient uses a relative 1e-6 step; second
# differences need a larger step or roundoff (~4 V eps / eta^2) dominates.
GRAD_STEP = 1e-6
HESS_STEP = 1e-4

ROW_SUM_TOL = 1e-12
DRIFT_TOL = 1e-9

Row = Sequence[tuple[int, float]]


@dataclass
class RateKernel:
    """Switching-rate table q_ij(x) with finite row support.

    row(x, i) returns the off-diagonal entries ((j, rate), ...) of row i at x;
    targets must be positive integers distinct from i and rates nonnegative.
    global_bound, if set, dominates sup_{x,i} q_i(x).  x_independent kernels
    allow row caching in the simulator hot loop.  Callbacks must accept a
    length-n array and, when n = 1, a bare float.
    """

    row: Callable[[np.ndarray, int], Row]
    global_bound: Optional[float] = None
    x_independent: bool = False

    def total_rate(self, x, i: int) -> float:
        return float(sum(r for _, r in self.row(x, i)))

    def check_row(self, x, i: int) -> Row:
        """Row with structural validation; used by scans, not hot loops."""
        entries = tuple(self.row(x, i))
        for j, r in entries:
            if j == i or j < 1 or j != int(j):
                raise EvaluationError(f"row {i} has invalid target {j}")
            if not (r >= 0.0 and math.isfinite(r)):
                raise EvaluationError(f"row {i} has invalid rate {r} toward {j}")
        return entries


@dataclass
class ExactLinearization:
    """Exact linear parts for families that are (locally) linear at 0."""

    drift_matrix: Callable[[int], np.ndarray]
    diffusion_matrices: Optional[Callable[[int], Sequence[np.ndarray]]] = None


@dataclass
class ModelSpec:
    """Coefficients of the hybrid diffusion.

    drift(x, i) -> (n,), diffusion(x, i) -> (n, d).  zero_fixed asserts that
    the origin is an equilibrium of every regime (b(0,i) = 0, sigma(0,i) = 0).
    scalar_drift/scalar_diffusion are optional float fast paths used by the
    simulator when n = d = 1; they must agree with the array callbacks.
    """

    dim: int
    noise_dim: int
    drift: Callable[[np.ndarray, int], np.ndarray]
    diffusion: Callable[[np.ndarray, int], np.ndarray]
    rate_kernel: RateKernel
    zero_fixed: bool = True
    scalar_drift: Optional[Callable[[float, int], float]] = None
    scalar_diffusion: Optional[Callable[[float, int], float]] = None
    linearization: Optional[ExactLinearization] = None

    def __post_init__(self) -> None:
        if self.dim < 1 or self.noise_dim < 1:
            raise ConfigurationError("dim and noise_dim must be >= 1")

    def drift_at(self, x, i: int) -> np.ndarray:
        b = np.asarray(self.drift(np.asarray(x, dtype=float), i), dtype=float)
        if b.shape != (self.dim,):
            raise EvaluationError(f"drift returned shape {b.shape}, want ({self.dim},)")
        return b

    def diffusion_at(self, x, i: int) -> np.ndarray:
        s = np.asarray(self.diffusion(np.asarray(x, dtype=float), i), dtype=float)
        if s.shape != (self.dim, self.noise_dim):
            raise EvaluationError(
                f"diffusion returned shape {s.shape}, want ({self.dim}, {self.noise_dim})"
            )
        return s

    def validate(self, regimes: Iterable[int] = range(1, 6), radius: float = 0.5) -> None:
        """Spot-check standing assumptions: equilibrium at 0, finite values,
        nonnegative rates, zero row sums of the extended generator."""
        zero = np.zeros(self.dim)
        for i in regimes:
            if self.zero_fixed:
                if np.max(np.abs(self.drift_at(zero, i))) > 1e-12:
                    raise EvaluationError(f"drift(0, {i}) != 0 but zero_fixed is set")
                if np.max(np.abs(self.diffusion_at(zero, i))) > 1e-12:
                    raise EvaluationError(f"diffusion(0, {i}) != 0 but zero_fixed is set")
            x = np.full(self.dim, radius / math.sqrt(self.dim))
            if not np.all(np.isfinite(self.drift_at(x, i))):
                raise EvaluationError(f"drift non-finite at |x|={radius}, regime {i}")
            if not np.all(np.isfinite(self.diffusion_at(x, i))):
                raise EvaluationError(f"diffusion non-finite at |x|={radius}, regime {i}")
            row = self.rate_kernel.check_row(x, i)
            if self.rate_kernel.global_bound is not None:
                if sum(r for _, r in row) > self.rate_kernel.global_bound + 1e-9:
                    raise EvaluationError(f"row {i} exceeds declared global bound")


@dataclass
class LyapunovSpec:
    """Lyapunov data: V, its profile g, the per-regime coefficients c_i.

    V must be positive away from 0 with V(0) = 0 on the domain ball; grad_V
    and hess_V are optional (central finite differences otherwise).  c(i)
    gives the drift-condition coefficient for regime i, |c(i)| <= c_bound.
    """

    V: Callable[[np.ndarray], float]
    g: RateProfile
    c: Callable[[int], float]
    c_bound: float
    domain_radius: float
    grad_V: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_V: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def c_vector(self, n: int) -> np.ndarray:
        return np.array([float(self.c(i)) for i in range(1, n + 1)])

    def validate(self, dim: int, sample_radii: Sequence[float] = (1e-3, 1e-1)) -> None:
        zero = np.zeros(dim)
        v0 = float(self.V(zero))
        if abs(v0) > 1e-14:
            raise EvaluationError(f"V(0) = {v0}, expected 0")
        for r in sample_radii:
            x = np.full(dim, r / math.sqrt(dim))
            if not float(self.V(x)) > 0.0:
                raise EvaluationError(f"V not positive at |x| = {r}")
        for i in range(1, 50):
            if abs(float(self.c(i))) > self.c_bound + 1e-12:
                raise EvaluationError(f"|c({i})| exceeds c_bound = {self.c_bound}")


def _fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    n = x.size
    g = np.empty(n)
    for k in range(n):
        eta = max(GRAD_STEP, GRAD_STEP * abs(float(x[k])))
        xp = x.copy()
        xm = x.copy()
        xp[k] += eta
        xm[k] -= eta
        g[k] = (float(f(xp)) - float(f(xm))) / (2.0 * eta)
    return g


def _fd_hessian(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    n = x.size
    H = np.empty((n, n))
    f0 = float(f(x))
    steps = np.array([max(HESS_STEP, HESS_STEP * abs(float(x[k]))) for k in range(n)])
    for k in range(n):
        ek = np.zeros(n)
        ek[k] = steps[k]
        H[k, k] = (float(f(x + ek)) - 2.0 * f0 + float(f(x - ek))) / steps[k] ** 2
        for l in range(k + 1, n):
            el = np.zeros(n)
            el[l] = steps[l]
            val = (
                float(f(x + ek + el))
                - float(f(x + ek - el))
                - float(f(x - ek + el))
                + float(f(x - ek - el))
            ) / (4.0 * steps[k] * steps[l])
            H[k, l] = val
            H[l, k] = val
    return H


def apply_generator_Li(spec: ModelSpec, lyap: LyapunovSpec, x, i: int) -> float:
    """Diffusion-part generator L_i V(x); x = 0 is outside the domain."""
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    if float(np.linalg.norm(x)) == 0.0:
        raise DomainError("L_i V is evaluated away from the origin")
    grad = (
        np.asarray(lyap.grad_V(x), dtype=float)
        if lyap.grad_V is not None
        else _fd_gradient(lyap.V, x)
    )
    hess = (
        np.asarray(lyap.hess_V(x), dtype=float)
        if lyap.hess_V is not None
        else _fd_hessian(lyap.V, x)
    )
    b = spec.drift_at(x, i)
    sig = spec.diffusion_at(x, i)
    val = float(grad @ b) + 0.5 * float(np.trace(hess @ (sig @ sig.T)))
    if not math.isfinite(val):
        raise EvaluationError(f"L_i V non-finite at x={x}, i={i}")
    return val


def apply_full_generator(
    spec: ModelSpec, f: Callable[[np.ndarray, int], float], x, i: int
) -> float:
    """Full generator L f(x, i): FD diffusion part plus the switching sum.

    The continuous part always uses the finite-difference path (f carries no
    derivative data), so it agrees with apply_generator_Li exactly when the
    Lyapunov spec also lacks analytic derivatives.
    """
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    fi = lambda y: float(f(y, i))
    grad = _fd_gradient(fi, x)
    hess = _fd_hessian(fi, x)
    b = spec.drift_at(x, i)
    sig = spec.diffusion_at(x, i)
    val = float(grad @ b) + 0.5 * float(np.trace(hess @ (sig @ sig.T)))
    here = float(f(x, i))
    for j, r in spec.rate_kernel.check_row(x, i):
        val += r * (float(f(x, j)) - here)
    if not math.isfinite(val):
        raise EvaluationError(f"L f non-finite at x={x}, i={i}")
    return val


@dataclass
class DriftViolation:
    x: np.ndarray
    regime: int
    residual: float


@dataclass
class DriftView:
    """One direction of a drift scan: residuals L_i V - c_i g(V) (forward)
    or c_i g(V) - L_i V (reversed); a residual above tol is a violation."""

    violations: list = field(default_factory=list)
    max_residual: float = -math.inf
    n_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, x: np.ndarray, i: int, residual: float, tol: float) -> None:
        self.n_checked += 1
        self.max_residual = max(self.max_residual, residual)
        if residual > tol:
            self.violations.append(DriftViolation(x=x, regime=i, residual=residual))


@dataclass
class DriftReport:
    """Grid scan of L_i V against c_i g(V), seen in both directions: forward
    (L_i V <= c_i g(V), stability) and reversed (>=, instability)."""

    forward: DriftView = field(default_factory=DriftView)
    reversed: DriftView = field(default_factory=DriftView)

    @property
    def n_checked(self) -> int:
        return self.forward.n_checked


def verify_drift_condition(
    spec: ModelSpec,
    lyap: LyapunovSpec,
    grid: Iterable[tuple[np.ndarray, int]],
    tol: float = DRIFT_TOL,
) -> DriftReport:
    """Evaluate L_i V(x) - c_i g(V(x)) once per grid point and report both
    inequalities; points at the origin or outside the domain ball are
    rejected."""
    report = DriftReport()
    for x, i in grid:
        x = np.asarray(x, dtype=float).reshape(spec.dim)
        r = float(np.linalg.norm(x))
        if r == 0.0 or r > lyap.domain_radius * (1.0 + 1e-12):
            raise DomainError(
                f"drift-condition grid point |x| = {r} outside (0, {lyap.domain_radius}]"
            )
        li = apply_generator_Li(spec, lyap, x, i)
        bound = float(lyap.c(i)) * float(lyap.g.g(float(lyap.V(x))))
        report.forward.add(x, i, li - bound, tol)
        report.reversed.add(x, i, bound - li, tol)
    if report.n_checked == 0:
        raise ConfigurationError("empty drift-condition grid")
    return report


def radial_grid(
    dim: int,
    radii: Sequence[float],
    regimes: Sequence[int],
    directions: Optional[Sequence[np.ndarray]] = None,
) -> list:
    """Default (x, i) grid: radii x directions x regimes.

    Directions default to +/- axes plus the normalized all-ones vector; all
    are deterministic so scans are reproducible.
    """
    if directions is None:
        dirs = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = 1.0
            dirs.append(e)
            dirs.append(-e)
        if dim > 1:
            dirs.append(np.full(dim, 1.0 / math.sqrt(dim)))
    else:
        dirs = [np.asarray(d, dtype=float) / np.linalg.norm(d) for d in directions]
    grid = []
    for r in radii:
        for d in dirs:
            for i in regimes:
                grid.append((r * d, i))
    return grid
