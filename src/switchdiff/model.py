"""Model primitives: coefficients, switching kernels, Lyapunov data, generators.

The hybrid process is (X(t), alpha(t)): X solves dX = b(X, alpha) dt +
sigma(X, alpha) dW in R^n, alpha ranges over the positive integers and jumps
from i to j at state-dependent rate q_ij(X(t)).  The operator split is

    L f(x, i) = L_i f(x, i) + sum_{j != i} q_ij(x) [f(x, j) - f(x, i)],
    L_i V(x)  = grad V(x) . b(x, i) + (1/2) tr(hess V(x) A(x, i)),

with A = sigma sigma^T.  The drift condition L_i V <= c_i g(V) and the
reversed inequality are checked together on caller-supplied grids.

Every scan works on a batch of points: X of shape (P, n) with regimes I of
shape (P,).  A spec built by a scenario family carries batch forms of its
callables (batch_drift, batch_V, batch_rows, ...); a spec that has only
per-point callables is evaluated point by point through _per_point, the one
adapter between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
RATE_BOUND_TOL = 1e-9  # slack of a row total over a kernel's declared global_bound

Row = Sequence[tuple[int, float]]


@dataclass
class RateKernel:
    """Switching-rate table q_ij(x) with finite row support.

    row(x, i) returns the off-diagonal entries ((j, rate), ...) of row i at x;
    targets must be positive integers distinct from i and rates nonnegative.
    global_bound, if set, declares a bound on sup_{x,i} q_i(x), up to
    RATE_BOUND_TOL; a custom_table kernel checks it against every row when
    built, and ModelSpec.validate spot-checks it.  The simulator thins
    against it: it reads rows only where an accept uniform falls below the
    bound's jump probability, and raises EvaluationError for a row it reads
    above the bound.  x_independent declares that no row depends on x; the
    simulator's float loop then keeps rows per regime instead of re-reading
    them every step.  The flag is trusted, not
    checked: the scenario families set it correctly by construction, but a
    kernel built in Python that claims it falsely is simulated with stale
    rates.  Callbacks must accept a length-n array and, when n = 1, a bare
    float.  batch_rows(X, I), if set, returns the same rows for a batch as
    padded arrays (see padded_rows).
    """

    row: Callable[[np.ndarray, int], Row]
    global_bound: Optional[float] = None
    x_independent: bool = False
    batch_rows: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def check_row(self, x, i: int) -> Row:
        """Row with structural validation; used by scans, not hot loops."""
        _check_regime(i)
        entries = tuple(self.row(x, i))
        for j, r in entries:
            if j == i or j < 1 or j != int(j):
                raise EvaluationError(f"row {i} has invalid target {j}")
            if not (r >= 0.0 and math.isfinite(r)):
                raise EvaluationError(f"row {i} has invalid rate {r} toward {j}")
        return entries

    def padded_rows(self, X: np.ndarray, I: np.ndarray) -> tuple:
        """Rows at every (X[p], I[p]) as arrays (targets, rates) of shape
        (P, m), entry by entry in row order; target 0 with rate 0 pads a row
        shorter than m.  Rows are validated like check_row."""
        _check_regimes(I)
        if self.batch_rows is None:
            rows = _per_point(self.check_row, X, I)
            width = max(map(len, rows), default=0)
            targets = np.zeros((len(rows), width), dtype=np.int64)
            rates = np.zeros((len(rows), width))
            for p, row in enumerate(rows):
                for k, (j, r) in enumerate(row):
                    targets[p, k] = j
                    rates[p, k] = r
            return targets, rates
        targets, rates = self.batch_rows(X, I)
        bad = (targets == I[:, None]) | ((targets < 1) & (rates != 0.0))
        bad |= ~(rates >= 0.0) | ~np.isfinite(rates)
        if bad.any():
            p, k = np.argwhere(bad)[0]
            raise EvaluationError(
                f"row {I[p]} has invalid entry ({targets[p, k]}, {rates[p, k]})"
            )
        return targets, rates


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
    scalar_drift/scalar_diffusion are optional float forms for n = d = 1;
    they must agree with the array callbacks, and with both set the
    simulator runs plain paths in its float loop.  scalar_step(i, dt), also
    optional, returns regime i's Euler map step(x, w) with the regime's
    constants and dt bound; it must compute x + scalar_drift(x, i) * dt +
    scalar_diffusion(x, i) * w with the same float operations in the same
    order.  Without it the float loop derives that map from the two float
    forms.
    batch_drift(I) and batch_diffusion(I) are optional batch forms, curried
    on the regimes: given regimes I >= 1 of shape (P,) they gather what they
    need of each regime once and return a map X -> (P, n), respectively X ->
    (P, n, d), that must agree with the callbacks bit for bit.  drift_map
    and diffusion_map return these maps, or for a spec without batch forms
    maps derived from the callbacks point by point, after checking that
    every regime is at least 1.  A caller whose regimes change rarely binds
    them once per change; the batched simulator binds the batch forms
    themselves, as its regimes are at least 1 by construction.
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
    batch_drift: Optional[Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]] = None
    batch_diffusion: Optional[Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]] = None
    scalar_step: Optional[Callable[[int, float], Callable[[float, float], float]]] = None

    def __post_init__(self) -> None:
        if self.dim < 1 or self.noise_dim < 1:
            raise ConfigurationError("dim and noise_dim must be >= 1")

    def drift_map(self, I: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """X -> b(X[p], I[p]) for every p, shape (P, n), the regimes I bound.
        The derived map of a spec without batch_drift reads I when called."""
        _check_regimes(I)
        if self.batch_drift is not None:
            return self.batch_drift(I)
        shape = (len(I), self.dim)
        return lambda X: np.array(_per_point(self.drift_at, X, I), dtype=float).reshape(shape)

    def diffusion_map(self, I: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """X -> sigma(X[p], I[p]) for every p, shape (P, n, d), the regimes
        I bound, like drift_map."""
        _check_regimes(I)
        if self.batch_diffusion is not None:
            return self.batch_diffusion(I)
        shape = (len(I), self.dim, self.noise_dim)
        return lambda X: np.array(_per_point(self.diffusion_at, X, I), dtype=float).reshape(shape)

    def drifts(self, X: np.ndarray, I: np.ndarray) -> np.ndarray:
        """b(X[p], I[p]) for every p, shape (P, n)."""
        return self.drift_map(I)(X)

    def diffusions(self, X: np.ndarray, I: np.ndarray) -> np.ndarray:
        """sigma(X[p], I[p]) for every p, shape (P, n, d)."""
        return self.diffusion_map(I)(X)

    def drift_at(self, x, i: int) -> np.ndarray:
        _check_regime(i)
        b = np.asarray(self.drift(np.asarray(x, dtype=float), i), dtype=float)
        if b.shape != (self.dim,):
            raise EvaluationError(f"drift returned shape {b.shape}, want ({self.dim},)")
        return b

    def diffusion_at(self, x, i: int) -> np.ndarray:
        _check_regime(i)
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
                if sum(r for _, r in row) > self.rate_kernel.global_bound + RATE_BOUND_TOL:
                    raise EvaluationError(f"row {i} exceeds declared global bound")


@dataclass
class LyapunovSpec:
    """Lyapunov data: V, its profile g, the per-regime coefficients c_i.

    V must be positive away from 0 with V(0) = 0 on the domain ball; grad_V
    and hess_V are optional (central finite differences otherwise).  c(i)
    gives the drift-condition coefficient for regime i, |c(i)| <= c_bound.
    batch_V, batch_grad_V and batch_hess_V map X of shape (P, n) to shapes
    (P,), (P, n) and (P, n, n); they are optional and must agree with the
    per-point callables bit for bit.
    """

    V: Callable[[np.ndarray], float]
    g: RateProfile
    c: Callable[[int], float]
    c_bound: float
    domain_radius: float
    grad_V: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_V: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_V: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_grad_V: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_hess_V: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def values(self, X: np.ndarray) -> np.ndarray:
        """V(X[p]) for every p, shape (P,)."""
        if self.batch_V is not None:
            return self.batch_V(X)
        return np.array(_per_point(self.V, X), dtype=float).reshape(len(X))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """grad V(X[p]) for every p, shape (P, n)."""
        if self.batch_grad_V is not None:
            return self.batch_grad_V(X)
        grad = self.grad_V or (lambda x: _fd_gradient(self.V, x))
        return np.array(_per_point(grad, X), dtype=float).reshape(X.shape)

    def hessians(self, X: np.ndarray) -> np.ndarray:
        """hess V(X[p]) for every p, shape (P, n, n)."""
        if self.batch_hess_V is not None:
            return self.batch_hess_V(X)
        hess = self.hess_V or (lambda x: _fd_hessian(self.V, x))
        out = np.array(_per_point(hess, X), dtype=float)
        return out.reshape(X.shape + X.shape[1:])

    def c_vector(self, n: int) -> np.ndarray:
        return np.array([float(self.c(i)) for i in range(1, n + 1)])

    def validate(
        self,
        dim: int,
        sample_radii: Sequence[float] = (1e-3, 1e-1),
        regimes: Iterable[int] = range(1, 50),
    ) -> None:
        """Spot-check V(0) = 0, V > 0 at the sample radii, and |c_i| <=
        c_bound in the given regimes."""
        zero = np.zeros(dim)
        v0 = float(self.V(zero))
        if abs(v0) > 1e-14:
            raise EvaluationError(f"V(0) = {v0}, expected 0")
        for r in sample_radii:
            x = np.full(dim, r / math.sqrt(dim))
            if not float(self.V(x)) > 0.0:
                raise EvaluationError(f"V not positive at |x| = {r}")
        for i in regimes:
            if abs(float(self.c(i))) > self.c_bound + 1e-12:
                raise EvaluationError(f"|c({i})| exceeds c_bound = {self.c_bound}")


def _per_point(fn: Callable, X: np.ndarray, I: Optional[np.ndarray] = None) -> list:
    """[fn(X[p], I[p]) for every p], or [fn(X[p])] without I: the adapter
    that evaluates a callable taking one point on a batch of points."""
    if I is None:
        return [fn(x) for x in X]
    return [fn(x, i) for x, i in zip(X, I.tolist())]


def row_norms(X: np.ndarray) -> np.ndarray:
    """|X[p]| for every row p, equal bit for bit to np.linalg.norm of the row
    (np.linalg.norm(X, axis=1) sums in another order)."""
    return np.sqrt(np.vecdot(X, X))


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


def _check_regime(i: int) -> None:
    """Reject a regime below 1: the families read per-regime constants at
    i - 1, which is valid only for i >= 1."""
    if i < 1:
        raise ConfigurationError(f"regimes must be positive integers, got {i}")


def _check_regimes(I) -> None:
    """_check_regime for a batch of regimes."""
    if len(I):
        _check_regime(np.asarray(I).min())


def generator_Li(spec: ModelSpec, lyap: LyapunovSpec, X: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Diffusion-part generator L_i V at every (X[p], I[p]), shape (P,).

    Dot products go through np.vecdot and matmul, which match the per-point
    `grad @ b` and `hess @ A` bit for bit; an elementwise (G * B).sum(1)
    would not.
    """
    _check_regimes(I)
    grad = lyap.gradients(X)
    hess = lyap.hessians(X)
    b = spec.drifts(X, I)
    sig = spec.diffusions(X, I)
    gram = np.matmul(sig, sig.transpose(0, 2, 1))
    val = np.vecdot(grad, b) + 0.5 * np.trace(np.matmul(hess, gram), axis1=1, axis2=2)
    bad = ~np.isfinite(val)
    if bad.any():
        p = int(np.argmax(bad))
        raise EvaluationError(f"L_i V non-finite at x={X[p]}, i={I[p]}")
    return val


def apply_generator_Li(spec: ModelSpec, lyap: LyapunovSpec, x, i: int) -> float:
    """L_i V(x) at one point, as a batch of one; x = 0 is outside the domain."""
    X = np.asarray(x, dtype=float).reshape(1, spec.dim)
    if row_norms(X)[0] == 0.0:
        raise DomainError("L_i V is evaluated away from the origin")
    return float(generator_Li(spec, lyap, X, np.array([i]))[0])


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


@dataclass(frozen=True)
class ScanGrid:
    """Scan points as arrays: X[p] in R^n, shape (P, n), in regime I[p].
    Iterating yields the (x, i) pairs.  Regimes are positive integers."""

    X: np.ndarray
    I: np.ndarray

    def __post_init__(self) -> None:
        _check_regimes(self.I)

    def __len__(self) -> int:
        return len(self.I)

    def __iter__(self):
        return zip(self.X, self.I.tolist())


def as_scan_grid(points, dim: int) -> ScanGrid:
    """A ScanGrid as is, or one built from an iterable of (x, i) pairs."""
    if isinstance(points, ScanGrid):
        return points
    pairs = list(points)
    X = np.array([np.asarray(x, dtype=float).reshape(dim) for x, _ in pairs])
    I = np.array([int(i) for _, i in pairs], dtype=np.int64)
    return ScanGrid(X.reshape(len(pairs), dim), I)


@dataclass
class DriftView:
    """One direction of a drift scan: the residual of every grid point,
    L_i V - c_i g(V) (forward) or c_i g(V) - L_i V (reversed), and the mask
    of violations, the residuals above tol."""

    grid: ScanGrid
    residuals: np.ndarray
    violated: np.ndarray

    @property
    def ok(self) -> bool:
        return not self.violated.any()

    @property
    def n_checked(self) -> int:
        return len(self.residuals)

    @property
    def n_violations(self) -> int:
        return int(np.count_nonzero(self.violated))

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    def _violation(self, p: int) -> DriftViolation:
        return DriftViolation(
            x=self.grid.X[p], regime=int(self.grid.I[p]), residual=float(self.residuals[p])
        )

    @property
    def violations(self) -> list:
        """The violations in grid order."""
        return [self._violation(p) for p in np.flatnonzero(self.violated)]

    def worst(self, k: int) -> list:
        """The k largest violations, largest first; ties keep grid order."""
        where = np.flatnonzero(self.violated)
        order = np.argsort(-self.residuals[where], kind="stable")[:k]
        return [self._violation(p) for p in where[order]]


@dataclass
class DriftReport:
    """Grid scan of L_i V against c_i g(V), seen in both directions: forward
    (L_i V <= c_i g(V), stability) and reversed (>=, instability)."""

    forward: DriftView
    reversed: DriftView

    @property
    def n_checked(self) -> int:
        return self.forward.n_checked


def verify_drift_condition(
    spec: ModelSpec,
    lyap: LyapunovSpec,
    grid,
    tol: float = DRIFT_TOL,
) -> DriftReport:
    """Evaluate L_i V(x) - c_i g(V(x)) once per grid point and report both
    inequalities.  grid is a ScanGrid or an iterable of (x, i) pairs; points
    at the origin or outside the domain ball are rejected."""
    grid = as_scan_grid(grid, spec.dim)
    if len(grid) == 0:
        raise ConfigurationError("empty drift-condition grid")
    X, I = grid.X, grid.I
    r = row_norms(X)
    outside = (r == 0.0) | (r > lyap.domain_radius * (1.0 + 1e-12))
    if outside.any():
        raise DomainError(
            f"drift-condition grid point |x| = {r[np.argmax(outside)]} "
            f"outside (0, {lyap.domain_radius}]"
        )
    li = generator_Li(spec, lyap, X, I)
    regimes, where = np.unique(I, return_inverse=True)
    c = np.array([float(lyap.c(i)) for i in regimes.tolist()])[where]
    bound = c * lyap.g.g(lyap.values(X))
    forward = li - bound
    backward = bound - li
    return DriftReport(
        forward=DriftView(grid, forward, forward > tol),
        reversed=DriftView(grid, backward, backward > tol),
    )


def radial_grid(
    dim: int,
    radii: Sequence[float],
    regimes: Sequence[int],
    directions: Optional[Sequence[np.ndarray]] = None,
) -> ScanGrid:
    """Default (x, i) grid: radii x directions x regimes, regimes varying
    fastest.

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
    radii = np.asarray(radii, dtype=float).reshape(-1)
    regimes = np.asarray(list(regimes), dtype=np.int64)
    points = (radii[:, None, None] * np.array(dirs)[None]).reshape(-1, dim)
    return ScanGrid(
        X=np.repeat(points, len(regimes), axis=0),
        I=np.tile(regimes, len(points)),
    )
