"""Model primitives: coefficients, switching kernels, Lyapunov data, generators.

The hybrid process is (X(t), alpha(t)): X solves dX = b(X, alpha) dt +
sigma(X, alpha) dW in R^n, alpha ranges over the positive integers and jumps
from i to j at state-dependent rate q_ij(X(t)).  The operator split is

    L f(x, i) = L_i f(x, i) + sum_{j != i} q_ij(x) [f(x, j) - f(x, i)],
    L_i V(x)  = grad V(x) . b(x, i) + (1/2) tr(hess V(x) A(x, i)),

with A = sigma sigma^T.  The drift condition L_i V <= c_i g(V) and the
reversed inequality are checked together on caller-supplied grids.

Every reader works on a batch of points: X of shape (P, n) with regimes I
of shape (P,), through batch forms that each spec completes once, when
built.  A spec built by a scenario family carries batch forms of its
callables (batch_drift, batch_V, batch_rows, ...), and point_form evaluates
a batch form at one point; a spec that has only per-point callables gets
batch forms derived through _per_point, the adapter the other way.
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

    row(x, i) returns the off-diagonal entries ((j, rate), ...) of row i at x:
    distinct integer targets j >= 1 other than i, finite nonnegative rates.
    batch_rows(X, I), if set, returns the rows at every (X[p], I[p]) as
    padded arrays (targets, rates) of shape (P, m), entry by entry in row
    order; target 0 with rate 0 pads a short row.  Built, the kernel
    completes rows: batch_rows, or without it a form derived from row, read
    when called, that checks every entry; and point_row, the row the
    simulator's float loop reads: row itself beside batch_rows, which is
    trusted as the batched engine trusts it, or else row with every entry
    checked.  Neither is a field, so dataclasses.replace rebuilds them.
    global_bound, if set, declares a bound on sup_{x,i} q_i(x), up to
    RATE_BOUND_TOL; a custom_table kernel checks it against every row when
    built, and ModelSpec.validate spot-checks it.
    The simulator thins against it: it reads rows only where an accept
    uniform falls below the bound's jump probability, and raises
    EvaluationError for a row it reads above the bound.  x_independent
    declares that no row depends on x; the simulator's float loop then keeps
    rows per regime instead of re-reading them every step, and
    scan_kernel_continuity reads no rows.  ModelSpec.validate spot-checks
    the flag: the rows at |x| = radius must equal those at 0.  Callbacks
    must accept a length-n array and, when n = 1, a bare float.
    """

    row: Callable[[np.ndarray, int], Row]
    global_bound: Optional[float] = None
    x_independent: bool = False
    batch_rows: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None

    def __post_init__(self) -> None:
        self.rows = self.batch_rows or self._rows_from_row
        self.point_row = self.row if self.batch_rows else self._checked_row

    def _checked_row(self, x, i: int) -> tuple:
        """row(x, i), once every entry is checked: distinct integer targets
        >= 1 other than i, finite nonnegative rates."""
        row = tuple(self.row(x, i))
        seen = []
        for j, r in row:
            if j < 1 or j != int(j) or j in seen:
                raise EvaluationError(f"row {i} has invalid target {j}")
            if j == i or not 0.0 <= r < math.inf:
                raise EvaluationError(f"row {i} has invalid entry ({j}, {r})")
            seen.append(j)
        return row

    def _rows_from_row(self, X: np.ndarray, I: np.ndarray) -> tuple:
        """batch_rows derived from row point by point, every row checked."""
        rows = [self._checked_row(x, i) for x, i in zip(X, I.tolist())]
        width = max(map(len, rows), default=0)
        targets = np.zeros((len(rows), width), dtype=np.int64)
        rates = np.zeros((len(rows), width))
        for p, row in enumerate(rows):
            for k, (j, r) in enumerate(row):
                targets[p, k], rates[p, k] = j, r
        return targets, rates

    def padded_rows(self, X: np.ndarray, I: np.ndarray) -> tuple:
        """rows(X, I), checked: every regime is at least 1, no target equals
        its regime or is below 1 with a nonzero rate, every rate is finite
        and nonnegative."""
        _check_regimes(I)
        targets, rates = self.rows(X, I)
        _check_entries(targets, rates, I)
        return targets, rates


def _check_entries(targets: np.ndarray, rates: np.ndarray, I: np.ndarray) -> None:
    bad = (targets == I[:, None]) | ((targets < 1) & (rates != 0.0))
    bad |= ~(rates >= 0.0) | ~np.isfinite(rates)
    if bad.any():
        p, k = np.argwhere(bad)[0]
        raise EvaluationError(f"row {I[p]} has invalid entry ({targets[p, k]}, {rates[p, k]})")


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
    batch_drift(I) and batch_diffusion(I) are optional batch forms, curried
    on the regimes: given regimes I >= 1 of shape (P,) they gather what they
    need of each regime once and return a map X -> (P, n), respectively X ->
    (P, n, d), that must agree with the callbacks.  The scenario families
    define each coefficient once, as its batch form, and take the callbacks
    from it through point_form.  Built, the spec completes drift_of and
    diffusion_of: the batch forms, or without them forms derived from the
    callbacks, read when called, that check each value's shape.  They are
    not fields, so dataclasses.replace rebuilds them.  Readers call drifts
    and diffusions, which also check that every regime is at least 1; the
    batched simulator binds drift_of and diffusion_of once per change of
    its regimes, which are at least 1.  scalar_run(i, dt), optional for
    d = 1, returns regime i's Euler map run over a stretch of steps:
    run(x, ws, a, e, lim) applies x <- x + b(x, i) dt + sigma(x, i) ws[k]
    on floats for k = a, ..., e - 1 and stops after the first step whose
    |x| is not below lim (NaN included); x is a float for n = 1 and a tuple
    of n floats otherwise, whose |x| is row_norms'.  It returns (x, ox,
    k): the state after the last step taken, the state before it, and the
    index of the step that stopped it, or e (with ox = x when a = e).  With
    it the simulator runs plain paths in its float loop, and a path must
    be the same bits as the batched engine's path from the batch forms.
    The float forms scalar_drift/scalar_diffusion (n = 1) are read only by
    bench/tracer.py.
    distinct_regimes, if set, declares the last regime with coefficients of
    its own: every regime above it has its drift and diffusion.  The
    scenario families set it from the length of their per-regime tables;
    None makes no claim.  The certificate scans evaluate the coefficients
    only in the regimes that evaluated_regimes names, and validate
    spot-checks the claim.  dataclasses.replace keeps it, so a spec rebuilt
    with other coefficients must drop or re-validate it.
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
    scalar_run: Optional[Callable[[int, float], Callable[..., tuple]]] = None
    distinct_regimes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dim < 1 or self.noise_dim < 1:
            raise ConfigurationError("dim and noise_dim must be >= 1")
        last = self.distinct_regimes
        if last is not None and not (isinstance(last, int) and last >= 1):
            raise ConfigurationError(f"distinct_regimes must be an integer >= 1, got {last!r}")
        self.drift_of = self.batch_drift or self._per_point_form("drift", (self.dim,))
        self.diffusion_of = self.batch_diffusion or self._per_point_form(
            "diffusion", (self.dim, self.noise_dim)
        )

    def _per_point_form(self, name: str, shape: tuple) -> Callable:
        """The curried batch form of the callback self.<name> through
        _per_point; every value must have the given shape."""

        def at(x, i):
            value = np.asarray(getattr(self, name)(np.asarray(x, dtype=float), i), dtype=float)
            if value.shape != shape:
                raise EvaluationError(f"{name} returned shape {value.shape}, want {shape}")
            return value

        return lambda I: lambda X: _per_point(at, X, shape, I)

    def drifts(self, X: np.ndarray, I: np.ndarray) -> np.ndarray:
        """b(X[p], I[p]) for every p, shape (P, n)."""
        _check_regimes(I)
        return self.drift_of(I)(X)

    def diffusions(self, X: np.ndarray, I: np.ndarray) -> np.ndarray:
        """sigma(X[p], I[p]) for every p, shape (P, n, d)."""
        _check_regimes(I)
        return self.diffusion_of(I)(X)

    def evaluated_regimes(self, regimes) -> tuple:
        """(evaluated, where) for a scan of the given regimes: the regimes
        whose coefficients the scan evaluates, ascending, and for each given
        regime the index in evaluated of the regime whose coefficients it
        has.  A regime above distinct_regimes has that regime's; without
        the claim each regime has its own."""
        regimes = np.asarray(regimes, dtype=np.int64)
        if self.distinct_regimes is not None:
            regimes = np.minimum(regimes, self.distinct_regimes)
        return np.unique(regimes, return_inverse=True)

    def validate(self, regimes: Iterable[int] = range(1, 6), radius: float = 0.5) -> None:
        """Spot-check standing assumptions and declared facts with one batch
        read of each coefficient and of the rows, at |x| = radius and at 0:
        the equilibrium at 0 if zero_fixed; finite coefficients and valid
        rows within the declared global bound in the given regimes; for
        distinct_regimes L, the same drift and diffusion, bit for bit, in
        every regime L, ..., 10 L + 100; for an x_independent kernel, the
        same rows at both points."""
        last = self.distinct_regimes
        claimed = () if last is None else range(last, 10 * last + 101)
        regimes = np.asarray([*regimes, *claimed], dtype=np.int64)
        k = regimes.size
        x = np.full(self.dim, radius / math.sqrt(self.dim))
        both = np.repeat(np.array([x, np.zeros(self.dim)]), k, axis=0)  # k rows at x, then k at 0
        n_points = 2 if self.zero_fixed else 1
        X, I = both[: n_points * k], np.tile(regimes, n_points)
        for name, v in (("drift", self.drifts(X, I)), ("diffusion", self.diffusions(X, I))):
            axes = tuple(range(1, v.ndim))
            moved = np.abs(v[k:]).max(axis=axes, initial=0.0) > 1e-12
            if moved.any():
                raise EvaluationError(
                    f"{name}(0, {regimes[moved.argmax()]}) != 0 but zero_fixed is set"
                )
            bad = ~np.isfinite(v[:k]).all(axis=axes)
            if bad.any():
                raise EvaluationError(
                    f"{name} non-finite at |x|={radius}, regime {regimes[bad.argmax()]}"
                )
            if claimed:
                bits = v.reshape(n_points, k, -1)[:, k - len(claimed) :].view(np.uint64)
                differs = (bits[:, 1:] != bits[:, :1]).any(axis=(0, 2))
                if differs.any():
                    raise EvaluationError(
                        f"{name} differs between regimes {last} and "
                        f"{claimed[differs.argmax() + 1]}, but distinct_regimes is {last}"
                    )
        targets, rates = self.rate_kernel.padded_rows(both, np.tile(regimes, 2))
        bound = self.rate_kernel.global_bound
        if bound is not None:
            over = rates.sum(axis=1) > bound + RATE_BOUND_TOL
            if over.any():
                i = regimes[over.argmax() % k]
                raise EvaluationError(f"row {i} exceeds declared global bound")
        if self.rate_kernel.x_independent and not (
            np.array_equal(targets[:k], targets[k:]) and np.array_equal(rates[:k], rates[k:])
        ):
            raise EvaluationError(
                f"rows at |x|={radius} differ from the rows at 0, but the kernel "
                "declares x_independent"
            )


@dataclass
class LyapunovSpec:
    """Lyapunov data: V, its profile g, the per-regime coefficients c_i.

    V must be positive away from 0 with V(0) = 0 on the domain ball; grad_V
    and hess_V are optional (central finite differences otherwise).  c(i)
    gives the drift-condition coefficient for regime i, |c(i)| <= c_bound.
    batch_V, batch_grad_V and batch_hess_V map X of shape (P, n) to shapes
    (P,), (P, n) and (P, n, n); they are optional.  Built, the spec
    completes values, gradients and hessians, like ModelSpec: the batch
    forms, or forms derived from V, grad_V and hess_V.  The scenario families
    define only the batch forms, and take V from batch_V through point_form.
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

    def __post_init__(self) -> None:
        self.values = self.batch_V or (lambda X: _per_point(self.V, X, ()))
        self.gradients = self.batch_grad_V or (lambda X: _per_point(self._grad, X, X.shape[1:]))
        self.hessians = self.batch_hess_V or (
            lambda X: _per_point(self._hess, X, X.shape[1:] + X.shape[1:])
        )

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return _fd_gradient(self.V, x) if self.grad_V is None else self.grad_V(x)

    def _hess(self, x: np.ndarray) -> np.ndarray:
        return _fd_hessian(self.V, x) if self.hess_V is None else self.hess_V(x)

    def c_vector(self, n: int) -> np.ndarray:
        return np.array([float(self.c(i)) for i in range(1, n + 1)])

    def validate(
        self,
        dim: int,
        sample_radii: Sequence[float] = (1e-3, 1e-1),
        regimes: Iterable[int] = range(1, 50),
    ) -> None:
        """Spot-check V(0) = 0 and V > 0 at the sample radii, in one batch
        read of V, and |c_i| <= c_bound in the given regimes."""
        radii = np.array([0.0, *sample_radii])
        X = np.repeat(radii[:, None] / math.sqrt(dim), dim, axis=1)
        v0, *away = self.values(X).tolist()
        if abs(v0) > 1e-14:
            raise EvaluationError(f"V(0) = {v0}, expected 0")
        for r, v in zip(sample_radii, away):
            if not v > 0.0:
                raise EvaluationError(f"V not positive at |x| = {r}")
        for i in regimes:
            if abs(float(self.c(i))) > self.c_bound + 1e-12:
                raise EvaluationError(f"|c({i})| exceeds c_bound = {self.c_bound}")


def _per_point(fn: Callable, X: np.ndarray, shape: tuple, I=None) -> np.ndarray:
    """fn(X[p], I[p]) for every p, or fn(X[p]) without I, as one array of
    shape (P,) + shape: the adapter that evaluates a callable taking one
    point on a batch of points."""
    values = [fn(x) for x in X] if I is None else [fn(x, i) for x, i in zip(X, I.tolist())]
    return np.array(values, dtype=float).reshape((len(X),) + shape)


def point_form(batch: Callable, dim: int) -> Callable:
    """The inverse of _per_point: the per-point view of a batch form,
    evaluated as a batch of one.  For a form of X alone (batch_V) it is
    fn(x) = batch(X)[0]; for a form curried on the regimes (batch_drift) it
    is fn(x, i) = batch([i])(X)[0], which rejects a regime below 1."""

    def fn(x, *i):
        X = np.asarray(x, dtype=float).reshape(1, dim)
        if not i:
            return batch(X)[0]
        _check_regime(i[0])
        return batch(np.array(i))(X)[0]

    return fn


def running_dot(us, vs):
    """The sum of u * v over the pairs of floats us and vs, in their order:
    the one summation order of the linear families' products and of the
    norms, which mat_vecs and row_norms follow on arrays.  numpy multiplies
    and adds arrays element by element, rounding each operation as Python
    rounds floats, so the array sums equal those of the float loop's Euler
    maps bit for bit on every CPU; matmul and vecdot leave the order, and
    the use of fused multiply-adds, to BLAS and SIMD dispatch."""
    pairs = zip(us, vs)
    u, v = next(pairs)
    total = u * v
    for u, v in pairs:
        total += u * v
    return total


def mat_vecs(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map X -> (M[p] @ X[p] for every p), each entry summed in
    running_dot's order: for M of shape (P, ..., m), X of shape (P, m) gives
    shape (P, ...).  All products are taken in one multiply and summed
    column by column, m ufunc calls in all."""
    at = (slice(None),) + (None,) * (M.ndim - 2)
    rest = range(1, M.shape[-1])

    def products(X):
        terms = M * X[at]
        total = terms[..., 0]
        for c in rest:
            total = total + terms[..., c]
        return total

    return products


def row_norms(X: np.ndarray) -> np.ndarray:
    """|X[p]| for every row p: the square root of running_dot(x, x), the
    order in which the float loop's Euler maps take |x|; the squares are
    taken in one multiply and summed column by column."""
    squares = X * X
    total = squares[:, 0]
    for c in range(1, X.shape[1]):
        total = total + squares[:, c]
    return np.sqrt(total)


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
    X, I = np.asarray(x, dtype=float).reshape(1, spec.dim), np.array([i])
    x = X[0]
    fi = lambda y: float(f(y, i))
    grad = _fd_gradient(fi, x)
    hess = _fd_hessian(fi, x)
    b = spec.drifts(X, I)[0]
    sig = spec.diffusions(X, I)[0]
    val = float(grad @ b) + 0.5 * float(np.trace(hess @ (sig @ sig.T)))
    here = float(f(x, i))
    targets, rates = spec.rate_kernel.padded_rows(X, I)
    for j, r in zip(targets[0].tolist(), rates[0].tolist()):
        if j >= 1:  # target 0 pads the row
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
    """Scan points as a product: every point of points, shape (m, n), in
    every regime of regimes, shape (K,), regimes varying fastest, so that
    row p is (points[p // K], regimes[p % K]).  X and I are the rows as
    arrays, shapes (m K, n) and (m K,); iterating yields the (x, i) pairs.
    Regimes are positive integers."""

    points: np.ndarray
    regimes: np.ndarray

    def __post_init__(self) -> None:
        _check_regimes(self.regimes)

    def __len__(self) -> int:
        return len(self.points) * len(self.regimes)

    @property
    def X(self) -> np.ndarray:
        return np.repeat(self.points, len(self.regimes), axis=0)

    @property
    def I(self) -> np.ndarray:
        return np.tile(self.regimes, len(self.points))

    def row(self, p: int) -> tuple:
        """Row p as (x, i)."""
        a, k = divmod(int(p), len(self.regimes))
        return self.points[a], int(self.regimes[k])

    def __iter__(self):
        return zip(self.X, self.I.tolist())


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
        x, i = self.grid.row(p)
        return DriftViolation(x=x, regime=i, residual=float(self.residuals[p]))

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
    grid: ScanGrid,
    tol: float = DRIFT_TOL,
) -> DriftReport:
    """Evaluate L_i V(x) - c_i g(V(x)) at every row of the grid and report
    both inequalities.  L_i V is computed once per point and regime of
    spec.evaluated_regimes, and a regime without coefficients of its own
    takes the value of the regime whose coefficients it has; V is computed
    once per point.  Points at the origin or outside the domain ball are
    rejected."""
    if len(grid) == 0:
        raise ConfigurationError("empty drift-condition grid")
    points = grid.points
    r = row_norms(points)
    outside = (r == 0.0) | (r > lyap.domain_radius * (1.0 + 1e-12))
    if outside.any():
        raise DomainError(
            f"drift-condition grid point |x| = {r[np.argmax(outside)]} "
            f"outside (0, {lyap.domain_radius}]"
        )
    evaluated, where = spec.evaluated_regimes(grid.regimes)
    scan = ScanGrid(points, evaluated)
    li = generator_Li(spec, lyap, scan.X, scan.I).reshape(len(points), -1)[:, where]
    c = np.array([float(lyap.c(i)) for i in grid.regimes.tolist()])
    bound = lyap.g.g(lyap.values(points))[:, None] * c
    forward = (li - bound).reshape(-1)
    backward = (bound - li).reshape(-1)
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
        dirs = np.asarray(directions, dtype=float)
        dirs = dirs / row_norms(dirs)[:, None]
    radii = np.asarray(radii, dtype=float).reshape(-1)
    regimes = np.asarray(list(regimes), dtype=np.int64)
    return ScanGrid((radii[:, None, None] * np.array(dirs)[None]).reshape(-1, dim), regimes)
