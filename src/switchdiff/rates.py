"""Decay-envelope calculus for Lyapunov functions.

A rate profile is a function g from the family Gamma: increasing, continuously
differentiable on [0, 1], with g(y) = 0 iff y = 0, together with an anchor
h > 0 bounding the Lyapunov values of interest.  The envelope transform

    G(y) = -int_y^h dz / g(z),        y in (0, h],

maps (0, h] increasingly onto (-inf, 0]; its inverse G_inverse(s) recovers the
envelope value.  A certified rate lam for a path means
V(X(t)) <= G_inverse(-lam * t) eventually; estimate_pathwise_rate scans a
lambda grid for the largest rate whose (1 - epsilon)-quantile of the pathwise
sup-ratio statistic stays at or below one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

from .artifacts import atomic_open
from .errors import ConfigurationError, DomainError, NumericError, RateEstimationError

# Below this Lyapunov value the custom-g quadrature is not attempted; G is
# reported as -inf (the envelope is already tighter than anything measurable).
CUSTOM_G_FLOOR = 1e-12

# Default lambda grid for rate estimation: 64 logarithmic points.
LAMBDA_GRID_MIN = 1e-4
LAMBDA_GRID_MAX = 1e2
LAMBDA_GRID_SIZE = 64

# Sup-ratios are capped here before taking quantiles: an underflowed envelope
# makes the ratio infinite, which decides the test identically but would
# poison quantile interpolation and JSON export.
RATIO_CAP = 1e300

# Element budget of one (lambda x time) block of the sup-ratio scan.  Rows of
# the lambda grid are processed max(1, SUP_RATIO_BLOCK // n_times) at a time,
# so each temporary holds one block (64 kB here, or one lambda row of a longer
# path) instead of the whole grid.  Larger blocks measured no faster and
# raised peak memory.
SUP_RATIO_BLOCK = 8192

_VALID_KINDS = ("identity", "power_1_plus_gamma", "custom")


@dataclass
class RateProfile:
    """A member g of the admissible family plus the anchor h.

    kind is one of "identity" (g(y) = y), "power_1_plus_gamma"
    (g(y) = y**(1+gamma), gamma in (0,1)), or "custom" (callable g).  Custom
    profiles are validated on a grid at construction.
    """

    kind: str
    h: float
    gamma: Optional[float] = None
    g_fn: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ConfigurationError(f"unknown profile kind {self.kind!r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ConfigurationError(f"profile anchor h must be positive, got {self.h}")
        if self.kind == "power_1_plus_gamma":
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ConfigurationError(
                    f"power profile needs gamma in (0, 1), got {self.gamma}"
                )
        if self.kind == "custom":
            if self.g_fn is None:
                raise ConfigurationError("custom profile needs a g callable")
            _validate_custom_g(self.g_fn)

    def g(self, y):
        """Evaluate g at y (scalar or array), y >= 0."""
        if self.kind == "identity":
            return np.asarray(y, dtype=float) if np.ndim(y) else float(y)
        if self.kind == "power_1_plus_gamma":
            return np.power(y, 1.0 + self.gamma)
        if np.ndim(y):
            return np.array([self.g_fn(float(v)) for v in np.ravel(y)]).reshape(np.shape(y))
        return float(self.g_fn(float(y)))


def identity_profile(h: float = 1.0) -> RateProfile:
    return RateProfile(kind="identity", h=h)


def power_profile(gamma: float, h: float = 1.0) -> RateProfile:
    return RateProfile(kind="power_1_plus_gamma", h=h, gamma=gamma)


def custom_profile(g: Callable[[float], float], h: float = 1.0) -> RateProfile:
    return RateProfile(kind="custom", h=h, g_fn=g)


def _validate_custom_g(g: Callable[[float], float]) -> None:
    """Grid check of the family-membership conditions on [0, 1]."""
    ys = np.linspace(0.0, 1.0, 512)
    vals = np.array([g(float(y)) for y in ys])
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("custom g returned non-finite values on [0, 1]")
    if abs(vals[0]) > 1e-14:
        raise ConfigurationError(f"custom g must satisfy g(0) = 0, got {vals[0]}")
    if np.any(vals[1:] <= 0.0):
        raise ConfigurationError("custom g must be positive for y > 0")
    if np.any(np.diff(vals) <= 0.0):
        raise ConfigurationError("custom g must be strictly increasing on [0, 1]")


def _check_y(profile: RateProfile, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    bad = ~np.isfinite(y) | (y <= 0.0)
    if np.any(bad):
        raise DomainError(f"G is defined on (0, h]; got y = {y[bad].flat[0]}")
    over = y > profile.h * (1.0 + 1e-12)
    if np.any(over):
        raise DomainError(
            f"G is defined on (0, h] with h = {profile.h}; got y = {y[over].flat[0]}"
        )
    return np.minimum(y, profile.h)


def _float_if_scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def G(profile: RateProfile, y):
    """Envelope transform G(y) = -int_y^h dz/g(z); vectorizes over y.

    Returns a float for scalar y and an array of y's shape otherwise.
    """
    y = _check_y(profile, y)
    h = profile.h
    if profile.kind == "identity":
        out = np.log(y / h)
    elif profile.kind == "power_1_plus_gamma":
        gam = profile.gamma
        out = (h ** (-gam) - y ** (-gam)) / gam
    else:
        out = np.array([_quad_G(profile, float(v)) for v in y.ravel()]).reshape(y.shape)
    return _float_if_scalar(out)


def _quad_G(profile: RateProfile, y: float) -> float:
    if y < CUSTOM_G_FLOOR:
        return -math.inf
    val, err = integrate.quad(
        lambda z: 1.0 / profile.g_fn(z), y, profile.h, epsabs=1e-10, epsrel=1e-10, limit=200
    )
    return -float(val)


def G_inverse(profile: RateProfile, s):
    """Inverse of G: maps s <= 0 to y in (0, h].  Vectorizes over s.

    Returns a float for scalar s and an array of s's shape otherwise.
    """
    s = np.asarray(s, dtype=float)
    over = s > 1e-12
    if np.any(over):
        raise DomainError(f"G_inverse is defined on (-inf, 0]; got s = {s[over].flat[0]}")
    s = np.minimum(s, 0.0)
    h = profile.h
    if profile.kind == "identity":
        out = h * np.exp(s)
    elif profile.kind == "power_1_plus_gamma":
        gam = profile.gamma
        out = (h ** (-gam) - gam * s) ** (-1.0 / gam)
    else:
        out = np.array([_bisect_G(profile, float(v)) for v in s.ravel()]).reshape(s.shape)
    return _float_if_scalar(out)


def _bisect_G(profile: RateProfile, s: float) -> float:
    """Bisection fallback for custom profiles (G is increasing in y)."""
    if s == 0.0:
        return profile.h
    hi = profile.h
    lo = profile.h
    # expand downward until G(lo) <= s
    for _ in range(200):
        lo *= 0.5
        if lo < CUSTOM_G_FLOOR:
            return lo  # envelope below the quadrature floor
        if _quad_G(profile, lo) <= s:
            break
    else:
        raise NumericError(f"bisection for G_inverse({s}) failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _quad_G(profile, mid) <= s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def default_lambda_grid() -> np.ndarray:
    return np.geomspace(LAMBDA_GRID_MIN, LAMBDA_GRID_MAX, LAMBDA_GRID_SIZE)


@dataclass
class RateEstimate:
    """Result of the pathwise envelope-rate scan."""

    lambda_hat: Optional[float]
    quantile_curve: list = field(default_factory=list)  # (lambda, quantile, n_surviving)
    n_paths: int = 0
    n_excluded: int = 0
    epsilon: float = 0.05
    T0: float = 0.0

    def to_dict(self) -> dict:
        return {
            "lambda_hat": self.lambda_hat,
            "n_paths": self.n_paths,
            "n_excluded": self.n_excluded,
            "epsilon": self.epsilon,
            "T0": self.T0,
            "quantile_curve": [
                {"lambda": lam, "quantile": q, "n_surviving": n}
                for lam, q, n in self.quantile_curve
            ],
        }


def _lyapunov_values(lyap, xs: np.ndarray) -> np.ndarray:
    """V at every recorded point: a LyapunovSpec's batch values, or V point
    by point for a bare callable or any object with a V attribute."""
    if hasattr(lyap, "values"):
        return lyap.values(xs)
    V = getattr(lyap, "V", lyap)
    return np.array([float(V(np.asarray(x, dtype=float))) for x in xs])


def sup_ratios(
    ts: np.ndarray, vs: np.ndarray, profile: RateProfile, lambdas: np.ndarray
) -> np.ndarray:
    """R(lam) = max_k vs[k] / G_inverse(-lam * ts[k]) for every lam in lambdas.

    A point with V = 0 contributes 0; an envelope that underflows to 0 while
    V > 0 makes the ratio infinite.  Each R is capped at RATIO_CAP.  The
    (lambda x time) grid is evaluated in blocks of SUP_RATIO_BLOCK elements.
    """
    out = np.empty(lambdas.size)
    step = max(1, SUP_RATIO_BLOCK // ts.size)
    for start in range(0, lambdas.size, step):
        lam = lambdas[start : start + step, None]
        env = G_inverse(profile, -lam * ts)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.where(vs == 0.0, 0.0, vs / env)
        r = np.where((env == 0.0) & (vs > 0.0), np.inf, r)
        out[start : start + step] = np.minimum(r.max(axis=1), RATIO_CAP)
    return out


def estimate_pathwise_rate(
    trajectories: Sequence,
    lyap,
    profile: RateProfile,
    T0: float,
    epsilon: float = 0.05,
    lambdas: Optional[np.ndarray] = None,
) -> RateEstimate:
    """Largest grid rate whose (1-epsilon)-quantile sup-ratio is <= 1.

    Per surviving path the statistic is
    R(lam) = sup_{t in [T0, T]} V(X(t)) / G_inverse(-lam * t) over the recorded
    grid.  Paths that exited the ball or blew up are excluded and counted.
    """
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if lambdas is None:
        lambdas = default_lambda_grid()
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0 or np.any(np.diff(lambdas) <= 0) or lambdas[0] <= 0:
        raise ConfigurationError("lambda grid must be positive and increasing")

    rows = []
    n_excluded = 0
    for traj in trajectories:
        if getattr(traj, "exited", False) or getattr(traj, "blew_up", False):
            n_excluded += 1
            continue
        mask = traj.times >= T0
        if not np.any(mask):
            raise ConfigurationError(
                f"no recorded times at or beyond T0 = {T0}; shrink T0 or record more"
            )
        vs = _lyapunov_values(lyap, traj.x_path[mask])
        rows.append(sup_ratios(traj.times[mask], vs, profile, lambdas))
    if not rows:
        raise RateEstimationError("all paths exited or blew up; nothing to estimate")

    n_surviving = len(rows)
    qs = np.quantile(np.array(rows), 1.0 - epsilon, axis=0)
    curve = [(float(lam), float(q), n_surviving) for lam, q in zip(lambdas, qs)]
    passed = lambdas[qs <= 1.0 + 1e-12]
    lambda_hat = float(passed[-1]) if passed.size else None

    return RateEstimate(
        lambda_hat=lambda_hat,
        quantile_curve=curve,
        n_paths=len(trajectories),
        n_excluded=n_excluded,
        epsilon=epsilon,
        T0=T0,
    )


def write_quantile_curve(path: str, estimate: RateEstimate) -> None:
    """CSV export of the quantile curve: (lambda, quantile, n_surviving)."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "quantile", "n_surviving"])
        for lam, q, n in estimate.quantile_curve:
            writer.writerow([repr(lam), repr(q), n])
