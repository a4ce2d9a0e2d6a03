"""Finite truncations of the switching chain and their diagnostics.

The regime component alone (X frozen at a reference point, default the
origin) is a countable-state Markov chain with generator Q = (q_ij(0)).
Everything here operates on finite N x N truncations: invariant measures,
transition matrices P(t) = exp(Qt) by the matrix exponential, an
ergodicity-rate diagnostic with its time grid, and the Poisson equation
Q gamma = b that converts mean-drift data into the perturbation functions
used by the stability certificates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import integrate
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .artifacts import atomic_open
from .errors import (
    ConfigurationError,
    ContractError,
    ErgodicityError,
    NumericError,
    StructuralError,
)
from .model import RateKernel

RESIDUAL_TOL = 1e-10
MEAN_ZERO_TOL = 1e-10
FIT_R2_THRESHOLD = 0.95
MIXED_FLOOR = 1e-14

RateSeq = Union[Callable[[int], float], Sequence[float]]


@dataclass
class TruncatedChain:
    """Finite generator truncation; rows sum to zero by construction."""

    N: int
    Q: np.ndarray
    lumped_tail: bool = False
    truncation_leak: float = 0.0


@dataclass
class InvariantMeasure:
    """Probability vector nu with nu Q = 0 on the truncation.

    tail_mass estimates the measure beyond the truncation: the lumped
    boundary state's mass for lumped truncations, a geometric tail estimate
    for product-form solutions, zero for exact finite chains.
    """

    nu: np.ndarray
    residual: float
    truncation_size: int
    tail_mass: float = 0.0

    def sum(self) -> float:
        return float(np.sum(self.nu))


def truncate(
    kernel: RateKernel, N: int, mode: str = "lump", x=0.0
) -> TruncatedChain:
    """Build the N x N generator from kernel rows at the reference point.

    mode "drop" discards targets beyond N (diagonal repaired; the largest
    discarded row mass is reported as truncation_leak); mode "lump" redirects
    that mass to state N.
    """
    if N < 1:
        raise ConfigurationError(f"truncation size must be >= 1, got {N}")
    if mode not in ("drop", "lump"):
        raise ConfigurationError(f"unknown truncation mode {mode!r}")
    Q = np.zeros((N, N))
    leak = 0.0
    lumped = False
    for i in range(1, N + 1):
        out = 0.0
        for j, r in kernel.check_row(x, i):
            if r == 0.0:
                continue
            if j <= N:
                Q[i - 1, j - 1] += r
            elif mode == "lump":
                lumped = True
                if i != N:
                    Q[i - 1, N - 1] += r
                # redirecting the boundary row to itself is a diagonal no-op
            else:
                out += r
        leak = max(leak, out)
    # diagonal repair: rows of the effective generator sum to zero exactly
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return TruncatedChain(N=N, Q=Q, lumped_tail=lumped, truncation_leak=leak)


def _assert_irreducible(Q: np.ndarray) -> None:
    adj = csr_matrix((Q > 0).astype(np.int8))
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp != 1:
        raise StructuralError(
            f"truncated chain is reducible ({n_comp} strongly connected components)"
        )


def invariant_measure(chain: TruncatedChain) -> InvariantMeasure:
    """Solve nu Q = 0, sum(nu) = 1 by a direct bordered solve."""
    Q = chain.Q
    N = chain.N
    if N == 1:
        nu = np.array([1.0])
        return InvariantMeasure(nu=nu, residual=0.0, truncation_size=1, tail_mass=0.0)
    _assert_irreducible(Q)
    A = Q.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(N)
    rhs[-1] = 1.0
    try:
        nu = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        nu, *_ = np.linalg.lstsq(np.vstack([Q.T, np.ones(N)]), np.append(np.zeros(N), 1.0), rcond=None)
    if np.any(nu < -1e-9):
        raise NumericError("invariant-measure solve produced negative mass")
    nu = np.clip(nu, 0.0, None)
    nu /= np.sum(nu)
    residual = float(np.max(np.abs(nu @ Q)))
    if residual > RESIDUAL_TOL:
        raise NumericError(f"invariant-measure residual {residual:.3e} > {RESIDUAL_TOL}")
    tail = float(nu[-1]) if (chain.lumped_tail or chain.truncation_leak > 0.0) else 0.0
    return InvariantMeasure(nu=nu, residual=residual, truncation_size=N, tail_mass=tail)


def _rate_at(seq: RateSeq, i: int) -> float:
    if callable(seq):
        return float(seq(i))
    return float(seq[i - 1])


def birth_death_invariant(check_p: RateSeq, hat_p: RateSeq, K: int) -> InvariantMeasure:
    """Product-form invariant measure of a birth-death regime chain.

    check_p gives the up rates (state i -> i+1), hat_p the down rates
    (state i -> i-1, i >= 2), both at the reference point.  Weights are
    w_1 = 1, w_k = prod_{l=2}^k check_p(l-1)/hat_p(l), normalized over K
    terms, with a geometric tail estimate from the last weight ratio.
    """
    if K < 2:
        raise ConfigurationError(f"need K >= 2 product terms, got {K}")
    w = np.empty(K)
    w[0] = 1.0
    for k in range(2, K + 1):
        up = _rate_at(check_p, k - 1)
        down = _rate_at(hat_p, k)
        if down <= 0.0:
            raise StructuralError(f"down rate hat_p({k}) must be positive, got {down}")
        if up < 0.0:
            raise StructuralError(f"up rate check_p({k-1}) negative: {up}")
        w[k - 1] = w[k - 2] * (up / down)
    ratio = _rate_at(check_p, K - 1) / _rate_at(hat_p, K)
    if ratio >= 1.0:
        raise ErgodicityError(
            f"tail weight ratio {ratio} >= 1: product form diverges, chain not ergodic"
        )
    tail_raw = w[-1] * ratio / (1.0 - ratio)
    total = float(np.sum(w))
    nu = w / total
    residual = _birth_death_residual(check_p, hat_p, nu)
    return InvariantMeasure(
        nu=nu,
        residual=residual,
        truncation_size=K,
        tail_mass=float(tail_raw / total),
    )


def _birth_death_residual(check_p: RateSeq, hat_p: RateSeq, nu: np.ndarray) -> float:
    """Residual of nu against the lump-truncated birth-death generator."""
    K = nu.size

    def row(x, i):
        if i == 1:
            return ((2, _rate_at(check_p, 1)),)
        return ((i - 1, _rate_at(hat_p, i)), (i + 1, _rate_at(check_p, i)))

    chain = truncate(RateKernel(row=row, x_independent=True), K, mode="lump")
    return float(np.max(np.abs(nu @ chain.Q)))


def transition_matrix(chain: TruncatedChain, t: float) -> np.ndarray:
    """P(t) = exp(Qt), by scaling and squaring with a Pade approximant."""
    if t < 0:
        raise ConfigurationError(f"time must be nonnegative, got {t}")
    return expm(chain.Q * t)


def _distance_to(chain: TruncatedChain, t: float, pi: np.ndarray) -> float:
    """d(t) = max_i sum_j |P_ij(t) - pi_j|."""
    return float(np.max(np.abs(transition_matrix(chain, t) - pi).sum(axis=1)))


def ergodicity_times(chain: TruncatedChain, nu: InvariantMeasure) -> np.ndarray:
    """Time grid for the exponential-decay fit, anchored at the chain's
    measured half-decay time.

    The spectral gap alone misjudges chains whose worst starting state needs
    a long transport phase before the asymptotic decay shows (the distance
    sits at the ceiling until then), so probe d(t) by doubling until it has
    decayed to half and center the grid there.
    """
    if chain.N == 1:
        return np.geomspace(0.25, 10.0, 12)
    max_rate = float(np.max(-np.diag(chain.Q)))
    t = 1.0 / max_rate if max_rate > 0 else 1.0
    for _ in range(48):
        if _distance_to(chain, t, nu.nu) < 1.0:
            break
        t *= 2.0
    return np.geomspace(t / 4.0, 4.0 * t, 12)


@dataclass
class ErgodicityDiagnostic:
    """Total-variation-style distance d(t) = max_i sum_j |P_ij(t) - nu_j|
    with a log-linear fit d(t) ~ C exp(-lam t) over the tail half."""

    times: np.ndarray
    d_values: np.ndarray
    C: Optional[float]
    lam: Optional[float]
    r_squared: Optional[float]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "d_values": [float(d) for d in self.d_values],
            "C": self.C,
            "lambda": self.lam,
            "r_squared": self.r_squared,
            "verdict": self.verdict,
        }


def ergodicity_diagnostic(
    chain: TruncatedChain,
    times: Sequence[float],
    nu: Optional[InvariantMeasure] = None,
) -> ErgodicityDiagnostic:
    """Fit the decay of d(t) over the tail of the time grid.  nu is the
    chain's invariant measure; it is computed when not given."""
    times = np.asarray(times, dtype=float)
    if times.size < 4:
        raise ConfigurationError(
            f"need at least 4 grid times for the tail fit, got {times.size}"
        )
    if np.any(np.diff(times) <= 0) or times[0] <= 0:
        raise ConfigurationError("times must be positive and increasing")
    pi = (nu if nu is not None else invariant_measure(chain)).nu
    d = np.array([_distance_to(chain, t, pi) for t in times])
    tail = slice(times.size // 2, None)
    tt, dd = times[tail], d[tail]
    keep = dd > MIXED_FLOOR
    if not np.any(keep):
        return ErgodicityDiagnostic(times, d, None, None, None, "mixed")
    if np.count_nonzero(keep) < 2:
        return ErgodicityDiagnostic(times, d, None, None, None, "inconclusive")
    tt, dd = tt[keep], np.log(dd[keep])
    slope, intercept = np.polyfit(tt, dd, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((dd - pred) ** 2))
    ss_tot = float(np.sum((dd - np.mean(dd)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    lam = -float(slope)
    verdict = (
        "strongly_exponentially_ergodic"
        if lam > 0 and r2 >= FIT_R2_THRESHOLD
        else "inconclusive"
    )
    return ErgodicityDiagnostic(times, d, float(math.exp(intercept)), lam, r2, verdict)


@dataclass
class PoissonSolution:
    gamma: np.ndarray
    residual: float
    shift: float = 0.0  # mean removed from b when projection was needed


def solve_poisson(
    chain: TruncatedChain,
    nu: InvariantMeasure,
    b: np.ndarray,
    project: bool = True,
) -> PoissonSolution:
    """Solve Q gamma = b with nu-centering nu . gamma = 0.

    Requires nu . b = 0 within 1e-10; otherwise the mean is projected out
    (recorded in shift) or, with project=False, a contract error is raised.
    """
    Q = chain.Q
    b = np.asarray(b, dtype=float)
    if b.shape != (chain.N,):
        raise ConfigurationError(f"b has shape {b.shape}, want ({chain.N},)")
    mean = float(nu.nu @ b)
    shift = 0.0
    if abs(mean) > MEAN_ZERO_TOL:
        if not project:
            raise ContractError(
                f"nu . b = {mean:.3e} is not zero and projection is disabled"
            )
        b = b - mean
        shift = mean
    A = np.vstack([Q, nu.nu])
    rhs = np.append(b, 0.0)
    gamma, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    gamma = gamma - float(nu.nu @ gamma)
    residual = float(np.max(np.abs(Q @ gamma - b)))
    if residual > 1e-8:
        raise NumericError(f"Poisson-equation residual {residual:.3e} > 1e-8")
    return PoissonSolution(gamma=gamma, residual=residual, shift=shift)


def solve_poisson_integral(
    chain: TruncatedChain,
    nu: InvariantMeasure,
    b: np.ndarray,
    epsabs: float = 1e-10,
) -> np.ndarray:
    """Independent quadrature route: gamma = int_0^inf (nu.b - P(t) b) dt."""
    b = np.asarray(b, dtype=float)
    mean = float(nu.nu @ b)
    b_centered = b - mean
    scale = max(1.0, float(np.max(np.abs(b_centered))))
    T = 1.0
    for _ in range(40):
        drift = transition_matrix(chain, T) @ b_centered
        if float(np.max(np.abs(drift))) < 1e-13 * scale:
            break
        T *= 2.0
    else:
        raise NumericError("P(t) b does not relax; integral representation diverges")

    def integrand(t: float) -> np.ndarray:
        return -(transition_matrix(chain, t) @ b_centered)

    val, err = integrate.quad_vec(integrand, 0.0, T, epsabs=epsabs, epsrel=1e-10)
    if not np.all(np.isfinite(val)):
        raise NumericError("quadrature for the Poisson integral failed")
    return val


def write_measure_csv(path: str, measure: InvariantMeasure) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "nu"])
        for i, v in enumerate(measure.nu, start=1):
            writer.writerow([i, repr(float(v))])
