"""Stability and instability certificates for the hybrid system.

Certificates combine grid evidence: a drift-condition scan L_i V <= c_i g(V)
(read in reverse for instability), the averaged coefficient
sum c_i nu_i over a chain truncation with a conservative tail bound, tail
behavior of the c_i sequence, finiteness of M_g = sup |V_x sigma / g(V)|,
and continuity of the switching kernel at the origin.  Numeric scans are
grid evidence, not proof; every report carries its cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .markov_chain import ErgodicityDiagnostic, InvariantMeasure, seq_term
from .model import LyapunovSpec, ModelSpec, RateKernel, ScanGrid, radial_grid, row_norms

K_SCAN_FLOOR = 100
K_SCAN_FACTOR = 4
MG_GROWTH_FACTOR = 30.0  # small-radius blow-up threshold for the M_g scan
KERNEL_VANISH_ABS = 1e-6
KERNEL_VANISH_REL = 1e-2
ERGODIC_RESIDUAL_TOL = 1e-8

CSeq = Union[Callable[[int], float], Sequence[float]]

THEOREMS = ("T3_1", "T3_2", "T3_3", "T3_5_ergodic", "T3_5_strong")
_INSTABILITY = ("T3_5_ergodic", "T3_5_strong")


def k_scan(n_trunc: int) -> int:
    return max(K_SCAN_FACTOR * n_trunc, K_SCAN_FLOOR)


@dataclass
class MeanDriftResult:
    """Sum c_i nu_i over the truncation with a certified-sign tail bound."""

    value: float
    tail_bound: float
    sign: str  # negative | positive | indeterminate

    def to_dict(self) -> dict:
        return {"value": self.value, "tail_bound": self.tail_bound, "sign": self.sign}


def _tail_allowance(bound: float, nu: InvariantMeasure) -> float:
    """Allowance for coefficients bounded by bound outside the truncation:
    the unassigned probability mass plus twice the estimated beyond-truncation
    mass (the boundary state's coefficient stands in for the whole tail, hence
    the factor 2)."""
    unassigned = max(0.0, 1.0 - nu.sum())
    return bound * (unassigned + 2.0 * nu.tail_mass)


def mean_drift_criterion(
    c: CSeq, nu: InvariantMeasure, c_bound: Optional[float] = None
) -> MeanDriftResult:
    """Evaluate sum_i c_i nu_i on the truncation.

    The tail bound is _tail_allowance at c_bound.  The sign is certified only
    when the value clears its own tail bound.
    """
    n = nu.truncation_size
    cs = np.array([seq_term(c, i) for i in range(1, n + 1)])
    if not np.all(np.isfinite(cs)):
        raise ConfigurationError("c_i non-finite on the truncation")
    bound = float(np.max(np.abs(cs))) if c_bound is None else float(c_bound)
    if np.max(np.abs(cs)) > bound * (1 + 1e-12):
        raise ConfigurationError(
            f"max |c_i| = {np.max(np.abs(cs))} exceeds declared bound {bound}"
        )
    value = float(cs @ nu.nu)
    tail = _tail_allowance(bound, nu)
    if value + tail < 0.0:
        sign = "negative"
    elif value - tail > 0.0:
        sign = "positive"
    else:
        sign = "indeterminate"
    return MeanDriftResult(value=value, tail_bound=tail, sign=sign)


def _positive_sup(values: np.ndarray, axis=None):
    """The largest positive value, 0.0 if there is none; NaN is skipped."""
    return np.where(values > 0.0, values, 0.0).max(axis=axis, initial=0.0)


@dataclass
class MgScan:
    """Grid evidence for M_g = sup |V_x(x) sigma(x, i)| / g(V(x)) < inf."""

    sup_value: float
    finite: bool
    radii: np.ndarray
    values_by_radius: np.ndarray
    regimes_scanned: int

    def to_dict(self) -> dict:
        return {
            "sup_value": self.sup_value,
            "finite": self.finite,
            "radii": [float(r) for r in self.radii],
            "values_by_radius": [float(v) for v in self.values_by_radius],
            "regimes_scanned": self.regimes_scanned,
        }


def scan_mg(
    spec: ModelSpec,
    lyap: LyapunovSpec,
    radii: Optional[Sequence[float]] = None,
    regimes: Optional[Sequence[int]] = None,
) -> MgScan:
    """Scan the martingale-coefficient ratio down to tiny radii.

    finite is declared False when the ratio at the smallest radii exceeds
    MG_GROWTH_FACTOR times its level on the outer half of the scan (or is
    non-finite anywhere): that is the signature of a sup diverging as x -> 0.
    """
    if radii is None:
        radii = np.geomspace(1e-9, lyap.domain_radius, 37)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii[0] <= 0 or radii[-1] > lyap.domain_radius * (1 + 1e-12):
        raise ConfigurationError("scan radii must lie in (0, domain_radius]")
    if regimes is None:
        regimes = range(1, K_SCAN_FLOOR + 1)
    grid = radial_grid(spec.dim, radii, regimes)
    # a regime without coefficients of its own repeats the ratios of the
    # regime whose coefficients it has, so the sup over the evaluated
    # regimes is the sup over the requested ones; V, g(V) and grad V depend
    # on x alone: evaluate them once per point and repeat them across the
    # regimes, which vary fastest in the grid
    evaluated, _ = spec.evaluated_regimes(grid.regimes)
    scan = ScanGrid(grid.points, evaluated)
    gv = np.repeat(lyap.g.g(lyap.values(grid.points)), evaluated.size)
    grad = np.repeat(lyap.gradients(grid.points), evaluated.size, axis=0)
    num = row_norms(np.matmul(grad[:, None, :], spec.diffusions(scan.X, scan.I))[:, 0, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gv == 0.0, np.where(num > 0.0, math.inf, 0.0), num / gv)
    values = _positive_sup(ratio.reshape(radii.size, -1), axis=1)

    finite = bool(np.all(np.isfinite(values)))
    if finite and radii.size >= 8:
        inner = float(np.max(values[: max(2, radii.size // 6)]))
        outer = float(np.max(values[radii.size // 2 :]))
        if inner > MG_GROWTH_FACTOR * max(outer, 1e-300):
            finite = False
    return MgScan(
        sup_value=float(np.max(values)),
        finite=finite,
        radii=radii,
        values_by_radius=values,
        regimes_scanned=grid.regimes.size,
    )


def _row_distance(t1: np.ndarray, r1: np.ndarray, t2: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """sum_j |q1_j - q2_j| over the union of targets, row by row, of two
    batches of padded rows (targets, rates).

    One pass per target column of t2: a row's targets are distinct, so each
    entry of matched receives at most one nonzero rate and its value does not
    depend on the order of the passes.  The final row sums stay whole-row
    reductions, which numpy groups differently from a running sum once a row
    has 8 or more entries.
    """
    matched = np.zeros(r1.shape)
    unmatched = r2.copy()
    for b in range(t2.shape[1]):
        same = t1 == t2[:, b, None]
        matched += np.where(same, r2[:, b, None], 0.0)
        unmatched[same.any(axis=1), b] = 0.0
    return np.abs(r1 - matched).sum(axis=1) + np.abs(unmatched).sum(axis=1)


@dataclass
class KernelContinuityScan:
    """Grid evidence for sup_i sum_j |q_ij(x) - q_ij(0)| -> 0 as x -> 0."""

    radii: np.ndarray
    s_values: np.ndarray
    vanishing: bool
    regimes_scanned: int

    def to_dict(self) -> dict:
        return {
            "radii": [float(r) for r in self.radii],
            "s_values": [float(v) for v in self.s_values],
            "vanishing": self.vanishing,
            "regimes_scanned": self.regimes_scanned,
        }


def scan_kernel_continuity(
    kernel: RateKernel,
    dim: int,
    radii: Optional[Sequence[float]] = None,
    regimes: Optional[Sequence[int]] = None,
) -> KernelContinuityScan:
    """Evaluate s(r) = max over directions of sup_i sum_j |q_ij(x) - q_ij(0)|.

    vanishing requires the innermost value to fall below an absolute floor or
    below 1% of the largest scanned value.  A kernel that declares
    x_independent has s = 0 at every radius, and no row is read.
    """
    if radii is None:
        radii = np.geomspace(1e-6, 0.5, 25)
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii[0] <= 0:
        raise ConfigurationError("scan radii must be positive")
    if regimes is None:
        regimes = range(1, K_SCAN_FLOOR + 1)
    # the grid at radius r is r * unit.X, the product radial_grid itself
    # forms; it runs through the regimes once per direction, so the rows at
    # the origin tile it
    unit = radial_grid(dim, [1.0], regimes)
    regimes = unit.regimes
    s = np.zeros(radii.size)
    if not kernel.x_independent:
        X, I = unit.X, unit.I
        base_t, base_r = kernel.padded_rows(np.zeros((regimes.size, dim)), regimes)
        base_t, base_r = (np.tile(base, (len(unit.points), 1)) for base in (base_t, base_r))
        for k, r in enumerate(radii):
            # one radius at a time keeps temporaries at directions x regimes rows
            here_t, here_r = kernel.padded_rows(r * X, I)
            s[k] = _positive_sup(_row_distance(here_t, here_r, base_t, base_r))
    s_max = float(np.max(s))
    vanishing = bool(s[0] <= max(KERNEL_VANISH_ABS, KERNEL_VANISH_REL * s_max))
    return KernelContinuityScan(
        radii=radii, s_values=s, vanishing=vanishing, regimes_scanned=regimes.size
    )


@dataclass
class CriterionReport:
    """Outcome of one certificate: hypothesis map plus certified verdict."""

    theorem: str
    mean_drift: float
    tail_bound: float
    limsup_tail_c: float
    hypotheses: dict
    verdict: str
    scan_cutoffs: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "hypotheses": dict(self.hypotheses),
            "mean_drift": self.mean_drift,
            "tail_bound": self.tail_bound,
            "limsup_tail_c": self.limsup_tail_c,
            "verdict": self.verdict,
            "scan_cutoffs": dict(self.scan_cutoffs),
            "notes": list(self.notes),
        }


_HYPOTHESES = {
    # criterion -> its hypotheses, in report order
    "T3_1": ("strong_ergodicity", "kernel_continuity", "g_is_identity",
             "drift_condition", "c_bounded", "mean_drift_negative"),
    "T3_2": ("ergodicity", "drift_condition", "c_bounded",
             "limsup_tail_c_negative", "mg_finite", "mean_drift_negative"),
    "T3_3": ("strong_ergodicity", "kernel_continuity", "drift_condition",
             "c_bounded", "mg_finite", "mean_drift_negative"),
    "T3_5_ergodic": ("ergodicity", "reversed_drift_condition", "c_bounded",
                     "liminf_tail_c_positive", "mg_finite", "mean_drift_positive"),
    "T3_5_strong": ("strong_ergodicity", "kernel_continuity", "reversed_drift_condition",
                    "c_bounded", "mg_finite", "mean_drift_positive"),
}
# hypotheses a criterion also reports, last, when their evidence is supplied
_OPTIONAL = {"T3_2": ("kernel_continuity",)}
# hypothesis -> the evidence object that supplies it
_EVIDENCE = {
    "strong_ergodicity": "ergodicity_diag",
    "kernel_continuity": "kernel_scan",
    "drift_condition": "drift_report",
    "reversed_drift_condition": "drift_report",
    "mg_finite": "mg_scan",
}
# criterion -> the evidence objects it needs, in hypothesis order
REQUIRED = {
    which: tuple(dict.fromkeys(_EVIDENCE[h] for h in names if h in _EVIDENCE))
    for which, names in _HYPOTHESES.items()
}


def check_theorem_hypotheses(
    which: str,
    lyap: LyapunovSpec,
    nu: InvariantMeasure,
    drift_report=None,
    mg_scan: Optional[MgScan] = None,
    kernel_scan: Optional[KernelContinuityScan] = None,
    ergodicity: Optional[ErgodicityDiagnostic] = None,
) -> CriterionReport:
    """Assemble the certificate for one criterion from scan evidence.

    Stability criteria read the forward view of the drift scan; the
    instability criteria read the reversed view and need a positive averaged
    drift and (for the ergodic variant) a positive tail of c_i.  A missing
    required input raises a configuration error naming the gap.
    """
    if which not in THEOREMS:
        raise ConfigurationError(f"unknown criterion {which!r}; choose from {THEOREMS}")
    provided = {
        "ergodicity_diag": ergodicity,
        "kernel_scan": kernel_scan,
        "drift_report": drift_report,
        "mg_scan": mg_scan,
    }
    missing = [name for name in REQUIRED[which] if provided[name] is None]
    if missing:
        raise ConfigurationError(
            f"{which} needs inputs that were not supplied: {', '.join(missing)}"
        )
    instability = which in _INSTABILITY
    drift = drift_report.reversed if instability else drift_report.forward

    K = k_scan(nu.truncation_size)
    k0 = K // 2
    tail_cs = np.array([seq_term(lyap.c, i) for i in range(k0 + 1, K + 1)])
    all_cs = np.array([seq_term(lyap.c, i) for i in range(1, K + 1)])
    limsup_tail = float(np.max(tail_cs))
    liminf_tail = float(np.min(tail_cs))
    md = mean_drift_criterion(lyap.c, nu, c_bound=lyap.c_bound)

    notes = []
    strong_ok = None
    if ergodicity is not None:
        strong_ok = ergodicity.verdict in ("strongly_exponentially_ergodic", "mixed")
        if ergodicity.verdict == "mixed":
            notes.append("distance to nu hit the numerical floor: treated as strong ergodicity evidence")
    ergodic_ok = nu.residual <= ERGODIC_RESIDUAL_TOL
    checks = {
        "strong_ergodicity": strong_ok,
        "ergodicity": ergodic_ok if strong_ok is None else (ergodic_ok or strong_ok),
        "kernel_continuity": None if kernel_scan is None else kernel_scan.vanishing,
        "g_is_identity": lyap.g.kind == "identity",
        "drift_condition": drift.ok,
        "reversed_drift_condition": drift.ok,
        "c_bounded": bool(np.max(np.abs(all_cs)) <= lyap.c_bound * (1 + 1e-12)),
        "limsup_tail_c_negative": limsup_tail < 0.0,
        "liminf_tail_c_positive": liminf_tail > 0.0,
        "mg_finite": None if mg_scan is None else mg_scan.finite,
        "mean_drift_negative": md.sign == "negative",
        "mean_drift_positive": md.sign == "positive",
    }
    names = _HYPOTHESES[which]
    if kernel_scan is not None:
        names += _OPTIONAL.get(which, ())
    hyp = {
        name: "unchecked" if checks[name] is None else ("holds" if checks[name] else "fails")
        for name in names
    }

    all_hold = all(v == "holds" for v in hyp.values())
    if all_hold:
        verdict = "unstable_certified" if instability else "stable_certified"
    else:
        verdict = "inconclusive"
    notes.append("numeric scans are grid evidence, not proof")
    return CriterionReport(
        theorem=which,
        mean_drift=md.value,
        tail_bound=md.tail_bound,
        limsup_tail_c=limsup_tail,
        hypotheses=hyp,
        verdict=verdict,
        scan_cutoffs={
            "K_scan": K,
            "tail_window_start": k0 + 1,
            "truncation_size": nu.truncation_size,
            "drift_grid_points": drift.n_checked,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Linearization at the origin


@dataclass
class LinearizationData:
    """Per-regime linear parts at 0 and their eigenvalue summaries.

    Lam1[i] / lam1[i]: extreme eigenvalues of the symmetric part of b(i);
    Lam2[i][k] / lam2[i][k]: extreme eigenvalues of sigma_k(i) sigma_k(i)^T.
    residuals[r] tracks sup_i (|xi_i(x)| v |zeta_i(x)|) / |x| at probe radii.
    """

    regimes: list
    b_matrices: dict
    sigma_matrices: dict
    Lam1: dict
    lam1: dict
    Lam2: dict
    lam2: dict
    probe_radii: list
    residuals: list
    warning: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "regimes": list(self.regimes),
            "Lam1": {i: self.Lam1[i] for i in self.regimes},
            "lam1": {i: self.lam1[i] for i in self.regimes},
            "Lam2": {i: list(self.Lam2[i]) for i in self.regimes},
            "lam2": {i: list(self.lam2[i]) for i in self.regimes},
            "probe_radii": list(self.probe_radii),
            "residuals": list(self.residuals),
            "warning": self.warning,
        }


def _fd_jacobian(f: Callable[[np.ndarray], np.ndarray], n: int, step: float = 1e-6) -> np.ndarray:
    J = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        J[:, k] = (np.asarray(f(e), dtype=float) - np.asarray(f(-e), dtype=float)) / (
            2.0 * step
        )
    return J


def linearize(
    spec: ModelSpec,
    regimes: Sequence[int],
    probe_radii: Sequence[float] = (1e-1, 1e-2, 1e-3),
) -> LinearizationData:
    """Extract b(i), sigma_k(i) at the origin and check linearizability.

    Exact matrices are taken from spec.linearization when present; otherwise
    central differences at 0.  The residual ratio sup_i (|b(x,i) - b(i)x| v
    |sigma(x,i) - (sigma_1(i)x ... )|)/|x| must decrease along the probe
    radii; if not, a warning is attached and the linearized criteria should
    not be trusted.
    """
    if not spec.zero_fixed:
        raise ConfigurationError("linearization requires the origin to be an equilibrium")
    regimes = list(regimes)
    if not regimes:
        raise ConfigurationError("need at least one regime to linearize")
    n, d = spec.dim, spec.noise_dim
    b_mats: dict = {}
    s_mats: dict = {}
    for i in regimes:
        if spec.linearization is not None:
            b_mats[i] = np.asarray(spec.linearization.drift_matrix(i), dtype=float)
            if spec.linearization.diffusion_matrices is not None:
                s_mats[i] = [
                    np.asarray(m, dtype=float)
                    for m in spec.linearization.diffusion_matrices(i)
                ]
            else:
                s_mats[i] = [np.zeros((n, n)) for _ in range(d)]
        else:
            # central differences, each evaluation a batch of one
            one = np.array([i])
            b_mats[i] = _fd_jacobian(lambda y: spec.drifts(y[None], one)[0], n)
            s_mats[i] = [
                _fd_jacobian(lambda y, k=k: spec.diffusions(y[None], one)[0, :, k], n)
                for k in range(d)
            ]
        if b_mats[i].shape != (n, n):
            raise ConfigurationError(f"drift matrix for regime {i} has shape {b_mats[i].shape}")
        if len(s_mats[i]) != d:
            raise ConfigurationError(f"need {d} diffusion matrices for regime {i}")

    # (K, n, n) drift and (K, d, n, n) diffusion matrices, in regime order
    b_stack = np.stack([b_mats[i] for i in regimes])
    s_stack = np.stack([np.stack(s_mats[i]) for i in regimes])
    sym_eigs = np.linalg.eigvalsh(0.5 * (b_stack + b_stack.transpose(0, 2, 1)))
    gram_eigs = np.linalg.eigvalsh(s_stack @ s_stack.transpose(0, 1, 3, 2))
    Lam1, lam1, Lam2, lam2 = {}, {}, {}, {}
    for k, i in enumerate(regimes):
        Lam1[i], lam1[i] = float(sym_eigs[k, -1]), float(sym_eigs[k, 0])
        Lam2[i] = [float(v) for v in gram_eigs[k, :, -1]]
        lam2[i] = [max(0.0, float(v)) for v in gram_eigs[k, :, 0]]

    probe_radii = sorted(probe_radii, reverse=True)
    grid = radial_grid(n, probe_radii, regimes)
    X, I = grid.X, grid.I
    # grid regimes cycle fastest, so the stacked matrices tile the grid
    reps = len(grid) // len(regimes)
    b_lin = np.tile(b_stack, (reps, 1, 1))
    s_lin = np.tile(s_stack, (reps, 1, 1, 1))
    xi = spec.drifts(X, I) - np.matmul(b_lin, X[:, :, None])[:, :, 0]
    lin_sigma = np.matmul(s_lin, X[:, None, :, None])[..., 0].transpose(0, 2, 1)
    zeta = (spec.diffusions(X, I) - lin_sigma).reshape(len(grid), n * d)
    xi_norm, zeta_norm = row_norms(xi), row_norms(zeta)
    radius = np.repeat(probe_radii, len(grid) // max(len(probe_radii), 1))
    ratio = np.where(zeta_norm > xi_norm, zeta_norm, xi_norm) / radius
    residuals = [float(v) for v in _positive_sup(ratio.reshape(len(probe_radii), -1), axis=1)]
    warning = None
    tolerance = 1e-12 + 1e-9 * max(residuals, default=0.0)
    decreasing = all(
        residuals[k + 1] <= residuals[k] + tolerance for k in range(len(residuals) - 1)
    )
    if not decreasing:
        warning = (
            "residual ratio does not decrease toward 0 along the probe radii; "
            "the coefficients may not be linearizable at the origin"
        )
    return LinearizationData(
        regimes=regimes,
        b_matrices=b_mats,
        sigma_matrices=s_mats,
        Lam1=Lam1,
        lam1=lam1,
        Lam2=Lam2,
        lam2=lam2,
        probe_radii=list(probe_radii),
        residuals=residuals,
        warning=warning,
    )


EIGEN_CONVENTION_NOTE = (
    "criterion uses extreme eigenvalues of the symmetric part (b(i)+b(i)^T)/2 "
    "and of sigma_k(i) sigma_k(i)^T, not eigenvalues of b(i) itself; for "
    "non-normal b(i) these differ"
)


@dataclass
class LinearCriterionReport:
    stable_value: float
    unstable_value: float
    tail_bound: float
    verdict: str
    note: str = EIGEN_CONVENTION_NOTE

    def to_dict(self) -> dict:
        return {
            "stable_value": self.stable_value,
            "unstable_value": self.unstable_value,
            "tail_bound": self.tail_bound,
            "verdict": self.verdict,
            "note": self.note,
        }


def proposition41_criterion(
    data: LinearizationData, nu: InvariantMeasure
) -> LinearCriterionReport:
    """Averaged linearized criterion.

    stable_value = sum nu_i (Lam1_i + 1/2 sum_k Lam2_ik) certifies stability
    when it clears the truncation tail bound below zero; unstable_value uses
    the minimum eigenvalues and certifies instability above zero.  The two
    leave a gap in which the verdict stays inconclusive.
    """
    needed = range(1, nu.truncation_size + 1)
    missing = [i for i in needed if i not in data.Lam1]
    if missing:
        raise ConfigurationError(
            f"linearization lacks regimes {missing[:5]} needed by the measure truncation"
        )
    up = np.array([data.Lam1[i] + 0.5 * sum(data.Lam2[i]) for i in needed])
    lo = np.array([data.lam1[i] + 0.5 * sum(data.lam2[i]) for i in needed])
    stable_value = float(up @ nu.nu)
    unstable_value = float(lo @ nu.nu)
    bound = float(max(np.max(np.abs(up)), np.max(np.abs(lo))))
    tail = _tail_allowance(bound, nu)
    if stable_value + tail < 0.0:
        verdict = "stable_certified"
    elif unstable_value - tail > 0.0:
        verdict = "unstable_certified"
    else:
        verdict = "inconclusive"
    return LinearCriterionReport(
        stable_value=stable_value,
        unstable_value=unstable_value,
        tail_bound=tail,
        verdict=verdict,
    )
