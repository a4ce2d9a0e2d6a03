"""Path simulation: Euler-Maruyama interleaved with thinned regime switching.

One integrator runs every path.  It advances X with the regime that drives
it and switches a chain on the time grid: the regime alpha for simulate, and
the pair (alpha, alpha_hat) of the basic coupling for simulate_coupled.

Each path owns three named substreams derived from (seed, path_index):
diffusion noise and per-step acceptance uniforms are drawn in chunks of
STREAM_CHUNK steps as the path advances, while jump-target selection, guard
sub-division, and exponential proposal clocks draw lazily from the event
stream.  Chunked draws equal one bulk draw, so the chunk size does not enter
the path.  A path is therefore bit-identical for a fixed (seed, path_index,
config), whatever the size of its ensemble and whatever ran before it in the
process.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, GuardError
from .model import ModelSpec, RateKernel
from .rates import G_inverse, RateProfile

SCHEMES = ("per_step_thinning", "exponential_proposals")
THINNING_GUARD = 0.1  # largest admissible q_i(x) * dt without sub-division
SUBDIVISION_TARGET = 0.05  # sub-step jump probability aimed for when splitting
BLOWUP_RADIUS = 1e12
STREAM_CHUNK = 4096  # steps of noise and accept uniforms drawn at a time
WILSON_Z = 1.959963984540054  # 95%


@dataclass
class SimConfig:
    """Discretization and stream identity for one path (or an ensemble base)."""

    dt: float
    horizon: float
    seed: int = 0
    path_index: int = 0
    switch_scheme: str = "per_step_thinning"
    stop_radius: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (self.horizon >= self.dt):
            raise ConfigurationError(
                f"horizon {self.horizon} must be at least one step dt = {self.dt}"
            )
        if self.switch_scheme not in SCHEMES:
            raise ConfigurationError(f"unknown switch scheme {self.switch_scheme!r}")
        if self.stop_radius is not None and not self.stop_radius > 0:
            raise ConfigurationError("stop_radius must be positive when set")
        if self.record_stride < 1 or self.record_stride != int(self.record_stride):
            raise ConfigurationError("record_stride must be a positive integer")
        if self.seed < 0 or self.path_index < 0:
            raise ConfigurationError("seed and path_index must be nonnegative")


@dataclass
class Trajectory:
    """Recorded path on the grid; the jump log is complete regardless of
    record_stride.  tau_h is the first grid time with |X| >= stop_radius."""

    times: np.ndarray
    x_path: np.ndarray
    regime_path: np.ndarray
    jumps: list = field(default_factory=list)  # (time, from, to)
    tau_h: Optional[float] = None
    exited: bool = False
    blew_up: bool = False


@dataclass
class CoupledTrajectory:
    """Pair (X, alpha, alpha_hat) under the basic coupling; alpha drives X,
    alpha_hat runs on the frozen-at-zero kernel."""

    times: np.ndarray
    x_path: np.ndarray
    alpha_path: np.ndarray
    alpha_hat_path: np.ndarray
    jumps_alpha: list = field(default_factory=list)
    jumps_alpha_hat: list = field(default_factory=list)
    vartheta: Optional[float] = None
    tau_h: Optional[float] = None
    exited: bool = False
    blew_up: bool = False

    @property
    def decoupled(self) -> bool:
        return self.vartheta is not None


def path_streams(seed: int, path_index: int):
    """Named per-path substreams: (noise, accept, event)."""
    root = np.random.SeedSequence(entropy=(int(seed), int(path_index)))
    children = root.spawn(3)
    return tuple(np.random.default_rng(c) for c in children)




def _select_target(row, mass: float):
    """Locate mass in the consecutive rate intervals of the row (in row order)."""
    acc = 0.0
    for j, r in row:
        acc += r
        if mass < acc:
            return j
    return row[-1][0]


def _regime_rows(kernel: RateKernel):
    """Switching rows of alpha alone: (x, i) -> (row, q_i(x))."""

    def rows(x, i):
        row = kernel.row(x, i)
        total = 0.0
        for _, r in row:
            total += r
        return row, total

    return rows


def _pair_rows(kernel: RateKernel, dim: int):
    """Switching rows of the basic coupling on pairs (alpha, alpha_hat).

    alpha moves at the rates q(x), alpha_hat at the frozen rates q(0).  For
    each target j in ascending order the pair jumps jointly to (j, j) at
    min(q_aj(x), q_bj(0)), and each coordinate alone at its positive part;
    the total is the sum of max(q_aj(x), q_bj(0)) over j.
    """
    zero = np.zeros(dim)
    frozen: dict = {}

    def rows(x, pair):
        a, b = pair
        rates_a = dict(kernel.row(x, a))
        rates_b = frozen.get(b)
        if rates_b is None:
            rates_b = frozen[b] = dict(kernel.row(zero, b))
        row = []
        total = 0.0
        for j in sorted(set(rates_a) | set(rates_b)):
            ra = rates_a.get(j, 0.0) if j != a else 0.0
            rb = rates_b.get(j, 0.0) if j != b else 0.0
            m = ra if ra < rb else rb
            if m > 0.0:
                row.append(((j, j), m))
            if ra - m > 0.0:
                row.append(((j, b), ra - m))
            if rb - m > 0.0:
                row.append(((a, j), rb - m))
            total += ra if ra > rb else rb
        return row, total

    return rows


def _cached(rows):
    """Memoize rows by switching state, for kernels that ignore x."""
    table: dict = {}

    def lookup(x, s):
        hit = table.get(s)
        if hit is None:
            hit = table[s] = rows(x, s)
        return hit

    return lookup


def _integrate(spec: ModelSpec, config: SimConfig, x0, i0: int, coupled: bool):
    """The path loop behind simulate and simulate_coupled.

    The switching state s is alpha, or the pair (alpha, alpha_hat) when
    coupled; alpha drives X.  A guarded step re-reads the
    rates after each sub-step jump.  Returns the recorded times, X and s, the
    jump log [(t, s, s')], tau_h, and the exit and blow-up flags.
    """
    if i0 < 1 or i0 != int(i0):
        raise ConfigurationError(f"initial regime must be a positive integer, got {i0}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,):
        raise ConfigurationError(f"x0 has shape {x0.shape}, want ({spec.dim},)")
    n_steps = int(round(config.horizon / config.dt))
    if n_steps < 1:
        raise ConfigurationError("horizon shorter than one step")
    kernel = spec.rate_kernel
    M = kernel.global_bound
    thinning = coupled or config.switch_scheme == "per_step_thinning"
    if not thinning and M is None:
        raise ConfigurationError(
            "exponential_proposals needs kernel.global_bound; none declared"
        )
    rng_noise, rng_accept, rng_event = path_streams(config.seed, config.path_index)
    event = rng_event.random
    expo = rng_event.exponential
    dt = config.dt
    sq = math.sqrt(dt)
    i = int(i0)  # the regime that drives X
    s = (i, i) if coupled else i

    scalar = (
        spec.dim == 1
        and spec.noise_dim == 1
        and spec.scalar_drift is not None
        and spec.scalar_diffusion is not None
    )
    if scalar:
        drift, diffusion = spec.scalar_drift, spec.scalar_diffusion
        x = float(x0[0])
        norm = abs
    else:
        # validated first evaluation catches shape bugs early
        spec.drift_at(x0, i)
        spec.diffusion_at(x0, i)
        drift, diffusion = spec.drift, spec.diffusion
        x = x0.copy()

        def norm(x):
            return float(np.linalg.norm(x))

    def chunks():
        """Per step: (k, sqrt(dt) * noise_k, accept_k), drawn a chunk at a
        time so that a path stopping early draws little beyond its stop."""
        for c0 in range(0, n_steps, STREAM_CHUNK):
            m = min(STREAM_CHUNK, n_steps - c0)
            dw = rng_noise.standard_normal((m, spec.noise_dim)) * sq
            yield zip(
                range(c0, c0 + m),
                dw[:, 0].tolist() if scalar else dw,
                rng_accept.random(m).tolist(),
            )

    rows = _pair_rows(kernel, spec.dim) if coupled else _regime_rows(kernel)
    x_dep = not kernel.x_independent
    if not x_dep:
        rows = _cached(rows)

    stride = config.record_stride
    h = math.inf if config.stop_radius is None else config.stop_radius
    m_rec = n_steps // stride + 2
    rec_t = np.empty(m_rec)
    rec_x = np.empty((m_rec, spec.dim))
    rec_s = np.empty((m_rec, 2) if coupled else m_rec, dtype=np.int64)
    rec_t[0], rec_x[0], rec_s[0] = 0.0, x, s
    ri = 0
    jumps: list = []
    tau_h = None
    exited = False
    blew = False

    if norm(x) >= h:
        tau_h, exited = 0.0, True
        n_steps = 0
    if not thinning:
        next_prop = expo(1.0 / M) if n_steps else math.inf
    elif not x_dep and n_steps:
        # rows of an x-independent kernel change only when s jumps
        row, q = rows(x, s)
        p = q * dt
    next_rec = min(stride, n_steps) - 1

    for k, w, u in chain.from_iterable(chunks()):
        ox = x
        if scalar:
            x = ox + drift(ox, i) * dt + diffusion(ox, i) * w
            r = abs(x)
        else:
            x = ox + np.asarray(drift(ox, i), dtype=float) * dt + np.asarray(
                diffusion(ox, i), dtype=float
            ) @ w
            r = norm(x)
        if not (r < BLOWUP_RADIUS):
            blew = True
            ri += 1
            rec_t[ri], rec_x[ri], rec_s[ri] = (k + 1) * dt, x, s
            break

        if thinning:
            if x_dep:
                row, q = rows(ox, s)
                p = q * dt
            if p > THINNING_GUARD:
                m = int(math.ceil(p / SUBDIVISION_TARGET))
                sub = dt / m
                t = (k + 1) * dt
                base = t - dt
                for n in range(m):
                    if event() < q * sub:
                        j = _select_target(row, event() * q)
                        jumps.append((base + (n + 1) * sub, s, j))
                        s = j
                        row, q = rows(ox, s)
                p = q * dt
                i = s[0] if coupled else s
            elif u < p:
                j = _select_target(row, event() * q)
                jumps.append(((k + 1) * dt, s, j))
                s = j
                i = s[0] if coupled else s
                if not x_dep:
                    row, q = rows(ox, s)
                    p = q * dt
        else:
            t = (k + 1) * dt
            while next_prop <= t:
                row, q = rows(ox, s)
                if q > M * (1 + 1e-12):
                    raise GuardError(f"total rate {q} exceeds global bound {M}")
                if q > 0.0 and event() < q / M:
                    j = _select_target(row, event() * q)
                    jumps.append((next_prop, s, j))
                    s = j
                next_prop += expo(1.0 / M)
            i = s[0] if coupled else s

        if r >= h or k == next_rec:
            t = (k + 1) * dt
            ri += 1
            rec_t[ri], rec_x[ri], rec_s[ri] = t, x, s
            if r >= h:
                tau_h, exited = t, True
                break
            next_rec = min(next_rec + stride, n_steps - 1)

    m = ri + 1
    return rec_t[:m].copy(), rec_x[:m].copy(), rec_s[:m].copy(), jumps, tau_h, exited, blew


def simulate(spec: ModelSpec, config: SimConfig, x0, i0: int) -> Trajectory:
    """Integrate one path from (x0, i0) to the horizon (or tau_h / blow-up).

    Per step: Euler-Maruyama update of X with the current regime, then the
    switching decision with rates evaluated at the pre-step state.  Steps
    whose total rate violates the thinning guard are sub-divided.
    """
    times, x_path, regimes, jumps, tau_h, exited, blew = _integrate(
        spec, config, x0, i0, coupled=False
    )
    return Trajectory(
        times=times,
        x_path=x_path,
        regime_path=regimes,
        jumps=jumps,
        tau_h=tau_h,
        exited=exited,
        blew_up=blew,
    )


def simulate_coupled(spec: ModelSpec, config: SimConfig, x0, i0: int) -> CoupledTrajectory:
    """Basic coupling of (alpha, alpha_hat): alpha drives X with rates
    q(X(t)), alpha_hat runs on the frozen kernel q(0); matched moves fire
    jointly at rate min(q_kj(x), q_lj(0)), discrepancy moves at the positive
    parts.  vartheta is the first time the regimes differ.  Switching uses
    per-step thinning on the pair chain regardless of config.switch_scheme.
    """
    times, x_path, pairs, log, tau_h, exited, blew = _integrate(
        spec, config, x0, i0, coupled=True
    )
    return CoupledTrajectory(
        times=times,
        x_path=x_path,
        alpha_path=pairs[:, 0].copy(),
        alpha_hat_path=pairs[:, 1].copy(),
        jumps_alpha=[(t, s[0], j[0]) for t, s, j in log if j[0] != s[0]],
        jumps_alpha_hat=[(t, s[1], j[1]) for t, s, j in log if j[1] != s[1]],
        vartheta=next((t for t, _, j in log if j[0] != j[1]), None),
        tau_h=tau_h,
        exited=exited,
        blew_up=blew,
    )


# ---------------------------------------------------------------------------
# Path functionals and the ensemble runner


def occupation_fraction(traj: Trajectory, regime: int) -> float:
    """Exact Lebesgue fraction of time spent in the regime, from the jump log."""
    t_end = float(traj.times[-1])
    if t_end == 0.0:
        return 1.0 if int(traj.regime_path[0]) == regime else 0.0
    acc = 0.0
    cur = int(traj.regime_path[0])
    prev = 0.0
    for tj, _, to in traj.jumps:
        if tj > t_end:
            break
        if cur == regime:
            acc += tj - prev
        prev = tj
        cur = to
    if cur == regime:
        acc += t_end - prev
    return acc / t_end


class StayInBall:
    """Indicator that the recorded path never left the ball of radius h."""

    kind = "binary"

    def __init__(self, h: float) -> None:
        self.h = h
        self.name = f"stay_in_ball(h={h:g})"

    def evaluate(self, traj: Trajectory) -> float:
        if traj.blew_up or traj.exited:
            return 0.0
        sup = float(np.max(np.linalg.norm(traj.x_path, axis=1)))
        return 1.0 if sup < self.h else 0.0


class ConvergesToZero:
    """Indicator of |X(T)| < tol with the path confined to the ball up to T."""

    kind = "binary"

    def __init__(self, tol: float, T: Optional[float] = None) -> None:
        self.tol = tol
        self.T = T
        self.name = f"converges_to_zero(tol={tol:g})"

    def evaluate(self, traj: Trajectory) -> float:
        if traj.blew_up or traj.exited:
            return 0.0
        times = traj.times
        idx = times.size - 1 if self.T is None else int(np.searchsorted(times, self.T, "right")) - 1
        if idx < 0:
            return 0.0
        return 1.0 if float(np.linalg.norm(traj.x_path[idx])) < self.tol else 0.0


class SupRatio:
    """Indicator that sup_{t in [T0, T]} V(X(t)) / G_inverse(-lam t) <= 1."""

    kind = "binary"

    def __init__(self, V: Callable, profile: RateProfile, lam: float, T0: float) -> None:
        self.V = V
        self.profile = profile
        self.lam = lam
        self.T0 = T0
        self.name = f"sup_ratio(lambda={lam:g})"

    def evaluate(self, traj: Trajectory) -> float:
        if traj.blew_up or traj.exited:
            return 0.0
        mask = traj.times >= self.T0
        if not np.any(mask):
            return 0.0
        vs = np.array([float(self.V(xx)) for xx in traj.x_path[mask]])
        env = np.atleast_1d(
            np.asarray(G_inverse(self.profile, -self.lam * traj.times[mask]), dtype=float)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(vs == 0.0, 0.0, vs / env)
        ratios = np.where((env == 0.0) & (vs > 0.0), np.inf, ratios)
        return 1.0 if float(np.max(ratios)) <= 1.0 + 1e-12 else 0.0


class Occupation:
    """Time fraction spent in one regime (a [0,1]-valued average)."""

    kind = "fraction"

    def __init__(self, regime: int) -> None:
        self.regime = regime
        self.name = f"occupation(i={regime})"

    def evaluate(self, traj: Trajectory) -> float:
        return occupation_fraction(traj, self.regime)


def wilson_interval(successes: int, n: int, z: float = WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class FunctionalEstimate:
    name: str
    kind: str
    estimate: float
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


@dataclass
class EnsembleSummary:
    n_paths: int
    n_blowups: int
    n_exited: int
    seed: int
    functionals: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_blowups": self.n_blowups,
            "n_exited": self.n_exited,
            "seed": self.seed,
            "functionals": [f.to_dict() for f in self.functionals],
        }

    def estimate(self, name_prefix: str) -> FunctionalEstimate:
        for f in self.functionals:
            if f.name.startswith(name_prefix):
                return f
        raise KeyError(name_prefix)


def run_ensemble(
    spec: ModelSpec,
    lyap,
    config: SimConfig,
    n_paths: int,
    functionals: Sequence,
    x0,
    i0: int,
    collect: Optional[Callable[[Trajectory], object]] = None,
) -> tuple[EnsembleSummary, list]:
    """Simulate n_paths independent paths and aggregate the functionals.

    Path p runs with path_index = config.path_index + p, in index order.
    collect(traj), when given, retains a per-path reduction (e.g. the
    trajectory itself for rate estimation); kept None for large ensembles.
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
    values = np.empty((len(functionals), n_paths))
    n_blowups = n_exited = 0
    collected: list = [None] * n_paths
    for p in range(n_paths):
        cfg = replace(config, path_index=config.path_index + p)
        traj = simulate(spec, config=cfg, x0=x0, i0=i0)
        for fi, fn in enumerate(functionals):
            values[fi, p] = float(fn.evaluate(traj))
        n_blowups += traj.blew_up
        n_exited += traj.exited
        if collect is not None:
            collected[p] = collect(traj)

    estimates = []
    for fi, fn in enumerate(functionals):
        vals = values[fi]
        if getattr(fn, "kind", "binary") == "binary":
            k = int(np.sum(vals > 0.5))
            lo, hi = wilson_interval(k, n_paths)
            estimates.append(FunctionalEstimate(fn.name, "binary", k / n_paths, lo, hi))
        else:
            est = float(np.mean(vals))
            if n_paths > 1:
                se = float(np.std(vals, ddof=1)) / math.sqrt(n_paths)
            else:
                se = 0.0
            estimates.append(
                FunctionalEstimate(
                    fn.name,
                    "fraction",
                    est,
                    max(0.0, est - WILSON_Z * se),
                    min(1.0, est + WILSON_Z * se),
                )
            )
    summary = EnsembleSummary(
        n_paths=n_paths,
        n_blowups=n_blowups,
        n_exited=n_exited,
        seed=config.seed,
        functionals=estimates,
    )
    return summary, collected


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Columns (t, x_1..x_n, regime); shortest-roundtrip float formatting."""
    n = traj.x_path.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{k+1}" for k in range(n)] + ["regime"])
        for m in range(traj.times.size):
            writer.writerow(
                [repr(float(traj.times[m]))]
                + [repr(float(v)) for v in traj.x_path[m]]
                + [int(traj.regime_path[m])]
            )
