"""Path simulation: Euler-Maruyama interleaved with thinned regime switching.

Every path takes Euler-Maruyama steps of X under the regime that drives it,
each followed by a switching decision with rates read at the pre-step state
and sub-divided when q dt breaks the thinning guard.  The switching state is
the regime alpha (simulate) or the pair (alpha, alpha_hat) of the basic
coupling (simulate_coupled).

The decision is gated by the kernel's declared global_bound q_bar (doubled
for pairs): while q_bar dt stays within the guard, a path's rates are read
only on steps where its accept uniform is below q_bar dt, since no other
step can move it, and every row read is checked against q_bar.  Without a
bound, or with q_bar dt above the guard, rates are read every step.  The
paths are the same either way.  Two integrators run the paths:

- the float loop runs plain paths of models with an Euler map on floats
  (d = 1, ModelSpec.scalar_run set), one at a time, in stretches; the
  state is a float in 1-D and a tuple of n floats otherwise.
  Each chunk of accept uniforms marks its events: the candidates to switch
  (below the gate, or for an x-independent kernel below the largest q_s dt
  of the regimes visited), the record steps and the chunk's last step.
  One call of the regime's map run(x, ws, a, e, lim), built once per
  visited regime by scalar_run(i, dt), takes the quiet steps up to the
  next event and the event step itself, and stops early where the path
  blows up or leaves the ball; only that step runs the per-step body.  So
  the loop pays one Python call per event, not one per step.  Where every
  step is an event (an x-dependent kernel without a usable gate, or a
  record stride of 1) each call takes one step, the loop's slowest case;
- the batched engine runs every other path: coupled, without an Euler
  map, or one of FLOAT_PATHS or more plain paths in n >= 2.  All live
  paths of a block step together as (P, n) arrays; a single path is a
  batch of one, and run_ensemble passes blocks of PATH_BLOCK paths, so
  memory does not grow with the path count.  The Euler step calls the
  model's completed batch forms ModelSpec.drift_of/diffusion_of, bound to
  the block's regimes and rebound only after a step where some path
  jumped or sub-divided, or after paths left the block.  The noise is
  0.0 + the sum of sigma_k w_k in column order; with one noise column
  that is matmul's one-term sum bit for bit.  Each chunk of accept
  uniforms marks its hot steps, where some path is a candidate, and only
  those steps screen the paths.  The candidates' rates come from one call
  of the kernel's completed batch form RateKernel.rows and are totalled as
  arrays; a row becomes a Python list only for a path that moves.  Up to
  FEW_PAIRS coupled pairs are summed along their rows in Python instead,
  which costs less at that size.

The linear families compute A x, S x and |x| in one order in both engines,
the running sums in column order of model.running_dot (not matmul or vecdot,
whose order and fused multiply-adds follow BLAS and SIMD dispatch), so a plain
path is the same bits whichever engine runs it, and run_ensemble picks the
engine by cost alone.  A 1-D ensemble runs the float loop at every size;
in n >= 2 the float loop runs below FLOAT_PATHS paths, and the batched
engine from there on.  CPU us per path-step on a 2-core host (horizon 2),
float loop against batched engine: example51_stable 1.0 against 2.3 at
15 paths and 0.50-0.54 against 0.47-0.51 at 256; example52_stable
0.63-0.69 at every size against 0.79-0.88 at 32 paths, 0.75 at 40,
0.64-0.65 at 48, 0.54-0.58 at 64 and 0.31 at 256.  The linear families
define their Euler map for n <= 2, the presets' dimensions.

Each path owns three named substreams derived from (seed, path_index):
noise and accept uniforms are drawn in chunks of STREAM_CHUNK steps as the
path advances; target selection and guard sub-division draw lazily from the
event stream, only for the paths that need them.  Chunked draws equal one
bulk draw, so neither the chunk size nor the rest of the batch enters a
path: it is bit-identical for a fixed (seed, path_index, config).
"""

from __future__ import annotations

import csv
import math
import numbers
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from .artifacts import atomic_open
from .errors import ConfigurationError, ContractError, EvaluationError
from .model import RATE_BOUND_TOL, ModelSpec, RateKernel, mat_vecs, row_norms, running_dot

THINNING_GUARD = 0.1  # largest admissible q_i(x) * dt without sub-division
SUBDIVISION_TARGET = 0.05  # sub-step jump probability aimed for when splitting
BLOWUP_RADIUS = 1e12
STREAM_CHUNK = 4096  # steps of noise and accept uniforms drawn at a time
PATH_BLOCK = 256  # paths the batched engine advances together
FLOAT_PATHS = 48  # plain n >= 2 paths from which an ensemble runs batched
FEW_PAIRS = 6  # candidate pairs up to which Python sums beat array sums
WILSON_Z = 1.959963984540054  # 95%


def _real(value, name: str) -> float:
    """value as a float: a bool, None, a string or a too large int is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} exceeds the float range") from None


def _whole(value, name: str, low: int) -> int:
    """value as an int of at least low: an int, or a float with an integral
    value (10.0); an int is taken as it is, however large."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        whole = int(value)
    else:
        x = _real(value, name)
        whole = int(x) if math.isfinite(x) and x.is_integer() else low - 1
    if whole < low:
        kind = "a positive" if low == 1 else "a nonnegative"
        raise ConfigurationError(f"{name} must be {kind} integer, got {value!r}")
    return whole


@dataclass
class SimConfig:
    """Discretization and stream identity for one path (or an ensemble base)."""

    dt: float
    horizon: float
    seed: int = 0
    path_index: int = 0
    stop_radius: Optional[float] = None
    record_stride: int = 1

    def __post_init__(self) -> None:
        self.dt = _real(self.dt, "dt")
        self.horizon = _real(self.horizon, "horizon")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (self.horizon >= self.dt):
            raise ConfigurationError(
                f"horizon {self.horizon} must be at least one step dt = {self.dt}"
            )
        if self.horizon == math.inf:
            raise ConfigurationError("horizon must be finite")
        if self.stop_radius is not None:
            self.stop_radius = _real(self.stop_radius, "stop_radius")
            if not self.stop_radius > 0:
                raise ConfigurationError("stop_radius must be positive when set")
        self.record_stride = _whole(self.record_stride, "record_stride", 1)
        self.seed = _whole(self.seed, "seed", 0)
        self.path_index = _whole(self.path_index, "path_index", 0)


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


def _subdivide(rows, s, row, q: float, dt: float, t: float, event, jumps: list):
    """A guarded step ending at t: m sub-steps of dt / m, each jumping with
    probability q dt / m, where rows(s) -> (row, q) is re-read after every
    jump.  Appends to jumps and returns the final (s, row, q)."""
    m = int(math.ceil(q * dt / SUBDIVISION_TARGET))
    sub = dt / m
    base = t - dt
    for n in range(m):
        if event() < q * sub:
            j = _select_target(row, event() * q)
            jumps.append((base + (n + 1) * sub, s, j))
            s = j
            row, q = rows(s)
    return s, row, q


def _thinning_bound(kernel: RateKernel, dt: float, pairs: bool = False):
    """(q_bar, gate): the bound a total switching rate is checked against,
    and the accept uniform below which a path is a candidate to switch.

    q_bar is the kernel's global_bound + RATE_BOUND_TOL, doubled on pairs
    (alpha, alpha_hat), whose total sum_j max(q_aj(x), q_bj(0)) is at most
    q_a(x) + q_b(0); without a bound it is inf.  gate is fl(q_bar dt): a
    product with dt > 0 keeps order in floating point, so q <= q_bar gives
    fl(q dt) <= gate, and a path whose uniform is at least gate cannot
    jump.  Where gate exceeds THINNING_GUARD a guarded step may jump
    whatever its uniform, so gate is inf and every path is a candidate.
    """
    if kernel.global_bound is None:
        return math.inf, math.inf
    q_bar = (kernel.global_bound + RATE_BOUND_TOL) * (2.0 if pairs else 1.0)
    gate = q_bar * dt
    return q_bar, gate if gate <= THINNING_GUARD else math.inf


def _above_bound(q: float, s, q_bar: float) -> EvaluationError:
    return EvaluationError(
        f"total switching rate {q} of regime {s} exceeds {q_bar}, the "
        "kernel's declared global_bound plus RATE_BOUND_TOL"
    )


def _has_float_forms(spec: ModelSpec) -> bool:
    return spec.noise_dim == 1 and spec.scalar_run is not None


def _start(spec: ModelSpec, config: SimConfig, x0, i0: int):
    """Validated (x0, i0, number of steps)."""
    if i0 < 1 or i0 != int(i0):
        raise ConfigurationError(f"initial regime must be a positive integer, got {i0}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (spec.dim,):
        raise ConfigurationError(f"x0 has shape {x0.shape}, want ({spec.dim},)")
    n_steps = int(round(config.horizon / config.dt))
    if n_steps < 1:
        raise ConfigurationError("horizon shorter than one step")
    return x0, int(i0), n_steps


def _float_path(spec: ModelSpec, config: SimConfig, x0, i0: int) -> Trajectory:
    """The float loop: one plain path of a model with an Euler map, taken
    in stretches of quiet steps that each end at an event step.

    The events of a chunk of steps are the candidates to switch, whose
    accept uniform is below the screen, the record steps and the chunk's
    last step, all found at once.  One call of the regime's map run(x, ws,
    a, e, lim) takes a stretch and the event step that ends it; it stops
    early at a step that leaves |x| < lim = min(stop_radius, BLOWUP_RADIUS),
    where the path blows up or exits.  The step a call ends at runs the
    per-step body: blow-up, switching with rates at the pre-step state,
    record or exit.  The screen is the gate of _thinning_bound.  An
    x-independent kernel, whose rows are kept per regime, screens with the
    largest q_s dt of the regimes visited instead, which needs no declared
    bound: inf while the path's regime breaks the guard, since then every
    step sub-divides.  A switch that changes the screen screens the rest of
    the chunk again; as the largest q_s dt only rises, that happens at the
    first visit of a regime with a larger rate, not at every jump.
    """
    x0, s, n_steps = _start(spec, config, x0, i0)
    kernel = spec.rate_kernel
    # the state x: a float in 1-D, else a tuple of n floats, with its norm
    # (row_norms' sum, or abs) and the point that the kernel's rows read
    if spec.dim == 1:
        x, norm, point = float(x0[0]), abs, float
    else:
        x, point = tuple(x0.tolist()), np.array
        norm = lambda x: math.sqrt(running_dot(x, x))
    rng_noise, rng_accept, rng_event = path_streams(config.seed, config.path_index)
    event = rng_event.random
    dt = config.dt
    steps: dict = {}  # regime -> its Euler map, built on the first visit

    def euler(s):
        run = steps.get(s)
        if run is None:
            run = steps[s] = spec.scalar_run(s, dt)
        return run

    sq = math.sqrt(dt)
    x_dep = not kernel.x_independent
    q_bar, gate = _thinning_bound(kernel, dt)
    table: dict = {}

    def rows(x, s):
        """(row, q_s(x)), checked against q_bar; an x-independent kernel's
        rows are kept per regime, so each is read and checked once."""
        hit = None if x_dep else table.get(s)
        if hit is None:
            row = kernel.point_row(point(x), s)
            total = 0.0
            for _, r in row:
                total += r
            if total > q_bar:
                raise _above_bound(total, s, q_bar)
            hit = (row, total)
            if not x_dep:
                table[s] = hit
        return hit

    stride = config.record_stride
    h = math.inf if config.stop_radius is None else config.stop_radius
    lim = min(h, BLOWUP_RADIUS)
    # the records: step (-1 is t = 0) and state in compact arrays, regime
    rec_k, rec_x, rec_s = array("q"), array("d"), []
    put = rec_x.append if spec.dim == 1 else rec_x.extend

    def keep(k: int, x, s) -> None:
        rec_k.append(k)
        put(x)
        rec_s.append(s)

    keep(-1, x, s)

    jumps: list = []
    tau_h, exited, blew_up = None, False, False
    if norm(x) >= h:
        tau_h, exited = 0.0, True
        n_steps = 0
    screen = gate
    top = 0.0  # the largest q_s dt within the guard of the regimes visited
    if not x_dep and n_steps:
        row, q = rows(x, s)
        p = q * dt
        if p <= THINNING_GUARD:
            screen = top = p
    run = euler(s)

    for c0 in range(0, n_steps, STREAM_CHUNK):
        m = min(STREAM_CHUNK, n_steps - c0)
        ws = (rng_noise.standard_normal(m) * sq).tolist()
        U = rng_accept.random(m)
        # every stride-th step records, and so does the path's last step
        record = np.zeros(m, dtype=bool)
        record[(stride - 1 - c0) % stride :: stride] = True
        record[-1] |= c0 + m == n_steps

        def events(screen):
            """The chunk's event steps as lists: position, accept uniform
            and whether the step records."""
            if screen == math.inf:
                return range(m), U.tolist(), record.tolist()
            hit = U < screen
            hit |= record
            hit[-1] = True
            at = hit.nonzero()[0]
            return at.tolist(), U[at].tolist(), record[at].tolist()

        found = {screen: events(screen)}  # screen -> its events
        todo = zip(*found[screen])
        a = 0  # the chunk position of the next step to take
        while todo is not None:
            ahead, todo = todo, None
            for kc, u, rec in ahead:
                x, ox, stop = run(x, ws, a, kc + 1, lim)
                if stop <= kc:
                    # |x| is not below lim: the path blows up or exits here
                    kc, u, rec = stop, U.item(stop), True
                    if not norm(x) < BLOWUP_RADIUS:
                        blew_up = True
                        keep(c0 + kc, x, s)
                        break
                    exited = True
                a = kc + 1

                # a step whose uniform u is at least gate >= q dt cannot switch
                if u < gate:
                    if x_dep:
                        row, q = rows(ox, s)
                        p = q * dt
                    if p > THINNING_GUARD:
                        s, row, q = _subdivide(
                            lambda s: rows(ox, s), s, row, q, dt, (c0 + a) * dt, event, jumps
                        )
                        p = q * dt
                        run = euler(s)
                    elif u < p:
                        j = _select_target(row, event() * q)
                        jumps.append(((c0 + a) * dt, s, j))
                        s = j
                        run = euler(s)
                        if not x_dep:
                            row, q = rows(ox, s)
                            p = q * dt

                if rec:
                    keep(c0 + kc, x, s)
                    if exited:
                        tau_h = (c0 + a) * dt
                        break

                if not x_dep and u < gate:
                    if p > THINNING_GUARD:
                        new = math.inf
                    else:
                        top = new = max(top, p)
                    if new != screen:
                        # the rest of the chunk, screened with the new bound
                        screen = new
                        if screen not in found:
                            found[screen] = events(screen)
                        lists = found[screen]
                        first = bisect_left(lists[0], a)
                        todo = zip(*(islice(v, first, None) for v in lists))
                        break
        if exited or blew_up:
            break

    return Trajectory(
        np.array([(k + 1) * dt for k in rec_k]),
        np.array(rec_x).reshape(-1, spec.dim),
        np.array(rec_s, dtype=np.int64),
        jumps,
        tau_h,
        exited,
        blew_up,
    )


def _row_totals(rates: np.ndarray) -> np.ndarray:
    """Sum of each padded row, entry by entry in row order."""
    total = np.zeros(len(rates))
    for c in range(rates.shape[1]):
        total += rates[:, c]
    return total


def _regime_rates(kernel: RateKernel):
    """Switching rates of alpha alone: (X, I) -> (q, row_of), where q[l] is
    the total rate of path l and row_of(l) its row [(j, rate), ...], from
    the kernel's completed batch form."""

    def rates(X, I):
        targets, r = kernel.rows(X, I)

        def row_of(l):
            return [(j, v) for j, v in zip(targets[l].tolist(), r[l].tolist()) if j >= 1]

        return _row_totals(r), row_of

    return rates


def _pair_row(a: int, b: int, ta: list, ra: list, tb: list, rb: list):
    """(row, total) of the pair (a, b) from alpha's row (ta, ra) at x and
    alpha_hat's row (tb, rb) at 0, padded lists.  For each target j in
    ascending order the pair jumps jointly to (j, j) at min(q_aj(x),
    q_bj(0)), and each coordinate alone at its positive part; the total is
    the sum of max(q_aj(x), q_bj(0)) over j, in ascending j."""
    rates_a = {j: v for j, v in zip(ta, ra) if j >= 1}
    rates_b = {j: v for j, v in zip(tb, rb) if j >= 1}
    total, row = 0.0, []
    for j in sorted(rates_a.keys() | rates_b.keys()):
        qa, qb = rates_a.get(j, 0.0), rates_b.get(j, 0.0)
        total += qa if qa > qb else qb
        if j == a:
            qa = 0.0
        if j == b:
            qb = 0.0
        m = qa if qa < qb else qb
        if m > 0.0:
            row.append(((j, j), m))
        if qa - m > 0.0:
            row.append(((j, b), qa - m))
        if qb - m > 0.0:
            row.append(((a, j), qb - m))
    return row, total


def _pair_rates(kernel: RateKernel, dim: int):
    """Switching rates of the basic coupling on pairs S = (alpha, alpha_hat):
    (X, S) -> (q, row_of), as for _regime_rates, with rows and totals as in
    _pair_row.

    alpha moves at the rates q(x), alpha_hat at the frozen rates q(0), whose
    rows are kept per regime.  Up to FEW_PAIRS pairs get their rows and
    totals from _pair_row at once; a larger batch sums its totals as arrays,
    sorted by target, and builds a row only when asked.  Padding and
    alpha_hat's shared targets add zeros, which leave a sum of nonnegative
    rates unchanged, so both give the same totals bit for bit.
    """
    frozen_t = np.zeros((1, 0), dtype=np.int64)  # line b: alpha_hat's row b at 0
    frozen_r = np.zeros((1, 0))
    known = np.zeros(1, dtype=bool)  # regimes whose row is in the table

    def rates(X, S):
        nonlocal frozen_t, frozen_r, known
        B = S[:, 1]
        if B.max() >= len(known) or not known[B].all():
            size = max(len(known), int(B.max()) + 1)
            known = np.pad(known, (0, size - len(known)))
            new = np.unique(B[~known[B]])
            t, r = kernel.rows(np.zeros((new.size, dim)), new)
            grow = ((0, size - len(frozen_t)), (0, max(t.shape[1] - frozen_t.shape[1], 0)))
            frozen_t, frozen_r = np.pad(frozen_t, grow), np.pad(frozen_r, grow)
            frozen_t[new, : t.shape[1]], frozen_r[new, : t.shape[1]] = t, r
            known[new] = True
        ta, ra = kernel.rows(X, S[:, 0])
        tb, rb = frozen_t[B], frozen_r[B]
        if len(S) <= FEW_PAIRS:
            built = [
                _pair_row(a, b, *lists)
                for (a, b), *lists in zip(S.tolist(), ta.tolist(), ra.tolist(), tb.tolist(), rb.tolist())
            ]
            return np.array([total for _, total in built]), lambda l: built[l][0]
        # max(q_aj, q_bj) at alpha's targets, then q_bj at alpha_hat's other
        # targets; padding and alpha_hat's shared targets carry 0
        rb_at_a = np.zeros_like(ra)
        rb_only = rb.copy()
        for c in range(tb.shape[1]):
            hit = ta == tb[:, c, None]
            rb_at_a = np.where(hit, rb[:, c, None], rb_at_a)
            rb_only[hit.any(axis=1), c] = 0.0
        top = np.concatenate([np.maximum(ra, rb_at_a), rb_only], axis=1)
        # ascending targets within each row: one sort of (row, target) keys
        keys = np.concatenate([ta, tb], axis=1)
        keys += np.arange(len(keys))[:, None] * (int(keys.max(initial=0)) + 1)
        order = np.argsort(keys.ravel(), kind="stable")
        q = _row_totals(top.ravel()[order].reshape(top.shape))

        def row_of(l):
            lists = ta[l].tolist(), ra[l].tolist(), tb[l].tolist(), rb[l].tolist()
            return _pair_row(*S[l].tolist(), *lists)[0]

        return q, row_of

    return rates


def _batch_paths(spec: ModelSpec, config: SimConfig, x0, i0: int, n_paths: int, coupled: bool):
    """The batched engine: paths config.path_index, ..., + n_paths - 1 from
    (x0, i0), advanced together one step at a time as arrays.

    Row l of X, S and the chunk's noise W and uniforms U is live path
    live[l]; S holds alpha, or the pairs (alpha, alpha_hat) when coupled.  A
    path that exits or blows up leaves the batch.  The Euler step runs the
    model's drift and diffusion maps bound to the regimes of S, rebound only
    after a step where some path jumped or sub-divided, or after paths left.
    Rates are read for the candidates of a step alone (see _thinning_bound),
    and only paths that jump or need guard sub-division touch their event
    stream.  Returns one Trajectory per path, in index order; a coupled one
    records pairs and logs pair jumps.
    """
    x0, i0, n_steps = _start(spec, config, x0, i0)
    # a checked first evaluation, a batch of one, catches shape bugs early
    spec.drifts(x0[None], np.array([i0]))
    spec.diffusions(x0[None], np.array([i0]))
    dt = config.dt
    sq = math.sqrt(dt)
    streams = [path_streams(config.seed, config.path_index + p) for p in range(n_paths)]
    kernel = spec.rate_kernel
    rates = _pair_rates(kernel, spec.dim) if coupled else _regime_rates(kernel)
    q_bar, gate = _thinning_bound(kernel, dt, coupled)
    state = (lambda v: tuple(v.tolist())) if coupled else int
    one_noise = spec.noise_dim == 1

    def read(X, S):
        """rates(X, S), every total checked against q_bar."""
        q, row_of = rates(X, S)
        above = q > q_bar
        if above.any():
            l = int(above.argmax())
            raise _above_bound(float(q[l]), state(S[l]), q_bar)
        return q, row_of

    def rows(x, s):
        """(row, q_s(x)) at one point, as a batch of one."""
        q, row_of = read(x[None], np.array([s]))
        return row_of(0), float(q[0])

    stride = config.record_stride
    h = math.inf if config.stop_radius is None else config.stop_radius
    X = np.tile(x0, (n_paths, 1))
    S = np.full((n_paths, 2) if coupled else n_paths, i0, dtype=np.int64)
    m_rec = n_steps // stride + 2
    rec_t = np.empty((n_paths, m_rec))
    rec_x = np.empty((n_paths, m_rec, spec.dim))
    rec_s = np.empty((n_paths, m_rec) + S.shape[1:], dtype=np.int64)
    rec_t[:, 0], rec_x[:, 0], rec_s[:, 0] = 0.0, X, S
    ri = 0  # every live path has recorded ri + 1 points
    ends = np.zeros(n_paths, dtype=np.int64)
    trajs = [Trajectory(rec_t[p], rec_x[p], rec_s[p]) for p in range(n_paths)]
    live = np.arange(n_paths)
    if row_norms(x0[None])[0] >= h:
        for traj in trajs:
            traj.tau_h, traj.exited = 0.0, True
        n_steps, live = 0, live[:0]
    next_rec = min(stride, n_steps) - 1
    stale = True  # the coefficient maps need binding to the regimes of S

    def leave(gone, at: int, t: float, Xt, exited: bool) -> None:
        """Record the paths flagged in gone at index at, mark them exited
        (at t) or blown up, and drop them from the batch and its chunk."""
        nonlocal X, S, live, W, U, stale
        ids = live[gone]
        rec_t[ids, at], rec_x[ids, at], rec_s[ids, at] = t, Xt[gone], S[gone]
        ends[ids] = at
        for path in ids.tolist():
            if exited:
                trajs[path].tau_h, trajs[path].exited = t, True
            else:
                trajs[path].blew_up = True
        keep = (~gone).nonzero()[0]
        X, S, live = X[keep], S[keep], live[keep]
        stale = True
        # the chunk's rows move up in place: a compacted copy would add the
        # chunk's size to the run's peak memory
        for new, old in enumerate(keep.tolist()):
            if new != old:
                W[new], U[new] = W[old], U[old]
        W, U = W[: keep.size], U[: keep.size]

    for c0 in range(0, n_steps, STREAM_CHUNK):
        if live.size == 0:
            break
        m = min(STREAM_CHUNK, n_steps - c0)
        # each live path's next chunk, drawn in place into its row
        W = np.empty((live.size, m, spec.noise_dim))
        U = np.empty((live.size, m))
        for l, path in enumerate(live.tolist()):
            streams[path][0].standard_normal(out=W[l])
            streams[path][1].random(out=U[l])
        W *= sq
        # steps where some path is a candidate to switch; leave() only drops
        # rows, so this stays a superset
        hot = (U < gate).any(axis=0).tolist()
        for k in range(c0, c0 + m):
            kc = k - c0
            if stale:
                # the completed forms, unchecked, like the kernel's rows:
                # regimes are >= 1 (_start checks i0, rows hold targets >= 1)
                I = S[:, 0] if coupled else S
                drift, diffusion = spec.drift_of(I), spec.diffusion_of(I)
                stale = False
            drift_dt = drift(X) * dt
            sig = diffusion(X)
            # the noise sums from +0.0, as matmul's one-term sum does: a
            # product of -0.0 reaches X as +0.0
            if one_noise:
                noise = 0.0 + sig[:, :, 0] * W[:, kc]
            else:
                noise = 0.0 + mat_vecs(sig)(W[:, kc])
            Xn = X + drift_dt + noise
            r = row_norms(Xn)
            t = (k + 1) * dt
            r_max = r.max()  # nan when any row is nan
            if not r_max < BLOWUP_RADIUS:
                gone = ~(r < BLOWUP_RADIUS)
                leave(gone, ri + 1, t, Xn, exited=False)
                if live.size == 0:
                    break
                Xn, r = Xn[~gone], r[~gone]
                r_max = r.max()

            # switching, with rates at the pre-step X, read only for the
            # candidates: the paths whose accept uniform is below gate
            if hot[kc]:
                u = U[:, kc]
                cand = (u < gate).nonzero()[0]
                if cand.size:
                    q, row_of = read(X[cand], S[cand])
                    p = q * dt
                    guard = p > THINNING_GUARD
                    for c in (guard | (u[cand] < p)).nonzero()[0].tolist():
                        l = cand[c]
                        s, row, ql = state(S[l]), row_of(c), float(q[c])
                        event, log = streams[live[l]][2].random, trajs[live[l]].jumps
                        if guard[c]:
                            ox = X[l]
                            s = _subdivide(lambda s: rows(ox, s), s, row, ql, dt, t, event, log)[0]
                        else:
                            j = _select_target(row, event() * ql)
                            log.append((t, s, j))
                            s = j
                        S[l] = s
                        stale = True
            X = Xn

            if k == next_rec:
                ri += 1
                rec_t[live, ri], rec_x[live, ri], rec_s[live, ri] = t, X, S
                next_rec = min(next_rec + stride, n_steps - 1)
                if r_max >= h:
                    leave(r >= h, ri, t, X, exited=True)
            elif r_max >= h:
                leave(r >= h, ri + 1, t, X, exited=True)
            if live.size == 0:
                break
    ends[live] = ri

    for traj, m in zip(trajs, (ends + 1).tolist()):
        traj.times, traj.x_path, traj.regime_path = (
            traj.times[:m].copy(), traj.x_path[:m].copy(), traj.regime_path[:m].copy()
        )
    return trajs


def _coupled(traj: Trajectory) -> CoupledTrajectory:
    """The coupled view of a batched-engine path over pairs (alpha, alpha_hat)."""
    pairs, log = traj.regime_path, traj.jumps
    return CoupledTrajectory(
        times=traj.times,
        x_path=traj.x_path,
        alpha_path=pairs[:, 0].copy(),
        alpha_hat_path=pairs[:, 1].copy(),
        jumps_alpha=[(t, s[0], j[0]) for t, s, j in log if j[0] != s[0]],
        jumps_alpha_hat=[(t, s[1], j[1]) for t, s, j in log if j[1] != s[1]],
        vartheta=next((t for t, _, j in log if j[0] != j[1]), None),
        tau_h=traj.tau_h,
        exited=traj.exited,
        blew_up=traj.blew_up,
    )


def simulate(spec: ModelSpec, config: SimConfig, x0, i0: int) -> Trajectory:
    """Integrate one path from (x0, i0) to the horizon (or tau_h / blow-up).

    Per step: Euler-Maruyama update of X with the current regime, then the
    switching decision with rates evaluated at the pre-step state.  Steps
    whose total rate violates the thinning guard are sub-divided.  A model
    with an Euler map (scalar_run, d = 1) runs the float loop, any other
    the batched engine.
    """
    if _has_float_forms(spec):
        return _float_path(spec, config, x0, i0)
    return _batch_paths(spec, config, x0, i0, 1, coupled=False)[0]


def simulate_coupled(spec: ModelSpec, config: SimConfig, x0, i0: int) -> CoupledTrajectory:
    """Basic coupling of (alpha, alpha_hat): alpha drives X with rates
    q(X(t)), alpha_hat runs on the frozen kernel q(0); matched moves fire
    jointly at rate min(q_kj(x), q_lj(0)), discrepancy moves at the positive
    parts.  vartheta is the first time the regimes differ.  Runs the batched
    engine as a batch of one.
    """
    return _coupled(_batch_paths(spec, config, x0, i0, 1, coupled=True)[0])


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
        sup = float(np.max(row_norms(traj.x_path)))
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
        return 1.0 if float(row_norms(traj.x_path[idx : idx + 1])[0]) < self.tol else 0.0


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


@dataclass
class EnsembleSummary:
    n_paths: int
    n_blowups: int
    n_exited: int
    seed: int
    functionals: list = field(default_factory=list)

    def estimate(self, name_prefix: str) -> FunctionalEstimate:
        for f in self.functionals:
            if f.name.startswith(name_prefix):
                return f
        raise KeyError(name_prefix)


def _ensemble_paths(spec: ModelSpec, config: SimConfig, n_paths: int, x0, i0: int, coupled: bool):
    """Trajectories of paths config.path_index + p, p < n_paths, in index
    order: plain paths with an Euler map one at a time through simulate, in
    1-D at every size and in n >= 2 below FLOAT_PATHS paths; all others
    through the batched engine, PATH_BLOCK paths at a time."""
    below = math.inf if spec.dim == 1 else FLOAT_PATHS
    if not coupled and _has_float_forms(spec) and n_paths < below:
        for p in range(n_paths):
            yield simulate(spec, replace(config, path_index=config.path_index + p), x0, i0)
        return
    for first in range(0, n_paths, PATH_BLOCK):
        block = replace(config, path_index=config.path_index + first)
        trajs = _batch_paths(spec, block, x0, i0, min(PATH_BLOCK, n_paths - first), coupled)
        yield from map(_coupled, trajs) if coupled else trajs


def run_ensemble(
    spec: ModelSpec,
    lyap,
    config: SimConfig,
    n_paths: int,
    functionals: Sequence,
    x0,
    i0: int,
    collect: Optional[Callable[[Trajectory], object]] = None,
    coupled: bool = False,
) -> tuple[EnsembleSummary, list]:
    """Simulate n_paths independent paths and aggregate the functionals.

    Path p runs with path_index = config.path_index + p, and paths reach the
    functionals and collect in index order.  coupled runs the basic coupling
    and hands out CoupledTrajectory objects.  collect(traj), when given,
    retains a per-path reduction (e.g. the trajectory itself for rate
    estimation); kept None for large ensembles.
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
    values = np.empty((len(functionals), n_paths))
    n_blowups = n_exited = 0
    collected: list = [None] * n_paths
    for p, traj in enumerate(_ensemble_paths(spec, config, n_paths, x0, i0, coupled)):
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
    """Columns (t, x_1..x_n, regime); shortest-roundtrip float formatting.
    times, x_path and regime_path must have one entry per recorded point."""
    lengths = (len(traj.times), len(traj.x_path), len(traj.regime_path))
    if len(set(lengths)) > 1:
        raise ContractError(
            f"trajectory has {lengths[0]} times, {lengths[1]} states and "
            f"{lengths[2]} regimes; want one of each per recorded point"
        )
    n = traj.x_path.shape[1]
    columns = [map(repr, np.asarray(traj.times, dtype=float).tolist())]
    columns += [map(repr, col) for col in np.asarray(traj.x_path, dtype=float).T.tolist()]
    columns.append(np.asarray(traj.regime_path, dtype=np.int64).tolist())
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{k+1}" for k in range(n)] + ["regime"])
        writer.writerows(zip(*columns))
