"""Scenario files: named coefficient families wired into runnable bundles.

A scenario is a JSON document selecting a model family (example51, example52,
linear), a switching-kernel family (birth_death, example52_q, two_state,
custom_table), a Lyapunov family (square, power_p) with a rate profile g and
a c-sequence, plus chain truncation, simulation, and Monte Carlo settings.
Numeric parameters live in the file so runs are reproducible; the bundle
carries the sha256 of the file's bytes for provenance.  The bundled presets
are the files under scenarios/, read through the package's presets link.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .model import (
    RATE_BOUND_TOL,
    ExactLinearization,
    LyapunovSpec,
    ModelSpec,
    RateKernel,
    _check_regime,
    point_form,
    row_norms,
)
from .rates import RateProfile, identity_profile, power_profile
from .simulator import SimConfig

MODEL_FAMILIES = ("example51", "example52", "linear")
KERNEL_FAMILIES = ("birth_death", "example52_q", "two_state", "custom_table")
LYAPUNOV_FAMILIES = ("square", "power_p")
G_KINDS = ("identity", "power_1_plus_gamma")
C_KINDS = ("constant", "table", "expr")

# names available to c expressions, besides per-regime values and parameters
_EXPR_MATH = {
    "abs": abs,
    "min": min,
    "max": max,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_EXPR_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}
_EXPR_COMPARE = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _norm(x) -> float:
    if isinstance(x, (float, int)):
        return abs(float(x))
    return float(np.linalg.norm(x))


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent element by element with float's own power, as the
    float loop's Euler maps compute it; numpy's vectorized power can differ
    from it in the last bit."""
    return np.array([b**exponent for b in base.tolist()]).reshape(base.shape)


def _per_regime(values):
    """Lookups in a finite per-regime list whose last entry covers every
    regime beyond it: the saturating tail by which finitely many constants
    describe countably many regimes.  Returns (at, take): at(i) is regime
    i's entry and rejects i < 1; take(I) gathers the entries of the regimes
    I, which must be at least 1, as one array."""
    stack, last = np.asarray(values), len(values) - 1

    def at(i: int):
        _check_regime(i)
        return values[min(i - 1, last)]

    def take(I: np.ndarray) -> np.ndarray:
        return np.take(stack, I - 1, axis=0, mode="clip")

    return at, take


def _positive_int(value, what: str) -> int:
    """value, a number or a string of one, as an integer >= 1 (a regime or a
    count); anything else raises ConfigurationError(f"{what} {value!r}")."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (number >= 1.0 and number.is_integer()):
        raise ConfigurationError(f"{what} {value!r}")
    return int(number)


def _optional_float(value) -> Optional[float]:
    return None if value is None else float(value)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigurationError(f"{where}: missing required key {key!r}")
    return mapping[key]


# ---------------------------------------------------------------------------
# Kernel families


def build_kernel(family: str, params: dict) -> RateKernel:
    if family == "birth_death":
        up = float(params.get("up", 1.0))
        down = float(params.get("down", 2.0))
        mod = float(params.get("modulation", 0.0))
        if up < 0 or down <= 0 or mod < 0:
            raise ConfigurationError(
                "kernel.params: need up >= 0, down > 0, modulation >= 0"
            )

        def unit_rows(I):
            first = I == 1
            targets = np.stack([np.where(first, 2, I - 1), np.where(first, 0, I + 1)], axis=1)
            rates = np.stack([np.where(first, up, down), np.where(first, 0.0, up)], axis=1)
            return targets, rates

        if mod == 0.0:
            def row(x, i):
                _check_regime(i)
                if i == 1:
                    return ((2, up),)
                return ((i - 1, down), (i + 1, up))

            return RateKernel(
                row=row,
                global_bound=up + down,
                x_independent=True,
                batch_rows=lambda X, I: unit_rows(I),
            )

        def row(x, i):
            _check_regime(i)
            f = 1.0 + mod * math.sin(_norm(x)) ** 2
            if i == 1:
                return ((2, up * f),)
            return ((i - 1, down * f), (i + 1, up * f))

        def batch_rows(X, I):
            targets, rates = unit_rows(I)
            f = 1.0 + mod * np.sin(row_norms(X)) ** 2
            return targets, rates * f[:, None]

        return RateKernel(
            row=row,
            global_bound=(up + down) * (1.0 + mod),
            x_independent=False,
            batch_rows=batch_rows,
        )

    if family == "example52_q":
        scale = float(params.get("scale", 1.0))
        if scale <= 0:
            raise ConfigurationError("kernel.params.scale must be positive")

        def row(x, i):
            _check_regime(i)
            r = scale * (1.0 + math.sin(_norm(x)))
            if i == 1:
                return ((2, r),)
            return ((1, r), (i + 1, r))

        def batch_rows(X, I):
            r = scale * (1.0 + np.sin(row_norms(X)))
            first = I == 1
            targets = np.stack([np.where(first, 2, 1), np.where(first, 0, I + 1)], axis=1)
            return targets, np.stack([r, np.where(first, 0.0, r)], axis=1)

        return RateKernel(
            row=row, global_bound=4.0 * scale, x_independent=False, batch_rows=batch_rows
        )

    if family == "two_state":
        q12 = float(_require(params, "q12", "kernel.params"))
        q21 = float(_require(params, "q21", "kernel.params"))
        if q12 < 0 or q21 < 0:
            raise ConfigurationError("kernel.params: rates must be nonnegative")

        def row(x, i):
            _check_regime(i)
            if i == 1:
                return ((2, q12),)
            if i == 2:
                return ((1, q21),)
            return ()

        def batch_rows(X, I):
            targets = np.select([I == 1, I == 2], [2, 1], 0)
            rates = np.select([I == 1, I == 2], [q12, q21], 0.0)
            return targets[:, None], rates[:, None]

        return RateKernel(
            row=row,
            global_bound=max(q12, q21),
            x_independent=True,
            batch_rows=batch_rows,
        )

    if family == "custom_table":
        raw = _require(params, "rows", "kernel.params")
        table = {}
        for key, entries in raw.items():
            where = f"kernel.params.rows[{key}]"
            i = _positive_int(key, f"{where}: invalid regime")
            if i in table:
                raise ConfigurationError(f"{where}: regime {i} is listed twice")
            target = f"{where}: invalid target"
            parsed = tuple(sorted((_positive_int(j, target), float(r)) for j, r in entries))
            for k, (j, r) in enumerate(parsed):
                if r < 0:
                    raise ConfigurationError(f"{where}: negative rate {r}")
                if not math.isfinite(r):
                    raise ConfigurationError(f"{where}: non-finite rate {r}")
                if j == i or (k > 0 and j == parsed[k - 1][0]):
                    raise ConfigurationError(f"{where}: invalid target {j}")
            table[i] = parsed
        declared = params.get("global_bound", "auto")
        if declared == "auto":
            bound = max(
                (sum(r for _, r in row_) for row_ in table.values()), default=0.0
            )
        elif declared is None:
            bound = None
        else:
            bound = float(declared)
            for i, row_ in table.items():
                total = sum(r for _, r in row_)
                if total > bound + RATE_BOUND_TOL:
                    raise ConfigurationError(
                        f"kernel.params.rows[{i}]: rate sum {total} exceeds "
                        f"declared global bound {bound}"
                    )

        def row(x, i):
            _check_regime(i)
            return table.get(i, ())

        width = max(map(len, table.values()), default=0)

        def batch_rows(X, I):
            regimes, where = np.unique(I, return_inverse=True)
            targets = np.zeros((regimes.size, width), dtype=np.int64)
            rates = np.zeros((regimes.size, width))
            for k, i in enumerate(regimes.tolist()):
                for m, (j, r) in enumerate(table.get(i, ())):
                    targets[k, m] = j
                    rates[k, m] = r
            return targets[where], rates[where]

        return RateKernel(
            row=row, global_bound=bound, x_independent=True, batch_rows=batch_rows
        )

    raise ConfigurationError(
        f"unknown kernel family {family!r}; choose from {KERNEL_FAMILIES}"
    )


# ---------------------------------------------------------------------------
# Model families


def build_model(model_cfg: dict, kernel: RateKernel) -> ModelSpec:
    family = _require(model_cfg, "family", "model")
    params = model_cfg.get("params", {})

    if family == "example51":
        b = [float(v) for v in _require(params, "b", "model.params")]
        sigma = [float(v) for v in _require(params, "sigma", "model.params")]
        gamma = float(_require(params, "gamma", "model.params"))
        if not (0.0 < gamma < 1.0):
            raise ConfigurationError(f"model.params.gamma must be in (0,1), got {gamma}")
        if not b or not sigma:
            raise ConfigurationError("model.params: b and sigma must be nonempty")
        two_gamma = 2.0 * gamma
        b_at, b_take = _per_regime(b)
        sigma_at, sigma_take = _per_regime(sigma)
        # for gamma in (0,1) both b x|x|^(2 gamma) and sigma sin^2 x have
        # derivative 0 at the origin: the linear part is exactly zero
        zero = np.zeros((1, 1))

        def batch_drift(I):
            bI = b_take(I)

            def drift(X):
                x = X[:, 0]
                return (bI * x * _pow(np.abs(x), two_gamma))[:, None]

            return drift

        def batch_diffusion(I):
            sI = sigma_take(I)

            def diffusion(X):
                s = np.sin(X[:, 0])
                return (sI * s * s)[:, None, None]

            return diffusion

        def scalar_step(i: int, dt: float):
            # the float loop's Euler map: the batch forms' operations on
            # floats, in the same order, with regime i's constants and dt bound
            bi, si = b_at(i), sigma_at(i)
            sin = math.sin

            def step(x: float, w: float) -> float:
                s = sin(x)
                return x + bi * x * abs(x) ** two_gamma * dt + si * s * s * w

            return step

        # read only by bench/tracer.py, which labels float-loop paths by them
        def scalar_drift(x: float, i: int) -> float:
            return b_at(i) * x * abs(x) ** two_gamma

        def scalar_diffusion(x: float, i: int) -> float:
            s = math.sin(x)
            return sigma_at(i) * s * s

        return ModelSpec(
            dim=1,
            noise_dim=1,
            drift=point_form(batch_drift, 1),
            diffusion=point_form(batch_diffusion, 1),
            rate_kernel=kernel,
            zero_fixed=True,
            scalar_drift=scalar_drift,
            scalar_diffusion=scalar_diffusion,
            linearization=ExactLinearization(lambda i: zero, lambda i: [zero]),
            batch_drift=batch_drift,
            batch_diffusion=batch_diffusion,
            scalar_step=scalar_step,
        )

    if family in ("example52", "linear"):
        mats = [
            np.asarray(m, dtype=float) for m in _require(params, "matrices", "model.params")
        ]
        if not mats:
            raise ConfigurationError("model.params.matrices must be nonempty")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ConfigurationError(
                    f"model.params.matrices must all be {n}x{n}, got {m.shape}"
                )
        sig_raw = params.get("sigma_matrices")
        noise_dim = int(params.get("noise_dim", 1))
        sig_mats = [[np.zeros((n, n))] * noise_dim]
        if sig_raw is not None:
            sig_mats = [
                [np.asarray(s, dtype=float) for s in regime] for regime in sig_raw
            ]
            noise_dim = len(sig_mats[0])
            for regime in sig_mats:
                if len(regime) != noise_dim or any(s.shape != (n, n) for s in regime):
                    raise ConfigurationError(
                        "model.params.sigma_matrices must be per-regime lists "
                        f"of {noise_dim} {n}x{n} matrices"
                    )

        a_at, a_take = _per_regime(mats)
        s_at, s_take = _per_regime(sig_mats)

        def batch_drift(I):
            a = a_take(I)
            return lambda X: np.matmul(a, X[:, :, None])[:, :, 0]

        def batch_diffusion(I):
            s = s_take(I)

            def diffusion(X):
                cols = np.matmul(s, X[:, None, :, None])[..., 0]
                return np.ascontiguousarray(cols.transpose(0, 2, 1))

            return diffusion

        scalar_drift = scalar_diffusion = scalar_step = None
        if n == 1 and noise_dim == 1:

            def scalar_step(i: int, dt: float):
                ai, si = float(a_at(i)[0, 0]), float(s_at(i)[0][0, 0])

                def step(x: float, w: float) -> float:
                    return x + ai * x * dt + si * x * w

                return step

            # read only by bench/tracer.py, as in example51
            def scalar_drift(x: float, i: int) -> float:
                return float(a_at(i)[0, 0]) * x

            def scalar_diffusion(x: float, i: int) -> float:
                return float(s_at(i)[0][0, 0]) * x

        return ModelSpec(
            dim=n,
            noise_dim=noise_dim,
            drift=point_form(batch_drift, n),
            diffusion=point_form(batch_diffusion, n),
            rate_kernel=kernel,
            zero_fixed=True,
            scalar_drift=scalar_drift,
            scalar_diffusion=scalar_diffusion,
            linearization=ExactLinearization(drift_matrix=a_at, diffusion_matrices=s_at),
            batch_drift=batch_drift,
            batch_diffusion=batch_diffusion,
            scalar_step=scalar_step,
        )

    raise ConfigurationError(
        f"unknown model family {family!r}; choose from {MODEL_FAMILIES}"
    )


# ---------------------------------------------------------------------------
# Lyapunov families, rate profiles, c sequences


def _regime_env(model_cfg: dict) -> tuple[tuple[str, ...], Callable[[int], dict]]:
    """Per-regime names available to c expressions (b, sigma, Lam1, lam1):
    returns the names and env(i) -> {name: value}."""
    family = model_cfg.get("family")
    params = model_cfg.get("params", {})
    if family == "example51":
        b_at = _per_regime([float(v) for v in params.get("b", [])])[0]
        sigma_at = _per_regime([float(v) for v in params.get("sigma", [])])[0]

        def env(i: int) -> dict:
            return {"b": b_at(i), "sigma": sigma_at(i)}

        return ("b", "sigma"), env
    if family in ("example52", "linear"):
        mats = [np.asarray(m, dtype=float) for m in params.get("matrices", [])]
        lam_pairs = []
        for m in mats:
            eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
            lam_pairs.append((float(eigs[0]), float(eigs[-1])))
        lam_at = _per_regime(lam_pairs)[0]

        def env(i: int) -> dict:
            lo, hi = lam_at(i)
            return {"lam1": lo, "Lam1": hi}

        return ("lam1", "Lam1"), env

    def env(i: int) -> dict:
        return {}

    return (), env


def _compile_expr(node):
    """Compile a c-expression syntax tree into names -> value.

    The grammar is numbers, names, unary and binary arithmetic, comparisons
    and calls to the _EXPR_MATH functions; anything else (attributes,
    subscripts, lambdas, strings, ...) is a ConfigurationError here.
    """
    kind = type(node)
    if kind is ast.Constant and type(node.value) in (int, float):
        value = node.value
        return lambda names: value
    if kind is ast.Name:
        key = node.id

        def lookup(names):
            if key not in names:
                raise ConfigurationError(f"lyapunov.c expr uses unknown name: {key!r}")
            return names[key]

        return lookup
    if kind is ast.UnaryOp and type(node.op) in _EXPR_UNARY:
        op, operand = _EXPR_UNARY[type(node.op)], _compile_expr(node.operand)
        return lambda names: op(operand(names))
    if kind is ast.BinOp and type(node.op) in _EXPR_BINARY:
        op = _EXPR_BINARY[type(node.op)]
        left, right = _compile_expr(node.left), _compile_expr(node.right)
        return lambda names: op(left(names), right(names))
    if kind is ast.Compare and all(type(o) in _EXPR_COMPARE for o in node.ops):
        ops = [_EXPR_COMPARE[type(o)] for o in node.ops]
        terms = [_compile_expr(t) for t in [node.left] + node.comparators]

        def compare(names):
            values = [t(names) for t in terms]
            return all(op(a, b) for op, a, b in zip(ops, values, values[1:]))

        return compare
    if (
        kind is ast.Call
        and type(node.func) is ast.Name
        and node.func.id in _EXPR_MATH
        and not node.keywords
    ):
        fn = _EXPR_MATH[node.func.id]
        args = [_compile_expr(a) for a in node.args]
        return lambda names: fn(*[a(names) for a in args])
    raise ConfigurationError(f"lyapunov.c expr: unsupported syntax {kind.__name__}")


def _check_c_bound(values: list, bound: float) -> None:
    """A declared bound must dominate every tabulated |c_i|."""
    worst = max(values, key=abs)
    if abs(worst) > bound:
        raise ConfigurationError(f"lyapunov.c value {worst} exceeds the declared bound {bound}")


def build_c(c_cfg: dict, model_cfg: dict):
    """Return (c callable, c_bound) from a c-sequence declaration."""
    kind = _require(c_cfg, "kind", "lyapunov.c")
    if kind == "constant":
        value = float(_require(c_cfg, "value", "lyapunov.c"))
        bound = float(c_cfg.get("bound", abs(value)))
        _check_c_bound([value], bound)
        return (lambda i: value), bound
    if kind == "table":
        values = [float(v) for v in _require(c_cfg, "values", "lyapunov.c")]
        tail = float(c_cfg.get("tail", values[-1]))
        bound = float(c_cfg.get("bound", max(abs(v) for v in values + [tail])))
        _check_c_bound(values + [tail], bound)

        return _per_regime(values + [tail])[0], bound
    if kind == "expr":
        text = _require(c_cfg, "expr", "lyapunov.c")
        bound = float(_require(c_cfg, "bound", "lyapunov.c"))
        params = {k: float(v) for k, v in c_cfg.get("params", {}).items()}
        env_names, env_of = _regime_env(model_cfg)
        try:
            tree = ast.parse(str(text), mode="eval")
        except SyntaxError as exc:
            raise ConfigurationError(f"lyapunov.c expr does not parse: {exc}") from None
        known = {"i", *params, *env_names, *_EXPR_MATH}
        unknown = sorted({n.id for n in ast.walk(tree) if type(n) is ast.Name} - known)
        if unknown:
            # an unknown name is an error of evaluating c(i), not of parsing
            def c(i: int) -> float:
                raise ConfigurationError(
                    f"lyapunov.c expr uses unknown name: {unknown[0]!r}"
                )

            return c, bound
        evaluate = _compile_expr(tree.body)
        cache: dict = {}

        def c(i: int) -> float:
            if i in cache:
                return cache[i]
            names = dict(params)
            names.update(env_of(i))
            names["i"] = i
            val = float(evaluate(names))
            cache[i] = val
            return val

        _check_c_bound([c(i) for i in range(1, 50)], bound)  # as LyapunovSpec.validate
        return c, bound
    raise ConfigurationError(f"unknown c kind {kind!r}; choose from {C_KINDS}")


def build_profile(g_cfg: dict, default_h: float) -> RateProfile:
    kind = _require(g_cfg, "kind", "lyapunov.g")
    h = float(g_cfg.get("h", default_h))
    if kind == "identity":
        return identity_profile(h=h)
    if kind == "power_1_plus_gamma":
        gamma = float(_require(g_cfg, "gamma", "lyapunov.g"))
        return power_profile(gamma=gamma, h=h)
    raise ConfigurationError(f"unknown g kind {kind!r}; choose from {G_KINDS}")


def build_lyapunov(lyap_cfg: dict, model_cfg: dict, dim: int) -> LyapunovSpec:
    family = _require(lyap_cfg, "family", "lyapunov")
    radius = float(_require(lyap_cfg, "domain_radius", "lyapunov"))
    if radius <= 0:
        raise ConfigurationError("lyapunov.domain_radius must be positive")

    if family == "square":
        batch_V = lambda X: np.vecdot(X, X)
        batch_grad = lambda X: 2.0 * X
        batch_hess = lambda X: np.broadcast_to(2.0 * np.eye(dim), (len(X), dim, dim))
        v_at_radius = radius**2
    elif family == "power_p":
        p = float(_require(lyap_cfg, "p", "lyapunov"))
        if p <= 0:
            raise ConfigurationError("lyapunov.p must be positive")

        def batch_V(X):
            return _pow(row_norms(X), p)

        def batch_grad(X):
            return (p * _pow(row_norms(X), p - 2.0))[:, None] * X

        def batch_hess(X):
            r = row_norms(X)
            a = (p * _pow(r, p - 2.0))[:, None, None]
            b = (p * (p - 2.0) * _pow(r, p - 4.0))[:, None, None]
            return a * np.eye(dim) + b * (X[:, :, None] * X[:, None, :])

        v_at_radius = radius**p
    else:
        raise ConfigurationError(
            f"unknown lyapunov family {family!r}; choose from {LYAPUNOV_FAMILIES}"
        )

    profile = build_profile(_require(lyap_cfg, "g", "lyapunov"), default_h=v_at_radius)
    c, bound = build_c(_require(lyap_cfg, "c", "lyapunov"), model_cfg)
    return LyapunovSpec(
        V=point_form(batch_V, dim),
        g=profile,
        c=c,
        c_bound=bound,
        domain_radius=radius,
        batch_V=batch_V,
        batch_grad_V=batch_grad,
        batch_hess_V=batch_hess,
    )


# ---------------------------------------------------------------------------
# Bundles


@dataclass
class McSettings:
    n_paths: int = 1000
    epsilon: float = 0.25
    delta_sweep: list = field(default_factory=lambda: [0.05, 0.03, 0.02])
    rate_paths: int = 300
    rate_horizon: Optional[float] = None
    rate_T0: Optional[float] = None


@dataclass
class ScenarioBundle:
    name: str
    model: ModelSpec
    lyap: LyapunovSpec
    chain_N: int
    chain_mode: str
    sim: SimConfig
    x0: np.ndarray
    i0: int
    mc: McSettings
    outputs: str
    raw: dict
    sha256: str


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_scenario(doc: dict, sha: Optional[str] = None) -> ScenarioBundle:
    """Build a runnable bundle from a scenario document.

    sha, when given, pins the provenance hash to the source file's raw bytes;
    otherwise the canonical JSON encoding of doc is hashed.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a JSON object")
    name = str(doc.get("name", "unnamed"))
    model_cfg = _require(doc, "model", "scenario")
    kernel_cfg = _require(doc, "kernel", "scenario")
    lyap_cfg = _require(doc, "lyapunov", "scenario")
    chain_cfg = doc.get("chain", {})
    sim_cfg = dict(doc.get("sim", {}))
    mc_cfg = doc.get("mc", {})

    kernel = build_kernel(
        _require(kernel_cfg, "family", "kernel"), kernel_cfg.get("params", {})
    )
    model = build_model(model_cfg, kernel)
    lyap = build_lyapunov(lyap_cfg, model_cfg, dim=model.dim)
    model.validate()
    # build_c has checked c against its bound wherever c can be evaluated
    lyap.validate(model.dim, regimes=())

    N = _positive_int(chain_cfg.get("N", 30), "chain.N must be >= 1, got")
    mode = str(chain_cfg.get("mode", "lump"))
    if mode not in ("lump", "drop"):
        raise ConfigurationError(f"chain.mode must be lump or drop, got {mode!r}")

    x0 = np.asarray(sim_cfg.pop("x0", [0.0] * model.dim), dtype=float).reshape(-1)
    if x0.shape != (model.dim,):
        raise ConfigurationError(f"sim.x0 has shape {x0.shape}, want ({model.dim},)")
    i0 = _positive_int(sim_cfg.pop("i0", 1), "sim.i0 must be a positive regime index, got")
    scheme = sim_cfg.get("switch_scheme", "per_step_thinning")
    if scheme != "per_step_thinning":
        raise ConfigurationError(
            f"sim.switch_scheme {scheme!r} is not supported; switching is "
            "always by per-step thinning"
        )
    sim = SimConfig(
        dt=float(sim_cfg.get("dt", 1e-3)),
        horizon=float(sim_cfg.get("horizon", 10.0)),
        seed=int(sim_cfg.get("seed", 0)),
        path_index=int(sim_cfg.get("path_index", 0)),
        stop_radius=_optional_float(sim_cfg.get("stop_radius")),
        record_stride=int(sim_cfg.get("record_stride", 1)),
    )
    bad_count = "mc path counts must be >= 1, got"
    mc = McSettings(
        n_paths=_positive_int(mc_cfg.get("n_paths", 1000), bad_count),
        epsilon=float(mc_cfg.get("epsilon", 0.25)),
        delta_sweep=[float(v) for v in mc_cfg.get("delta_sweep", [0.05, 0.03, 0.02])],
        rate_paths=_positive_int(mc_cfg.get("rate_paths", 300), bad_count),
        rate_horizon=_optional_float(mc_cfg.get("rate_horizon")),
        rate_T0=_optional_float(mc_cfg.get("rate_T0")),
    )
    if not (0.0 < mc.epsilon < 1.0):
        raise ConfigurationError("mc.epsilon must be in (0, 1)")
    return ScenarioBundle(
        name=name,
        model=model,
        lyap=lyap,
        chain_N=N,
        chain_mode=mode,
        sim=sim,
        x0=x0,
        i0=i0,
        mc=mc,
        outputs=str(doc.get("outputs", os.path.join("out", name))),
        raw=doc,
        sha256=sha if sha is not None else scenario_hash(doc),
    )


def load_scenario(path: str) -> ScenarioBundle:
    """Parse a scenario file; the bundle hash is the sha256 of the file bytes,
    so any edit to the file (even whitespace) yields a new hash."""
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc}")
    try:
        doc = json.loads(raw_bytes.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8: {exc}")
    return parse_scenario(doc, sha=hashlib.sha256(raw_bytes).hexdigest())


# ---------------------------------------------------------------------------
# Bundled presets

# scenarios/*.json, shipped as package data through the presets symlink
PRESET_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "presets")


def preset_names() -> list:
    """Names of the bundled presets: the scenario files in PRESET_DIR."""
    return sorted(f[: -len(".json")] for f in os.listdir(PRESET_DIR) if f.endswith(".json"))


def preset(name: str) -> ScenarioBundle:
    """Load a bundled preset; it hashes exactly like the same file run by path."""
    names = preset_names()
    if name not in names:
        raise ConfigurationError(f"unknown preset {name!r}; available: {', '.join(names)}")
    return load_scenario(os.path.join(PRESET_DIR, f"{name}.json"))
