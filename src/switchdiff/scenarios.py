"""Scenario files: named coefficient families wired into runnable bundles.

A scenario is a JSON document selecting a model family (example51, example52,
linear), a switching-kernel family (birth_death, example52_q, two_state,
custom_table), a Lyapunov family (square, power_p) with a rate profile g and
a c-sequence, plus chain truncation, simulation, and Monte Carlo settings.
Every field is read through the field tables below; the bundle carries the
sha256 of the file's bytes for provenance.  The bundled presets are the files
under scenarios/, read through the package's presets link.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import operator
import os
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError
from .model import (
    RATE_BOUND_TOL,
    ExactLinearization,
    LyapunovSpec,
    ModelSpec,
    RateKernel,
    _check_regime,
    mat_vecs,
    point_form,
    row_norms,
    running_dot,
)
from .rates import RateProfile, identity_profile, power_profile
from .simulator import SimConfig, _real, _whole

REQUIRED = object()  # the default of a key that must be given

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
    """|x| of a point row's x: a bare float, or a length-n array whose norm
    is row_norms', as the batch rows take it."""
    if isinstance(x, (float, int)):
        return abs(float(x))
    xs = np.ravel(x).tolist()
    return math.sqrt(running_dot(xs, xs))


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent element by element with float's own power, as the
    float loop's Euler maps compute it; numpy's vectorized power can differ
    from it in the last bit."""
    return np.array([b**exponent for b in base.tolist()]).reshape(base.shape)


def _per_regime(values):
    """Lookups in a finite per-regime list whose last entry covers every
    regime beyond it: the saturating tail by which finitely many constants
    describe countably many regimes, so that no regime past len(values) has
    an entry of its own (a family's ModelSpec.distinct_regimes).  Returns
    (at, take): at(i) is regime i's entry and rejects i < 1; take(I)
    gathers the entries of the regimes I, which must be at least 1, as one
    array."""
    stack, last = np.asarray(values), len(values) - 1

    def at(i: int):
        _check_regime(i)
        return values[min(i - 1, last)]

    def take(I: np.ndarray) -> np.ndarray:
        return np.take(stack, I - 1, axis=0, mode="clip")

    return at, take


# ---------------------------------------------------------------------------
# Field tables
#
# Each section of a scenario document is read by one table of Fields, and a
# family's params by its family's table.  A Field names a key, the kind of its
# value (see _value), its default (REQUIRED: none) and its check, a (predicate,
# text) pair that every number or string read must pass.  _read rejects a
# section that is not an object and a key its table does not name; a null is
# the default of a field whose default is None.  Numbers are read by _real and
# _whole, which refuse strings: "5" is not 5.


class Field(NamedTuple):
    name: str
    kind: object
    default: object = REQUIRED
    check: Optional[tuple] = None


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _value(value, kind, where: str, check):
    """value read as kind: float (a real), int (an integer >= 1), str, [k] (a
    nonempty list of k), {str: k} (an object of k by name), None (as it is: a
    section, which its own table reads, or a value SimConfig checks) or a
    reader kind(value, where, check)."""
    if isinstance(kind, list):
        if not (isinstance(value, list) and value):
            raise ConfigurationError(f"{where} must be a nonempty list, got {value!r}")
        return [_value(v, kind[0], f"{where}[{k}]", check) for k, v in enumerate(value)]
    if isinstance(kind, dict):
        return {k: _value(v, kind[str], f"{where}.{k}", check) for k, v in _object(value, where).items()}
    if kind is int:
        return _whole(value, where, 1)
    if kind is float:
        value = _real(value, where)
    elif kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{where} must be a string, got {value!r}")
    elif kind is not None:
        return kind(value, where, check)
    if check is not None and not check[0](value):
        raise ConfigurationError(f"{where} must be {check[1]}, got {value!r}")
    return value


def _read(section, fields: tuple, where: str) -> dict:
    """section, a JSON object, read by its table: {name: value read or default}."""
    _object(section, where)
    values = {}
    for f in fields:
        if f.default is REQUIRED and f.name not in section:
            raise ConfigurationError(f"{where}: missing required key {f.name!r}")
        value = section.get(f.name)
        absent = f.name not in section or (value is None and f.default is None)
        values[f.name] = f.default if absent else _value(value, f.kind, f"{where}.{f.name}", f.check)
    for key in section:
        if key not in values:
            allowed = ", ".join(values)
            raise ConfigurationError(f"{where}: unknown key {key!r}; allowed: {allowed}")
    return values


def _pick(tables: dict, choice, what: str) -> tuple:
    """The table of the family or kind named choice."""
    if isinstance(choice, str) and choice in tables:
        return tables[choice]
    raise ConfigurationError(f"unknown {what} {choice!r}; choose from {tuple(tables)}")


def _read_kind(section, key: str, tables: dict, where: str, what: str) -> dict:
    """section read by key's field and the table of the kind that key names."""
    fields = (Field(key, str),)
    if isinstance(section, dict) and key in section:
        fields += _pick(tables, section[key], what)
    return _read(section, fields, where)


def _auto_or_real(value, where: str, check):
    return value if value is None or value == "auto" else _value(value, float, where, check)


def _rate_rows(value, where: str, check) -> dict:
    """custom_table rows {regime: [[target, rate], ...]} as {i: ((j, rate), ...)},
    each row sorted by target.  JSON keys are strings, so a regime key is read
    from its text ("3", "3.0"); targets and rates are numbers."""
    table = {}
    for key, entries in _object(value, where).items():
        at = f"{where}[{key}]"
        try:
            number = float(key)
        except (TypeError, ValueError):
            number = key  # _whole rejects it
        i = _whole(number, f"{at} regime", 1)
        if i in table:
            raise ConfigurationError(f"{at}: regime {i} is listed twice")
        if not (isinstance(entries, list) and all(isinstance(e, list) and len(e) == 2 for e in entries)):
            raise ConfigurationError(f"{at} must be a list of [target, rate] pairs, got {entries!r}")
        pairs = [(_whole(j, f"{at} target", 1), _value(r, float, f"{at} rate", check)) for j, r in entries]
        row = tuple(sorted(pairs))
        for k, (j, _) in enumerate(row):
            if j == i or (k > 0 and j == row[k - 1][0]):
                raise ConfigurationError(f"{at}: invalid target {j}")
        table[i] = row
    return table


def _one_of(*choices) -> tuple:
    return choices.__contains__, " or ".join(choices)


FINITE = (math.isfinite, "finite")
POSITIVE = (lambda x: 0.0 < x < math.inf, "positive and finite")
NONNEGATIVE = (lambda x: 0.0 <= x < math.inf, "nonnegative and finite")
OPEN_UNIT = (lambda x: 0.0 < x < 1.0, "in (0, 1)")
MATRICES = [[[float]]]  # per-regime matrices; the model families check their shapes

SCENARIO_FIELDS = (
    Field("name", str, "unnamed"),
    Field("model", None),
    Field("kernel", None),
    Field("lyapunov", None),
    Field("chain", None, {}),
    Field("sim", None, {}),
    Field("mc", None, {}),
    Field("outputs", str, None),  # None: out/<name>
)
FAMILY_FIELDS = (Field("family", str), Field("params", None, {}))  # of model and kernel
_LINEAR = (
    Field("matrices", MATRICES, check=FINITE),
    Field("sigma_matrices", [MATRICES], None, FINITE),  # per regime, per noise; None: zero
    Field("noise_dim", int, 1),  # read without sigma_matrices
)
MODEL_PARAMS = {
    "example51": (
        Field("b", [float], check=FINITE),
        Field("sigma", [float], check=FINITE),
        Field("gamma", float, check=OPEN_UNIT),
    ),
    "example52": _LINEAR,
    "linear": _LINEAR,
}
KERNEL_PARAMS = {
    "birth_death": (
        Field("up", float, 1.0, NONNEGATIVE),
        Field("down", float, 2.0, POSITIVE),
        Field("modulation", float, 0.0, NONNEGATIVE),
    ),
    "example52_q": (Field("scale", float, 1.0, POSITIVE),),
    "two_state": (Field("q12", float, check=NONNEGATIVE), Field("q21", float, check=NONNEGATIVE)),
    "custom_table": (
        Field("rows", _rate_rows, check=NONNEGATIVE),
        Field("global_bound", _auto_or_real, "auto", NONNEGATIVE),  # None: no bound
    ),
}
_LYAPUNOV = (Field("domain_radius", float, check=POSITIVE), Field("g", None), Field("c", None))
LYAPUNOV_FIELDS = {"square": _LYAPUNOV, "power_p": _LYAPUNOV + (Field("p", float, check=POSITIVE),)}
G_FIELDS = {  # RateProfile checks h and gamma; h None: V at the domain radius
    "identity": (Field("h", float, None),),
    "power_1_plus_gamma": (Field("gamma", float), Field("h", float, None)),
}
C_FIELDS = {
    "constant": (Field("value", float, check=FINITE), Field("bound", float, None, NONNEGATIVE)),
    "table": (
        Field("values", [float], check=FINITE),
        Field("tail", float, None, FINITE),  # None: the last value
        Field("bound", float, None, NONNEGATIVE),  # None: the largest |c_i|
    ),
    "expr": (
        Field("expr", str),
        Field("bound", float, check=NONNEGATIVE),
        Field("params", {str: float}, {}, FINITE),
    ),
}
CHAIN_FIELDS = (Field("N", int, 30), Field("mode", str, "lump", _one_of("lump", "drop")))
SIM_FIELDS = (  # SimConfig checks its fields, dt to record_stride
    Field("dt", None, 1e-3),
    Field("horizon", None, 10.0),
    Field("seed", None, 0),
    Field("path_index", None, 0),
    Field("stop_radius", None, None),
    Field("record_stride", None, 1),
    Field("x0", [float], None, FINITE),  # None: the origin
    Field("i0", int, 1),
    Field("switch_scheme", str, "per_step_thinning", _one_of("per_step_thinning")),
)
MC_FIELDS = (
    Field("n_paths", int, 1000),
    Field("epsilon", float, 0.25, OPEN_UNIT),
    Field("delta_sweep", [float], (0.05, 0.03, 0.02), POSITIVE),
    Field("rate_paths", int, 300),
    Field("rate_horizon", float, None, POSITIVE),
    Field("rate_T0", float, None, POSITIVE),
)


# ---------------------------------------------------------------------------
# Kernel families


def build_kernel(family: str, params: dict) -> RateKernel:
    p = _read(params, _pick(KERNEL_PARAMS, family, "kernel family"), "kernel.params")
    if family == "birth_death":
        up, down, mod = p["up"], p["down"], p["modulation"]

        def row(x, i):
            _check_regime(i)
            f = 1.0 + mod * math.sin(_norm(x)) ** 2 if mod else 1.0
            if i == 1:
                return ((2, up * f),)
            return ((i - 1, down * f), (i + 1, up * f))

        def batch_rows(X, I):
            first = I == 1
            targets = np.stack([np.where(first, 2, I - 1), np.where(first, 0, I + 1)], axis=1)
            rates = np.stack([np.where(first, up, down), np.where(first, 0.0, up)], axis=1)
            if mod:
                rates = rates * (1.0 + mod * np.sin(row_norms(X)) ** 2)[:, None]
            return targets, rates

        return RateKernel(
            row=row,
            global_bound=(up + down) * (1.0 + mod),
            x_independent=not mod,
            batch_rows=batch_rows,
        )

    if family == "example52_q":
        scale = p["scale"]

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

    if family == "two_state":  # the custom_table of two regimes
        rows = {1: [[2, p["q12"]]], 2: [[1, p["q21"]]]}
        return build_kernel("custom_table", {"rows": rows})

    # custom_table
    table, bound = p["rows"], p["global_bound"]
    totals = {i: sum(r for _, r in row_) for i, row_ in table.items()}
    if bound == "auto":
        bound = max(totals.values(), default=0.0)
    elif bound is not None:
        for i, total in totals.items():
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

    return RateKernel(row=row, global_bound=bound, x_independent=True, batch_rows=batch_rows)


# ---------------------------------------------------------------------------
# Model families


def _linear_run(A: list, S: list, dt: float):
    """Euler map over a stretch (ModelSpec.scalar_run) of the linear regime
    dX = A X dt + S X dW with n <= 2 and one noise column, on floats: each
    step is the batched engine's x + (A x) dt + (0.0 + (S x) w), with A x
    and S x summed as mat_vecs sums them and |x| taken as row_norms takes
    it (abs for n = 1).  The state is a float for n = 1, else a pair of
    floats.  In 1-D the noise's + 0.0 changes only a step from x = -0.0,
    which the engine takes to +0.0; so the 1-D map leaves it out and takes
    a stretch from zero, a fixed point, at once."""
    sqrt = math.sqrt
    if len(A) == 1:
        ((a,),), ((s,),) = A, S

        def run(x: float, ws: list, k0: int, e: int, lim: float) -> tuple:
            if x == 0.0 and k0 < e:  # the noise is finite: zero stays zero
                if not 0.0 < lim:
                    return 0.0, x, k0
                return 0.0, x if k0 + 1 == e else 0.0, e
            ox = x
            for k in range(k0, e):
                ox = x
                x = ox + a * ox * dt + s * ox * ws[k]
                if not abs(x) < lim:
                    return x, ox, k
            return x, ox, e

        return run
    (a00, a01), (a10, a11) = A
    (s00, s01), (s10, s11) = S

    def run(x: tuple, ws: list, k0: int, e: int, lim: float) -> tuple:
        o0, o1 = x0, x1 = x
        for k in range(k0, e):
            o0, o1, w = x0, x1, ws[k]
            x0 = o0 + (a00 * o0 + a01 * o1) * dt + (0.0 + (s00 * o0 + s01 * o1) * w)
            x1 = o1 + (a10 * o0 + a11 * o1) * dt + (0.0 + (s10 * o0 + s11 * o1) * w)
            if not sqrt(x0 * x0 + x1 * x1) < lim:
                return (x0, x1), (o0, o1), k
        return (x0, x1), (o0, o1), e

    return run


def build_model(model_cfg: dict, kernel: RateKernel) -> ModelSpec:
    return _model(model_cfg, kernel)[0]


def _model(model_cfg: dict, kernel: RateKernel) -> tuple[ModelSpec, dict]:
    """The model and the per-regime values that c expressions may name: the
    lists b and sigma of example51, the extreme eigenvalues lam1 and Lam1 of
    the symmetric parts of the linear families' drift matrices."""
    cfg = _read(model_cfg, FAMILY_FIELDS, "model")
    family = cfg["family"]
    p = _read(cfg["params"], _pick(MODEL_PARAMS, family, "model family"), "model.params")

    if family == "example51":
        b, sigma = p["b"], p["sigma"]
        two_gamma = 2.0 * p["gamma"]
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

        def scalar_run(i: int, dt: float):
            # the float loop's Euler map over a stretch (ModelSpec): the batch
            # forms' operations on floats, in the same order, with regime i's
            # constants and dt bound
            bi, si = b_at(i), sigma_at(i)
            sin = math.sin

            def run(x: float, ws: list, a: int, e: int, lim: float) -> tuple:
                ox = x
                for k in range(a, e):
                    ox = x
                    s = sin(ox)
                    x = ox + bi * ox * abs(ox) ** two_gamma * dt + si * s * s * ws[k]
                    if not abs(x) < lim:
                        return x, ox, k
                return x, ox, e

            return run

        # read only by bench/tracer.py, which labels float-loop paths by them
        def scalar_drift(x: float, i: int) -> float:
            return b_at(i) * x * abs(x) ** two_gamma

        def scalar_diffusion(x: float, i: int) -> float:
            s = math.sin(x)
            return sigma_at(i) * s * s

        spec = ModelSpec(
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
            scalar_run=scalar_run,
            distinct_regimes=max(len(b), len(sigma)),
        )
        return spec, {"b": b, "sigma": sigma}

    # example52 and linear
    n = len(p["matrices"][0])
    sigma = p["sigma_matrices"] or [[[[0.0] * n] * n] * p["noise_dim"]]
    noise_dim = len(sigma[0])

    def square(m) -> bool:
        return len(m) == n and all(len(row) == n for row in m)

    if not all(map(square, p["matrices"])):
        raise ConfigurationError(f"model.params.matrices must all be {n}x{n}")
    if not all(len(regime) == noise_dim and all(map(square, regime)) for regime in sigma):
        raise ConfigurationError(
            "model.params.sigma_matrices must be per-regime lists "
            f"of {noise_dim} {n}x{n} matrices"
        )
    mats = [np.array(m) for m in p["matrices"]]
    sig_mats = [[np.array(s) for s in regime] for regime in sigma]

    a_at, a_take = _per_regime(mats)
    s_at, s_take = _per_regime(sig_mats)

    # A x and S_k x as mat_vecs sums, in the batch forms and on floats in
    # the Euler maps alike, so that both engines compute the same bits
    def batch_drift(I):
        return mat_vecs(a_take(I))

    def batch_diffusion(I):
        columns = mat_vecs(s_take(I))  # (P, d, n): S_k x for each k
        return lambda X: np.ascontiguousarray(columns(X).transpose(0, 2, 1))

    scalar_drift = scalar_diffusion = scalar_run = None
    if noise_dim == 1 and n <= 2:

        def scalar_run(i: int, dt: float):
            return _linear_run(a_at(i).tolist(), s_at(i)[0].tolist(), dt)

        if n == 1:
            # read only by bench/tracer.py, as in example51; with the
            # drift's + 0.0 a step from x = -0.0 gives +0.0, as the engine's
            def scalar_drift(x: float, i: int) -> float:
                return 0.0 + float(a_at(i)[0, 0]) * x

            def scalar_diffusion(x: float, i: int) -> float:
                return float(s_at(i)[0][0, 0]) * x

    spec = ModelSpec(
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
        scalar_run=scalar_run,
        distinct_regimes=max(len(mats), len(sig_mats)),
    )
    eigs = [np.linalg.eigvalsh(0.5 * (m + m.T)) for m in mats]
    return spec, {"lam1": [float(e[0]) for e in eigs], "Lam1": [float(e[-1]) for e in eigs]}


# ---------------------------------------------------------------------------
# Lyapunov families, rate profiles, c sequences


def _compile_expr(node):
    """Compile a c-expression syntax tree into names -> value.

    The grammar is numbers, names, unary and binary arithmetic, comparisons
    and calls to the _EXPR_MATH functions; anything else (attributes,
    subscripts, lambdas, strings, ...) is a ConfigurationError here.
    Constants are floats, so arithmetic, ** included, ends in bounded time.
    """
    kind = type(node)
    if kind is ast.Constant and type(node.value) in (int, float):
        value = _real(node.value, "lyapunov.c expr: an integer constant")
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


def build_c(c_cfg: dict, regime_values: dict):
    """Return (c callable, c_bound) from a c-sequence declaration.
    regime_values maps each per-regime name an expression may use to its
    per-regime list, as the model family parsed it (see _model)."""
    c_cfg = _read_kind(c_cfg, "kind", C_FIELDS, "lyapunov.c", "c kind")
    kind, bound = c_cfg["kind"], c_cfg["bound"]
    if kind != "expr":  # a table; a constant is a table of one value
        values = [c_cfg["value"]] if kind == "constant" else c_cfg["values"]
        tail = c_cfg.get("tail")
        values.append(values[-1] if tail is None else tail)
        bound = max(map(abs, values)) if bound is None else bound
        _check_c_bound(values, bound)
        return _per_regime(values)[0], bound
    params = c_cfg["params"]
    lookups = {name: _per_regime(values)[0] for name, values in regime_values.items()}
    try:
        tree = ast.parse(c_cfg["expr"], mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"lyapunov.c expr does not parse: {exc}") from None
    known = {"i", *params, *lookups, *_EXPR_MATH}
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
        names.update((name, at(i)) for name, at in lookups.items())
        names["i"] = float(i)
        try:
            val = float(evaluate(names))
        except (OverflowError, ZeroDivisionError, ValueError, TypeError) as exc:
            reason = "overflow" if type(exc) is OverflowError else exc
            raise ConfigurationError(f"lyapunov.c expr fails at i = {i}: {reason}") from None
        if not math.isfinite(val):
            raise ConfigurationError(f"lyapunov.c expr is {val} at i = {i}")
        cache[i] = val
        return val

    _check_c_bound([c(i) for i in range(1, 50)], bound)  # as LyapunovSpec.validate
    return c, bound


def build_profile(g_cfg: dict, default_h: float) -> RateProfile:
    g = _read_kind(g_cfg, "kind", G_FIELDS, "lyapunov.g", "g kind")
    h = default_h if g["h"] is None else g["h"]
    if g["kind"] == "identity":
        return identity_profile(h=h)
    return power_profile(gamma=g["gamma"], h=h)


def build_lyapunov(lyap_cfg: dict, regime_values: dict, dim: int) -> LyapunovSpec:
    cfg = _read_kind(lyap_cfg, "family", LYAPUNOV_FIELDS, "lyapunov", "lyapunov family")
    family, radius = cfg["family"], cfg["domain_radius"]
    if family == "square":
        batch_V = lambda X: np.vecdot(X, X)
        batch_grad = lambda X: 2.0 * X
        batch_hess = lambda X: np.broadcast_to(2.0 * np.eye(dim), (len(X), dim, dim))
        v_at_radius = radius**2
    else:  # power_p
        p = cfg["p"]

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

    profile = build_profile(cfg["g"], default_h=v_at_radius)
    c, bound = build_c(cfg["c"], regime_values)
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


McSettings = namedtuple("McSettings", [f.name for f in MC_FIELDS])


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
    top = _read(doc, SCENARIO_FIELDS, "scenario")
    kernel_cfg = _read(top["kernel"], FAMILY_FIELDS, "kernel")
    kernel = build_kernel(kernel_cfg["family"], kernel_cfg["params"])
    model, regime_values = _model(top["model"], kernel)
    lyap = build_lyapunov(top["lyapunov"], regime_values, dim=model.dim)
    model.validate()
    # build_c has checked c against its bound wherever c can be evaluated
    lyap.validate(model.dim, regimes=())

    chain = _read(top["chain"], CHAIN_FIELDS, "chain")
    sim = _read(top["sim"], SIM_FIELDS, "sim")
    x0, i0 = sim.pop("x0"), sim.pop("i0")
    del sim["switch_scheme"]  # per-step thinning, the one scheme there is
    x0 = np.zeros(model.dim) if x0 is None else np.array(x0)
    if x0.shape != (model.dim,):
        raise ConfigurationError(f"sim.x0 has shape {x0.shape}, want ({model.dim},)")
    mc = _read(top["mc"], MC_FIELDS, "mc")
    mc["delta_sweep"] = list(mc["delta_sweep"])
    name, outputs = top["name"], top["outputs"]
    return ScenarioBundle(
        name=name,
        model=model,
        lyap=lyap,
        chain_N=chain["N"],
        chain_mode=chain["mode"],
        sim=SimConfig(**sim),
        x0=x0,
        i0=i0,
        mc=McSettings(**mc),
        outputs=os.path.join("out", name) if outputs is None else outputs,
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
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ConfigurationError(f"{path}: not a JSON document: {exc}")
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
