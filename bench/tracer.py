"""In-memory span tracer that wraps switchdiff's public functions from outside.

The program carries no tracing of its own.  For a traced round the benchmark
patches each public function at the name where it is looked up (``cli`` binds
names at import, ``run_ensemble`` finds ``simulate`` in the ``simulator``
namespace, ``ergodicity_diagnostic`` finds ``invariant_measure`` and
``transition_matrix`` in ``markov_chain``), and it wraps the input callables of
every parsed scenario (kernel ``row``, drift and diffusion callbacks) with call
counters.  Spans stay in memory; the run writes them out once at the end.
"""

from __future__ import annotations

import contextlib
import time

# span name -> metric group.  A group's time counts only spans with no
# ancestor in the same group, so recursion (transition_matrix halving itself)
# and wrappers of wrappers (preset -> parse_scenario) are not counted twice.
GROUPS = {
    "cli.command": "cli",
    "scenarios.preset": "parse",
    "scenarios.load_scenario": "parse",
    "scenarios.parse_scenario": "parse",
    "markov_chain.truncate": "truncate",
    "markov_chain.invariant_measure": "invariant_measure",
    "markov_chain.ergodicity_diagnostic": "ergodicity",
    "markov_chain.transition_matrix": "transition_matrix",
    "model.verify_drift_condition": "drift_scan",
    "stability.scan_mg": "mg_scan",
    "stability.scan_kernel_continuity": "kernel_scan",
    "stability.linearize": "linearize",
    "stability.check_theorem_hypotheses": "criteria",
    "stability.proposition41_criterion": "criteria",
    "simulator.run_ensemble": "ensemble",
    "simulator.simulate": "simulate",
    "simulator.simulate_coupled": "coupled",
    "simulator.functional": "functionals",
    "rates.estimate_pathwise_rate": "estimate",
    "write": "write",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "nested", "attrs")

    def __init__(self, name, parent, start, nested):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.nested = nested
        self.attrs = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Spans (name, parent, start, end) and counters of one traced round."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def begin(self, name: str) -> Span:
        group = GROUPS.get(name)
        nested = any(GROUPS.get(s.name) == group for s in self._stack)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, time.perf_counter(), nested)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                on_return(span, result, args, kwargs)
            return result

        return traced

    def counted(self, key: str, fn):
        counters = self.counters

        def counting(*args):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args)

        return counting

    def to_records(self) -> list:
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [
            {
                "id": k,
                "parent": None if s.parent is None else index[id(s.parent)],
                "name": s.name,
                "start": s.start,
                "end": s.end,
                **s.attrs,
            }
            for k, s in enumerate(self.spans)
        ]


def _self_ms(spans: list, name: str) -> float:
    """Duration of the named spans minus the part their direct children cover
    (children never overlap: the program runs on one thread)."""
    child_ms: dict = {}
    for s in spans:
        if s.parent is not None and s.parent.name == name:
            child_ms[id(s.parent)] = child_ms.get(id(s.parent), 0.0) + s.ms
    return sum(s.ms - child_ms.get(id(s), 0.0) for s in spans if s.name == name)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round, keyed as in BENCHMARK.json."""
    spans = tracer.spans
    ms: dict = {}
    calls: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        if not s.nested:
            group = GROUPS.get(s.name)
            ms[group] = ms.get(group, 0.0) + s.ms

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    drift_points = attr_sum("model.verify_drift_condition", "points")
    # a call that raised has no work counts and is left out of the per-step costs
    paths = [s for s in spans if s.name == "simulator.simulate" and "steps" in s.attrs]
    scalar = [s for s in paths if s.attrs["scalar"]]
    vector = [s for s in paths if not s.attrs["scalar"]]
    coupled = [s for s in spans if s.name == "simulator.simulate_coupled" and "steps" in s.attrs]
    path_lambdas = attr_sum("rates.estimate_pathwise_rate", "path_lambdas")
    c = tracer.counters
    return {
        "scenarios.parse_ms": ms.get("parse", 0.0),
        "markov_chain.truncate_ms": ms.get("truncate", 0.0),
        "markov_chain.invariant_measure_ms": ms.get("invariant_measure", 0.0),
        "markov_chain.invariant_measure_calls": calls.get("markov_chain.invariant_measure", 0),
        "markov_chain.ergodicity_ms": ms.get("ergodicity", 0.0),
        "markov_chain.transition_matrix_calls": calls.get("markov_chain.transition_matrix", 0),
        "markov_chain.transition_matrix_ms": ms.get("transition_matrix", 0.0),
        "model.drift_scan_ms": ms.get("drift_scan", 0.0),
        "model.drift_scan_points": drift_points,
        "model.drift_us_per_point": per(ms.get("drift_scan", 0.0) * 1e3, drift_points),
        "model.kernel_row_calls": c.get("model.kernel_row_calls", 0),
        "model.coefficient_calls": c.get("model.coefficient_calls", 0),
        "stability.mg_scan_ms": ms.get("mg_scan", 0.0),
        "stability.kernel_scan_ms": ms.get("kernel_scan", 0.0),
        "stability.linearize_ms": ms.get("linearize", 0.0),
        "stability.criteria_ms": ms.get("criteria", 0.0),
        "simulator.scalar_us_per_step": per(
            sum(s.ms for s in scalar) * 1e3, sum(s.attrs["steps"] for s in scalar)
        ),
        "simulator.vector_us_per_step": per(
            sum(s.ms for s in vector) * 1e3, sum(s.attrs["steps"] for s in vector)
        ),
        "simulator.coupled_us_per_step": per(
            sum(s.ms for s in coupled) * 1e3, sum(s.attrs["steps"] for s in coupled)
        ),
        "simulator.simulate_calls": calls.get("simulator.simulate", 0),
        "simulator.steps": attr_sum("simulator.simulate", "steps"),
        "simulator.jumps": attr_sum("simulator.simulate", "jumps"),
        "simulator.exits": attr_sum("simulator.simulate", "exits"),
        "simulator.functionals_ms": ms.get("functionals", 0.0),
        "simulator.ensemble_self_ms": _self_ms(spans, "simulator.run_ensemble"),
        "rates.estimate_ms": ms.get("estimate", 0.0),
        "rates.us_per_path_lambda": per(ms.get("estimate", 0.0) * 1e3, path_lambdas),
        "rates.envelope_evals": attr_sum("rates.estimate_pathwise_rate", "envelope_evals"),
        "cli.write_ms": ms.get("write", 0.0),
        "cli.self_ms": _self_ms(spans, "cli.command"),
    }


# ---------------------------------------------------------------------------
# Hooks that read work counts off return values


def _steps(traj, dt: float) -> int:
    return int(round(float(traj.times[-1]) / dt))


def _config_dt(args, kwargs) -> float:
    return kwargs["config"].dt if "config" in kwargs else args[1].dt


def _on_simulate(span, traj, args, kwargs):
    spec = args[0]
    span.attrs["scalar"] = (
        spec.dim == 1
        and spec.noise_dim == 1
        and spec.scalar_drift is not None
        and spec.scalar_diffusion is not None
    )
    span.attrs["steps"] = _steps(traj, _config_dt(args, kwargs))
    span.attrs["jumps"] = len(traj.jumps)
    span.attrs["exits"] = int(traj.exited)


def _on_coupled(span, traj, args, kwargs):
    span.attrs["steps"] = _steps(traj, _config_dt(args, kwargs))


def _on_drift_scan(span, report, args, kwargs):
    span.attrs["points"] = report.n_checked


def _on_estimate(span, est, args, kwargs):
    trajectories = args[0]
    T0 = kwargs["T0"] if "T0" in kwargs else args[3]
    points = sum(
        int((t.times >= T0).sum())
        for t in trajectories
        if not (t.exited or t.blew_up)
    )
    n_lambda = len(est.quantile_curve)
    span.attrs["path_lambdas"] = (est.n_paths - est.n_excluded) * n_lambda
    span.attrs["envelope_evals"] = points * n_lambda


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers for the duration of one traced round."""
    from switchdiff import cli, markov_chain, scenarios, simulator

    saved = []

    def patch(owner, attr, name, on_return=None):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_return))

    def instrument(span, bundle, args, kwargs):
        # counters on the input callables the program receives
        kernel = bundle.model.rate_kernel
        kernel.row = tracer.counted("model.kernel_row_calls", kernel.row)
        for attr in ("drift", "diffusion", "scalar_drift", "scalar_diffusion"):
            fn = getattr(bundle.model, attr)
            if fn is not None:
                setattr(bundle.model, attr, tracer.counted("model.coefficient_calls", fn))

    patch(cli, "preset", "scenarios.preset")
    patch(cli, "load_scenario", "scenarios.load_scenario")
    patch(scenarios, "parse_scenario", "scenarios.parse_scenario", instrument)
    for owner in (cli, markov_chain):
        patch(owner, "truncate", "markov_chain.truncate")
        patch(owner, "invariant_measure", "markov_chain.invariant_measure")
        patch(owner, "transition_matrix", "markov_chain.transition_matrix")
    patch(cli, "ergodicity_diagnostic", "markov_chain.ergodicity_diagnostic")
    patch(cli, "verify_drift_condition", "model.verify_drift_condition", _on_drift_scan)
    patch(cli, "scan_mg", "stability.scan_mg")
    patch(cli, "scan_kernel_continuity", "stability.scan_kernel_continuity")
    patch(cli, "linearize", "stability.linearize")
    patch(cli, "check_theorem_hypotheses", "stability.check_theorem_hypotheses")
    patch(cli, "proposition41_criterion", "stability.proposition41_criterion")
    patch(cli, "run_ensemble", "simulator.run_ensemble")
    patch(cli, "simulate", "simulator.simulate", _on_simulate)
    patch(simulator, "simulate", "simulator.simulate", _on_simulate)
    patch(cli, "simulate_coupled", "simulator.simulate_coupled", _on_coupled)
    patch(cli, "estimate_pathwise_rate", "rates.estimate_pathwise_rate", _on_estimate)
    for attr in ("write_measure_csv", "write_trajectory_csv", "write_quantile_curve"):
        patch(cli, attr, "write")
    for cls in (simulator.StayInBall, simulator.ConvergesToZero, simulator.Occupation):
        patch(cls, "evaluate", "simulator.functional")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
