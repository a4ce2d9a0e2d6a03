"""Shared fixtures and the acceptance-summary hook.

Tests that implement a numbered acceptance criterion report their outcome via
record_acceptance; the terminal summary prints one PASS/FAIL line each.
"""

import numpy as np
import pytest

import switchdiff as sd

_ACCEPTANCE: dict = {}


def record_acceptance(number: int, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE[number] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        passed, detail = _ACCEPTANCE[number]
        line = f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


# Session-scoped parsed bundles of the four worked examples.  preset()
# returns a fresh ScenarioBundle; the raw document is bundle.raw.


@pytest.fixture(scope="session")
def stable51():
    return sd.preset("example51_stable")


@pytest.fixture(scope="session")
def unstable51():
    return sd.preset("example51_unstable")


@pytest.fixture(scope="session")
def stable52():
    return sd.preset("example52_stable")


@pytest.fixture(scope="session")
def unstable52():
    return sd.preset("example52_unstable")


def two_state_kernel(q12: float, q21: float) -> sd.RateKernel:
    def row(x, i):
        if i == 1:
            return ((2, q12),)
        if i == 2:
            return ((1, q21),)
        return ()

    return sd.RateKernel(row=row, global_bound=max(q12, q21), x_independent=True)


def euler_run(step):
    """A ModelSpec.scalar_run from step(i, dt), regime i's Euler map on
    floats for one step, x -> step(i, dt)(x, w): its stretch takes the steps
    one call at a time, as the model families' own maps take them inline."""

    def scalar_run(i, dt):
        one = step(i, dt)

        def run(x, ws, a, e, lim):
            ox = x
            for k in range(a, e):
                ox = x
                x = one(ox, ws[k])
                if not abs(x) < lim:
                    return x, ox, k
            return x, ox, e

        return run

    return scalar_run


def single_regime_linear(a: float, s: float = 0.0) -> sd.ModelSpec:
    """dX = a X dt + s X dW with an empty switching table."""

    def row(x, i):
        return ()

    kernel = sd.RateKernel(row=row, global_bound=0.0, x_independent=True)
    return sd.ModelSpec(
        dim=1,
        noise_dim=1,
        drift=lambda x, i: a * np.asarray(x, dtype=float),
        diffusion=lambda x, i: s * np.asarray(x, dtype=float).reshape(1, 1),
        rate_kernel=kernel,
        zero_fixed=True,
        scalar_run=euler_run(lambda i, dt: lambda x, w: x + a * x * dt + s * x * w),
        linearization=sd.ExactLinearization(
            drift_matrix=lambda i: np.array([[a]]),
            diffusion_matrices=lambda i: [np.array([[s]])],
        ),
    )


def square_lyapunov(
    c, c_bound: float, radius: float = 1.0, profile: "sd.RateProfile | None" = None
) -> sd.LyapunovSpec:
    if profile is None:
        profile = sd.identity_profile(h=radius**2)
    return sd.LyapunovSpec(
        V=lambda x: float(np.dot(x, x)),
        g=profile,
        c=c if callable(c) else (lambda i, _c=c: float(_c)),
        c_bound=c_bound,
        domain_radius=radius,
        grad_V=lambda x: 2.0 * np.asarray(x, dtype=float),
        hess_V=lambda x: 2.0 * np.eye(np.asarray(x).size),
    )
