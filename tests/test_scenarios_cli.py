"""Scenario documents and the command-line pipelines built on them.

Covers the JSON-to-bundle parsing layer (families, validation, hashing,
presets read from scenarios/) and each CLI subcommand end to end on small
workloads, including the partial-artifact exit paths.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import switchdiff as sd
from switchdiff import cli
from switchdiff import scenarios as sc
from switchdiff.errors import ConfigurationError, EvaluationError, SwitchDiffError

ALL_PRESETS = (
    "contraction_benchmark",
    "example51_stable",
    "example51_unstable",
    "example52_stable",
    "example52_unstable",
    "two_state_switching",
)


SCENARIO_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scenarios")


def doc_of(name: str) -> dict:
    # every call parses the preset file afresh, so tampering stays local
    return sd.preset(name).raw


def small_doc(name="tiny", rows=None, global_bound="auto") -> dict:
    if rows is None:
        rows = {"1": [[2, 0.5]], "2": [[1, 0.5]]}
    return {
        "name": name,
        "model": {"family": "linear", "params": {"matrices": [[[-1.0]]]}},
        "kernel": {
            "family": "custom_table",
            "params": {"rows": rows, "global_bound": global_bound},
        },
        "lyapunov": {
            "family": "square",
            "domain_radius": 1.0,
            "g": {"kind": "identity"},
            "c": {"kind": "constant", "value": -1.0, "bound": 1.0},
        },
        "chain": {"N": 2, "mode": "drop"},
        "sim": {"dt": 0.01, "horizon": 1.0, "x0": [0.1], "i0": 1, "seed": 1},
        "mc": {"n_paths": 4, "epsilon": 0.25},
    }


class TestPresets:
    def test_every_preset_parses_with_consistent_provenance(self):
        assert tuple(sd.preset_names()) == ALL_PRESETS
        for name in ALL_PRESETS:
            path = os.path.join(SCENARIO_DIR, f"{name}.json")
            with open(path, "rb") as fh:
                file_sha = hashlib.sha256(fh.read()).hexdigest()
            bundle = sd.preset(name)
            loaded = sd.load_scenario(path)
            assert bundle.name == name
            # one scenario, one hash: a preset run is a run of its file
            assert bundle.sha256 == loaded.sha256 == file_sha
            assert bundle.raw == loaded.raw
            assert bundle.model.dim == bundle.x0.shape[0]
            assert bundle.chain_N >= 1

    def test_example51_stable_fields(self, stable51):
        b = stable51
        assert b.model.dim == 1
        assert b.chain_N == 40 and b.chain_mode == "lump"
        assert b.sim.dt == 0.002
        assert b.sim.horizon == 15.0
        assert b.sim.stop_radius == 0.5
        assert b.sim.record_stride == 10
        assert b.i0 == 1
        np.testing.assert_allclose(b.x0, [0.02])
        assert b.mc.n_paths == 10000
        assert b.mc.rate_horizon == 100.0
        assert b.outputs == os.path.join("out", "example51_stable")

    def test_example51_c_expression_with_parameter(self, stable51):
        c = stable51.lyap.c
        assert c(1) == pytest.approx(2.2, abs=1e-12)   # 2*1.0 + 0.2
        assert c(2) == pytest.approx(-3.8, abs=1e-12)  # 2*(-2.0) + 0.2
        # regime lookup saturates at the last tabulated coefficient
        assert c(17) == c(2)
        assert stable51.lyap.c_bound == 4.2

    def test_example52_c_uses_symmetric_part_eigenvalues(self, stable52, unstable52):
        # largest/smallest eigenvalues of (A + A^T)/2 for the two matrices
        c = stable52.lyap.c
        assert c(1) == pytest.approx(-11.0, abs=1e-12)
        assert c(2) == pytest.approx(2.5, abs=1e-12)
        assert c(9) == pytest.approx(2.5, abs=1e-12)
        cu = unstable52.lyap.c
        assert cu(1) == pytest.approx(7.5, abs=1e-12)
        assert cu(2) == pytest.approx(-2.25, abs=1e-12)

    def test_contraction_benchmark_is_a_frozen_ou_check(self):
        b = sd.preset("contraction_benchmark")
        assert b.chain_N == 1
        np.testing.assert_allclose(b.model.drift(np.array([0.3]), 1), [-0.3])
        assert b.model.rate_kernel.row(np.array([0.3]), 1) == ()
        assert b.lyap.g.g(2.0) == 2.0
        assert b.mc.rate_paths == 8

    def test_preset_returns_fresh_bundles(self):
        first = sd.preset("two_state_switching")
        first.raw["sim"]["dt"] = 99.0
        again = sd.preset("two_state_switching")
        assert again.sim.dt == 0.001
        assert again.raw["sim"]["dt"] == 0.001

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            sd.preset("example53")

    def test_preset_name_with_a_path_separator_opens_no_file(self, monkeypatch):
        def no_open(path):
            raise AssertionError(f"preset lookup opened {path}")

        monkeypatch.setattr(sc, "load_scenario", no_open)
        with pytest.raises(ConfigurationError, match="unknown preset"):
            sd.preset("../pyproject")


class TestKernelBuilders:
    def test_birth_death_constant_rates(self):
        k = sd.build_kernel("birth_death", {"up": 1.0, "down": 2.0, "modulation": 0.0})
        assert k.x_independent
        assert k.global_bound == 3.0
        assert k.row(np.zeros(1), 1) == ((2, 1.0),)
        assert k.row(np.zeros(1), 5) == ((4, 2.0), (6, 1.0))

    def test_birth_death_modulated_rates(self):
        k = sd.build_kernel("birth_death", {"up": 1.0, "down": 2.0, "modulation": 0.5})
        assert not k.x_independent
        assert k.global_bound == pytest.approx(4.5)
        x = np.array([math.pi / 2.0])
        (down, d_rate), (up, u_rate) = k.row(x, 3)
        assert (down, up) == (2, 4)
        assert d_rate == pytest.approx(3.0)
        assert u_rate == pytest.approx(1.5)

    def test_example52_q_rows(self):
        k = sd.build_kernel("example52_q", {"scale": 1.0})
        assert k.global_bound == 4.0
        assert k.row(np.zeros(2), 1) == ((2, 1.0),)
        at_origin = k.row(np.zeros(2), 3)
        assert at_origin == ((1, 1.0), (4, 1.0))
        r = 1.0 + math.sin(0.5)
        far = k.row(np.array([0.3, 0.4]), 3)
        assert far[0][1] == pytest.approx(r) and far[1][1] == pytest.approx(r)

    def test_custom_table_auto_bound_and_sorting(self):
        k = sd.build_kernel(
            "custom_table", {"rows": {"1": [[3, 2.0], [2, 1.0]], "2": [[1, 0.5]]}}
        )
        assert k.row(np.zeros(1), 1) == ((2, 1.0), (3, 2.0))
        assert k.row(np.zeros(1), 9) == ()
        assert k.global_bound == 3.0

    def test_custom_table_explicit_none_bound(self):
        k = sd.build_kernel("custom_table", {"rows": {}, "global_bound": None})
        assert k.global_bound is None


BAD_DOCS = [
    ("drop_model", lambda d: d.pop("model"), "missing required key 'model'"),
    ("drop_kernel", lambda d: d.pop("kernel"), "missing required key 'kernel'"),
    ("drop_lyapunov", lambda d: d.pop("lyapunov"), "missing required key 'lyapunov'"),
    (
        "bad_model_family",
        lambda d: d["model"].update(family="example99"),
        "unknown model family",
    ),
    (
        "gamma_too_big",
        lambda d: d["model"]["params"].update(gamma=1.5),
        "gamma must be in",
    ),
    (
        "bad_kernel_family",
        lambda d: d["kernel"].update(family="nope"),
        "unknown kernel family",
    ),
    (
        "negative_birth_death",
        lambda d: d["kernel"]["params"].update(down=0.0),
        "kernel.params.down must be positive",
    ),
    (
        "bad_lyap_family",
        lambda d: d["lyapunov"].update(family="cube"),
        "unknown lyapunov family",
    ),
    (
        "zero_radius",
        lambda d: d["lyapunov"].update(domain_radius=0.0),
        "domain_radius must be positive",
    ),
    (
        "bad_g_kind",
        lambda d: d["lyapunov"]["g"].update(kind="logistic"),
        "unknown g kind",
    ),
    (
        "g_missing_gamma",
        lambda d: d["lyapunov"]["g"].pop("gamma"),
        "missing required key 'gamma'",
    ),
    (
        "bad_c_kind",
        lambda d: d["lyapunov"].update(c={"kind": "spline"}),
        "unknown c kind",
    ),
    (
        "c_expr_missing_bound",
        lambda d: d["lyapunov"].update(c={"kind": "expr", "expr": "1.0"}),
        "missing required key 'bound'",
    ),
    ("chain_n_zero", lambda d: d["chain"].update(N=0), "chain.N must be a positive integer"),
    # int() took 2.5 as 2
    (
        "chain_n_fractional",
        lambda d: d["chain"].update(N=2.5),
        "chain.N must be a positive integer, got 2.5",
    ),
    (
        "chain_bad_mode",
        lambda d: d["chain"].update(mode="middle"),
        "mode must be lump or drop",
    ),
    ("x0_wrong_shape", lambda d: d["sim"].update(x0=[0.1, 0.2]), "sim.x0 has shape"),
    ("i0_zero", lambda d: d["sim"].update(i0=0), "sim.i0 must be a positive integer"),
    ("i0_fractional", lambda d: d["sim"].update(i0=1.5), "sim.i0 must be a positive integer"),
    (
        "switch_scheme_not_thinning",
        lambda d: d["sim"].update(switch_scheme="exponential_proposals"),
        "sim.switch_scheme must be per_step_thinning, got 'exponential_proposals'",
    ),
    (
        "epsilon_zero",
        lambda d: d["mc"].update(epsilon=0.0),
        r"epsilon must be in \(0, 1\)",
    ),
    (
        "epsilon_one",
        lambda d: d["mc"].update(epsilon=1.0),
        r"epsilon must be in \(0, 1\)",
    ),
    # each escaped parse_scenario as a TypeError, a ValueError or an
    # OverflowError, or (a fractional stride) was truncated to an int
    ("dt_null", lambda d: d["sim"].update(dt=None), "dt must be a number, got None"),
    ("horizon_null", lambda d: d["sim"].update(horizon=None), "horizon must be a number"),
    ("horizon_inf", lambda d: d["sim"].update(horizon=math.inf), "horizon must be finite"),
    ("stride_nan", lambda d: d["sim"].update(record_stride=math.nan), "stride must be a positive"),
    ("stride_inf", lambda d: d["sim"].update(record_stride=math.inf), "stride must be a positive"),
    ("stride_fractional", lambda d: d["sim"].update(record_stride=2.5), "stride must be a positive"),
    ("stride_string", lambda d: d["sim"].update(record_stride="10"), "stride must be a number"),
    ("seed_fractional", lambda d: d["sim"].update(seed=7.9), "seed must be a nonnegative integer"),
    ("no_paths", lambda d: d["mc"].update(n_paths=0), "mc.n_paths must be a positive integer"),
    (
        "fractional_paths",
        lambda d: d["mc"].update(rate_paths=2.5),
        "mc.rate_paths must be a positive integer",
    ),
    # a non-object section ended in an AttributeError
    ("chain_not_an_object", lambda d: d.update(chain=[]), "chain must be a JSON object, got list"),
    ("mc_not_an_object", lambda d: d.update(mc=3), "mc must be a JSON object, got int"),
    (
        "kernel_params_not_an_object",
        lambda d: d["kernel"].update(params=[]),
        "kernel.params must be a JSON object, got list",
    ),
    # the rate-check horizons took strings, NaN and inf, and failed inside verify-rate
    (
        "rate_horizon_nan_string",
        lambda d: d["mc"].update(rate_horizon="nan"),
        "mc.rate_horizon must be a number, got 'nan'",
    ),
    (
        "rate_horizon_numeric_string",
        lambda d: d["mc"].update(rate_horizon="5"),
        "mc.rate_horizon must be a number, got '5'",
    ),
    (
        "rate_horizon_nan",
        lambda d: d["mc"].update(rate_horizon=math.nan),
        "mc.rate_horizon must be positive and finite, got nan",
    ),
    (
        "rate_horizon_inf",
        lambda d: d["mc"].update(rate_horizon=math.inf),
        "mc.rate_horizon must be positive and finite, got inf",
    ),
    (
        "rate_T0_numeric_string",
        lambda d: d["mc"].update(rate_T0="5"),
        "mc.rate_T0 must be a number, got '5'",
    ),
    (
        "rate_T0_inf",
        lambda d: d["mc"].update(rate_T0=math.inf),
        "mc.rate_T0 must be positive and finite, got inf",
    ),
    # each parsed, and the run used a default or a truncated value
    (
        "kernel_typo_dwn",
        lambda d: d["kernel"]["params"].update(dwn=d["kernel"]["params"].pop("down")),
        "kernel.params: unknown key 'dwn'; allowed: up, down, modulation",
    ),
    (
        "sim_typo_horizn",
        lambda d: d["sim"].update(horizn=d["sim"].pop("horizon")),
        "sim: unknown key 'horizn'",
    ),
    ("top_level_bogus", lambda d: d.update(bogus=1), "scenario: unknown key 'bogus'"),
    ("chain_n_string", lambda d: d["chain"].update(N="30"), "chain.N must be a number, got '30'"),
    (
        "noise_dim_fractional",
        lambda d: d.update(model={"family": "linear", "params": {"matrices": [[[-1.0]]], "noise_dim": 2.5}}),
        "model.params.noise_dim must be a positive integer, got 2.5",
    ),
    # each ended in a TypeError, a ValueError, an IndexError or an OverflowError
    (
        "c_table_empty",
        lambda d: d["lyapunov"].update(c={"kind": "table", "values": []}),
        r"lyapunov.c.values must be a nonempty list, got \[\]",
    ),
    (
        "b_null",
        lambda d: d["model"]["params"].update(b=None),
        "model.params.b must be a nonempty list, got None",
    ),
    (
        "up_string",
        lambda d: d["kernel"]["params"].update(up="x"),
        "kernel.params.up must be a number, got 'x'",
    ),
    (
        "matrices_ragged",
        lambda d: d.update(model={"family": "linear", "params": {"matrices": [[[1, 0], [0]]]}}),
        "model.params.matrices must all be 2x2",
    ),
    (
        "epsilon_beyond_floats",
        lambda d: d["mc"].update(epsilon=10**400),
        "mc.epsilon exceeds the float range",
    ),
    (
        # regime 7 lies beyond the regimes ModelSpec.validate spot-checks
        "global_bound_understated_in_a_far_row",
        lambda d: d.update(
            kernel={
                "family": "custom_table",
                "params": {
                    "rows": {"1": [[2, 0.05]], "2": [[1, 0.05]], "7": [[8, 5.0]]},
                    "global_bound": 0.1,
                },
            }
        ),
        r"rows\[7\]: rate sum 5.0 exceeds declared global bound 0.1",
    ),
]


class TestParseValidation:
    @pytest.mark.parametrize(
        "mutate,match",
        [pytest.param(m, txt, id=name) for name, m, txt in BAD_DOCS],
    )
    def test_malformed_documents_are_rejected(self, mutate, match):
        doc = doc_of("example51_stable")
        mutate(doc)
        with pytest.raises(ConfigurationError, match=match):
            sc.parse_scenario(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="must be a JSON object"):
            sc.parse_scenario(["not", "a", "mapping"])

    def test_an_integral_float_stride_is_an_int(self):
        doc = doc_of("example51_stable")
        doc["sim"]["record_stride"] = 10.0
        sim = sc.parse_scenario(doc).sim
        assert sim.record_stride == 10 and type(sim.record_stride) is int

    @pytest.mark.parametrize(
        "mutate,command,message",
        [
            (lambda d: d["lyapunov"]["c"].update(expr="i**i**i"), "analyze", "lyapunov.c expr"),
            (lambda d: d["sim"].update(record_stride=math.nan), "simulate", "record_stride"),
        ],
        ids=["c_overflow", "stride_nan"],
    )
    def test_the_cli_exits_two_on_a_document_that_fails_to_parse(
        self, tmp_path, capsys, mutate, command, message
    ):
        # both ended in a traceback and exit 1
        doc = doc_of("example51_stable")
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = cli.main([command, "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_two_state_requires_both_rates(self):
        doc = doc_of("two_state_switching")
        del doc["kernel"]["params"]["q21"]
        with pytest.raises(ConfigurationError, match="missing required key 'q21'"):
            sc.parse_scenario(doc)

    def test_custom_table_rejects_bad_rows(self):
        with pytest.raises(ConfigurationError, match=r"rows\[1\] rate must be nonnegative"):
            sd.build_kernel("custom_table", {"rows": {"1": [[2, -1.0]]}})
        with pytest.raises(ConfigurationError, match="invalid target"):
            sd.build_kernel("custom_table", {"rows": {"3": [[3, 1.0]]}})
        with pytest.raises(ConfigurationError, match="target must be a positive integer"):
            sd.build_kernel("custom_table", {"rows": {"2": [[0, 1.0]]}})

    @pytest.mark.parametrize(
        "rows,match",
        [
            # a row for regime 0 lifted the auto global_bound from 1.0 to 5.0
            ({"1": [[2, 1.0]], "2": [[1, 1.0]], "0": [[1, 5.0]]}, r"rows\[0\] regime must be a positive integer"),
            ({"1": [[2, 1.0]], "-2": [[1, 1.0]]}, r"rows\[-2\] regime must be a positive integer"),
            ({"1.5": [[2, 1.0]]}, r"rows\[1.5\] regime must be a positive integer, got 1.5"),
            ({"one": [[2, 1.0]]}, r"rows\[one\] regime must be a number, got 'one'"),
            ({"1": [[2, 1.0]], "01": [[3, 1.0]]}, "regime 1 is listed twice"),
            # the target 2.7 became 2
            ({"1": [[2.7, 1.0]], "2": [[1, 1.0]]}, r"rows\[1\] target must be a positive integer, got 2.7"),
            ({"1": [["two", 1.0]], "2": [[1, 1.0]]}, "target must be a number, got 'two'"),
            # a numeric string was read as its number
            ({"1": [[2, 1.0]], "2": [["1", 0.5]]}, r"rows\[2\] target must be a number, got '1'"),
            # the pair (1, 2) totalled 4.0 in the coupling's per-pair rows
            # and 5.0 in its array totals
            ({"1": [[2, 1.0], [2, 3.0]], "2": [[1, 1.0]]}, r"rows\[1\]: invalid target 2"),
            # a NaN rate beyond the regimes validate reads made the auto
            # global_bound 0.5 or nan, by the order of the keys
            ({"7": [[8, math.nan]], "1": [[2, 0.5]], "2": [[1, 0.5]]}, "rate must be nonnegative and finite, got nan"),
            ({"1": [[2, math.inf]], "2": [[1, 0.5]]}, "rate must be nonnegative and finite, got inf"),
        ],
    )
    def test_custom_table_rejects_bad_regimes_and_targets(self, rows, match):
        with pytest.raises(ConfigurationError, match=match):
            sc.parse_scenario(small_doc(rows=rows))

    def test_custom_table_takes_integral_numbers_as_regimes(self):
        kernel = sd.build_kernel("custom_table", {"rows": {"1": [[2.0, 1.0]], "2.0": [[1, 0.5]]}})
        assert (kernel.row(0.0, 1), kernel.row(0.0, 2)) == (((2, 1.0),), ((1, 0.5),))

    def test_power_lyapunov_requires_positive_exponent(self):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["family"] = "power_p"
        doc["lyapunov"]["p"] = 0.0
        with pytest.raises(ConfigurationError, match="lyapunov.p must be positive"):
            sc.parse_scenario(doc)

    def test_linear_model_rejects_ragged_matrices(self):
        doc = small_doc()
        doc["model"]["params"]["matrices"] = [[[-1.0]], [[1.0, 0.0], [0.0, 1.0]]]
        with pytest.raises(ConfigurationError, match="must all be 1x1"):
            sc.parse_scenario(doc)

    def test_per_step_thinning_is_still_a_valid_switch_scheme(self):
        doc = small_doc()
        doc["sim"]["switch_scheme"] = "per_step_thinning"
        sc.parse_scenario(doc)

    def test_understated_global_bound_is_rejected_at_parse(self):
        doc = small_doc(rows={"1": [[2, 5.0]], "2": [[1, 5.0]]}, global_bound=0.1)
        with pytest.raises(ConfigurationError, match="exceeds declared global bound"):
            sc.parse_scenario(doc)


class TestCExpressions:
    @pytest.mark.parametrize(
        "expr,match",
        [
            # on Python ints, i**i**i and 10**400 ended in an uncaught
            # OverflowError and 1/(i-1) in a ZeroDivisionError
            ("i**i**i", "fails at i = 5: overflow"),
            ("10**400", "fails at i = 1: overflow"),
            ("1/(i-1)", "fails at i = 1: float division by zero"),
            ("log(i - 1)", "fails at i = 1: math domain error"),
            ("(-1)**(i/2)", "fails at i = 1"),
            ("1e400 - i", "is inf at i = 1"),
            pytest.param("1" + "0" * 400, "an integer constant exceeds", id="huge_constant"),
        ],
    )
    def test_an_expression_that_fails_in_floats_is_rejected_at_parse(self, expr, match):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["c"] = {"kind": "expr", "expr": expr, "bound": 1.0}
        with pytest.raises(ConfigurationError, match=match):
            sc.parse_scenario(doc)

    @pytest.mark.parametrize("name", [n for n in ALL_PRESETS if n.startswith("example5")])
    def test_preset_expressions_equal_their_formulas(self, name):
        # 2*b + eps, 2*b, 2*Lam1 and 2*lam1 give the values they gave when
        # constants were ints
        bundle = sd.preset(name)
        params = bundle.raw["model"]["params"]
        expr = bundle.raw["lyapunov"]["c"]
        for i in range(1, 60):
            if "b" in params:
                want = 2 * float(params["b"][min(i, len(params["b"])) - 1])
                want += expr.get("params", {}).get("eps", 0.0)
            else:
                A = np.asarray(params["matrices"][min(i, len(params["matrices"])) - 1])
                eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
                want = 2 * float(eigs[0] if "lam1" in expr["expr"] else eigs[-1])
            assert bundle.lyap.c(i) == want

    def test_unknown_name_raises_on_evaluation(self):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["c"] = {"kind": "expr", "expr": "zz + 1", "bound": 1.0}
        bundle = sc.parse_scenario(doc)
        with pytest.raises(ConfigurationError, match="unknown name"):
            bundle.lyap.c(1)

    def test_builtins_are_not_reachable(self):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["c"] = {
            "kind": "expr",
            "expr": "__import__('os').getcwd()",
            "bound": 1.0,
        }
        bundle = sc.parse_scenario(doc)
        with pytest.raises(ConfigurationError, match="unknown name"):
            bundle.lyap.c(1)

    @pytest.mark.parametrize(
        "expr",
        [
            "().__class__.__base__.__subclasses__().__len__()",
            "[1.0, 2.0][0]",
            "(lambda: 1.0)()",
        ],
    )
    def test_syntax_outside_the_grammar_is_rejected_at_parse(self, expr):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["c"] = {"kind": "expr", "expr": expr, "bound": 1.0}
        with pytest.raises(ConfigurationError, match="unsupported syntax"):
            sc.parse_scenario(doc)

    def test_math_names_and_regime_values(self):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["c"] = {
            "kind": "expr",
            "expr": "min(b, 0) + sqrt(4)",
            "bound": 4.0,
        }
        c = sc.parse_scenario(doc).lyap.c
        assert c(1) == pytest.approx(2.0)   # b=1 clipped to 0
        assert c(2) == pytest.approx(0.0)   # b=-2

    def test_declared_bound_is_checked_at_parse(self):
        doc = doc_of("contraction_benchmark")
        doc["lyapunov"]["c"] = {"kind": "constant", "value": 2.0, "bound": 0.1}
        with pytest.raises(ConfigurationError, match="exceeds the declared bound"):
            sc.parse_scenario(doc)
        # a table's tail counts against the bound too
        doc["lyapunov"]["c"] = {"kind": "table", "values": [-0.1], "tail": 2.0, "bound": 0.1}
        with pytest.raises(ConfigurationError, match="exceeds the declared bound"):
            sc.parse_scenario(doc)

    def test_expr_bound_is_checked_at_parse(self):
        doc = doc_of("example51_stable")
        doc["lyapunov"]["c"] = {"kind": "expr", "expr": "2*b + 10", "bound": 1.0}
        with pytest.raises(ConfigurationError, match="exceeds the declared bound"):
            sc.parse_scenario(doc)

    def test_table_tail_and_default_bound(self):
        c, bound = sc.build_c(
            {"kind": "table", "values": [1.0, -2.0], "tail": -3.0}, {}
        )
        assert [c(i) for i in (1, 2, 3, 40)] == [1.0, -2.0, -3.0, -3.0]
        assert bound == 3.0
        _, explicit = sc.build_c(
            {"kind": "table", "values": [1.0], "tail": -3.0, "bound": 5.0}, {}
        )
        assert explicit == 5.0


class TestHashing:
    def test_hash_ignores_key_order(self):
        a = {"alpha": 1, "nested": {"x": 2.0, "y": [1, 2]}}
        b = {"nested": {"y": [1, 2], "x": 2.0}, "alpha": 1}
        assert sc.scenario_hash(a) == sc.scenario_hash(b)
        b["alpha"] = 2
        assert sc.scenario_hash(a) != sc.scenario_hash(b)

    def test_file_hash_tracks_bytes_not_content(self, tmp_path):
        path = tmp_path / "tiny.json"
        doc = small_doc()
        path.write_text(json.dumps(doc, indent=2) + "\n")
        bundle = sd.load_scenario(str(path))
        assert bundle.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        # a pure whitespace edit changes provenance but not the parsed values
        path.write_text(json.dumps(doc, indent=2) + "\n\n")
        again = sd.load_scenario(str(path))
        assert again.sha256 != bundle.sha256
        assert again.sim.dt == bundle.sim.dt
        assert again.raw == bundle.raw

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": }\n')
        with pytest.raises(ConfigurationError, match="invalid JSON at line 1"):
            sd.load_scenario(str(path))

    @pytest.mark.parametrize(
        "text,match",
        [
            # json raised a bare ValueError past Python's 4300-digit limit
            ('{"name": ' + "1" * 5000 + "}", "not a JSON document: Exceeds the limit"),
            (b'{"name": "\xff"}', "not a JSON document: 'utf-8' codec"),
        ],
        ids=["integer_past_the_digit_limit", "not_utf8"],
    )
    def test_unreadable_json_is_a_configuration_error(self, tmp_path, text, match):
        path = tmp_path / "unreadable.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(ConfigurationError, match=match):
            sd.load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no_such"):
            sd.load_scenario(str(tmp_path / "no_such.json"))


class TestAtomicArtifacts:
    @pytest.mark.parametrize(
        "name, write, error",
        [
            ("report.json", lambda p: cli._write_json(p, {"a": 1, "b": object()}), TypeError),
            (
                "measure.csv",
                lambda p: cli.write_measure_csv(p, SimpleNamespace(nu=[0.5, "x"])),
                ValueError,
            ),
            (
                "quantile_curve.csv",
                lambda p: cli.write_quantile_curve(
                    p, SimpleNamespace(quantile_curve=[(1.0, 0.5, 2), None])
                ),
                TypeError,
            ),
            (
                "trajectory.csv",
                lambda p: cli.write_trajectory_csv(
                    p,
                    SimpleNamespace(
                        times=np.array([0.0, 1.0]), x_path=np.zeros((2, 1)), regime_path=[1, None]
                    ),
                ),
                TypeError,
            ),
        ],
        ids=["report", "measure", "quantile_curve", "trajectory"],
    )
    def test_a_write_that_fails_midway_keeps_the_previous_file(self, tmp_path, name, write, error):
        path = tmp_path / name
        path.write_bytes(b"previous artifact\n")
        with pytest.raises(error):
            write(str(path))
        assert path.read_bytes() == b"previous artifact\n"
        assert os.listdir(tmp_path) == [name]


class TestCliAnalyze:
    def test_contraction_benchmark_certifies(self, tmp_path, capsys):
        rc = cli.main(
            ["analyze", "--scenario", "contraction_benchmark", "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["scenario"] == "contraction_benchmark"
        assert report["truncation"]["N"] == 1
        assert report["overall_verdict"] == "stable_certified"
        assert report["proposition41"]["verdict"] == "stable_certified"
        assert "partial" not in report
        assert (tmp_path / "measure.csv").exists()
        out = capsys.readouterr().out
        assert "overall: stable_certified" in out

    def test_truncation_override_and_report_shape(self, tmp_path):
        rc = cli.main(
            [
                "analyze",
                "--scenario",
                "example52_stable",
                "--truncation",
                "8",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["truncation"]["N"] == 8
        for key in (
            "invariant_measure",
            "ergodicity",
            "drift_forward",
            "drift_reversed",
            "mg_scan",
            "kernel_continuity",
            "linearization",
            "proposition41",
            "criteria",
        ):
            assert key in report
        names = {entry["theorem"] for entry in report["criteria"]}
        assert names == {"T3_1", "T3_2", "T3_3", "T3_5_ergodic", "T3_5_strong"}
        assert sum(report["invariant_measure"]["nu"]) == pytest.approx(1.0, abs=1e-9)
        assert report["overall_verdict"] == "stable_certified"

    def test_unknown_scenario_exits_two(self, capsys):
        rc = cli.main(["analyze", "--scenario", "no_such_scenario"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "neither a file nor a bundled preset" in err

    def test_reducible_chain_writes_partial_report(self, tmp_path, capsys):
        doc = small_doc(name="oneway", rows={"1": [[2, 1.0]]})
        path = tmp_path / "oneway.json"
        path.write_text(json.dumps(doc) + "\n")
        out = tmp_path / "out"
        rc = cli.main(["analyze", "--scenario", str(path), "--out", str(out)])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["partial"] is True
        assert "reducible" in report["error"]
        assert "truncation" in report
        assert "invariant_measure" not in report
        assert not (out / "measure.csv").exists()
        assert "pipeline stopped early" in capsys.readouterr().err


class TestCliSimulate:
    def test_two_state_ensemble_artifacts(self, tmp_path, capsys):
        rc = cli.main(
            [
                "simulate",
                "--scenario",
                "two_state_switching",
                "--paths",
                "3",
                "--horizon",
                "20",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "ensemble.json").read_text())
        assert doc["provenance"]["seed"] == 5
        assert doc["config"]["horizon"] == 20.0
        assert doc["config"]["dt"] == 0.001
        assert list(doc["config"]) == ["dt", "horizon", "stop_radius", "record_stride", "x0", "i0"]
        assert doc["n_paths"] == 3
        names = [r["functional"] for r in doc["results"]]
        assert len(names) == 3
        assert any(n.startswith("occupation") for n in names)
        for r in doc["results"]:
            assert r["n_paths"] == 3
            assert 0.0 <= r["ci_low"] <= r["ci_high"] <= 1.0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,")
        assert "blow-ups:" in capsys.readouterr().out


class TestCliPartial:
    """Every command writes its artifact when its pipeline fails, marked
    partial, after the same header, and exits 3."""

    # no shipped scenario makes these stages fail, so the failure is injected
    @pytest.mark.parametrize(
        "command, scenario, stage, artifact",
        [
            ("analyze", "contraction_benchmark", "scan_mg", "report.json"),
            ("simulate", "two_state_switching", "run_ensemble", "ensemble.json"),
            ("verify-rate", "contraction_benchmark", "run_ensemble", "rate.json"),
            ("coupled-test", "example52_stable", "run_ensemble", "coupled.json"),
        ],
        ids=["analyze", "simulate", "verify-rate", "coupled-test"],
    )
    def test_a_failed_stage_writes_a_partial_artifact(
        self, tmp_path, capsys, monkeypatch, command, scenario, stage, artifact
    ):
        def fail(*args, **kwargs):
            raise EvaluationError("drift returned a non-finite value")

        monkeypatch.setattr(cli, stage, fail)
        out = tmp_path / "out"
        rc = cli.main([command, "--scenario", scenario, "--out", str(out)])
        assert rc == 3
        doc = json.loads((out / artifact).read_text())
        assert list(doc)[:3] == ["scenario", "scenario_sha256", "provenance"]
        assert list(doc)[-2:] == ["partial", "error"]
        assert doc["partial"] is True
        assert doc["error"] == "drift returned a non-finite value"
        assert capsys.readouterr().err.endswith(
            f"{command}: pipeline stopped early: drift returned a non-finite value\n"
        )
        # the invariant measure was computed before the failed scan
        assert (out / "measure.csv").exists() == (command == "analyze")


class TestCliVerifyRate:
    def test_contraction_rate_lands_on_grid(self, tmp_path, capsys):
        rc = cli.main(
            [
                "verify-rate",
                "--scenario",
                "contraction_benchmark",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["stability"]["certified"] is True
        assert 1.8 <= doc["lambda_hat"] <= 2.0
        assert doc["n_excluded"] == 0
        curve = (tmp_path / "quantile_curve.csv").read_text().splitlines()
        assert curve[0] == "lambda,quantile,n_surviving"
        captured = capsys.readouterr()
        assert "lambda_hat:" in captured.out
        assert "descriptive statistic" not in captured.err

    def test_uncertified_scenario_warns(self, tmp_path, capsys):
        rc = cli.main(
            [
                "verify-rate",
                "--scenario",
                "two_state_switching",
                "--paths",
                "2",
                "--horizon",
                "5",
                "--dt",
                "0.01",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["stability"]["certified"] is False
        assert "descriptive statistic only" in capsys.readouterr().err


class TestCliCoupled:
    def test_example52_decoupling_stays_within_bound(self, tmp_path):
        rc = cli.main(
            [
                "coupled-test",
                "--scenario",
                "example52_stable",
                "--paths",
                "25",
                "--horizon",
                "1.0",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "coupled.json").read_text())
        # sup of the total rate discrepancy over the confined ball |x| <= 0.5
        assert doc["sup_xi"] == pytest.approx(2.0 * math.sin(0.5), abs=1e-12)
        assert doc["bound"] == pytest.approx(doc["sup_xi"], abs=1e-12)
        assert doc["within_bound"] is True
        assert 0 <= doc["n_decoupled"] <= 25
        assert doc["decoupling_probability"] == doc["n_decoupled"] / 25.0


class TestCliReproduce:
    def test_all_stages_run_and_summarize(self, tmp_path):
        rc = cli.main(
            [
                "reproduce",
                "--out",
                str(tmp_path),
                "--paths",
                "3",
                "--horizon",
                "6",
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "reproduce_summary.json").read_text())
        assert summary["failures"] == 0
        assert "partial" not in summary
        stages = [(s["preset"], s["stage"]) for s in summary["stages"]]
        assert stages == [
            ("example51_stable", "analyze"),
            ("example51_unstable", "analyze"),
            ("example52_stable", "analyze"),
            ("example52_unstable", "analyze"),
            ("contraction_benchmark", "verify-rate"),
            ("example51_stable", "verify-rate"),
            ("two_state_switching", "simulate"),
        ]
        assert all(s["exit_code"] == 0 for s in summary["stages"])
        assert (tmp_path / "example51_stable" / "report.json").exists()
        assert (tmp_path / "contraction_benchmark" / "rate.json").exists()
        assert (tmp_path / "two_state_switching" / "ensemble.json").exists()


class TestCliFlagValidation:
    """Zero and negative count overrides are rejected before any work runs."""

    def test_analyze_rejects_truncation_zero(self, tmp_path, capsys):
        rc = cli.main(
            [
                "analyze",
                "--scenario",
                "contraction_benchmark",
                "--truncation",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "--truncation must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_simulate_rejects_paths_zero(self, tmp_path, capsys):
        rc = cli.main(
            [
                "simulate",
                "--scenario",
                "two_state_switching",
                "--paths",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "--paths must be >= 1" in capsys.readouterr().err

    def test_verify_rate_rejects_negative_paths(self, tmp_path, capsys):
        rc = cli.main(
            [
                "verify-rate",
                "--scenario",
                "contraction_benchmark",
                "--paths",
                "-3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "--paths must be >= 1" in capsys.readouterr().err

    def test_coupled_test_rejects_paths_zero(self, tmp_path, capsys):
        rc = cli.main(
            [
                "coupled-test",
                "--scenario",
                "example52_stable",
                "--paths",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "--paths must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--scenario", "contraction_benchmark", "--paths", "3"],
            ["analyze", "--scenario", "contraction_benchmark", "--dt", "0.01"],
            ["analyze", "--scenario", "contraction_benchmark", "--horizon", "0.5"],
            ["simulate", "--scenario", "two_state_switching", "--truncation", "3"],
            ["coupled-test", "--scenario", "example52_stable", "--truncation", "2"],
            ["simulate", "--scenario", "two_state_switching", "--scheme", "exponential_proposals"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[3]}",
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[3]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_reproduce_rejects_bad_flags_before_any_stage(self, tmp_path, capsys):
        rc = cli.main(["reproduce", "--paths", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "--paths must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "reproduce_summary.json").exists()

    def test_reproduce_rejects_zero_horizon(self, tmp_path, capsys):
        rc = cli.main(["reproduce", "--horizon", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "--horizon must be positive" in capsys.readouterr().err


class TestParserReuse:
    """main builds its parser once per process; no flag of one call may reach
    the next."""

    @staticmethod
    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize(
        "command, scenario, extra, flag, artifact",
        [
            ("analyze", "example52_stable", [], ["--truncation", "5"], "report.json"),
            (
                "simulate", "contraction_benchmark", ["--horizon", "0.5"], ["--paths", "1"],
                "ensemble.json",
            ),
        ],
        ids=["analyze", "simulate"],
    )
    def test_flags_of_one_call_do_not_reach_the_next(
        self, tmp_path, command, scenario, extra, flag, artifact
    ):
        def run(name, *flags):
            out = tmp_path / name
            argv = [command, "--scenario", scenario, *extra, *flags, "--out", str(out)]
            assert cli.main(argv) == 0
            return out

        first = run("first", *flag)
        second = run("second")
        assert cli.build_parser() is cli.build_parser()
        cli.build_parser.cache_clear()
        alone = run("alone")
        assert self.files(second) == self.files(alone)
        assert self.files(first) != self.files(second)
        doc = json.loads((second / artifact).read_text())
        if command == "analyze":
            assert doc["truncation"]["N"] == sd.preset(scenario).chain_N == 30
        else:
            assert doc["n_paths"] == sd.preset(scenario).mc.n_paths == 8


# Run in a fresh interpreter: other tests load scipy's submodules into this
# process, so only a new one shows what a command loads by itself, and that
# the deferred imports work as the first scipy use.
COLD_START_SCRIPT = """
import json, os, sys

import numpy as np

from switchdiff import cli
import switchdiff as sd

out = sys.argv[1]
HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.integrate", "scipy.special", "scipy.optimize")


def loaded():
    return [m for m in HEAVY if m in sys.modules]


doc = {"rc": []}
doc["rc"].append(cli.main(["simulate", "--scenario", "two_state_switching", "--paths", "1",
                           "--horizon", "1", "--out", os.path.join(out, "simulate")]))
doc["rc"].append(cli.main(["coupled-test", "--scenario", "example52_stable", "--paths", "2",
                           "--horizon", "0.2", "--out", os.path.join(out, "coupled")]))
doc["after_simulate"] = loaded()
doc["rc"].append(cli.main(["analyze", "--scenario", "example51_stable",
                           "--out", os.path.join(out, "analyze")]))
doc["after_analyze"] = loaded()

custom, identity = sd.custom_profile(lambda y: y, h=1.0), sd.identity_profile(h=1.0)
doc["G_error"] = max(abs(sd.G(custom, y) - sd.G(identity, y)) for y in (1e-3, 0.1, 0.5, 1.0))
doc["G_inverse_error"] = max(
    abs(sd.G_inverse(custom, s) - sd.G_inverse(identity, s)) for s in (-5.0, -1.0, -0.1, 0.0)
)

kernel = sd.build_kernel("birth_death", {"up": 1.0, "down": 2.0, "modulation": 0.0})
chain = sd.truncate(kernel, 6, mode="lump")
measure = sd.invariant_measure(chain)
b = np.arange(6.0)
b = b - float(measure.nu @ b)
gamma = sd.solve_poisson(chain, measure, b, project=False).gamma
via_integral = sd.solve_poisson_integral(chain, measure, b)
via_integral = via_integral - float(measure.nu @ via_integral)
doc["poisson_error"] = float(np.max(np.abs(via_integral - gamma)))

with open(os.path.join(out, "cold_start.json"), "w") as f:
    json.dump(doc, f)
"""


class TestColdStart:
    """Commands that never call scipy's submodules must not load them."""

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cold_start")
        src = os.path.dirname(os.path.dirname(sd.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads((out / "cold_start.json").read_text())

    def test_simulating_commands_load_no_scipy_submodule(self, cold):
        assert cold["rc"] == [0, 0, 0]
        assert cold["after_simulate"] == []
        unused = {"scipy.integrate", "scipy.special", "scipy.optimize"}
        assert not set(cold["after_analyze"]) & unused

    def test_deferred_scipy_call_sites_work_as_the_first_use(self, cold):
        assert cold["G_error"] < 1e-9
        assert cold["G_inverse_error"] < 1e-9
        assert cold["poisson_error"] < 1e-8
