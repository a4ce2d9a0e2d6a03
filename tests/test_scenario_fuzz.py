"""Scenario documents as untrusted input: single-field mutations of the presets.

Every key of a preset is named by a field table in switchdiff.scenarios, so a
mutated document either parses or is refused with a ConfigurationError, never
another exception; the CLI turns that refusal into exit 2 and an error line.
"""

import copy
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import switchdiff as sd
from switchdiff import cli
from switchdiff.errors import ConfigurationError

PRESETS = {name: sd.preset(name).raw for name in sd.preset_names()}
DELETE = "<delete the key>"
REPLACEMENTS = (None, math.nan, math.inf, -math.inf, True, "x", "5", [], [1.0], {}, {"a": 1.0}, DELETE)


def key_paths(node, prefix=()):
    """The path of every value inside a JSON document, inner nodes included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


FIELDS = [(name, path) for name, doc in sorted(PRESETS.items()) for path in key_paths(doc)]


def mutated(name: str, path: tuple, replacement) -> dict:
    doc = copy.deepcopy(PRESETS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.sampled_from(REPLACEMENTS))
def test_a_mutated_preset_parses_or_is_refused(field, replacement):
    doc = mutated(*field, replacement)
    try:
        sd.parse_scenario(doc)
    except ConfigurationError:
        pass


def test_the_cli_refuses_a_typo_with_exit_two(tmp_path, capsys):
    doc = mutated("example51_stable", ("sim", "horizon"), DELETE)
    doc["sim"]["horizn"] = 15.0
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sim: unknown key 'horizn'; allowed: dt, horizon,")
    assert not (tmp_path / "out").exists()
