"""Hypothesis fuzz of the command line boundary.

Each example takes a shipped scenario, replaces one leaf of it with a
drawn JSON value and runs a subcommand on it.  Whatever the document,
`cli.run` returns 0, 1 or 2 and raises nothing, exit 1 says
`input error:`, and exit 0 writes only finite numbers to `summary.txt`.
Documents keep n_steps <= 3, and a drawn count never
raises n_steps, max_iter or p_max, so every example stays small.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from mfbdsvie.cli import run
from test_cli import SCENARIOS, SHIPPED

MAX_STEPS = 3
COUNTS = ("n_steps", "max_iter", "p_max")  # the cost grows with these

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def small_scenario(name: str) -> dict:
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    lat = doc["lattice"]
    lat["n_steps"] = min(lat["n_steps"], MAX_STEPS)
    return doc


def leaves(node, path=()):
    """Paths to every scalar (or empty container) of a JSON document."""
    if not (isinstance(node, (dict, list)) and node):
        yield path
        return
    for key, child in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        yield from leaves(child, path + (key,))


@pytest.mark.parametrize("sub, name", SHIPPED, ids=[s for s, _ in SHIPPED])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_mutated_leaf_never_escapes(sub, name, data):
    doc = small_scenario(name)
    path = data.draw(st.sampled_from(list(leaves(doc))), label="leaf")
    value = data.draw(JSON_VALUES, label="value")
    node = doc
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    assume(not (path[-1] in COUNTS and isinstance(value, int)
                and not isinstance(value, bool) and value > old))
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = run(sub, str(scenario), str(Path(tmp) / "out"))
        if code == 0:
            summary = (Path(tmp) / "out" / "summary.txt").read_text()
            assert all(math.isfinite(v) for v in numbers(summary)), summary
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("input error:")


def numbers(text: str) -> list[float]:
    """Every word of a summary that reads as a number, inf and nan included."""
    out = []
    for word in text.split():
        try:
            out.append(float(word.strip("():")))
        except ValueError:
            pass
    return out
