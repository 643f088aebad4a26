"""Hypothesis fuzz of the command line boundary.

Each example takes a shipped scenario, or one of the two documents below
that give the risk family's z-maps leaves to draw (a `risk` document with
`h` and `g`, a `solve` document with a `risk` driver), replaces one leaf
of it with a drawn JSON value and runs a subcommand on it.  Whatever the
document, `cli.run` returns 0, 1 or 2 and raises nothing, exit 1 says
`input error:`, and exit 0 writes only finite numbers to `summary.txt`.
Documents keep n_steps <= 3, and a drawn count never
raises n_steps, max_iter or p_max, so every example stays small.  A
second fuzz puts large magnitudes, 1e3 to 1e308 of either sign, into the
numeric leaves other than the counts, and also lets no RuntimeWarning
(an overflow inside the computation) escape.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
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


ZMAPS = {"h": {"kind": "smooth_abs", "k1": 0.3},
         "g": {"kind": "affine", "k0": 0.02, "k1": 0.05}}
DOCUMENTS = {
    "risk_zmaps": {
        "lattice": {"n_steps": 2, "horizon": 1.0},
        "risk": {"rate": 0.1, **ZMAPS, "axioms": ["translation", "convexity"],
                 "payoff": {"family": "deterministic", "params": {"phi": 1.0}},
                 "payoff2": {"family": "smooth", "params": {
                     "phi": 0.5, "smooth": [{"kind": "tanh", "coef": 0.5}]}}},
    },
    "risk_driver_solve": {
        "lattice": {"n_steps": 3, "horizon": 1.0},
        "driver": {"family": "risk", "params": {"rate": 0.1, **ZMAPS}},
        "terminal": {"family": "smooth", "params": {
            "phi": 0.3, "smooth": [{"kind": "tanh", "coef": 0.5}]}},
    },
}
EXTRA = [("risk", "risk_zmaps"), ("solve", "risk_driver_solve")]
CASES = SHIPPED + EXTRA
IDS = [sub for sub, _ in SHIPPED] + [name for _, name in EXTRA]


def small_scenario(name: str) -> dict:
    doc = (copy.deepcopy(DOCUMENTS[name]) if name in DOCUMENTS
           else json.loads((SCENARIOS / f"{name}.json").read_text()))
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


@pytest.mark.parametrize("sub, name", CASES, ids=IDS)
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


def check_run(sub: str, doc: dict) -> list:
    """The boundary checks of the fuzz above; returns the warnings raised."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        code = run(sub, str(scenario), str(Path(tmp) / "out"))
        if code == 0:
            summary = (Path(tmp) / "out" / "summary.txt").read_text()
            assert all(math.isfinite(v) for v in numbers(summary)), summary
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("input error:")
    return caught


MAGNITUDES = st.builds(lambda sign, e: sign * 10.0 ** e,
                       st.sampled_from([1.0, -1.0]), st.floats(3.0, 308.0))


def numeric_leaves(doc: dict) -> list:
    """Paths to the numbers of a document, the counts left out."""
    def value(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    return [path for path in leaves(doc) if path[-1] not in COUNTS
            and isinstance(value(path), (int, float))
            and not isinstance(value(path), bool)]


@pytest.mark.parametrize("sub, name", CASES, ids=IDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_large_magnitude_never_escapes(sub, name, data):
    doc = small_scenario(name)
    path = data.draw(st.sampled_from(numeric_leaves(doc)), label="leaf")
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(MAGNITUDES, label="value")
    caught = check_run(sub, doc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]


def numbers(text: str) -> list[float]:
    """Every word of a summary that reads as a number, inf and nan included."""
    out = []
    for word in text.split():
        try:
            out.append(float(word.strip("():")))
        except ValueError:
            pass
    return out
