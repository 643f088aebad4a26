"""The comparison audit draws from the standard library.

`comparison._sample_hypotheses` samples with `random.Random(seed)`, so no
process that runs the package loads `numpy.random` (about 5 MB of memory
and 10 ms of import).  A fresh interpreter runs the shipped comparison
scenario and reports whether `numpy.random` was imported, and no package
module's code names it.  An audit of no samples, which would pass
vacuously, is refused.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfbdsvie
from mfbdsvie.comparison import check_hypotheses
from mfbdsvie.errors import ValidationError

from test_solve_once import _comparison, _sandwich_doc

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(mfbdsvie.__file__).parent
MODULES = sorted(SRC.glob("*.py"))

PROBE = """
import sys
from mfbdsvie import cli
code = cli.run("compare", sys.argv[1], sys.argv[2])
print(code, "numpy.random" in sys.modules)
"""


def test_compare_run_never_loads_numpy_random(tmp_path):
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE,
         str(ROOT / "scenarios" / "comparison_sandwich.json"),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["0", "False"]


def dotted(node):
    """`a.b.c` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_numpy_random(path):
    tree = ast.parse(path.read_text())
    names = {dotted(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.Import) for alias in node.names}
    names |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module
              for alias in node.names}
    assert not {n for n in names if n and n.startswith(
        ("np.random", "numpy.random"))}


@pytest.mark.parametrize("n_samples", [0, -1])
def test_an_audit_without_samples_is_refused(n_samples):
    with pytest.raises(ValidationError, match=f"n_samples={n_samples}"):
        check_hypotheses(_comparison(_sandwich_doc()), n_samples=n_samples)
