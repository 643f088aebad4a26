"""Golden CLI outputs: every file `cli.run` writes stays byte-identical.

`tests/golden_outputs.json` holds the SHA-256 of each file written for
every shipped scenario under every subcommand that accepts it (any exit
code but 1), with the exit code and the numpy version the digests were
recorded under.  Rounding may differ between numpy versions, so the test
skips when the installed version is not the recorded one.

To record the digests again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mfbdsvie import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).with_name("golden_outputs.json")


def run_digests(subcommand: str, scenario: Path, out: Path):
    """The exit code of one CLI run and the SHA-256 of each file it wrote."""
    code = cli.run(subcommand, str(scenario), str(out))
    files = sorted(p for p in out.iterdir() if p.is_file()) \
        if out.is_dir() else []
    return code, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in files}


def record() -> dict:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            for sub in cli.SUBCOMMANDS:
                out = Path(tmp) / f"{scenario.stem}-{sub}"
                code, files = run_digests(sub, scenario, out)
                if code != 1:
                    runs[f"{sub} {scenario.name}"] = {"exit": code,
                                                      "files": files}
    return {"numpy": np.__version__, "runs": runs}


GOLD = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
CASES = sorted(GOLD["runs"]) if GOLD else []


def test_every_accepting_run_is_recorded():
    assert GOLD is not None and CASES
    assert {name.split(" ")[1] for name in CASES} \
        == {p.name for p in SCENARIOS}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_recorded_digests(case, tmp_path):
    if np.__version__ != GOLD["numpy"]:
        pytest.skip(f"digests recorded under numpy {GOLD['numpy']}, "
                    f"running numpy {np.__version__}")
    sub, name = case.split(" ")
    code, files = run_digests(sub, ROOT / "scenarios" / name, tmp_path / "out")
    assert {"exit": code, "files": files} == GOLD["runs"][case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
