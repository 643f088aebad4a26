"""Smoke check of the benchmark harness: it runs, verifies, and reports.

Every workload runs end to end with all of its checks, so a change that
breaks a workload's checks fails here; one workload also runs traced.

Only the result schema is asserted, never a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, trace, kind", [
    ("particles_joint", "0", "end_to_end"), ("particles_joint", "1", "per_layer"),
    ("solve_n10", "0", "end_to_end"), ("verify_suite", "0", "end_to_end")])
def test_workload_reports_every_metric(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = {m["name"] for m in SPEC[kind]} - set(result["metrics"])
    assert not missing
