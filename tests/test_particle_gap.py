"""The particle gaps e_n on the joint time field.

`particles.convergence_study` takes each gap between particle 1's Y and
the mean-field Y as the difference of their bit views on the joint
lattice: particle 1's Y knows the joint time field, the mean-field Y only
particle 1's increments, so the difference spans at most the 2^(nN)
entries of that field.  Its mean square must match, to rounding, the
mean over the table of all 4^(nN) joint paths (tests/_oracles.py); no
table is filled onto the full joint field, and every particle count is
checked against the enumeration guard before the first solve.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from mfbdsvie import errors, particles
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.lattice import build_lattice, full_field
from mfbdsvie.particles import convergence_study
from mfbdsvie.solver import Scenario

from _oracles import fill_table, full_field_convergence_study
from test_cli import _assert_input_error, _never
from test_sweep import DRIVERS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
COUPLED = LinearDriver(f={"mean_y": 0.5, "y": -0.3}, g={"z": 0.04})
CASES = {"coupled": COUPLED, "linear_mean_field": DRIVERS["linear_mean_field"]}
TERMINAL = TerminalSpec(phi=0.3, theta=0.6)


def scenario(n_steps, driver=COUPLED):
    return Scenario(build_lattice(n_steps, 1.0), driver, TERMINAL)


class TestAgainstFullField:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [2, 3])
    def test_rows_match_to_rounding(self, n_steps, name):
        sc = scenario(n_steps, CASES[name])
        got = convergence_study(sc, [1, 2, 3])
        want = full_field_convergence_study(sc, [1, 2, 3])
        assert [r[:2] for r in got] == [r[:2] for r in want]
        for (*_, gap), (*_, ref) in zip(got, want, strict=True):
            assert abs(gap - ref) <= 1e-15 * abs(ref)
        assert max(r[2] for r in got) > 1e-6  # a coupled system has gaps


class TestNoFullJointTable:
    def test_traced_peak_below_half_a_joint_table(self):
        sc = scenario(4)
        convergence_study(sc, [1])  # warm the per-lattice caches
        tracemalloc.start()
        try:
            convergence_study(sc, [3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * 4 ** (3 * 4)

    def test_no_table_filled_on_the_full_joint_field(self, monkeypatch):
        fill = fill_table

        def guarded(v, f):
            if f.lattice.lanes > 1 and f == full_field(f.lattice):
                raise AssertionError("a table of all joint paths was filled")
            return fill(v, f)

        # every package module that binds it, not only the lattice's
        for name, mod in list(sys.modules.items()):
            if (name.partition(".")[0] == "mfbdsvie"
                    and getattr(mod, "fill_table", None) is fill):
                monkeypatch.setattr(mod, "fill_table", guarded)
        rows = convergence_study(scenario(2), [1, 2, 3])
        assert len(rows) == 9


class TestRefusedBeforeComputing:
    def test_study_refuses_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(particles, "picard_solve", _never)
        monkeypatch.setattr(particles, "solve_particles", _never)
        with pytest.raises(errors.JointSpaceTooLarge):
            convergence_study(scenario(5), [1, 2, 3])

    def test_cli_refuses_before_any_solve(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(particles, "picard_solve", _never)
        monkeypatch.setattr(particles, "solve_particles", _never)
        doc = json.loads((SCENARIOS / "particles_coupled.json").read_text())
        doc["lattice"]["n_steps"] = 5
        _assert_input_error(tmp_path, capsys, "particles", doc)
