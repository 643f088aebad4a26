"""The row defects: the equation's residual and the upper-triangle identity.

Both walk the stacked terms a map takes through `lattice.row_extremes`:
the residual the map's slot terms, one driver call per slot for a driver
blind to the swapped arguments, and `check_delta_equation` the flip
equation's.  The residual must equal the ordered sum of
tests/_oracles.py exactly and the one-row sum to within the slack of two
summation orders, the identity the one-row sum to rounding; the residual
must hold no table of 4^N doubles, and no second way to make a slot term
may come back into the package.
"""

import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mfbdsvie
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import build_linearized, check_delta_equation
from mfbdsvie.solver import (
    Scenario,
    gamma_map,
    picard_solve,
    representation_pair,
    residual,
)

from _oracles import ordered_residual, per_row_delta_equation, per_row_residual
from test_residual_table import assert_ordered
from test_stack import BLIND, CASES, Counting
from test_sweep import DRIVERS, TERMINAL, random_pair

GONE = ("slot_term", "_linearized_term", "_linearized_phi", "_linearized_row",
        "dump_csv_rows")


class TestResidual:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [4, 6])
    def test_equals_the_one_row_sum(self, n_steps, name):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        rng = np.random.default_rng(n_steps)
        for y, z in (representation_pair(sc), random_pair(sc.lattice, rng)):
            assert_ordered(residual(sc, y, z), ordered_residual(sc, y, z),
                           per_row_residual(sc, y, z))

    def test_one_driver_call_per_slot(self):
        # N of each for the stacked slots (the scenario probed the driver
        # once when it was built); one per row and slot would be
        # N (N + 1) / 2 = 21
        n = 6
        counter = Counting(BLIND)
        sc = Scenario(build_lattice(n, 1.0), counter, TERMINAL)
        y, z = gamma_map(sc, *representation_pair(sc))
        counter.reset()
        residual(sc, y, z)
        assert counter.slots == {"f": n, "g": n}
        assert counter.calls == {"f": n, "g": n}

    def test_peak_memory_at_n10(self):
        # the walk's stacks of 2^(N + 1) entries a row and the slot stacks:
        # no table of 4^N doubles
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        residual(sc, y, z)  # warm: imports and caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            residual(sc, y, z)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 8 * 4 ** n


class TestDeltaEquation:
    @pytest.mark.parametrize("solved", [True, False])
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_against_the_one_row_sum(self, name, solved):
        lat = build_lattice(4, 1.0)
        sc = Scenario(lat, DRIVERS[name], TERMINAL)
        if solved:
            y, z, _ = picard_solve(sc, tol=1e-12)
        else:
            y, z = random_pair(lat, np.random.default_rng(43))
        for r in range(lat.n_steps):
            ls = build_linearized(sc, y, z, r)
            got = check_delta_equation(ls)
            rows, worst, l2 = per_row_delta_equation(ls)
            for (i, s, gap), (i_ref, s_ref, gap_ref) in zip(got.rows, rows,
                                                            strict=True):
                assert (i, s) == (i_ref, s_ref)
                assert abs(gap - gap_ref) <= 1e-15 * max(1.0, gap_ref)
            assert abs(got.worst - worst) <= 1e-15 * max(1.0, worst)
            assert abs(got.l2 - l2) <= 1e-15 * max(1.0, l2)


class TestOneSlotTermPath:
    """The one-row adapters live in tests/_oracles.py, and the knobs only
    tests set are gone."""

    def test_no_source_names_one(self):
        pattern = re.compile(r"\b(" + "|".join(GONE) + r")\b")
        for path in Path(mfbdsvie.__file__).parent.glob("*.py"):
            assert not pattern.search(path.read_text()), path.name

    def test_no_extension_knobs(self):
        assert "extend" not in inspect.signature(gamma_map).parameters
        assert "defer_extension" not in inspect.signature(
            picard_solve).parameters
