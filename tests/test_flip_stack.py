"""The flip equation on slot stacks, against its per-entry form.

`build_linearized` freezes the twelve partials once per slot from r on,
on the stack of rows the flip map sweeps, and the map of a driver blind
to the swapped arguments is one stack of all rows, as `gamma_map` is.
Each map and each solve must equal, bit for bit, the per-entry
coefficients and the stack-per-row map of tests/_oracles.py, with the
same iteration count.
"""

import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mfbdsvie
from mfbdsvie import malliavin, solver
from mfbdsvie.drivers import CustomDriver
from mfbdsvie.errors import ValidationError
from mfbdsvie.fields import zero_kernel, zero_path
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import (
    _linearized_map,
    build_linearized,
    check_delta_equation,
    solve_linearized,
)
from mfbdsvie.solver import Scenario, picard_solve

from _oracles import (
    iterate,
    per_entry_build_linearized,
    per_entry_linearized_map,
    sup_distance,
)
from test_slot_args import SWAPPED
from test_stack import Counting
from test_sweep import DRIVERS, TERMINAL, random_pair

CASES = {**DRIVERS, "swapped": SWAPPED}
BLIND = DRIVERS["risk_smooth_abs"]
N = 6


def assert_pairs_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.values, b.values)


@pytest.fixture(scope="module", params=[4, 6], ids=["n4", "n6"])
def n_steps(request):
    return request.param


@pytest.fixture(scope="module", params=sorted(CASES))
def solved(request, n_steps):
    sc = Scenario(build_lattice(n_steps, 1.0), CASES[request.param], TERMINAL)
    y, z, _ = picard_solve(sc, tol=1e-12, report=False)
    return sc, y, z


class TestAgainstPerEntry:
    def test_maps_equal(self, solved):
        sc, y, z = solved
        pair = random_pair(sc.lattice, np.random.default_rng(sc.lattice.n_steps))
        for r in range(sc.lattice.n_steps):
            ls = build_linearized(sc, y, z, r)
            ref = per_entry_build_linearized(sc, y, z, r)
            for u in (pair, (y, z)):
                assert_pairs_equal(_linearized_map(ls, u),
                                   per_entry_linearized_map(ref, u))

    def test_solves_equal_with_the_same_iterations(self, solved):
        sc, y, z = solved
        lat = sc.lattice
        start = zero_path(lat), zero_kernel(lat)
        for r in range(lat.n_steps):
            ls = build_linearized(sc, y, z, r)
            ref = per_entry_build_linearized(sc, y, z, r)
            got, k, _ = iterate(partial(_linearized_map, ls), start,
                                sup_distance, 1e-12, 300)
            want, k_ref, _ = iterate(partial(per_entry_linearized_map, ref),
                                     start, sup_distance, 1e-12, 300)
            assert k == k_ref
            assert_pairs_equal(got, want)
            assert_pairs_equal(solve_linearized(ls), want)


class CountingPartials(Counting):
    def partials(self, t, s, *args):
        self.calls["partials"] = self.calls.get("partials", 0) + 1
        return self.base.partials(t, s, *args)


class TestOneStack:
    """A driver blind to the swapped arguments: its partials frozen once a
    slot and side, and its flip map and row defects one stack."""

    @pytest.fixture(scope="class")
    def blind(self):
        sc = Scenario(build_lattice(N, 1.0), CountingPartials(BLIND), TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        return sc, y, z

    def test_partials_calls_per_build(self, blind):
        # one f-side and one g-side call a slot j >= r: the map and the
        # pinned rows read no slot below r
        sc, y, z = blind
        sc.driver.reset()
        build_linearized(sc, y, z, 2)
        assert sc.driver.calls["partials"] == 2 * (N - 2)

    def test_one_sweep_per_map(self, blind, monkeypatch):
        sc, y, z = blind
        ls = build_linearized(sc, y, z, 2)
        sweeps = []

        def counting(*args, **kwargs):
            sweeps.append(args[1])
            return sweep(*args, **kwargs)

        sweep = solver.clark_ocone_sweep
        monkeypatch.setattr(solver, "clark_ocone_sweep", counting)
        _linearized_map(ls, (y, z))
        assert sweeps == [0]

    def test_one_term_call_per_slot_in_the_defects(self, blind, monkeypatch):
        sc, y, z = blind
        r = 2
        ls = build_linearized(sc, y, z, r)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return terms(*args, **kwargs)

        terms = malliavin._linearized_terms
        monkeypatch.setattr(malliavin, "_linearized_terms", counting)
        check_delta_equation(ls)
        assert calls == list(range(N - 1, r - 1, -1))  # the walk's order


class TestSwappedPartialsOfABlindDriver:
    @pytest.mark.parametrize("k", [2, 5, 8, 11])
    def test_refused(self, k):
        def partials(t, s, *args):
            return tuple(-0.2 if i == 0 else 0.1 if i == k else 0.0
                         for i in range(12))

        d = CustomDriver(f=lambda t, s, y, *a: -0.2 * y,
                         g=lambda t, s, *a: 0.0, c=0.1, alpha=0.0,
                         partials=partials)
        sc = Scenario(build_lattice(3, 1.0), d, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        with pytest.raises(ValidationError, match="z_rev"):
            build_linearized(sc, y, z, 0)


def test_no_per_entry_paths_left():
    src = Path(mfbdsvie.__file__).parent
    assert not re.search(r"\bone_row\b", (src / "malliavin.py").read_text())
    fields = (src / "fields.py").read_text()
    for name in ("split_row", "representation_row"):
        assert not re.search(rf"^def {name}\b", fields, re.M), name
