"""One Picard loop for the solver, the particles and the flip equation.

`solver.iterate` owns the tables of every fixed point: the flip equation's
maps, too, write their paths into the path table of two maps back and
their kernels over the kernel they read, and a driver that turns
NaN fails in the iteration that made it, with the error of a map that
checks its own pair (the reference loop of tests/_oracles.py).  The map
refuses a pair off its scenario's lattice before any sweep, a batch's
start must have one pair a scenario, and a particle run names its driver
and terminal.
"""

from functools import partial

import numpy as np
import pytest

from mfbdsvie import malliavin, solver
from mfbdsvie.errors import LatticeMismatch, ValidationError
from mfbdsvie.fields import zero_kernel, zero_path
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import _linearized_map, build_linearized, solve_linearized
from mfbdsvie.particles import ParticleConfig
from mfbdsvie.solver import Scenario, gamma_map, picard_solve, representation_pair

from _oracles import iterate, sup_distance
from test_flip_stack import CASES, assert_pairs_equal
from test_stack import BLIND
from test_sweep import TERMINAL


@pytest.fixture(scope="module", params=sorted(CASES))
def solved(request):
    sc = Scenario(build_lattice(4, 1.0), CASES[request.param], TERMINAL)
    y, z, _ = picard_solve(sc, tol=1e-12, report=False)
    return sc, y, z


class TestFlipLoop:
    @pytest.mark.parametrize("r", [0, 2])
    def test_each_map_writes_the_tables_of_two_maps_back(self, monkeypatch,
                                                         solved, r):
        ls = build_linearized(*solved, r)
        calls = []

        def recording(ls, pair, out=None):
            new = _linearized_map(ls, pair, out)
            calls.append((pair, new))
            return new

        monkeypatch.setattr(malliavin, "_linearized_map", recording)
        got = solve_linearized(ls)
        assert len(calls) >= 4
        # the first map reads the zero start, whose path table the second
        # map writes; every map writes its kernel over the one it reads
        paths = [calls[0][0][0].values] + [new[0].values for _, new in calls]
        for k in range(len(paths) - 1):
            assert not np.shares_memory(paths[k], paths[k + 1])
        for k in range(len(paths) - 2):
            assert np.shares_memory(paths[k], paths[k + 2])
        for pair, new in calls:
            assert np.shares_memory(pair[1].values, new[1].values)
        assert_pairs_equal(got, calls[-1][1])

    # N - r calls a map: mid-map and in later maps
    @pytest.mark.parametrize("r, at", [(0, 1), (0, 3), (0, 7), (1, 2), (1, 5),
                                       (3, 1), (3, 2)])
    def test_same_error_in_the_same_iteration(self, monkeypatch, r, at):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        ls = build_linearized(sc, y, z, r)
        state = {"calls": 0}
        custom = malliavin.CustomDriver

        def poisoned(f, g, *args):  # the flip terms' f, NaN from call `at`
            def bad(t, s, *a):
                state["calls"] += 1
                return f(t, s, *a) + (np.nan if state["calls"] >= at else 0.0)
            return custom(bad, g, *args)

        monkeypatch.setattr(malliavin, "CustomDriver", poisoned)
        with pytest.raises(ValidationError, match="is not finite") as got:
            solve_linearized(ls)
        made, state["calls"] = state["calls"], 0
        # every map's pair checked where it is built
        start = zero_path(sc.lattice), zero_kernel(sc.lattice)
        with pytest.raises(ValidationError) as want:
            iterate(partial(_linearized_map, ls), start, sup_distance, 1e-12,
                    300)
        assert str(got.value) == str(want.value)
        assert made == state["calls"]


def other_pair(n_steps, horizon):
    return representation_pair(Scenario(build_lattice(n_steps, horizon),
                                        BLIND, TERMINAL))


class TestLatticeCheck:
    @pytest.mark.parametrize("other", [(4, 2.0), (5, 1.0), (3, 1.0)])
    @pytest.mark.parametrize("which", ["path", "kernel", "both"])
    def test_the_map_refuses_before_any_sweep(self, monkeypatch, other,
                                              which):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        oy, oz = other_pair(*other)
        pair = {"path": (oy, z), "kernel": (y, oz), "both": (oy, oz)}[which]
        sweeps = []
        monkeypatch.setattr(solver, "clark_ocone_sweep",
                            lambda *args, **kwargs: sweeps.append(1))
        with pytest.raises(LatticeMismatch):
            gamma_map(sc, *pair)
        with pytest.raises(LatticeMismatch):
            picard_solve(sc, start=pair)
        with pytest.raises(LatticeMismatch):
            picard_solve([sc, sc], start=[(y, z), pair])
        assert sweeps == []

    def test_batch_members_on_different_lattices(self):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        pair = representation_pair(sc)
        for other in ((4, 2.0), (5, 1.0)):
            oy, oz = other_pair(*other)
            with pytest.raises(LatticeMismatch):
                gamma_map([sc, sc], [pair[0], oy], [pair[1], oz])


class TestBatchStart:
    @pytest.mark.parametrize("count", [1, 3])
    def test_one_start_pair_a_scenario(self, count):
        lat = build_lattice(4, 1.0)
        scs = [Scenario(lat, BLIND, TERMINAL.scaled(k)) for k in (1.0, 0.5)]
        start = [(zero_path(lat), zero_kernel(lat))] * count
        with pytest.raises(ValidationError,
                           match=f"^{count} start pairs for 2 scenarios$"):
            picard_solve(scs, start=start)


class TestParticleConfig:
    def test_driver_and_terminal_are_required(self):
        with pytest.raises(TypeError, match="driver.*terminal"):
            ParticleConfig(2, build_lattice(2, 1.0))
