"""The sweep's running stack in storage its Picard loop keeps.

`lattice.clark_ocone_sweep` writes each lift of its stack onto a slot
field, and each W-bit halving, into a `lattice.SweepStacks`: the Picard
loop (`solver.iterate`, under `picard_solve` and `solve_particles`) keeps
one for all its maps (through `out`), and any other sweep makes one table
for the call.  The particles' maps, too, write into the tables of two maps
back, and each difference goes into the pair it replaces, whose storage
the next map writes over.  Only the destinations of writes change, so
every pair, trace and report equals, bit for bit, that of the sweep with
a new table for every lift and halving (`allocating_sweep` of
tests/_oracles.py).
"""

import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from mfbdsvie import fields, lattice, particles, solver
from mfbdsvie.drivers import CustomDriver, DriverSpec, LinearDriver, TerminalSpec
from mfbdsvie.errors import ValidationError
from mfbdsvie.lattice import SweepStacks, build_lattice
from mfbdsvie.particles import (
    ParticleConfig,
    convergence_study,
    solve_particles,
)
from mfbdsvie.solver import Scenario, picard_solve

from _oracles import allocating_sweep
from test_members import _report_bits, _same_bits
from test_stack import CASES
from test_sweep import DRIVERS, TERMINAL

COUPLED = LinearDriver(f={"mean_y": 0.5, "y": -0.3}, g={"z": 0.04})
PARTICLE_DRIVERS = {"coupled": COUPLED, **DRIVERS}


@contextmanager
def allocating():
    """The package's maps on the sweep with a new table at every step."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "clark_ocone_sweep", allocating_sweep)
        m.setattr(fields, "clark_ocone_sweep", allocating_sweep)
        yield


def both(run):
    """run() on the package's sweep, then on the allocating one."""
    got = run()
    with allocating():
        return got, run()


def particle_config(n, driver=COUPLED, n_steps=3):
    return ParticleConfig(n, build_lattice(n_steps, 1.0), driver=driver,
                          terminal=TerminalSpec(phi=1.2, theta=2.4))


def particle_bits(result):
    y, rep = result
    return [[x.values.tobytes() for x in rows] for rows in y], _report_bits(rep)


class TestSameBits:
    @pytest.mark.parametrize("name", sorted(PARTICLE_DRIVERS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_particles(self, name, n):
        pc = particle_config(n, PARTICLE_DRIVERS[name],
                             3 if name == "coupled" else 2)
        got, want = both(lambda: solve_particles(pc))
        assert got[1].iterations >= 4
        assert particle_bits(got) == particle_bits(want)

    def test_convergence_study(self):
        sc = Scenario(build_lattice(3, 1.0), COUPLED,
                      TerminalSpec(phi=1.2, theta=2.4))
        got, want = both(lambda: convergence_study(sc, [1, 2, 3]))
        assert got == want

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    @pytest.mark.parametrize("n_steps", [4, 6, 8, 10])
    def test_solves(self, name, n_steps):
        sc = Scenario(build_lattice(n_steps, 1.0), DRIVERS[name], TERMINAL)
        (y, z, rep), (y0, z0, rep0) = both(lambda: picard_solve(sc, tol=1e-11))
        assert rep.iterations >= 4
        assert _same_bits(y, y0) and _same_bits(z, z0)
        assert _report_bits(rep) == _report_bits(rep0)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_batch_whose_member_stops_early(self, name):
        lat = build_lattice(4, 1.0)
        terminals = [TerminalSpec(phi=1e-3), TERMINAL.scaled(0.01), TERMINAL]
        scs = [Scenario(lat, CASES[name], t) for t in terminals]
        (ys, zs, reps), (ys0, zs0, reps0) = both(
            lambda: picard_solve(scs, tol=1e-12))
        counts = [rep.iterations for rep in reps]
        assert counts[0] == min(counts) < max(counts)
        for a, b in zip(ys + zs, ys0 + zs0, strict=True):
            assert _same_bits(a, b)
        assert list(map(_report_bits, reps)) == list(map(_report_bits, reps0))

    def test_a_swapped_drivers_rows(self):
        sc = Scenario(build_lattice(5, 1.0), DRIVERS["linear_mean_field"],
                      TERMINAL)
        assert sc.swapped  # each row a sweep of its own, a plan each
        (y, z, rep), (y0, z0, rep0) = both(lambda: picard_solve(sc, tol=1e-11))
        assert _same_bits(y, y0) and _same_bits(z, z0)
        assert _report_bits(rep) == _report_bits(rep0)


def stacks_used(monkeypatch):
    """Record each `SweepStacks` made, and each sweep's look-up of its views
    as (stacks, table, plan, member count, whether they were cut)."""
    made, looked = [], []
    steps = SweepStacks.steps

    class Recording(SweepStacks):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

        def steps(self, plan, size):
            cut = (id(plan), size) not in self.views
            views = steps(self, plan, size)
            looked.append((self, self.table, id(plan), size, cut))
            return views

    for module in (lattice, solver):
        monkeypatch.setattr(module, "SweepStacks", Recording)
    return made, looked


def largest_rise(fn):
    """fn() and the largest rise of traced memory between two profile
    events (a call or a return) while it runs: at least the size of every
    table it allocates while its inputs are alive."""
    state = {"rise": 0, "last": 0}

    def hook(frame, event, arg):
        now, peak = tracemalloc.get_traced_memory()
        state["rise"] = max(state["rise"], peak - state["last"])
        tracemalloc.reset_peak()
        state["last"] = now

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
        hook(None, None, None)
        tracemalloc.stop()
    return out, state["rise"]


class TestStorage:
    def test_a_warm_particle_map_takes_no_stack_sized_table(self,
                                                            monkeypatch):
        pc = particle_config(3)
        joint = pc.joint_lattice()
        # the stack on the last slot's field: every row, 2^(M + lanes) each
        stack = 8 * 3 * (joint.n_steps + 1) << (joint.n_bits + joint.lanes)
        assert stack == 393_216
        rises = []
        original = particles._particle_map

        def measured(*args):
            out, rise = largest_rise(lambda: original(*args))
            rises.append(rise)
            return out

        monkeypatch.setattr(particles, "_particle_map", measured)
        _, rep = solve_particles(pc)
        assert rep.iterations == len(rises) >= 6
        assert rises[0] >= stack  # the first map makes the loop's storage
        assert max(rises[2:]) < stack

    def test_the_particle_loop_writes_the_tables_of_two_maps_back(
            self, monkeypatch):
        starts, made = [], []
        original = particles._particle_map

        def recording(driver, swapped, zetas, tables, out):
            starts.append(tables)
            made.append(original(driver, swapped, zetas, tables, out))
            return made[-1]

        monkeypatch.setattr(particles, "_particle_map", recording)
        _, rep = solve_particles(particle_config(3))
        assert rep.iterations == len(made) >= 6
        # the first map reads the zero start
        tables = [[x.values for x in starts[0]]] + made
        for k in range(len(tables) - 1):
            for a, b in zip(tables[k], tables[k + 1]):
                assert not np.shares_memory(a, b)
        for k in range(len(tables) - 2):  # the zero start's, then each map's
            for a, b in zip(tables[k], tables[k + 2]):
                assert np.shares_memory(a, b)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_table_and_views_once_per_plan(self, monkeypatch, name):
        sc = Scenario(build_lattice(4, 1.0), CASES[name], TERMINAL)
        made, looked = stacks_used(monkeypatch)
        _, _, rep = picard_solve(sc, tol=1e-12)
        # one sweep a map, or one a row of a swapped driver's map, each with
        # a plan of its own
        rows = sc.lattice.n_steps + 1 if sc.swapped else 1
        assert len(made) == 1 and len(looked) == rep.iterations * rows
        assert all(table is looked[0][1] for _, table, *_ in looked)
        cut = [(plan, size) for *_, plan, size, cut in looked if cut]
        assert len(cut) == len(set(cut)) == rows
        assert not any(cut for *_, cut in looked[rows:])

    def test_a_batch_that_loses_a_member_cuts_new_views(self, monkeypatch):
        lat = build_lattice(4, 1.0)
        terminals = [TerminalSpec(phi=1e-3), TERMINAL.scaled(0.01), TERMINAL]
        scs = [Scenario(lat, CASES["z_rev_blind"], t) for t in terminals]
        made, looked = stacks_used(monkeypatch)
        _, _, reps = picard_solve(scs, tol=1e-12)
        sizes = [size for *_, size, cut in looked if cut]
        assert len(made) == 1
        assert sizes == [3, 2, 1][:len({rep.iterations for rep in reps})]

    def test_a_sweep_with_no_loop_cuts_one_table(self, monkeypatch):
        sc = Scenario(build_lattice(4, 1.0), CASES["z_rev_blind"], TERMINAL)
        made, looked = stacks_used(monkeypatch)
        tables = []
        cut = lattice._cut

        def recording(table, plan, size):
            tables.append((table, plan[4] * size))
            return cut(table, plan, size)

        monkeypatch.setattr(lattice, "_cut", recording)
        fields.m_extend(*solver.representation_pair(sc))
        assert made == looked == []
        assert len(tables) == 2  # a split, then the extension
        assert all(len(table) == entries for table, entries in tables)

    def test_two_solves_interleaved(self):
        """A solve run inside another's map (from its driver) gives what it
        gives alone, and so does the one around it."""
        lat = build_lattice(4, 1.0)
        inner_sc = Scenario(lat, DRIVERS["linear_mean_field"], TERMINAL)
        inner_pc = particle_config(2)
        alone = (picard_solve(inner_sc, tol=1e-12),
                 particle_bits(solve_particles(inner_pc)))
        inside = []

        class Nesting(DriverSpec):
            def __init__(self, base):
                self.base, self.calls = base, 0
                self.lipschitz_c = base.lipschitz_c
                self.lipschitz_alpha = base.lipschitz_alpha

            def f_values(self, t, s, *args):
                self.calls += 1
                if self.calls == 7:  # mid-sweep, in a warm map
                    inside.append((picard_solve(inner_sc, tol=1e-12),
                                   particle_bits(solve_particles(inner_pc))))
                return self.base.f_values(t, s, *args)

            def g_values(self, t, s, *args):
                return self.base.g_values(t, s, *args)

        outer = [Scenario(lat, Nesting(CASES["z_rev_blind"]), TERMINAL),
                 particle_config(3, Nesting(COUPLED))]
        solved = picard_solve(outer[0], tol=1e-12)
        particle = particle_bits(solve_particles(outer[1]))
        assert len(inside) == 2
        for (y, z, rep), bits in inside:
            (y0, z0, rep0), bits0 = alone
            assert _same_bits(y, y0) and _same_bits(z, z0)
            assert _report_bits(rep) == _report_bits(rep0)
            assert bits == bits0
        y, z, rep = picard_solve(Scenario(lat, CASES["z_rev_blind"],
                                          TERMINAL), tol=1e-12)
        assert _same_bits(solved[0], y) and _same_bits(solved[1], z)
        assert _report_bits(solved[2]) == _report_bits(rep)
        assert particle == particle_bits(solve_particles(particle_config(3)))


def poisoned(at: int):
    """The coupled driver, its f NaN from its call number `at` on once
    armed, and its state."""
    state = {"calls": 0, "armed": False}

    def f(t, s, y, z, z_rev, mean_y, *args):
        state["calls"] += state["armed"]
        bad = state["armed"] and state["calls"] >= at
        return -0.3 * y + 0.5 * mean_y + (np.nan if bad else 0.0)

    return CustomDriver(f, lambda t, s, y, z, *a: 0.04 * z, 0.5, 0.0), state


class TestParticleDistance:
    def test_no_finiteness_read_of_the_loops_tables(self, monkeypatch):
        checks = []
        check = fields._check_finite
        for module in (fields, solver):
            monkeypatch.setattr(module, "_check_finite",
                                lambda values: checks.append(1) or check(values))
        _, rep = solve_particles(particle_config(3))
        assert rep.iterations >= 6 and checks == []

    @pytest.mark.parametrize("at", [1, 2, 5, 8])
    def test_same_error_in_the_same_iteration(self, monkeypatch, at):
        driver, state = poisoned(at)
        pc = particle_config(3, driver)
        state["armed"] = True
        with pytest.raises(ValidationError, match="is not finite") as got:
            solve_particles(pc)
        made = state["calls"]
        state["calls"] = 0
        original = particles._particle_map

        def checked(*args):  # every map's tables checked where they are made
            tables = original(*args)
            for table in tables:
                for values in table:
                    fields._check_finite(values)
            return tables

        monkeypatch.setattr(particles, "_particle_map", checked)
        with pytest.raises(ValidationError) as want:
            solve_particles(pc)
        assert str(got.value) == str(want.value)
        assert made == state["calls"]

    def test_the_public_map_keeps_its_check(self):
        pc = particle_config(2)
        joint = pc.joint_lattice()
        driver, state = poisoned(1)
        state["armed"] = True
        zetas = [[lattice.MeasurableRV(lattice.time_field(joint, joint.n_steps),
                                       np.zeros(lattice.time_field(
                                           joint, joint.n_steps).table_shape))
                  for _ in range(joint.n_steps + 1)] for _ in range(2)]
        pairs = [(fields.zero_path(joint), fields.zero_kernel(joint))] * 2
        with pytest.raises(ValidationError, match="entry 0 is not finite"):
            particles.particle_map(driver, zetas, pairs)
