"""A Picard loop keeps no member rows it does not need.

A batch member that stops while others run on gets its pair as a copy of
its rows, so it keeps none of its co-members' rows of that map alive; a
batch of one, and the members that stop last, keep the view of their
map's tables.  The terminals the sweep reads are stacked on a member
axis once per loop: the particles' once a solve, a batch's on its first
map (`solver._terminals`, which keeps the last member set) and again
only when a member stops; the sweep reads each row of them as a view.
Values, iteration counts and reports stay those of the solo solves and
of the sweep that copies each row it reads (`allocating_sweep`).
"""

import sys

import numpy as np

from mfbdsvie import solver
from mfbdsvie.lattice import build_lattice
from mfbdsvie.particles import solve_particles
from mfbdsvie.solver import Scenario, picard_solve

from test_members import TERMINALS, _report_bits, _same_bits
from test_stacks import both, particle_bits, particle_config
from test_sweep import DRIVERS

N = 6
# linear_mean_field members stopping at 12, 9 and 10 iterations
BATCH = [TERMINALS[k] for k in (0, 1, 3)]
ITERATIONS = [12, 9, 10]


def owned_bytes(values):
    """The bytes of the table that owns values' memory."""
    return (values if values.base is None else values.base).nbytes


def batch():
    lat = build_lattice(N, 1.0)
    return [Scenario(lat, DRIVERS["linear_mean_field"], t) for t in BATCH]


def counting_stacks(monkeypatch):
    """The `np.stack` calls that stack terminals on a member axis, and the
    sweep's."""
    calls = []
    original = np.stack

    def stack(arrays, *args, **kwargs):
        if sys._getframe(1).f_code.co_name in (
                "clark_ocone_sweep", "_terminals", "solve_particles"):
            calls.append(len(arrays))
        return original(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "stack", stack)
    return calls


class TestStoppedMemberOwnsItsRows:
    def test_each_pair_owns_one_member_of_rows(self):
        scs = batch()
        ys, zs, reps = picard_solve(scs, tol=1e-12)
        assert [rep.iterations for rep in reps] == ITERATIONS
        for y, z in zip(ys, zs):
            assert owned_bytes(z.values) == z.values.nbytes == 21504
            assert owned_bytes(y.values) == y.values.nbytes
            assert not (y.values.flags.writeable or z.values.flags.writeable)

    def test_bit_identical_to_solo_solves(self):
        scs = batch()
        ys, zs, reps = picard_solve(scs, tol=1e-12)
        for sc, y, z, rep in zip(scs, ys, zs, reps, strict=True):
            y0, z0, rep0 = picard_solve(sc, tol=1e-12)
            assert _same_bits(y, y0) and _same_bits(z, z0)
            assert _report_bits(rep) == _report_bits(rep0)

    def test_members_stopping_last_share_their_tables(self):
        sc = batch()[0]
        ys, zs, reps = picard_solve([sc, sc], tol=1e-12)
        assert reps[0].iterations == reps[1].iterations
        assert zs[0].values.base is zs[1].values.base is not None
        assert owned_bytes(zs[0].values) == 2 * zs[0].values.nbytes


class TestMemberRowsStackedOncePerLoop:
    def test_particles(self, monkeypatch):
        pc = particle_config(3)
        solve_particles(pc)  # warm
        calls = counting_stacks(monkeypatch)
        _, rep = solve_particles(pc)
        assert rep.iterations > 2
        assert calls == [3]  # one loop, no stop

    def test_particles_bit_identical_to_stacking_every_sweep(self):
        pc = particle_config(3)
        got, want = both(lambda: solve_particles(pc))
        assert particle_bits(got) == particle_bits(want)

    def test_batch_restacks_only_when_a_member_stops(self, monkeypatch):
        scs = batch()
        picard_solve(scs, tol=1e-12)  # warm
        calls = counting_stacks(monkeypatch)
        _, _, reps = picard_solve(scs, tol=1e-12)
        # the terminals of three members, then of two; one member reads
        # its own as a view
        assert sorted(calls) == [2, 3]
        assert sum(rep.iterations for rep in reps) > len(calls)

    def test_one_member_set_is_kept(self):
        scs = tuple(batch())
        for size in range(3, 0, -1):
            got = solver._terminals(scs[:size])
            assert got is solver._terminals(scs[:size])
            assert not got.flags.writeable
            assert np.array_equal(got, np.stack([sc.zeta for sc in scs[:size]]))
        assert np.shares_memory(got, scs[0].zeta)  # a batch of one: a view
        assert solver._terminals.cache_info().currsize == 1
