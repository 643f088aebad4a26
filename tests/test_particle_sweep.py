"""The particles as the members of one sweep, against a sweep per particle.

`particles.particle_map` runs the n particles through one
`clark_ocone_sweep` with one lane per member: at a lane's bit only the
members on that lane read their kernel column, and each member's slot
terms carry its own lane's dB_j.  Everything else is shared, so the map
must equal, bit for bit, the per-lane map of tests/_oracles.py, with one
f call and one g call per slot for all particles.  The fixed parts of a
slot's arguments are built once per lattice (`solver._slot_layout`):
they are read-only and never shared between lattices.
"""

import numpy as np
import pytest

from mfbdsvie import particles
from mfbdsvie.drivers import LinearDriver, TerminalSpec, terminal_rv
from mfbdsvie.lattice import LatticeSpec, build_lattice, clark_ocone_sweep, time_field
from mfbdsvie.particles import ParticleConfig, convergence_study, particle_map
from mfbdsvie.solver import Scenario, _slot_layout

from _oracles import per_lane_particle_map, per_lane_tables
from test_stack import BLIND, CASES, Counting
from test_sweep import TERMINAL, random_pair, random_rv


def joint_system(n, driver, n_steps=3):
    joint = ParticleConfig(n, build_lattice(n_steps, 1.0), driver=driver,
                           terminal=TERMINAL).joint_lattice()
    zetas = [[terminal_rv(TERMINAL, joint, i, lane=p)
              for i in range(joint.n_steps + 1)] for p in range(n)]
    return joint, zetas


def assert_pairs_equal(got, want):
    for (y, z), (y_ref, z_ref) in zip(got, want, strict=True):
        assert np.array_equal(y.values, y_ref.values)
        assert np.array_equal(z.values, z_ref.values)


class TestOneSweep:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_equal_to_a_sweep_per_particle(self, n, name):
        joint, zetas = joint_system(n, CASES[name])
        pairs = [random_pair(joint, np.random.default_rng(n + p))
                 for p in range(n)]
        for _ in range(3):  # successive maps, as the Picard loop runs them
            got = particle_map(CASES[name], zetas, pairs)
            assert_pairs_equal(got, per_lane_particle_map(CASES[name], zetas,
                                                          pairs))
            pairs = got

    def test_gap_rows_bit_equal(self, monkeypatch):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"mean_y": 0.5, "y": -0.3}, g={"z": 0.04})
        sc = Scenario(lat, d, TerminalSpec(phi=0.3, theta=0.6))
        rows = convergence_study(sc, [1, 2, 3])
        # solve_particles maps through the private form, the driver probed
        monkeypatch.setattr(particles, "_particle_map",
                            lambda driver, swapped, zetas, tables, out:
                            per_lane_tables(driver, zetas, tables))
        assert rows == convergence_study(sc, [1, 2, 3])

    def test_one_driver_call_per_slot_for_all_particles(self):
        counter = Counting(BLIND)
        joint, zetas = joint_system(3, counter)
        pairs = [random_pair(joint, np.random.default_rng(p)) for p in range(3)]
        counter.reset()
        particle_map(counter, zetas, pairs)
        n = joint.n_steps
        assert counter.slots == {"f": n, "g": n}  # not 3 n


class TestLaneMembers:
    """A sweep whose members read different lanes against one sweep each."""

    @pytest.mark.parametrize("lanes", [(0, 1, 2), (2, 0, 2)])
    @pytest.mark.parametrize("first", [0, 2])
    def test_against_single_lane_sweeps(self, lanes, first):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        rng = np.random.default_rng(5)
        rows = [[random_rv(time_field(lat, lat.n_steps), rng)
                 for _ in range(lat.n_steps + 1)] for _ in lanes]
        ys, zs = clark_ocone_sweep(rows, 0, lanes, first)
        for p, lane in enumerate(lanes):
            (y,), (z,) = clark_ocone_sweep([rows[p]], 0, lane, first)
            assert np.array_equal(ys[p], y)
            assert np.array_equal(zs[p], z)


class TestSlotLayout:
    def test_read_only(self):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        for lane in (1, (0, 1, 2)):
            _, t, _, db = _slot_layout(lat, 1, 0, 2, True, 1, lane)
            for table in (t, db):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[...] = 0.0

    def test_stacked_db_is_each_lanes_own(self):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        stacked = _slot_layout(lat, 1, 0, 2, False, 1, (0, 1, 2))[3]
        for lane in range(3):
            own = _slot_layout(lat, 1, 0, 2, False, 1, lane)[3]
            assert np.array_equal(stacked[lane],
                                  np.broadcast_to(own, stacked.shape[1:]))

    @pytest.mark.parametrize("other", [
        LatticeSpec(n_steps=3, horizon=2.0, lanes=1),
        LatticeSpec(n_steps=3, horizon=1.0, lanes=2),
    ])
    def test_never_shared_between_lattices(self, other):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=1)
        for j in range(lat.n_steps):
            f, _, _, db = _slot_layout(lat, j, 0, j + 1, True, 0, 0)
            f_other, _, _, db_other = _slot_layout(other, j, 0, j + 1, True,
                                                   0, 0)
            assert f.lattice == lat and f_other.lattice == other
            assert (db.shape != db_other.shape
                    or not np.array_equal(db, db_other))
