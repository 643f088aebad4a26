"""The rows of a map as one stack, against the rows swept one at a time.

Frozen at a pair, each row of the map is a backward equation in s, so
`gamma_map` and `particle_map` advance all rows in one backward
induction, with one f call and one g call per slot.  Their outputs must
agree to rounding with the per-row sweeps of tests/_oracles.py, for
drivers blind to the swapped arguments (one stack) and for drivers that
read them (a stack per row).  The driver is called once per slot, and
the map's memory stays a small multiple of its output pair.
"""

import numpy as np
import pytest

from mfbdsvie.comparison import FrozenMeanDriver, _CombinedDriver
from mfbdsvie.drivers import DriverSpec, LinearDriver, terminal_rv
from mfbdsvie.lattice import build_lattice
from mfbdsvie.particles import ParticleConfig, particle_map
from mfbdsvie.solver import Scenario, gamma_map, reads_swapped, representation_pair

from _oracles import per_row_gamma_map, per_row_particle_map
from test_sweep import DRIVERS, TERMINAL, map_peak, random_pair

REL = 1e-15
BLIND = LinearDriver(f={"y": -0.2, "z": 0.1, "mean_y": 0.15, "mean_z": 0.05},
                     g={"z": 0.04, "mean_y": 0.02, "mean_z": 0.01},
                     f_source=lambda t, s: 0.1 + 0.2 * t - 0.3 * s)
CASES = {"z_rev_blind": BLIND, **DRIVERS}


def assert_pairs_close(got, want):
    for a, b in zip(got, want, strict=True):
        scale = max(1.0, float(np.max(np.abs(b.values))))
        assert float(np.max(np.abs(a.values - b.values))) <= REL * scale


def test_probe_reads_the_swapped_arguments():
    assert not reads_swapped(BLIND)
    assert not reads_swapped(DRIVERS["risk_smooth_abs"])
    assert reads_swapped(DRIVERS["linear_mean_field"])
    assert reads_swapped(LinearDriver(f={"mean_z_rev": 0.1}))
    assert reads_swapped(LinearDriver(g={"z_rev": 0.1}))


class TestStackedMap:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [4, 6])
    def test_against_rows_one_at_a_time(self, n_steps, name):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        rng = np.random.default_rng(n_steps)
        for y, z in (representation_pair(sc), random_pair(sc.lattice, rng)):
            assert_pairs_close(gamma_map(sc, y, z),
                               per_row_gamma_map(sc, y, z))

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_particles_against_rows_one_at_a_time(self, lanes, name):
        pc = ParticleConfig(lanes, build_lattice(3, 1.0), driver=CASES[name],
                            terminal=TERMINAL)
        joint = pc.joint_lattice()
        zetas = [[terminal_rv(TERMINAL, joint, i, lane=p)
                  for i in range(joint.n_steps + 1)] for p in range(lanes)]
        rng = np.random.default_rng(lanes)
        pairs = [random_pair(joint, rng) for _ in range(lanes)]
        for got, want in zip(particle_map(pc.driver, zetas, pairs),
                             per_row_particle_map(pc.driver, zetas, pairs),
                             strict=True):
            assert_pairs_close(got, want)


class Counting(DriverSpec):
    """A driver passing its calls through to another and counting them."""

    def __init__(self, base: DriverSpec):
        self.base = base
        self.lipschitz_c = base.lipschitz_c
        self.lipschitz_alpha = base.lipschitz_alpha
        self.reset()

    def reset(self):
        self.slots = {"f": 0, "g": 0}  # calls with a column of row times
        self.calls = {"f": 0, "g": 0}

    def _count(self, name, t):
        self.calls[name] += 1
        self.slots[name] += np.ndim(t) > 0

    def f_values(self, t, s, *args):
        self._count("f", t)
        return self.base.f_values(t, s, *args)

    def g_values(self, t, s, *args):
        self._count("g", t)
        return self.base.g_values(t, s, *args)


class TestDriverCalls:
    """One f call and one g call per slot and map for a driver blind to the
    swapped arguments: the scenario probed it once when it was built."""

    N = 6

    def wrapped(self, how):
        base = Counting(BLIND)
        if how == "plain":
            return base, base
        combined = _CombinedDriver(base, base)
        if how == "combined":
            return base, combined
        mu = np.linspace(0.1, 0.2, self.N + 1)
        return base, FrozenMeanDriver(combined, mu, 1.0 / self.N)

    @pytest.mark.parametrize("how", ["plain", "combined", "frozen_mean"])
    def test_one_call_per_slot(self, how):
        counter, driver = self.wrapped(how)
        sc = Scenario(build_lattice(self.N, 1.0), driver, TERMINAL)
        y, z = representation_pair(sc)
        counter.reset()
        gamma_map(sc, y, z)
        assert counter.slots == {"f": self.N, "g": self.N}
        assert counter.calls == {"f": self.N, "g": self.N}


class TestMapMemory:
    """Peak traced memory of one map, held against what it must hold.

    Measured with numpy 2.4: the stacked map of a driver blind to z_rev
    peaks at 1.9 times its output pair at N = 10 (the pair, and the stack
    of 11 running tables of 2^(N+1) entries); a driver that reads z_rev
    sweeps one row at a time and peaks at 3.9 tables of 4^N doubles at
    N = 8, where one stack of its rows would hold N + 1 = 9 such tables.
    """

    peak = staticmethod(map_peak)

    def test_blind_driver_within_a_multiple_of_the_pair(self):
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        pair_bytes = 8 * (n + 1) * (n + 1) * (1 << n)
        assert self.peak(sc) <= 2.5 * pair_bytes

    def test_swapped_rows_one_at_a_time(self):
        n = 8
        sc = Scenario(build_lattice(n, 1.0), DRIVERS["linear_mean_field"],
                      TERMINAL)
        assert self.peak(sc) <= 6 * 8 * 4 ** n
