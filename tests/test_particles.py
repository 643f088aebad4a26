"""Particle-system checks: decoupling, oracle match, trend, symmetry."""

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.lattice import build_lattice, full_field
from mfbdsvie.particles import (
    ParticleConfig,
    convergence_study,
    solve_particles,
)
from mfbdsvie.solver import Scenario, picard_solve

from _oracles import (
    ParticleLinearSystem,
    PathIndex,
    at,
    lift,
    lift_single_to_joint,
)

TOL = 1e-10


class TestGuards:
    def test_particle_count(self):
        lat = build_lattice(2, 1.0)
        with pytest.raises(errors.ValidationError):
            ParticleConfig(n_particles=4, lattice=lat,
                           driver=LinearDriver(), terminal=TerminalSpec())

    def test_joint_space_guard(self):
        # 3 particles on 14 steps would blow the enumeration guard well
        # before the lattice cap; the config must refuse
        lat = build_lattice(14, 1.0)
        with pytest.raises(errors.JointSpaceTooLarge):
            ParticleConfig(n_particles=3, lattice=lat,
                           driver=LinearDriver(), terminal=TerminalSpec())


class TestDecoupling:
    def test_single_particle_matches_mean_field_when_uncoupled(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"y": -0.4, "z": 0.2}, g={"z": 0.05})
        term = TerminalSpec(phi=0.2, theta=0.8)
        pc = ParticleConfig(n_particles=1, lattice=lat, driver=d,
                            terminal=term)
        y, _ = solve_particles(pc)
        sc = Scenario(lat, d, term)
        y_mf, _, _ = picard_solve(sc, tol=1e-12)
        joint = pc.joint_lattice()
        for i in range(3):
            a = lift(y[0][i], full_field(joint)).values
            b = lift_single_to_joint(y_mf[i], lat, joint, 0)
            assert np.max(np.abs(a - b)) <= TOL

    def test_two_uncoupled_particles_are_independent_copies(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver()
        term = TerminalSpec(theta=1.0)
        pc = ParticleConfig(n_particles=2, lattice=lat, driver=d,
                            terminal=term)
        y, rep = solve_particles(pc)
        sc = Scenario(lat, d, term)
        rows = convergence_study(sc, [1, 2])
        for (_, _, gap) in rows:
            assert gap <= 1e-12
        assert rep.exchangeability <= TOL


class TestOracle:
    def test_joint_linear_system_match(self):
        n, T = 2, 1.0
        f = {"mean_y": 0.5, "y": -0.3}
        g = {"z": 0.04}
        lat = build_lattice(n, T)
        term = TerminalSpec(phi=0.3, theta=0.6)
        pc = ParticleConfig(
            n_particles=2, lattice=lat,
            driver=LinearDriver(f=f, g=g), terminal=term,
        )
        y, _ = solve_particles(pc)
        joint = pc.joint_lattice()

        inc = joint.inc

        def zeta(p, i, w):
            walk = sum(
                inc * (2.0 * ((w >> (s * 2 + p)) & 1) - 1.0)
                for s in range(n)
            )
            return 0.3 + 0.6 * walk

        oracle = ParticleLinearSystem(2, n, T, dict(f), dict(g), zeta)
        oy, resid = oracle.solve()
        assert resid <= 1e-9
        size = 1 << joint.n_bits
        for p in range(2):
            for i in range(n + 1):
                for w in range(size):
                    for b in range(size):
                        got = at(y[p][i], PathIndex(w, b))
                        want = oy[p][i][oracle._cidx(i, w, b)]
                        assert got == pytest.approx(want, abs=1e-8)


class TestTrend:
    def test_coupled_gap_decreases_in_particle_count(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"mean_y": 0.5, "y": -0.3}, g={"z": 0.04})
        sc = Scenario(lat, d, TerminalSpec(phi=0.3, theta=0.6))
        rows = convergence_study(sc, [1, 2, 3])
        by_n = {}
        for (npart, i, gap) in rows:
            by_n.setdefault(npart, 0.0)
            by_n[npart] += gap * lat.dt
        assert by_n[1] > 0.0
        assert by_n[3] < by_n[1]

    def test_single_particle_self_mean_gap_positive(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"mean_y": 0.5})
        sc = Scenario(lat, d, TerminalSpec(theta=1.0))
        rows = convergence_study(sc, [1])
        assert max(gap for (_, _, gap) in rows) > 1e-6

    def test_exchangeability_for_coupled_three_particle_system(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"mean_y": 0.4, "y": -0.2}, g={"mean_z": 0.03})
        pc = ParticleConfig(n_particles=3, lattice=lat, driver=d,
                            terminal=TerminalSpec(theta=0.7))
        _, rep = solve_particles(pc)
        assert rep.exchangeability <= TOL
