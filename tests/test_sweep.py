"""The backward sweep and the ascending assembly against their references.

split_row (one sweep over the W bits) and assemble_phi (slot terms in
ascending field size, terminal last) must agree with the per-slot
conditional-expectation split and the zeta-first assembly of
tests/_oracles.py to rounding, on every row, column start and lane.  A
count of table bytes guards the O(4^N) cost of one map application.
"""

import numpy as np
import pytest

from mfbdsvie import solver
from mfbdsvie.drivers import LinearDriver, RiskDriver, TerminalSpec, ZPart, terminal_rv
from mfbdsvie.fields import AdaptedPath, VolterraKernel, m_extend, representation_row
from mfbdsvie.lattice import LatticeSpec, MeasurableRV, build_lattice, time_field
from mfbdsvie.solver import (
    Scenario,
    assemble_phi,
    gamma_map,
    means,
    picard_solve,
    representation_pair,
    split_row,
)

from _oracles import (
    condexp_m_extend,
    condexp_representation_row,
    condexp_split_row,
    zeta_first_assemble_phi,
)

REL = 1e-13
R_IDX = 1  # a flip slot: first = r + 1 is the linearized solve's start

DRIVERS = {
    # every argument slot, z_rev included, in both f and g
    "linear_mean_field": LinearDriver(
        f={"y": -0.2, "z": 0.1, "z_rev": 0.05, "mean_y": 0.15, "mean_z": 0.05,
           "mean_z_rev": 0.02},
        g={"z": 0.04, "z_rev": 0.03, "mean_y": 0.02}),
    "risk_smooth_abs": RiskDriver(rate=0.1, h=ZPart("smooth_abs", k1=0.3),
                                  g=ZPart("linear", k1=0.05)),
}
TERMINAL = TerminalSpec(phi=0.3, theta=0.2, smooth=[("tanh", 0.5)])


def assert_close(got: MeasurableRV, want: MeasurableRV):
    assert got.field == want.field
    gap = float(np.max(np.abs(got.values - want.values)))
    assert gap <= REL * max(1.0, want.max_abs())


def random_rv(f, rng):
    return MeasurableRV(f, rng.normal(size=f.table_shape))


def random_pair(lat: LatticeSpec, rng):
    n = lat.n_steps
    y = AdaptedPath(lat, [random_rv(time_field(lat, i), rng) for i in range(n + 1)])
    z = VolterraKernel(lat, [[random_rv(time_field(lat, j), rng) for j in range(n)]
                             for _ in range(n + 1)])
    return y, z


def firsts(i):
    return sorted({0, i, R_IDX + 1})


class TestSingleLane:
    N = 5

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_every_row_and_first(self, name):
        lat = build_lattice(self.N, 1.0)
        y, z = random_pair(lat, np.random.default_rng(3))
        ey, ez = means(y, z)
        for i in range(self.N + 1):
            zeta = terminal_rv(TERMINAL, lat, i)
            args = (DRIVERS[name], zeta, y, z, ey, ez, i)
            phi = assemble_phi(*args)
            assert_close(phi, zeta_first_assemble_phi(*args))
            # the assembled right side and the bare terminal (representation
            # pair: blind to B, so columns are lifted rather than averaged)
            for x in (phi, zeta):
                for first in firsts(i):
                    yi, row = split_row(x, i, first=first)
                    yi_ref, row_ref = condexp_split_row(x, i, first=first)
                    assert_close(yi, yi_ref)
                    for zij, zij_ref in zip(row, row_ref, strict=True):
                        assert_close(zij, zij_ref)

    def test_representation_and_extension(self):
        lat = build_lattice(self.N, 1.0)
        rng = np.random.default_rng(5)
        y, z = random_pair(lat, rng)
        for i in range(self.N + 1):
            for j in range(self.N):
                assert_close(representation_row(y[i], j),
                             condexp_representation_row(y[i], j))
        got, want = m_extend(y, z), condexp_m_extend(y, z)
        for i in range(self.N + 1):
            for j in range(self.N):
                assert_close(got.at(i, j), want.at(i, j))


class TestLanes:
    @pytest.mark.parametrize("lanes, n_steps", [(1, 4), (2, 3), (3, 2)])
    def test_every_lane(self, lanes, n_steps):
        lat = LatticeSpec(n_steps=n_steps, horizon=1.0, lanes=lanes)
        rng = np.random.default_rng(11)
        y, z = random_pair(lat, rng)
        # random-variable means, as the particle system's empirical means
        my, mz = random_pair(lat, rng)
        ey = list(my.y)
        ez = [list(row) for row in mz.z]
        for lane in range(lanes):
            for i in range(n_steps + 1):
                zeta = terminal_rv(TERMINAL, lat, i, lane=lane)
                args = (DRIVERS["linear_mean_field"], zeta, y, z, ey, ez, i)
                phi = assemble_phi(*args, lane=lane)
                assert_close(phi, zeta_first_assemble_phi(*args, lane=lane))
                for first in firsts(i):
                    yi, row = split_row(phi, i, lane=lane, first=first)
                    yi_ref, row_ref = condexp_split_row(phi, i, lane=lane,
                                                        first=first)
                    assert_close(yi, yi_ref)
                    for zij, zij_ref in zip(row, row_ref, strict=True):
                        assert_close(zij, zij_ref)


class TestPicard:
    @pytest.mark.parametrize("defer", [False, True])
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_same_solution_and_iterations(self, monkeypatch, name, defer):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS[name], TERMINAL)
        y, z, rep = picard_solve(sc, tol=1e-12, defer_extension=defer)
        with monkeypatch.context() as m:
            m.setattr(solver, "assemble_phi", zeta_first_assemble_phi)
            m.setattr(solver, "split_row", condexp_split_row)
            m.setattr(solver, "m_extend", condexp_m_extend)
            y_ref, z_ref, rep_ref = picard_solve(sc, tol=1e-12,
                                                 defer_extension=defer)
        assert rep.iterations == rep_ref.iterations
        # deferring the extension is exact only for drivers blind to z_rev,
        # so compare the residuals rather than bound them
        assert rep.final_residual == pytest.approx(rep_ref.final_residual,
                                                   rel=1e-9, abs=1e-12)
        for i in range(sc.lattice.n_steps + 1):
            assert_close(y[i], y_ref[i])
            for j in range(sc.lattice.n_steps):
                assert_close(z.at(i, j), z_ref.at(i, j))


class TestTableBudget:
    """Bytes of the tables built by one map application scale as 4^N."""

    def table_bytes(self, monkeypatch, n_steps):
        driver = LinearDriver(f={"y": -0.2, "mean_y": 0.15, "mean_z": 0.05},
                              g={"z": 0.04, "mean_y": 0.02})
        sc = Scenario(build_lattice(n_steps, 1.0), driver,
                      TerminalSpec(phi=0.3, smooth=[("tanh", 0.5)]))
        y, z = representation_pair(sc)
        init = MeasurableRV.__init__
        total = 0

        def counting(rv, field, values):
            nonlocal total
            init(rv, field, values)
            total += rv.values.nbytes

        with monkeypatch.context() as m:
            m.setattr(MeasurableRV, "__init__", counting)
            gamma_map(sc, y, z)
        return total

    def test_ratio_from_n6_to_n9(self, monkeypatch):
        ratio = (self.table_bytes(monkeypatch, 9)
                 / self.table_bytes(monkeypatch, 6))
        assert ratio <= 70  # 4^3 = 64 for pure O(4^N) scaling
