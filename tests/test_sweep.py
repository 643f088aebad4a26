"""The backward induction against the split of the whole assembled Phi_i.

The backward induction (`lattice.clark_ocone_sweep`, here on a stack of
one row through `split_row` of tests/_oracles.py) adds each slot term
before it splits the slot's W bits, so Phi_i is never built.  On every row, column start and lane it must agree
to rounding with the per-slot conditional-expectation split of the
zeta-first assembly of Phi_i in tests/_oracles.py, and so must the map
and residual the solver makes of it.  The traced peak of one map
application guards its cost: for a driver blind to z_rev it stays within
a few kernels of (N + 1) N 2^N doubles and scales as N^2 2^N.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from mfbdsvie import solver
from mfbdsvie.drivers import LinearDriver, RiskDriver, TerminalSpec, ZPart
from mfbdsvie.errors import MeasurabilityViolation
from mfbdsvie.fields import AdaptedPath, VolterraKernel, m_extend
from mfbdsvie.lattice import (
    LatticeSpec,
    MeasurableRV,
    SigmaField,
    build_lattice,
    time_field,
)
from mfbdsvie.malliavin import build_linearized
from mfbdsvie.solver import (
    Scenario,
    gamma_map,
    means,
    picard_solve,
    representation_pair,
    residual,
)

from _oracles import (
    _linearized_phi,
    _linearized_row,
    add,
    assembled_residual,
    condexp_gamma_map,
    condexp_m_extend,
    condexp_representation_row,
    condexp_split_row,
    max_abs,
    mul,
    representation_row,
    slot_term,
    split_row,
    terminal_rv,
    w_increment,
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
    assert gap <= REL * max(1.0, max_abs(want))


def assert_rows_close(got, want):
    (yi, row), (yi_ref, row_ref) = got, want
    assert_close(yi, yi_ref)
    for zij, zij_ref in zip(row, row_ref, strict=True):
        assert_close(zij, zij_ref)


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
            phi = zeta_first_assemble_phi(*args)
            term = partial(slot_term, DRIVERS[name], y, z, ey, ez, i)
            for first in firsts(i):
                assert_rows_close(split_row(zeta, i, first=first, term=term),
                                  condexp_split_row(phi, i, first=first))
                # the bare terminal (representation pair: blind to B, so
                # columns are lifted rather than averaged)
                assert_rows_close(split_row(zeta, i, first=first),
                                  condexp_split_row(zeta, i, first=first))

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
        driver = DRIVERS["linear_mean_field"]
        for lane in range(lanes):
            for i in range(n_steps + 1):
                zeta = terminal_rv(TERMINAL, lat, i, lane=lane)
                phi = zeta_first_assemble_phi(driver, zeta, y, z, ey, ez, i,
                                              lane=lane)
                term = partial(slot_term, driver, y, z, my.values, mz.values,
                               i, lane=lane)
                for first in firsts(i):
                    assert_rows_close(
                        split_row(zeta, i, lane=lane, first=first, term=term),
                        condexp_split_row(phi, i, lane=lane, first=first))


class TestLinearized:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_step_against_whole_phi(self, name):
        # no term below slot r, swapped-kernel terms on every row
        lat = build_lattice(4, 1.0)
        rng = np.random.default_rng(17)
        sc = Scenario(lat, DRIVERS[name], TERMINAL)
        ls = build_linearized(sc, *random_pair(lat, rng), R_IDX)
        u, v = random_pair(lat, rng)
        eu, ev = means(u, v)
        for i in range(lat.n_steps + 1):
            phi = _linearized_phi(ls, u, v, eu, ev, i, include_swapped=True)
            assert_rows_close(_linearized_row(ls, u, v, eu, ev, i),
                              condexp_split_row(phi, i, first=R_IDX + 1))


class TestPicard:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_same_solution_and_iterations(self, monkeypatch, name):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS[name], TERMINAL)
        y, z, rep = picard_solve(sc, tol=1e-12)
        with monkeypatch.context() as m:
            m.setattr(solver, "gamma_map", condexp_gamma_map)
            m.setattr(solver, "residual", assembled_residual)
            y_ref, z_ref, rep_ref = picard_solve(sc, tol=1e-12)
        assert rep.iterations == rep_ref.iterations
        assert rep.final_residual == pytest.approx(rep_ref.final_residual,
                                                   rel=1e-9, abs=1e-12)
        for i in range(sc.lattice.n_steps + 1):
            assert_close(y[i], y_ref[i])
            for j in range(sc.lattice.n_steps):
                assert_close(z.at(i, j), z_ref.at(i, j))

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_residual_against_assembled_phi(self, name):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS[name], TERMINAL)
        y, z = random_pair(sc.lattice, np.random.default_rng(23))
        want = assembled_residual(sc, y, z)
        assert residual(sc, y, z) == pytest.approx(want, rel=REL)


class TestAdaptedness:
    def test_term_knowing_later_w_bits_is_refused(self):
        # a slot-m term on (m + 2, m) would feed column m + 1, already read
        lat = build_lattice(4, 1.0)
        rng = np.random.default_rng(29)
        n = lat.n_steps

        def term(m):
            return random_rv(SigmaField(lat, m + 2, m), rng) if m == n - 2 else None

        with pytest.raises(MeasurabilityViolation):
            split_row(terminal_rv(TERMINAL, lat, 0), 0, term=term)

    def test_residual_audits_the_kernel(self):
        # a kernel entry that sees its own increment never reaches the
        # residual's audited sum: the kernel refuses it
        lat = build_lattice(3, 1.0)
        sc = Scenario(lat, DRIVERS["risk_smooth_abs"], TERMINAL)
        _, z = representation_pair(sc)
        # entry (0, 1) on (2, 1): it sees its own increment dW_1
        rows = [list(row) for row in z.z]
        rows[0][1] = add(mul(w_increment(lat, 1), rows[0][1]), rows[0][1])
        assert rows[0][1].field == SigmaField(lat, 2, 1)
        with pytest.raises(MeasurabilityViolation, match=r"entry \(0, 1\)"):
            VolterraKernel(lat, rows)


def map_peak(sc):
    """Traced peak bytes of one warm `gamma_map` (imports and caches built)."""
    y, z = representation_pair(sc)
    gamma_map(sc, y, z)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gamma_map(sc, y, z)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTableBudget:
    """Peak memory of one map application, for a driver blind to z_rev, in
    kernels of (N + 1) N 2^N doubles.

    Measured with numpy 2.4: 3.40 kernels at N = 6, 2.40 at N = 9 and 1.89
    at N = 12; from N = 6 to 9 the peak grows 12.0 times.
    """

    @staticmethod
    def peak(n_steps):
        driver = LinearDriver(f={"y": -0.2, "mean_y": 0.15, "mean_z": 0.05},
                              g={"z": 0.04, "mean_y": 0.02})
        return map_peak(Scenario(build_lattice(n_steps, 1.0), driver,
                                 TerminalSpec(phi=0.3, smooth=[("tanh", 0.5)])))

    def test_ratio_from_n6_to_n9(self):
        assert self.peak(9) / self.peak(6) <= 70  # 4^3 = 64 for O(4^N)

    @pytest.mark.parametrize("n_steps", [6, 9])
    def test_peak_in_kernels(self, n_steps):
        # the output pair and the induction's running tables on (m + 1, m);
        # Phi_0 alone had 4^N doubles: 1.5 kernels at N = 6, 5.7 at N = 9
        assert self.peak(n_steps) <= 4 * 8 * (n_steps + 1) * n_steps << n_steps

    def test_bytes_scale_as_n2_2n(self):
        # N^2 2^N predicts (81 * 512) / (36 * 64) = 18
        assert self.peak(9) / self.peak(6) <= 24
