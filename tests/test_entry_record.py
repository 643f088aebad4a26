"""The package's callers of the per-entry layer work on the dense arrays.

`MeasurableRV` is a (field, table) record with no arithmetic; the
per-entry algebra (its operators, `lift`, `expectation`, `flip_derivative`,
`b_increment`) lives in tests/_oracles.py.  Each caller that once used it
must match its per-entry form bit for bit: the lower-triangle identity of
`check_clark_ocone` (`per_entry_clark_ocone`), the flip equation's source
in `build_linearized` (`flip_derivative` of each terminal, one row each of
its dense table), and the dB_j view of `solver._slot_layout`
(`b_increment`).  No solve, map, residual, flip equation or particle
study builds a record at all.
"""

from functools import lru_cache

import numpy as np
import pytest

from mfbdsvie.fields import m_extend, m_identity_residual
from mfbdsvie.lattice import (
    LatticeSpec,
    MeasurableRV,
    bit_view_shape,
    build_lattice,
    check_lanes,
)
from mfbdsvie.malliavin import (
    build_linearized,
    check_clark_ocone,
    check_delta_equation,
    solve_linearized,
)
from mfbdsvie.particles import ParticleConfig, convergence_study, solve_particles
from mfbdsvie.solver import (
    Scenario,
    _slot_layout,
    gamma_map,
    picard_solve,
    representation_pair,
    residual,
    stability_compare,
)

from _oracles import (
    b_increment,
    flip_derivative,
    per_entry_clark_ocone,
    zeta_rvs,
)
from test_residual_table import perturbed
from test_sweep import DRIVERS, TERMINAL


@lru_cache(maxsize=None)
def solved(name, n):
    sc = Scenario(build_lattice(n, 1.0), DRIVERS[name], TERMINAL)
    y, z, _ = picard_solve(sc, tol=1e-12, report=False)
    return sc, y, z


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("name", sorted(DRIVERS))
class TestOnDenseArrays:
    def test_clark_ocone_rows(self, name, n):
        # the solved pair (gaps at rounding) and one 1e-3 off it
        _, y, z = solved(name, n)
        for pair in ((y, z), perturbed(y, z, np.random.default_rng(n))):
            for r in range(n):
                got = check_clark_ocone(*pair, r)
                want = per_entry_clark_ocone(*pair, r)
                assert got.rows == want.rows
                assert got.worst == want.worst

    def test_linearized_source(self, name, n):
        sc, y, z = solved(name, n)
        for r in range(n):
            got = build_linearized(sc, y, z, r).source
            want = [flip_derivative(x, r) for x in zeta_rvs(sc)]
            assert not got.flags.writeable
            assert {x.field for x in want} == {zeta_rvs(sc)[0].field}
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(bits(a), bits(b.values.reshape(-1)))


def old_db(lat, j, start, swapped, lane):
    """`_slot_layout`'s dB_j view as it was read off `b_increment`."""
    f = _slot_layout(lat, j, start, start + 1, swapped, 0, lane)[0]
    axes = len(bit_view_shape(f, f))

    def view(bit):
        shape = [1] * axes
        shape[f.w_upto + lat.n_bits - 1 - bit] = 2
        return b_increment(lat, bit).values[0, :2].reshape(shape)

    db = np.stack(np.broadcast_arrays(*[
        view(lat.bit_of(j, ln)) for ln in check_lanes(lat, lane)]))
    return db if isinstance(lane, int) else db[:, None]


@pytest.mark.parametrize("lat, lanes", [
    (LatticeSpec(n_steps=5, horizon=0.7, lanes=1), [0]),
    (LatticeSpec(n_steps=3, horizon=1.3, lanes=3), [0, 2, (0, 1, 2)]),
])
def test_slot_layout_db_view(lat, lanes):
    for lane in lanes:
        for j in range(lat.n_steps):
            for start, swapped in ((0, True), (j, False)):
                got = _slot_layout(lat, j, start, start + 1, swapped, 0,
                                   lane)[3]
                want = old_db(lat, j, start, swapped, lane)
                assert got.shape == want.shape
                assert np.array_equal(bits(got), bits(want))


class TestNoRecordOnASolvePath:
    """No solve, map, residual, flip equation or particle study builds a
    `MeasurableRV`: each reads its rows as (fields, values)."""

    @staticmethod
    def records(monkeypatch, run):
        made = []
        init = MeasurableRV.__init__

        def counting(self, field, values):
            made.append(field)
            init(self, field, values)

        monkeypatch.setattr(MeasurableRV, "__init__", counting)
        run()
        return made

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_solver_and_flip_equation(self, monkeypatch, name):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS[name], TERMINAL)
        other = Scenario(sc.lattice, sc.driver, TERMINAL.scaled(0.5),
                         beta=sc.beta)

        def run():
            y, z, _ = picard_solve(sc, tol=1e-12)
            picard_solve([sc, other], tol=1e-12)
            gamma_map([sc, other], [y, y], [z, z])
            representation_pair(sc)
            residual(sc, y, z)
            m_identity_residual(y, m_extend(y, z))
            ls = build_linearized(sc, y, z, 1)
            solve_linearized(ls)
            check_delta_equation(ls)
            check_clark_ocone(y, z, 1)
            stability_compare(sc, other)

        assert self.records(monkeypatch, run) == []

    def test_particles(self, monkeypatch):
        sc = Scenario(build_lattice(2, 1.0), DRIVERS["linear_mean_field"],
                      TERMINAL)

        def run():
            solve_particles(ParticleConfig(3, sc.lattice, sc.driver,
                                           TERMINAL))
            convergence_study(sc, [1, 2])

        assert self.records(monkeypatch, run) == []
