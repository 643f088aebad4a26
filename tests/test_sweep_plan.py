"""The planned sweep against the sweep that works out its fields on every call.

`lattice.clark_ocone_sweep` replays a plan built once per lattice and
shape of sweep (`_sweep_plan`): the fields, lifts, averages and column
reads of the backward induction.  Every map and solve made on it must
equal, bit for bit, the same map made on `unplanned_sweep` of
tests/_oracles.py (the sweep as it was before), for a driver blind to
the swapped arguments, one that reads them and a risk driver; for
batches of 1, 2 and 4 members and lanes per member; for every column
start; and for rows that join the stack late.  A warm map builds no
`SigmaField`, and a lane outside the lattice is refused.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from mfbdsvie import fields, solver
from mfbdsvie.drivers import TerminalSpec
from mfbdsvie.errors import IndexOutOfRange, MeasurabilityViolation
from mfbdsvie.fields import m_extend
from mfbdsvie.lattice import (
    LatticeSpec,
    SigmaField,
    build_lattice,
    clark_ocone_sweep,
    terminal_rows,
    time_field,
)
from mfbdsvie.malliavin import _linearized_map, build_linearized
from mfbdsvie.particles import particle_map
from mfbdsvie.solver import (
    Scenario,
    _slot_layout,
    _stacked,
    gamma_map,
    means,
    picard_solve,
    representation_pair,
)

from _oracles import rows_of, slot_terms, terminal_rv, unplanned_sweep
from test_particle_sweep import joint_system
from test_stack import CASES
from test_sweep import TERMINAL, random_pair, random_rv

TERMINALS = [TERMINAL, TerminalSpec(phi=1e-3),
             TerminalSpec(phi=5.0, theta=-2.0, smooth=[("tanh", 3.0)]),
             TERMINAL.scaled(0.01)]


def oracle(*args, swapped=False, out=None, **kwargs):
    """`unplanned_sweep`, which reads each term's field off the term, its
    tables copied into out's (ys, zs) when given, as the sweep writes them:
    a swapped map reads each row's tables there."""
    ys, zs = unplanned_sweep(*args, **kwargs)
    if out is None:
        return ys, zs
    out[0][...], out[1][...] = ys, zs
    return out[:2]


@contextmanager
def unplanned():
    """The package's maps on the oracle sweep."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "clark_ocone_sweep", oracle)
        m.setattr(fields, "clark_ocone_sweep", oracle)
        yield


def assert_same(got, want):
    assert np.array_equal(np.asarray(got), np.asarray(want))


def assert_pairs_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert_same(a.values, b.values)


def scenarios(name, n_steps, size):
    lat = build_lattice(n_steps, 1.0)
    return [Scenario(lat, CASES[name], t) for t in TERMINALS[:size]]


class TestMaps:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [1, 2, 6])
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_batched_map(self, name, n_steps, size):
        scs = scenarios(name, n_steps, size)
        rng = np.random.default_rng(n_steps + size)
        pairs = [random_pair(scs[0].lattice, rng) for _ in scs]
        y, z = (list(p) for p in zip(*pairs))
        got = gamma_map(scs, y, z)
        with unplanned():
            want = gamma_map(scs, y, z)
        for k in (0, 1):
            assert_pairs_same(got[k], want[k])

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [1, 2, 6])
    def test_solve_and_representation(self, name, n_steps):
        (sc,) = scenarios(name, n_steps, 1)
        got = picard_solve(sc, tol=1e-12)
        rep = representation_pair(sc)
        with unplanned():
            want = picard_solve(sc, tol=1e-12)
            rep_want = representation_pair(sc)
        assert_pairs_same(got[:2], want[:2])
        assert got[2].iterations == want[2].iterations
        assert got[2].final_residual == want[2].final_residual
        assert_pairs_same(rep, rep_want)

    @pytest.mark.parametrize("n_steps", [1, 2, 6])
    def test_m_extend(self, n_steps):
        # no terms: row i joins the stack at step i - 1
        lat = build_lattice(n_steps, 1.0)
        y, z = random_pair(lat, np.random.default_rng(n_steps))
        got = m_extend(y, z)
        with unplanned():
            want = m_extend(y, z)
        assert_same(got.values, want.values)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [2, 6])
    def test_flip_map_for_every_r(self, name, n_steps):
        # first = r + 1, no terms below slot r
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        rng = np.random.default_rng(n_steps)
        y, z = random_pair(sc.lattice, rng)
        pair = random_pair(sc.lattice, rng)
        for r in range(n_steps):
            ls = build_linearized(sc, y, z, r)
            got = _linearized_map(ls, pair)
            with unplanned():
                want = _linearized_map(ls, pair)
            assert_pairs_same(got, want)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_particle_map(self, name, n):
        joint, zetas = joint_system(n, CASES[name], n_steps=2)
        pairs = [random_pair(joint, np.random.default_rng(p)) for p in range(n)]
        got = particle_map(CASES[name], zetas, pairs)
        with unplanned():
            want = particle_map(CASES[name], zetas, pairs)
        for a, b in zip(got, want, strict=True):
            assert_pairs_same(a, b)


class TestSweeps:
    """Direct sweeps: every row start, column start and lane choice."""

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [1, 2, 6])
    def test_every_first_and_row(self, name, n_steps):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        pair = random_pair(sc.lattice, np.random.default_rng(1))
        y, z = (_stacked([p]) for p in pair)
        swapped = solver.reads_swapped(sc.driver)
        term = partial(slot_terms, sc.driver, y, z, *means(y, z),
                       swapped=swapped)
        for i in range(n_steps + 1):
            # a stack of the rows i.. for a blind driver, else row i alone
            rows = terminal_rows(sc.lattice, sc.zeta[None, i:i + 1]
                                  if swapped else sc.zeta[None, i:])
            for first in range(n_steps + 1):
                for t in (term, None):
                    got = clark_ocone_sweep(rows, i, 0, first, t,
                                            swapped=swapped)
                    want = unplanned_sweep(rows, i, 0, first, t)
                    assert_same(got[0], want[0])
                    assert_same(got[1], want[1])

    @pytest.mark.parametrize("lanes", [(0, 1, 2), (2, 0, 2), (1,)])
    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    def test_lane_tuples(self, lanes, first):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        rng = np.random.default_rng(7)
        rows = [[random_rv(time_field(lat, k), rng) for k in range(4)]
                for _ in range(3)]
        got = clark_ocone_sweep(rows_of(rows), 0, lanes, first)
        want = unplanned_sweep(rows_of(rows), 0, lanes, first)
        for a, b in zip(got, want):
            assert_same(a, b)


class TestNoFieldAlgebra:
    """A warm map builds no field: the plan and the slot layouts hold them."""

    @staticmethod
    def fields_built(monkeypatch, run):
        run()  # builds the plans, the layouts and the cached fields
        built = []
        init = SigmaField.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        with monkeypatch.context() as m:
            m.setattr(SigmaField, "__post_init__", counting)
            run()
        return len(built)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_solo_and_batched_gamma_map(self, monkeypatch, name):
        scs = scenarios(name, 6, 4)
        y, z = representation_pair(scs[0])
        assert self.fields_built(monkeypatch,
                                 lambda: gamma_map(scs[0], y, z)) == 0
        assert self.fields_built(
            monkeypatch, lambda: gamma_map(scs, [y] * 4, [z] * 4)) == 0

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_flip_map(self, monkeypatch, name):
        sc = Scenario(build_lattice(6, 1.0), CASES[name], TERMINAL)
        y, z = representation_pair(sc)
        ls = build_linearized(sc, y, z, 2)
        assert self.fields_built(monkeypatch,
                                 lambda: _linearized_map(ls, (y, z))) == 0

    def test_particle_map(self, monkeypatch):
        joint, zetas = joint_system(3, CASES["z_rev_blind"])
        pairs = [random_pair(joint, np.random.default_rng(p)) for p in range(3)]
        assert self.fields_built(monkeypatch, lambda: particle_map(
            CASES["z_rev_blind"], zetas, pairs)) == 0

    def test_z_rev_rows(self, monkeypatch):
        # a driver that reads z_rev: each row a stack of its own
        sc = Scenario(build_lattice(6, 1.0), CASES["linear_mean_field"],
                      TERMINAL)
        assert solver.reads_swapped(sc.driver)
        y, z = representation_pair(sc)
        assert self.fields_built(monkeypatch, lambda: gamma_map(sc, y, z)) == 0


class TestLanes:
    """A lane outside 0..lanes - 1 is refused when the plan or the slot
    layout is built; the lanes inside it sweep as before."""

    @staticmethod
    def rows(lat):
        rng = np.random.default_rng(3)
        return [random_rv(time_field(lat, k), rng)
                for k in range(lat.n_steps + 1)]

    @pytest.mark.parametrize("lane", [5, -1, (0, 3), (-1, 0)])
    def test_refused_by_the_sweep(self, lane):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        rows = self.rows(lat)
        with pytest.raises(IndexOutOfRange, match=r"lane -?\d outside 0\.\.2"):
            clark_ocone_sweep(rows_of([rows, rows] if isinstance(lane, tuple)
                                      else [rows]), 0, lane)

    @pytest.mark.parametrize("lane", [5, -1, (1, 3)])
    def test_refused_by_the_slot_layout(self, lane):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        with pytest.raises(IndexOutOfRange, match=r"lane -?\d outside 0\.\.2"):
            _slot_layout(lat, 1, 0, 2, False, 1, lane)

    @pytest.mark.parametrize("lane", [0, 1, 2])
    def test_lanes_inside_unchanged(self, lane):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        rows = self.rows(lat)
        got = clark_ocone_sweep(rows_of([rows]), 0, lane)
        want = unplanned_sweep(rows_of([rows]), 0, lane)
        assert_same(got[0], want[0])
        assert_same(got[1], want[1])
        assert np.max(np.abs(got[1])) > 0.0  # every lane reads its columns

    def test_one_lane_per_member(self):
        lat = LatticeSpec(n_steps=3, horizon=1.0, lanes=3)
        rows = self.rows(lat)
        with pytest.raises(IndexOutOfRange, match="2 lanes for 3 members"):
            clark_ocone_sweep(rows_of([rows] * 3), 0, (0, 1))


class TestTermFields:
    """A term must be on its slot field: one that knows a W bit of a later
    step, or a coarser one, is refused."""

    @pytest.mark.parametrize("field", [lambda m: (m + 2, m),
                                       lambda m: (m, 4)])
    def test_term_off_its_slot_field_is_refused(self, field):
        lat = build_lattice(4, 1.0)
        rng = np.random.default_rng(29)
        zeta = terminal_rv(TERMINAL, lat, 0)

        def term(m, rows):
            if m != 2:
                return None
            f = SigmaField(lat, *field(m))
            return f, random_rv(f, rng).values.reshape((1,) + (2,) * (
                f.w_upto + lat.n_bits - f.b_from))

        with pytest.raises(MeasurabilityViolation, match="slot 2 term on"):
            clark_ocone_sweep(rows_of([[zeta]]), 0, term=term)
