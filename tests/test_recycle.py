"""The Picard loop owns its tables and recycles them.

`picard_solve`'s map writes its new kernel over the kernel it reads, and
its new path into the path table of two iterations back (`gamma_map`,
`map_rows` and `lattice.clark_ocone_sweep` with `out`), never into a
table that holds a pair the loop has handed out or into the caller's
start, which the loop copies once.  The path's difference goes into the
path table the map read; the kernel's is taken column by column in the
sweep.  Every iterate, trace and final figure equals that of the
allocating map.
"""

from functools import partial

import numpy as np
import pytest

from mfbdsvie import solver
from mfbdsvie.drivers import TerminalSpec
from mfbdsvie.lattice import build_lattice, clark_ocone_sweep, terminal_rows
from mfbdsvie.solver import (
    Scenario,
    _stacked,
    gamma_map,
    map_rows,
    means,
    picard_solve,
)

from _oracles import slot_terms, two_difference_traces
from test_members import _report_bits, _same_bits
from test_stack import CASES
from test_sweep import TERMINAL, random_pair


def _maps(monkeypatch):
    """Record each `gamma_map` call, which still runs, as its input paths
    and kernels and the new pair of its first member."""
    calls = []
    original = solver.gamma_map

    def recording(sc, y, z, out=None):
        ys, zs = original(sc, y, z, out=out)
        calls.append(((y, z), (ys[0], zs[0])))
        return ys, zs

    monkeypatch.setattr(solver, "gamma_map", recording)
    return calls


class TestRecycling:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_map_writes_the_storage_of_two_back(self, monkeypatch,
                                                      name):
        sc = Scenario(build_lattice(4, 1.0), CASES[name], TERMINAL)
        maps = _maps(monkeypatch)
        _, _, rep = picard_solve(sc, tol=1e-12)
        assert rep.iterations == len(maps) >= 4
        # the paths alternate between two tables; every kernel is written
        # over the one its map reads, so all share one table
        paths = [y.values for _, (y, _) in maps]
        for k in range(len(paths) - 1):
            assert not np.shares_memory(paths[k], paths[k + 1])
        for k in range(len(paths) - 2):
            assert np.shares_memory(paths[k], paths[k + 2])
        for (_, z), (_, new) in maps:
            assert np.shares_memory(z.values, new.values)
            assert np.shares_memory(new.values, maps[0][1][1].values)

    def test_the_zero_start_is_the_second_maps_storage(self, monkeypatch):
        sc = Scenario(build_lattice(4, 1.0), CASES["z_rev_blind"], TERMINAL)
        maps = _maps(monkeypatch)
        picard_solve(sc, tol=1e-12)
        (y0, z0), _ = maps[0]  # the first map reads the zero start
        assert np.shares_memory(z0.values, maps[1][1][1].values)
        assert np.shares_memory(y0.values, maps[1][1][0].values)

    def test_a_batch_reads_the_last_maps_tables(self, monkeypatch):
        lat = build_lattice(4, 1.0)
        scs = [Scenario(lat, CASES["risk_smooth_abs"], t)
               for t in (TerminalSpec(phi=1e-3), TERMINAL)]
        calls = []
        original = solver.gamma_map

        def recording(sc, y, z, out=None):
            new = original(sc, y, z, out=out)
            calls.append((len(sc), y, z, new))
            return new

        monkeypatch.setattr(solver, "gamma_map", recording)
        picard_solve(scs, tol=1e-12)
        assert [c[0] for c in calls][:3] == [2, 2, 2]
        restacked = 0
        for (size, *_, old), (now, y, z, _) in zip(calls, calls[1:]):
            if now < size:  # a member stopped: its pair was handed out
                restacked += 1
                continue
            for given, made in zip((y, z), old):
                assert isinstance(given, solver.Stacked)
                assert np.array_equal(given.values,
                                      np.stack([x.values for x in made]))
                assert np.shares_memory(given.values, made[0].values)
        assert restacked == 1

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_callers_start_is_never_written(self, name):
        lat = build_lattice(4, 1.0)
        sc = Scenario(lat, CASES[name], TERMINAL)
        # a solve's pair: views of tables that a loop owned
        y0, z0, _ = picard_solve(Scenario(lat, CASES[name],
                                          TERMINAL.scaled(2.0)), tol=1e-6)
        starts = [(y0, z0), random_pair(lat, np.random.default_rng(4))]
        kept = [[x.values.copy() for x in pair] for pair in starts]
        for start in starts:
            _, _, rep = picard_solve(sc, tol=1e-12, start=start)
            assert rep.iterations >= 4
        picard_solve([sc, sc], tol=1e-12, start=starts)
        for pair, values in zip(starts, kept):
            for x, v in zip(pair, values):
                assert np.array_equal(x.values, v)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_an_early_member_keeps_its_solo_pair(self, name):
        lat = build_lattice(4, 1.0)
        # member 0 stops first, at least two maps before the last member:
        # a recycled table of its iteration would hold new rows at its row
        terminals = [TerminalSpec(phi=1e-3), TERMINAL.scaled(0.01), TERMINAL]
        scs = [Scenario(lat, CASES[name], t) for t in terminals]
        ys, zs, reps = picard_solve(scs, tol=1e-12)
        counts = [rep.iterations for rep in reps]
        assert counts[0] == min(counts) <= max(counts) - 2
        for sc, y, z, rep in zip(scs, ys, zs, reps, strict=True):
            y0, z0, rep0 = picard_solve(sc, tol=1e-12)
            assert _same_bits(y, y0) and _same_bits(z, z0)
            assert _report_bits(rep) == _report_bits(rep0)


class TestSameFigures:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [3, 5])
    def test_traces_of_the_allocating_map(self, name, n_steps):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        y, z, rep = picard_solve(sc, tol=1e-11)
        (y_ref, z_ref), sups, diffs = two_difference_traces(sc, 1e-11, 200)
        assert rep.iterations >= 4
        assert rep.sup_trace == sups
        assert rep.diff_trace == diffs
        assert _same_bits(y, y_ref) and _same_bits(z, z_ref)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_map_into_given_storage(self, name):
        lat = build_lattice(4, 1.0)
        scs = [Scenario(lat, CASES[name], t)
               for t in (TERMINAL, TERMINAL.scaled(0.3))]
        rng = np.random.default_rng(5)
        y, z = (list(p) for p in zip(*(random_pair(lat, rng) for _ in scs)))
        want = gamma_map(scs, y, z)
        n = lat.n_steps
        out = (np.full((2, n + 1, 1 << lat.n_bits), np.nan),
               np.full((2, n + 1, n, 1 << lat.n_bits), np.nan))
        got = gamma_map(scs, y, z, out=out)
        for a, b, table in zip(got, want, out):
            for p, (x, x_ref) in enumerate(zip(a, b, strict=True)):
                assert _same_bits(x, x_ref)
                assert np.shares_memory(x.values, table[p])
                assert not x.values.flags.writeable
        assert all(table.flags.writeable for table in out)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_sweep_zeroes_what_it_does_not_write(self, name):
        sc = Scenario(build_lattice(4, 1.0), CASES[name], TERMINAL)
        pair = random_pair(sc.lattice, np.random.default_rng(6))
        y, z = (_stacked([p]) for p in pair)
        term = partial(slot_terms, sc.driver, y, z, *means(y, z),
                       swapped=sc.swapped)
        # a stack of every row for a blind driver, else row 0 alone
        rows = terminal_rows(sc.lattice, sc.zeta[None, :1] if sc.swapped
                              else sc.zeta[None])
        for first in (0, 2):  # every column written, then columns 0, 1 not
            want = clark_ocone_sweep(rows, 0, 0, first, term, sc.swapped)
            out = tuple(np.full(t.shape, np.nan) for t in want)
            got = clark_ocone_sweep(rows, 0, 0, first, term, sc.swapped,
                                    out=out)
            for a, b, table in zip(got, want, out):
                assert a is table
                assert np.array_equal(a, b)
        n = sc.lattice.n_steps
        out = (np.full((1, n + 1, 1 << n), np.nan),
               np.full((1, n + 1, n, 1 << n), np.nan))
        zeta = terminal_rows(sc.lattice, sc.zeta[None])
        got = map_rows(zeta, term, sc.swapped, first=2, out=out)
        want = map_rows(zeta, term, sc.swapped, first=2)
        for a, b in zip(got, want):
            assert _same_bits(a[0], b[0])
