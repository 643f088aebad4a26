"""One kernel per Picard loop: each map writes over the kernel it reads.

`solver.iterate` keeps one kernel table for its running members, and each
map's sweep (`lattice.clark_ocone_sweep`) writes every new kernel column
over the column it replaces.  That is safe because the sweep takes slot
m - 1's terms before step m's halvings write column m, so every read of a
column through a `solver.SlotReader` comes before its write; the sweep
takes each column's move from a copy made before its writes.

Every caller of the loop must then match, byte for byte, the reference
loop of tests/_oracles.py (`iterate` with `sup_distance`) on allocating
maps: the pairs, the iteration counts and the sup, weighted-diff and ratio
traces, the weighted diffs of the reference taken from whole-pair squares.
The read-before-write order itself is recorded on one loop map of each
kind: the column of every kernel read and of every kernel write.
"""

import math

import numpy as np
import pytest

from mfbdsvie import malliavin, particles, solver
from mfbdsvie.drivers import TerminalSpec, terminal_table
from mfbdsvie.fields import (
    BetaWeight,
    _mean_squares,
    _norm_squared,
    zero_kernel,
    zero_path,
)
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import _linearized_map, build_linearized, solve_linearized
from mfbdsvie.particles import particle_map, solve_particles
from mfbdsvie.solver import Scenario, _weight_mass, gamma_map, picard_solve

from _oracles import iterate, sup_distance
from test_flip_stack import CASES as FLIP_CASES
from test_members import _same_bits
from test_stack import CASES
from test_stacks import PARTICLE_DRIVERS, particle_config
from test_sweep import TERMINAL, random_pair

TOL = 1e-12


def same_pair(got, want):
    return all(_same_bits(a, b) for a, b in zip(got, want, strict=True))


def reference(scs, starts):
    """The members' (pairs, iterations, sup traces, weighted diffs) from the
    reference loop: each member mapped alone on new tables, its distance
    `sup_distance`, its weighted diff from the whole pair's squares."""
    lat = scs[0].lattice
    w = BetaWeight(scs[0].beta)
    scale = 1.0 / math.sqrt(_weight_mass(lat, scs[0].beta))
    diffs = {m: [] for m in range(len(scs))}

    def step(running):
        return {m: gamma_map(scs[m], *pair) for m, pair in running.items()}

    def distance(new, old):
        for m in new:
            dy, dz = (np.square(a.values - b.values)
                      for a, b in zip(new[m], old[m]))
            diffs[m].append(scale * math.sqrt(_norm_squared(
                lat, np.mean(dy, axis=-1), np.mean(dz, axis=-1), w)[0]))
        return {m: sup_distance(new[m], old[m]) for m in new}

    zero = (zero_path(lat), zero_kernel(lat))
    pairs, iterations, traces = iterate(
        step, {m: start or zero for m, start in enumerate(starts)}, distance,
        TOL, 200)
    return pairs, iterations, traces, diffs


def assert_reports_match(scs, starts):
    ys, zs, reps = picard_solve(scs, tol=TOL, start=starts)
    pairs, iterations, traces, diffs = reference(scs, starts)
    for m, rep in enumerate(reps):
        assert same_pair((ys[m], zs[m]), pairs[m])
        assert rep.iterations == iterations[m]
        assert rep.sup_trace == traces[m]
        assert rep.diff_trace == diffs[m]
        assert rep.ratio_trace == [d / p if p > 0 else 0.0
                                   for p, d in zip(diffs[m], diffs[m][1:])]
    return iterations


class TestAgainstTheReferenceLoop:
    @pytest.mark.parametrize("n_steps", [4, 6])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_driver(self, name, n_steps):
        # linear_mean_field reads z_rev: each row is a stack of its own
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        assert sc.swapped == (name == "linear_mean_field")
        assert assert_reports_match([sc], [None])[0] >= 4

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_batch_whose_members_stop_apart(self, name):
        lat = build_lattice(4, 1.0)
        terminals = [TerminalSpec(phi=1e-3), TERMINAL.scaled(0.01), TERMINAL]
        scs = [Scenario(lat, CASES[name], t) for t in terminals]
        iterations = assert_reports_match(scs, [None] * 3)
        assert len(set(iterations.values())) == 3

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_callers_start(self, name):
        lat = build_lattice(4, 1.0)
        scs = [Scenario(lat, CASES[name], t)
               for t in (TERMINAL, TERMINAL.scaled(0.5))]
        starts = [random_pair(lat, np.random.default_rng(k)) for k in (1, 2)]
        kept = [[x.values.tobytes() for x in pair] for pair in starts]
        assert_reports_match(scs[:1], starts[:1])
        assert_reports_match(scs, starts)
        assert [[x.values.tobytes() for x in pair] for pair in starts] == kept

    @pytest.mark.parametrize("name", sorted(FLIP_CASES))
    def test_the_flip_equation_for_every_r(self, monkeypatch, name):
        sc = Scenario(build_lattice(5, 1.0), FLIP_CASES[name], TERMINAL)
        y, z, _ = picard_solve(sc, tol=TOL, report=False)
        runs = []
        loop = malliavin.iterate

        def recorded(*args, **kwargs):
            runs.append(loop(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(malliavin, "iterate", recorded)
        start = zero_path(sc.lattice), zero_kernel(sc.lattice)
        for r in range(sc.lattice.n_steps):
            ls = build_linearized(sc, y, z, r)
            got = solve_linearized(ls)
            pairs, iterations, traces = runs[-1]
            want, k, sups = iterate(
                lambda running: {0: _linearized_map(ls, running[0])},
                {0: start}, lambda new, old: {0: sup_distance(new[0], old[0])},
                TOL, 300)
            assert same_pair(got, want[0]) and same_pair(pairs[0], want[0])
            assert iterations == k and traces == sups

    @pytest.mark.parametrize("name", sorted(PARTICLE_DRIVERS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_particles(self, monkeypatch, name, n):
        pc = particle_config(n, PARTICLE_DRIVERS[name],
                             3 if name == "coupled" else 2)
        runs = []
        loop = particles.iterate

        def recorded(*args, **kwargs):
            runs.append(loop(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(particles, "iterate", recorded)
        y, rep = solve_particles(pc)
        pairs, iterations, traces = runs[0]
        joint = pc.joint_lattice()
        zetas = np.stack([terminal_table(pc.terminal, joint, lane=p)
                          for p in range(n)])
        start = [(zero_path(joint), zero_kernel(joint))] * n
        want, k, sups = iterate(
            lambda running: {0: particle_map(pc.driver, zetas, running[0])},
            {0: start},
            lambda new, old: {0: max(sup_distance(a, b)
                                     for a, b in zip(new[0], old[0]))},
            pc.tol, pc.max_iter)
        for p in range(n):
            assert same_pair(pairs[p], want[0][p])
            assert iterations[p] == k[0] and traces[p] == sups[0]
            assert [x.values.tobytes() for x in y[p]] == [
                x.values.tobytes() for x in want[0][p][0].y]
        assert rep.iterations == k[0] >= 4 and rep.sup_diff == sups[0][-1]



def entries(kernel, view):
    """The (member, row, column) entries of a kernel (member, row, column,
    ...) that view shares memory with."""
    return [e for e in np.ndindex(kernel.shape[:3])
            if np.shares_memory(view, kernel[e])]


def log_one_map(monkeypatch, module, name, at=3):
    """Log, on the at-th call of module.name (a map that takes the loop's
    out), the (member, row, column) entries of every kernel read through a
    `SlotReader` and of every write into the loop's kernel."""
    log, calls = [], []
    original_map, original_args = getattr(module, name), solver.SlotReader._args

    class Logged(np.ndarray):
        """A view of the loop's kernel that logs the entries it writes."""

        def __setitem__(self, key, value):
            log.extend(("write", e) for e in entries(
                self.base_kernel, self.view(np.ndarray)[key]))
            super().__setitem__(key, value)

    def map_once(*args, **kwargs):
        calls.append(None)
        if len(calls) != at:
            return original_map(*args, **kwargs)
        if "out" in kwargs:
            ys, zs, stacks = kwargs.pop("out")
        else:
            *args, (ys, zs, stacks) = args
        Logged.base_kernel = zs
        log.append(("start", None))
        try:
            return original_map(*args, out=(ys, zs.view(Logged), stacks),
                                **kwargs)
        finally:
            log.append(("end", None))

    def reading(self, j, rows, swapped, lane):
        got = original_args(self, j, rows, swapped, lane)
        if log and log[-1][0] != "end":
            for side in got[2:4]:
                for arg in side[1:3]:  # z and z_rev
                    if isinstance(arg, np.ndarray):
                        log.extend(("read", e)
                                   for e in entries(self.arrays[1], arg))
        return got

    monkeypatch.setattr(module, name, map_once)
    monkeypatch.setattr(solver.SlotReader, "_args", reading)
    return log


def assert_reads_first(log, read, written):
    """Each entry's last read comes before its write, and the columns read
    and written are `read` and `written`."""
    assert log[0] == ("start", None) and log[-1] == ("end", None)
    reads, writes = {}, {}
    for k, (what, e) in enumerate(log):
        if what == "read":
            reads[e] = k
        elif what == "write":
            assert e not in writes  # one write an entry
            writes[e] = k
    assert {e[2] for e in reads} == set(read)
    assert {e[2] for e in writes} == set(written)
    for e, k in writes.items():
        assert reads.get(e, -1) < k
    return reads, writes


class TestReadsBeforeWrites:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_solver_map(self, monkeypatch, name):
        sc = Scenario(build_lattice(4, 1.0), CASES[name], TERMINAL)
        log = log_one_map(monkeypatch, solver, "gamma_map")
        picard_solve(sc, tol=TOL)
        reads, writes = assert_reads_first(log, range(4), range(4))
        assert len(writes) == 5 * 4  # every entry
        assert set(reads) <= set(writes)

    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("name", sorted(FLIP_CASES))
    def test_a_flip_map(self, monkeypatch, name, r):
        sc = Scenario(build_lattice(4, 1.0), FLIP_CASES[name], TERMINAL)
        ls = build_linearized(sc, *picard_solve(sc, tol=TOL)[:2], r)
        log = log_one_map(monkeypatch, malliavin, "_linearized_map")
        solve_linearized(ls)
        assert_reads_first(log, range(r, 4), range(r + 1, 4))

    @pytest.mark.parametrize("name", sorted(PARTICLE_DRIVERS))
    def test_a_particle_map(self, monkeypatch, name):
        log = log_one_map(monkeypatch, particles, "_particle_map")
        solve_particles(particle_config(3, PARTICLE_DRIVERS[name], 2))
        reads, writes = assert_reads_first(log, range(2), range(2))
        assert len(writes) == 3 * 3 * 2  # every entry of every particle


class TestFinalNorms:
    @pytest.mark.parametrize("n_steps", [3, 6])
    def test_mean_squares_row_by_row(self, n_steps):
        y, z = random_pair(build_lattice(n_steps, 1.0),
                           np.random.default_rng(n_steps))
        for x in (y, z):
            want = np.mean(np.square(x.values), axis=-1)
            assert _mean_squares(x.values).tobytes() == want.tobytes()
