"""One `SlotReader` a pair: every slot's arguments are basic slices.

A reader reshapes the path, the kernel and both means once to each shape
they are read in, so a slot slices arrays reshaped once a pair.  Every
argument it reads must equal, bit for bit and in shape, the per-slot
reading of `_frozen_args` (tests/_oracles.py), which slices and reshapes
every argument at every slot; and every term built on it (the map, the
residual, the flip equation and its identity at every r, the stability
functional, a batch, the particles) must equal the terms built on that
oracle.  A map builds one reader, and its f and g calls stay one a slot;
a `LinearizedScenario` cuts each slot's partials once.  The Picard loop
does not re-read its own pairs for finiteness, and still names the first
entry that is not finite in the iteration that made it; the particles'
loop reads the last map's tables, never a restack of its pairs.
"""

from functools import partial

import numpy as np
import pytest

from mfbdsvie import fields, malliavin, particles, solver
from mfbdsvie.drivers import CustomDriver
from mfbdsvie.errors import LatticeMismatch, ValidationError
from mfbdsvie.fields import zero_kernel, zero_path
from mfbdsvie.lattice import LatticeSpec, build_lattice
from mfbdsvie.malliavin import (
    _linearized_map,
    build_linearized,
    check_delta_equation,
)
from mfbdsvie.particles import ParticleConfig, particle_map, solve_particles
from mfbdsvie.solver import (
    Scenario,
    SlotReader,
    Stacked,
    _stacked,
    gamma_map,
    means,
    picard_solve,
    representation_pair,
    residual,
    stability_compare,
)

from _oracles import _frozen_args, iterate, per_lane_particle_map, sup_distance
from test_particle_sweep import joint_system
from test_slot_args import PERTURBED, SWAPPED
from test_stack import BLIND, CASES, Counting
from test_sweep import DRIVERS, TERMINAL, random_pair


def same(a, b) -> bool:
    """Equal bits, type and shape: a float for a float, an array for an
    array."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return type(a) is type(b) and a == b
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def same_args(got, want) -> bool:
    (f, t, left, right), (f_ref, t_ref, left_ref, right_ref, _) = got, want
    return (f == f_ref and same(t, t_ref)
            and all(same(a, b) for a, b in zip(left + right,
                                               left_ref + right_ref,
                                               strict=True)))


def stacks(n: int, full: bool):
    """(j, rows, swapped) of every slot: the map's one stack, each row
    alone (a swapped driver's stacks), and the rows from i on (the walks'
    and a trimmed flip map's)."""
    for j in range(n):
        for i in range(j + 1):
            yield j, range(i, j + 1), False
            if full or j < 4:
                yield j, range(i, i + 1), True
            if full:
                yield j, range(i, j + 1), True


class TestAgainstThePerSlotReading:
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_every_slot_of_a_pair(self, name, n):
        lat = build_lattice(n, 1.0)
        y, z = random_pair(lat, np.random.default_rng(n))
        for pair in ((y, z), (_stacked([y]), _stacked([z]))):
            ey, ez = means(*pair)
            read = SlotReader(*pair, ey, ez)
            for j, rows, swapped in stacks(n, n < 10):
                assert same_args(read.slot_args(j, rows, swapped),
                                 _frozen_args(*pair, ey, ez, j, rows, swapped))

    def test_a_batch_of_three(self):
        lat = build_lattice(4, 1.0)
        rng = np.random.default_rng(3)
        y, z = (_stacked(parts) for parts in
                zip(*[random_pair(lat, rng) for _ in range(3)]))
        ey, ez = means(y, z)
        read = SlotReader(y, z, ey, ez)
        for j, rows, swapped in stacks(4, True):
            assert same_args(read.slot_args(j, rows, swapped),
                             _frozen_args(y, z, ey, ez, j, rows, swapped))

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_random_means_on_lanes(self, lanes):
        # one member a lane, the means dense, as the particles read them
        lat = LatticeSpec(n_steps=(4, 3, 2)[lanes - 1], horizon=1.0,
                          lanes=lanes)
        rng = np.random.default_rng(lanes)
        y, z = (_stacked(parts) for parts in
                zip(*[random_pair(lat, rng) for _ in range(lanes)]))
        ey, ez = (x.values.sum(axis=0) / lanes for x in (y, z))
        read = SlotReader(y, z, ey, ez)
        lane = tuple(range(lanes))
        for j, rows, swapped in stacks(lat.n_steps, True):
            got = read._args(j, rows, swapped, lane)
            want = _frozen_args(y, z, ey, ez, j, rows, swapped, lane)
            assert same_args(got[:4], want) and same(got[4], want[4])


def oracle_args(reader, j, rows, swapped, lane):
    """`SlotReader._args` as the per-slot reading of `_frozen_args`."""
    y, z, ey, ez = reader.arrays
    lat = reader.lattice
    return _frozen_args(Stacked(lat, y), Stacked(lat, z), ey, ez, j, rows,
                        swapped, lane)


def per_slot(fn):
    """fn() with every slot read as `_frozen_args` reads it."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(SlotReader, "_args", oracle_args)
        return fn()


def bits(x) -> bytes:
    """The bytes of a result: pairs, lists, floats and reports."""
    if isinstance(x, (list, tuple)):
        return b"|".join(bits(v) for v in x)
    if hasattr(x, "values"):
        return x.values.tobytes()
    if hasattr(x, "__dict__"):
        return repr(sorted(vars(x).items())).encode()
    return np.asarray(x).tobytes()


class TestTermsAgainstThePerSlotReading:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [4, 6])
    def test_map_residual_and_flip_terms(self, name, n):
        sc = Scenario(build_lattice(n, 1.0), CASES[name], TERMINAL)
        pair = random_pair(sc.lattice, np.random.default_rng(n))

        def run():
            out = [gamma_map(sc, *pair), residual(sc, *pair)]
            for r in range(n):
                ls = build_linearized(sc, *pair, r)
                out += [ls.coefs[r:], _linearized_map(ls, pair),
                        check_delta_equation(ls)]
            return out

        assert bits(run()) == bits(per_slot(run))

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_stability_terms(self, name):
        lat = build_lattice(4, 1.0)
        d1, d2 = DRIVERS[name], PERTURBED[name]
        beta = max(Scenario(lat, d, TERMINAL).beta for d in (d1, d2))
        sc1 = Scenario(lat, d1, TERMINAL, beta=beta)
        sc2 = Scenario(lat, d2, TERMINAL.shifted(0.05), beta=beta)
        run = partial(stability_compare, sc1, sc2)
        assert bits(run()) == bits(per_slot(run))

    def test_a_batch_of_three(self):
        lat = build_lattice(4, 1.0)
        scs = [Scenario(lat, BLIND, t) for t in
               (TERMINAL, TERMINAL.scaled(0.3), TERMINAL.shifted(0.1))]
        rng = np.random.default_rng(7)
        y, z = (list(p) for p in zip(*(random_pair(lat, rng) for _ in scs)))
        run = partial(gamma_map, scs, y, z)
        assert bits(run()) == bits(per_slot(run))

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_particles(self, name, n):
        joint, zetas = joint_system(n, CASES[name], n_steps=2)
        pairs = [random_pair(joint, np.random.default_rng(p))
                 for p in range(n)]
        run = partial(particle_map, CASES[name], zetas, pairs)
        assert bits(run()) == bits(per_slot(run))

    def test_a_swapped_drivers_row_stacks(self):
        sc = Scenario(build_lattice(4, 1.0), SWAPPED, TERMINAL)
        assert sc.swapped
        pair = random_pair(sc.lattice, np.random.default_rng(2))
        run = partial(picard_solve, sc, tol=1e-12)
        assert bits(run()[:2]) == bits(per_slot(run)[:2])
        run = partial(residual, sc, *pair)
        assert bits(run()) == bits(per_slot(run))


class TestLatticeMismatch:
    @pytest.mark.parametrize("other", [(4, 2.0), (5, 1.0), (3, 1.0)])
    @pytest.mark.parametrize("which", ["path", "kernel", "both"])
    def test_raised_before_any_reshape(self, monkeypatch, other, which):
        sc = Scenario(build_lattice(4, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        oy, oz = representation_pair(Scenario(build_lattice(*other), BLIND,
                                              TERMINAL))
        pair = {"path": (oy, z), "kernel": (y, oz), "both": (oy, oz)}[which]
        reads = []
        read = SlotReader._read

        def counting(reader, *args):
            reads.append(args)
            return read(reader, *args)

        monkeypatch.setattr(SlotReader, "_read", counting)
        with pytest.raises(LatticeMismatch):
            residual(sc, *pair)
        assert reads == []


class TestCounts:
    N = 6

    def test_one_reader_a_map(self, monkeypatch):
        counter = Counting(BLIND)
        sc = Scenario(build_lattice(self.N, 1.0), counter, TERMINAL)
        y, z = representation_pair(sc)
        built = []
        init = SlotReader.__init__

        def counting(reader, *args):
            built.append(1)
            init(reader, *args)

        monkeypatch.setattr(SlotReader, "__init__", counting)
        counter.reset()
        gamma_map(sc, y, z)
        assert len(built) == 1
        assert counter.calls == {"f": self.N, "g": self.N}
        built.clear()
        residual(sc, y, z)
        assert len(built) == 1

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_partials_cut_once_a_slot_across_maps(self, monkeypatch, name):
        sc = Scenario(build_lattice(4, 1.0), CASES[name], TERMINAL)
        y, z = representation_pair(sc)
        ls = build_linearized(sc, y, z, 1)
        cuts = []
        cut = malliavin.LinearizedScenario._cut

        def counting(ls, j, rows):
            cuts.append((j, rows))
            return cut(ls, j, rows)

        monkeypatch.setattr(malliavin.LinearizedScenario, "_cut", counting)
        pair = (zero_path(sc.lattice), zero_kernel(sc.lattice))
        first = _linearized_map(ls, pair)
        made = list(cuts)
        assert made and len(set(made)) == len(made)
        second = _linearized_map(ls, first)
        _linearized_map(ls, second)
        assert cuts == made


def poisoned(at: int):
    """A blind driver whose f, once armed, is NaN from its call number `at`
    on, and its state."""
    state = {"calls": 0, "armed": False}

    def f(t, s, y, z, *args):
        state["calls"] += state["armed"]
        bad = state["armed"] and state["calls"] >= at
        return -0.2 * y + 0.1 * z + (np.nan if bad else 0.0)

    return CustomDriver(f, lambda t, s, y, z, *a: 0.04 * z, 0.3, 0.0), state


class TestNoReRead:
    N = 4

    def test_no_finiteness_read_of_the_loops_pairs(self, monkeypatch):
        sc = Scenario(build_lattice(self.N, 1.0), BLIND, TERMINAL)
        checks = []
        check = fields._check_finite

        def counting(values):
            checks.append(values.shape)
            return check(values)

        monkeypatch.setattr(fields, "_check_finite", counting)
        monkeypatch.setattr(solver, "_check_finite", counting)
        _, _, rep = picard_solve(sc, tol=1e-12)
        assert rep.iterations > 4
        assert checks == []  # the zero start too lives in the loop's tables

    @pytest.mark.parametrize("at", [1, 3, 9, 14])
    def test_same_error_in_the_same_iteration(self, at):
        lat = build_lattice(self.N, 1.0)
        driver, state = poisoned(at)
        sc = Scenario(lat, driver, TERMINAL)
        state["armed"] = True
        with pytest.raises(ValidationError, match="is not finite") as got:
            picard_solve(sc, tol=1e-12)
        made = state["calls"]
        state["calls"] = 0  # every map's pair checked where it is built
        start = (zero_path(lat), zero_kernel(lat))
        with pytest.raises(ValidationError) as want:
            iterate(lambda pair: gamma_map(sc, *pair), start, sup_distance,
                    1e-12, 200)
        assert str(got.value) == str(want.value)
        assert made == state["calls"]


def list_solve(pc: ParticleConfig):
    """The particles' loop over lists of pairs, each map on its restack."""
    joint = pc.joint_lattice()
    _, zetas = joint_system(pc.n_particles, pc.driver, pc.lattice.n_steps)
    start = [(zero_path(joint), zero_kernel(joint))] * pc.n_particles
    return iterate(partial(per_lane_particle_map, pc.driver, zetas), start,
                   lambda new, old: max(sup_distance(a, b)
                                        for a, b in zip(new, old)),
                   pc.tol, pc.max_iter)


class TestParticleTables:
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_restack_and_the_same_solve(self, monkeypatch, name, n):
        pc = ParticleConfig(n, build_lattice(2, 1.0), driver=CASES[name],
                            terminal=TERMINAL)
        stacked = []
        stack = particles._stacked
        monkeypatch.setattr(particles, "_stacked",
                            lambda parts: stacked.append(1) or stack(parts))
        y, rep = solve_particles(pc)
        assert stacked == []
        pairs, iterations, sup = list_solve(pc)
        assert (rep.iterations, rep.sup_diff) == (iterations, sup)
        for p, (yp, _) in enumerate(pairs):
            assert all(a.values.tobytes() == b.values.tobytes()
                       for a, b in zip(y[p], yp.y, strict=True))
