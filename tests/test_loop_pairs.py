"""The Picard loop holds two pairs: the last two maps'.

Each member's difference goes into the tables of the pair it replaces,
whose storage the next map writes over (`solver.iterate`), so no third
table pair lives beside the map's input and output.  A caller's start,
and tables a step returns other than its out, are never written: their
difference goes into a pair made for the iteration.

Peaks are traced by tracemalloc on a warm call, in pairs of the loop's
member width: (N + 1)^2 2^M doubles a member, path and kernel.  Measured
with numpy 2.4, a bare N = 8 solve peaks at 3.24 pairs (4.24 when the
difference had a pair of its own), the flip equation at N = 8, r = 2 at
3.39 (4.39), and the n = 3 particles of scenarios/particles_coupled.json
at 9.36 (10.36); each bound lies halfway.
"""

import tracemalloc

import numpy as np
import pytest

from mfbdsvie import solver
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import build_linearized, solve_linearized
from mfbdsvie.particles import ParticleConfig, solve_particles
from mfbdsvie.solver import Scenario, gamma_map, iterate, picard_solve

from test_members import _report_bits, _same_bits
from test_stack import CASES
from test_sweep import TERMINAL

# the driver and terminal of scenarios/linear_solve.json
LINEAR = LinearDriver(f={"y": -0.2, "mean_y": 0.15, "mean_z": 0.05},
                      g={"z": 0.04, "mean_y": 0.02})
SMOOTH = TerminalSpec(phi=0.3, smooth=[("tanh", 0.5)])


def pair_bytes(lat, width=1):
    """The bytes of width members' paths and kernels on lat."""
    return 8 * width * (lat.n_steps + 1) ** 2 << lat.n_bits


def warm_peak(fn):
    """Traced peak bytes of fn() above the memory traced when it starts,
    on a second call (imports and caches built)."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def scenario(n_steps=8):
    return Scenario(build_lattice(n_steps, 1.0), LINEAR, SMOOTH)


class TestLoopPeak:
    def test_a_bare_solve(self):
        sc = scenario()
        peak = warm_peak(lambda: picard_solve(sc, tol=1e-11, report=False))
        assert peak <= 3.75 * pair_bytes(sc.lattice)

    def test_the_flip_equation(self):
        sc = scenario()
        y, z, _ = picard_solve(sc, tol=1e-11, report=False)
        ls = build_linearized(sc, y, z, 2)
        assert warm_peak(lambda: solve_linearized(ls)) <= (
            3.9 * pair_bytes(sc.lattice))

    def test_the_particles(self):
        pc = ParticleConfig(3, build_lattice(3, 1.0),
                            LinearDriver(f={"mean_y": 0.5, "y": -0.3},
                                         g={"z": 0.04}),
                            TerminalSpec(phi=0.3, theta=0.6), tol=1e-12,
                            max_iter=300)
        assert warm_peak(lambda: solve_particles(pc)) <= (
            9.85 * pair_bytes(pc.joint_lattice(), 3))

    def test_a_started_solve_after_its_first_map(self, monkeypatch):
        sc = scenario()
        start = picard_solve(Scenario(sc.lattice, LINEAR, SMOOTH.scaled(2.0)),
                             tol=1e-6, report=False)[:2]
        original = solver.gamma_map
        maps = []

        def counted(*args, **kwargs):
            new = original(*args, **kwargs)
            if not maps and tracemalloc.is_tracing():
                tracemalloc.reset_peak()  # the first map's peak left out
            maps.append(None)
            return new

        monkeypatch.setattr(solver, "gamma_map", counted)

        def solve():
            maps.clear()
            return picard_solve(sc, tol=1e-11, start=start, report=False)

        peak = warm_peak(solve)
        assert len(maps) >= 4
        assert peak <= 3.75 * pair_bytes(sc.lattice)


class TestStorage:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_pair_handed_out_is_written_after(self, monkeypatch, name):
        lat = build_lattice(4, 1.0)
        # member 0 stops at least two maps before the last member
        terminals = [TerminalSpec(phi=1e-3), TERMINAL.scaled(0.01), TERMINAL]
        scs = [Scenario(lat, CASES[name], t) for t in terminals]
        maps, made = [], []
        original_map, original_pair = solver.gamma_map, solver._unchecked

        def counted(*args, **kwargs):
            maps.append(None)
            return original_map(*args, **kwargs)

        def recorded(cls, lat, values):
            made.append((len(maps), values, values.tobytes()))
            return original_pair(cls, lat, values)

        monkeypatch.setattr(solver, "gamma_map", counted)
        monkeypatch.setattr(solver, "_unchecked", recorded)
        ys, zs, reps = picard_solve(scs, tol=1e-12)
        counts = [rep.iterations for rep in reps]
        assert counts[0] == min(counts) <= max(counts) - 2
        for m, pair in enumerate(zip(ys, zs)):
            for x in pair:
                (when, _, kept), = [r for r in made if r[1] is x.values]
                assert when == counts[m]  # handed out at its last map
                assert x.values.tobytes() == kept
        monkeypatch.undo()
        for sc, y, z, rep in zip(scs, ys, zs, reps, strict=True):
            y0, z0, rep0 = picard_solve(sc, tol=1e-12)
            assert _same_bits(y, y0) and _same_bits(z, z0)
            assert _report_bits(rep) == _report_bits(rep0)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_steps_own_tables_are_never_written(self, name):
        lat = build_lattice(4, 1.0)
        scs = [Scenario(lat, CASES[name], t)
               for t in (TerminalSpec(phi=1e-3), TERMINAL)]
        given = []

        def step(members, y, z, out):
            # writable tables of the step's own, not its out
            new = gamma_map([scs[m] for m in members], y, z)
            tables = tuple(np.stack([x.values for x in xs]) for xs in new)
            given.append((tables, [t.copy() for t in tables]))
            return tables

        pairs, iterations, traces = iterate(step, dict.fromkeys(range(2)),
                                            lat, 1e-12, 200)
        assert len(given) == max(iterations.values()) >= 4
        for tables, kept in given:
            for t, k in zip(tables, kept):
                assert np.array_equal(t.view(np.int64), k.view(np.int64))
        for m, sc in enumerate(scs):
            y0, z0, rep0 = picard_solve(sc, tol=1e-12)
            assert _same_bits(pairs[m][0], y0) and _same_bits(pairs[m][1], z0)
            assert traces[m] == rep0.sup_trace
