"""The Picard loop holds one kernel and two paths.

Each map writes its new kernel columns over the kernel it reads, each
column after its last read, and the sweep takes the kernel's distance
column by column (`solver.iterate`, `lattice.clark_ocone_sweep`); the new
path goes into the path table the map before last read.  So no second
kernel lives beside the map's input, and a reported solve's final norms
take the mean squares node row by node row, with no squared copy of the
pair.

Peaks are traced by tracemalloc on a warm call, in pairs of the loop's
member width: (N + 1)^2 2^M doubles a member, path and kernel.  Measured
with numpy 2.4, a bare N = 8 solve peaks at 2.38 pairs (3.24 when the loop
held two pairs, 4.24 when the difference had a pair of its own), the flip
equation at N = 8, r = 2 at 2.38 (3.39), the n = 3 particles of
scenarios/particles_coupled.json at 8.46 (9.36), and a started solve past
its first map at 2.38 (3.24); each bound lies halfway between that peak
and the bound before it, so each fails on the two-pair loop.  A warm
reported N = 10 solve peaks at 1.91 MiB (2.74 with two pairs).  Past the
loop, a reported N = 8 solve with its residual left out peaks at 1.17
pairs, the pair it returns included (1.96 when the final norms square the
whole pair).
"""

import tracemalloc

import pytest

from mfbdsvie import solver
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import build_linearized, solve_linearized
from mfbdsvie.particles import ParticleConfig, solve_particles
from mfbdsvie.solver import Scenario, picard_solve

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
        assert peak <= 3.05 * pair_bytes(sc.lattice)

    def test_the_flip_equation(self):
        sc = scenario()
        y, z, _ = picard_solve(sc, tol=1e-11, report=False)
        ls = build_linearized(sc, y, z, 2)
        assert warm_peak(lambda: solve_linearized(ls)) <= (
            3.1 * pair_bytes(sc.lattice))

    def test_the_particles(self):
        pc = ParticleConfig(3, build_lattice(3, 1.0),
                            LinearDriver(f={"mean_y": 0.5, "y": -0.3},
                                         g={"z": 0.04}),
                            TerminalSpec(phi=0.3, theta=0.6), tol=1e-12,
                            max_iter=300)
        assert warm_peak(lambda: solve_particles(pc)) <= (
            9.15 * pair_bytes(pc.joint_lattice(), 3))

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
        assert peak <= 3.05 * pair_bytes(sc.lattice)

    def test_a_reported_n10_solve(self):
        sc = scenario(10)
        assert warm_peak(lambda: picard_solve(sc, tol=1e-11)) <= 2.0 * 2**20

    def test_the_final_norms_square_no_pair(self, monkeypatch):
        sc = scenario()
        original = solver.iterate

        def loop(*args, **kwargs):
            got = original(*args, **kwargs)
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()  # the loop's peak left out
            return got

        monkeypatch.setattr(solver, "iterate", loop)
        monkeypatch.setattr(solver, "residual", lambda *args: 0.0)
        peak = warm_peak(lambda: picard_solve(sc, tol=1e-11))
        assert peak <= 1.5 * pair_bytes(sc.lattice)


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
