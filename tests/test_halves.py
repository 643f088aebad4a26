"""Lifts and g dB_j by halves against one broadcast each.

The bit-view layout puts a field's lowest known B increment (`b_from`) on
the innermost axis.  A lift onto one new such bit (`lattice._onto_op`
picks `lattice._halves` for it once, when the sweep's plan is built) and
g dB_j with dB_j's bit innermost (`solver._times_db`) write the two halves
of that axis, where a broadcast would copy or multiply two entries at a
time.  Only the memory order of the same float operations changes, so
every lift, map and solve must equal, bit for bit, the same one made with
the broadcasts of tests/_oracles.py.  The Picard loop takes its two traces
from one difference an iteration, and a scenario probes its driver once.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbdsvie import lattice, solver
from mfbdsvie.comparison import FrozenMeanDriver, _CombinedDriver
from mfbdsvie.drivers import LinearDriver
from mfbdsvie.lattice import (
    LatticeSpec,
    SigmaField,
    _halves,
    _onto,
    _onto_op,
    bit_view_shape,
    build_lattice,
)
from mfbdsvie.malliavin import (
    _linearized_map,
    build_linearized,
    check_delta_equation,
)
from mfbdsvie.particles import ParticleConfig, particle_map, solve_particles
from mfbdsvie.solver import (
    Scenario,
    gamma_map,
    picard_solve,
    reads_swapped,
    representation_pair,
)

from _oracles import (
    _onto as field_onto,
    broadcast_onto,
    broadcast_times_db,
    two_difference_traces,
)
from test_particle_sweep import joint_system
from test_stack import BLIND, CASES, Counting
from test_sweep import TERMINAL, random_pair
from test_sweep_plan import TERMINALS, assert_pairs_same, assert_same


@contextmanager
def broadcasts():
    """The package's maps with every lift and g dB_j one broadcast."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lattice, "_onto", broadcast_onto)
        m.setattr(solver, "_times_db", broadcast_times_db)
        yield


def one_new_bottom_bit(g: SigmaField, f: SigmaField) -> bool:
    """Whether what g knows of f misses exactly f's innermost bit axis."""
    c = SigmaField(f.lattice, min(g.w_upto, f.w_upto),
                   max(g.b_from, f.b_from))
    shape = bit_view_shape(c, f)
    return shape[-1:] == (1,) and shape[-2:-1] != (1,)


@st.composite
def lifts(draw):
    lanes = draw(st.integers(1, 3))
    lat = LatticeSpec(n_steps=draw(st.integers(1, 6 // lanes)), horizon=1.0,
                      lanes=lanes)
    m = lat.n_bits
    f = SigmaField(lat, draw(st.integers(0, m)), draw(st.integers(0, m)))
    if draw(st.booleans()) and f.b_from < m:  # one new bottom bit
        g = SigmaField(lat, draw(st.integers(0, m)), f.b_from + 1)
    else:
        g = SigmaField(lat, draw(st.integers(0, m)), draw(st.integers(0, m)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return g, f, lead, draw(st.integers(0, 2 ** 32 - 1))


class TestOnto:
    @settings(max_examples=300, deadline=None)
    @given(lifts())
    def test_equal_to_the_broadcast_lift(self, case):
        g, f, lead, seed = case
        v = np.random.default_rng(seed).standard_normal(lead + g.table_shape)
        op = _onto_op(g, f)
        got = _onto(v, op)
        assert got.shape == lead + f.table_shape
        assert_same(got, field_onto(v, g, f))
        assert_same(got, broadcast_onto(v, op))
        if op[2] is not None:
            assert (op[2][0] is _halves) == one_new_bottom_bit(g, f)


def lift_ops(plan):
    """Every op of a sweep plan whose lift is not None."""
    if isinstance(plan, tuple):
        if (len(plan) == 3 and isinstance(plan[0], int)
                and isinstance(plan[2], tuple) and callable(plan[2][0])):
            yield plan
        else:
            for part in plan:
                yield from lift_ops(part)


class TestPlan:
    @staticmethod
    def plans_of(monkeypatch, run):
        run()  # warm: the plans are built and cached
        seen, plan = [], lattice._sweep_plan
        with monkeypatch.context() as m:
            m.setattr(lattice, "_sweep_plan",
                      lambda *args: seen.append(plan(*args)) or seen[-1])
            run()
        return seen

    def test_one_lane_lifts_go_by_halves(self, monkeypatch):
        n = 10
        sc = Scenario(build_lattice(n, 1.0), BLIND, TERMINAL)
        y, z = representation_pair(sc)
        (plan,) = self.plans_of(monkeypatch, lambda: gamma_map(sc, y, z))
        restacks = [step[2][2] for step in plan[2] if step[2]]
        assert len(restacks) == n
        assert all(op[2][0] is _halves for op in restacks)
        for op in lift_ops(plan):  # one blind innermost axis: by halves
            _, known, full, _ = op[2]
            assert (op[2][0] is _halves) == (known[-1] == 1 and full[-1] == 2)

    def test_three_lane_restack_stays_a_broadcast(self, monkeypatch):
        joint, zetas = joint_system(3, BLIND)
        pairs = [random_pair(joint, np.random.default_rng(p)) for p in range(3)]
        (plan,) = self.plans_of(monkeypatch,
                                lambda: particle_map(BLIND, zetas, pairs))
        restacks = [step[2][2] for step in plan[2] if step[2]]
        assert len(restacks) == joint.n_steps
        for op in restacks:
            assert op[2][0] is np.copyto and op[2][2][-1] == 8


class TestAgainstBroadcasts:
    """Every map and solve made by halves equals the one made by broadcasts."""

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [1, 2, 6, 10])
    @pytest.mark.parametrize("size", [1, 2])
    def test_map(self, name, n_steps, size):
        lat = build_lattice(n_steps, 1.0)
        scs = [Scenario(lat, CASES[name], t) for t in TERMINALS[:size]]
        rng = np.random.default_rng(n_steps + size)
        y, z = (list(p) for p in zip(*[random_pair(lat, rng) for _ in scs]))
        got = gamma_map(scs, y, z)
        with broadcasts():
            want = gamma_map(scs, y, z)
        for k in (0, 1):
            assert_pairs_same(got[k], want[k])

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [1, 2, 6, 10])
    def test_solve(self, name, n_steps):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        got = picard_solve(sc, tol=1e-10)
        with broadcasts():
            want = picard_solve(sc, tol=1e-10)
        assert_pairs_same(got[:2], want[:2])
        assert got[2] == want[2]  # traces, residual and norms

    @pytest.mark.parametrize("n_steps", [2, 6])
    def test_batched_solve(self, n_steps):
        lat = build_lattice(n_steps, 1.0)
        scs = [Scenario(lat, CASES["risk_smooth_abs"], t) for t in TERMINALS[:2]]
        got = picard_solve(scs, tol=1e-10)
        with broadcasts():
            want = picard_solve(scs, tol=1e-10)
        for k in (0, 1):
            assert_pairs_same(got[k], want[k])
        assert got[2] == want[2]

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_particle_map(self, name, n):
        joint, zetas = joint_system(n, CASES[name], n_steps=2)
        pairs = [random_pair(joint, np.random.default_rng(p)) for p in range(n)]
        got = particle_map(CASES[name], zetas, pairs)
        with broadcasts():
            want = particle_map(CASES[name], zetas, pairs)
        for a, b in zip(got, want, strict=True):
            assert_pairs_same(a, b)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [2, 6])
    def test_flip_map_for_every_r(self, name, n_steps):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        rng = np.random.default_rng(n_steps)
        y, z = random_pair(sc.lattice, rng)
        pair = random_pair(sc.lattice, rng)
        for r in range(n_steps):
            ls = build_linearized(sc, y, z, r)
            got, delta = _linearized_map(ls, pair), check_delta_equation(ls)
            with broadcasts():
                want = _linearized_map(ls, pair)
                delta_want = check_delta_equation(ls)
            assert_pairs_same(got, want)
            assert delta == delta_want


class TestOneDifference:
    """The sup and weighted-diff traces come from one difference an
    iteration and equal those of a difference each."""

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n_steps", [2, 6])
    def test_traces(self, name, n_steps):
        sc = Scenario(build_lattice(n_steps, 1.0), CASES[name], TERMINAL)
        y, z, rep = picard_solve(sc, tol=1e-11)
        (y_ref, z_ref), sups, diffs = two_difference_traces(sc, 1e-11, 200)
        assert rep.sup_trace == sups
        assert rep.diff_trace == diffs
        assert_pairs_same((y, z), (y_ref, z_ref))
        y_off, z_off, none = picard_solve(sc, tol=1e-11, report=False)
        assert none is None
        assert_pairs_same((y_off, z_off), (y, z))


class TestProbeOnce:
    @pytest.mark.parametrize("driver", [
        *CASES.values(), LinearDriver(f={"mean_z_rev": 0.1}),
        LinearDriver(g={"z_rev": 0.1}), _CombinedDriver(BLIND, BLIND),
        FrozenMeanDriver(_CombinedDriver(BLIND, CASES["linear_mean_field"]),
                         np.linspace(0.1, 0.2, 4), 1.0 / 3)])
    def test_scenario_reads_what_the_probe_reads(self, driver):
        sc = Scenario(build_lattice(3, 1.0), driver, TERMINAL)
        assert sc.swapped == reads_swapped(driver)

    def test_scenario_probes_once(self):
        counter = Counting(BLIND)
        Scenario(build_lattice(4, 1.0), counter, TERMINAL)
        # the N calls of the source bound, with the row times, and the probe
        assert counter.slots == {"f": 4, "g": 4}
        assert counter.calls == {"f": 5, "g": 5}

    def test_particle_solve_probes_once(self):
        counter = Counting(BLIND)
        pc = ParticleConfig(2, build_lattice(2, 1.0), driver=counter,
                            terminal=TERMINAL)
        _, rep = solve_particles(pc)
        assert rep.iterations > 1
        probes = {k: counter.calls[k] - counter.slots[k] for k in ("f", "g")}
        assert probes == {"f": 1, "g": 1}
