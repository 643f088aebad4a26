"""Comparison checks: hypotheses audit, pathwise order, monotone chain."""

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.comparison import (
    ComparisonScenario,
    check_hypotheses,
    compare_solve,
    monotone_iteration,
)
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.lattice import build_lattice

from _oracles import sub

TOL = 1e-12


def sandwich(n=4, T=1.0, spread=0.1, a_y=0.2, a_mean=0.1, a_z=0.0,
             g=None, zeta1=None, zeta2=None, zetabar=None):
    fbar = LinearDriver(f={"y": a_y, "mean_y": a_mean, "z": a_z})
    f1 = LinearDriver(f={"y": a_y, "mean_y": a_mean, "z": a_z},
                      f_source=-spread)
    f2 = LinearDriver(f={"y": a_y, "mean_y": a_mean, "z": a_z},
                      f_source=spread)
    return ComparisonScenario(
        lattice=build_lattice(n, T),
        f1=f1, fbar=fbar, f2=f2,
        g=g or LinearDriver(),
        zeta1=zeta1 or TerminalSpec(phi=0.0),
        zeta2=zeta2 or TerminalSpec(phi=0.5),
        zetabar=zetabar,
    )


class TestCheckHypotheses:
    def test_equal_drivers_pass_with_zero_margins(self):
        cs = sandwich(spread=0.0, zeta1=TerminalSpec(phi=1.0),
                      zeta2=TerminalSpec(phi=1.0))
        rep = check_hypotheses(cs)
        assert rep.passed
        assert rep.worst_order_low <= TOL
        assert rep.worst_order_high <= TOL

    def test_strict_sandwich_passes(self):
        rep = check_hypotheses(sandwich(spread=0.1))
        assert rep.passed

    def test_decreasing_y_coefficient_rejected(self):
        cs = sandwich(a_y=-0.2)
        with pytest.raises(errors.HypothesisViolated):
            check_hypotheses(cs)

    def test_broken_order_rejected(self):
        cs = sandwich()
        cs = ComparisonScenario(
            lattice=cs.lattice, f1=cs.f2, fbar=cs.fbar, f2=cs.f1,
            g=cs.g, zeta1=cs.zeta1, zeta2=cs.zeta2,
        )
        with pytest.raises(errors.HypothesisViolated):
            check_hypotheses(cs)

    def test_swapped_kernel_dependence_rejected(self):
        cs = sandwich()
        cs = ComparisonScenario(
            lattice=cs.lattice, f1=cs.f1,
            fbar=LinearDriver(f={"y": 0.2, "z_rev": 0.3}), f2=cs.f2,
            g=cs.g, zeta1=cs.zeta1, zeta2=cs.zeta2,
        )
        with pytest.raises(errors.HypothesisViolated):
            check_hypotheses(cs)

    def test_unordered_terminals_rejected(self):
        cs = sandwich(zeta1=TerminalSpec(phi=1.0), zeta2=TerminalSpec(phi=0.0))
        with pytest.raises(errors.HypothesisViolated):
            check_hypotheses(cs)


class TestCompareSolve:
    def test_identical_data_zero_gap(self):
        cs = sandwich(spread=0.0, zeta1=TerminalSpec(phi=1.0),
                      zeta2=TerminalSpec(phi=1.0))
        v = compare_solve(cs)
        assert v.min_gap == pytest.approx(0.0, abs=1e-11)
        assert v.passed

    def test_constant_shift_propagates_exactly(self):
        # f = g = 0 and terminals differing by 0.5: gap is 0.5 everywhere
        cs = ComparisonScenario(
            lattice=build_lattice(4, 1.0),
            f1=LinearDriver(), fbar=LinearDriver(), f2=LinearDriver(),
            g=LinearDriver(),
            zeta1=TerminalSpec(phi=0.0), zeta2=TerminalSpec(phi=0.5),
        )
        v = compare_solve(cs)
        for gap in v.min_gap_by_node:
            assert gap == pytest.approx(0.5, abs=1e-11)

    def test_ordered_smooth_terminals_with_z_coupling(self):
        cs = ComparisonScenario(
            lattice=build_lattice(4, 1.0),
            f1=LinearDriver(f={"y": 0.2, "mean_y": 0.1}, f_source=-0.05),
            fbar=LinearDriver(f={"y": 0.2, "mean_y": 0.1}),
            f2=LinearDriver(f={"y": 0.2, "mean_y": 0.1}, f_source=0.05),
            g=LinearDriver(g={"z": 0.05}),
            zeta1=TerminalSpec(smooth=[("soft_abs", -0.8)]),
            zeta2=TerminalSpec(phi=0.0),
        )
        v = compare_solve(cs)
        assert v.passed
        assert v.min_gap >= -1e-10

    def test_smooth_h_sandwich(self):
        h = {"z": 0.0}
        mk = lambda src: LinearDriver(f={"y": 0.15, "mean_y": 0.1},
                                      f_source=src)
        cs = ComparisonScenario(
            lattice=build_lattice(4, 1.0),
            f1=mk(-0.1), fbar=mk(0.0), f2=mk(0.1),
            g=LinearDriver(g={"y": 0.03}),
            zeta1=TerminalSpec(theta=0.5, phi=-0.2),
            zeta2=TerminalSpec(theta=0.5, phi=0.2),
        )
        v = compare_solve(cs)
        assert v.passed


class TestMonotoneIteration:
    def test_mean_free_driver_stabilises_after_one_step(self):
        cs = sandwich(a_mean=0.0, spread=0.1)
        chain = monotone_iteration(cs, p_max=3)
        for i in range(cs.lattice.n_steps + 1):
            a = chain[1][i].values
            for later in chain[2:]:
                assert np.allclose(later[i].values, a, atol=1e-11)

    def test_scalar_recursion_oracle(self):
        # deterministic chain: u^p_i (1 - a_y dt) = u^p_{i+1} + a_mean
        # u^{p-1}_i dt with chain_0 from the upper driver source delta
        n, T, a_y, a_mean, delta = 4, 1.0, 0.1, 0.15, 0.1
        dt = T / n
        m2 = np.zeros(n + 1)
        m2[n] = 1.0
        for i in range(n - 1, -1, -1):
            m2[i] = (m2[i + 1] + delta * dt) / (1.0 - (a_y + a_mean) * dt)
        chain_vals = [m2]
        for p in range(1, 4):
            u = np.zeros(n + 1)
            u[n] = 1.0
            prev = chain_vals[-1]
            for i in range(n - 1, -1, -1):
                u[i] = (u[i + 1] + a_mean * prev[i] * dt) / (1.0 - a_y * dt)
            chain_vals.append(u)

        cs = ComparisonScenario(
            lattice=build_lattice(n, T),
            f1=LinearDriver(f={"y": a_y, "mean_y": a_mean}),
            fbar=LinearDriver(f={"y": a_y, "mean_y": a_mean}),
            f2=LinearDriver(f={"y": a_y, "mean_y": a_mean}, f_source=delta),
            g=LinearDriver(),
            zeta1=TerminalSpec(phi=1.0), zeta2=TerminalSpec(phi=1.0),
        )
        chain = monotone_iteration(cs, p_max=3)
        for p in range(4):
            for i in range(n + 1):
                assert np.allclose(chain[p][i].values, chain_vals[p][i],
                                   atol=1e-10), (p, i)

    def test_chain_is_pathwise_nonincreasing(self):
        cs = sandwich(spread=0.1, zeta1=TerminalSpec(theta=0.3, phi=-0.1),
                      zeta2=TerminalSpec(theta=0.3, phi=0.3),
                      g=LinearDriver(g={"z": 0.04}))
        chain = monotone_iteration(cs, p_max=4)
        for p in range(1, len(chain)):
            for i in range(cs.lattice.n_steps + 1):
                rise = np.max(chain[p][i].values - chain[p - 1][i].values)
                assert rise <= TOL

    def test_p_max_one_returns_two_paths(self):
        chain = monotone_iteration(sandwich(), p_max=1)
        assert len(chain) == 2

    def test_chain_cauchy_ratio_below_one(self):
        cs = sandwich(spread=0.15, a_mean=0.12)
        chain = monotone_iteration(cs, p_max=5)
        sups = []
        for p in range(1, len(chain)):
            sups.append(max(
                sub(chain[p][i], chain[p - 1][i]).max_abs()
                for i in range(cs.lattice.n_steps + 1)
            ))
        for k in range(2, len(sups)):
            if sups[k - 1] > 1e-14:
                assert sups[k] / sups[k - 1] < 1.0

    def test_limit_sandwiched_between_solutions(self):
        cs = sandwich(spread=0.1, zeta1=TerminalSpec(phi=-0.3),
                      zeta2=TerminalSpec(phi=0.3))
        v = compare_solve(cs)
        chain = monotone_iteration(cs, p_max=12)
        tail = chain[-1]
        for i in range(cs.lattice.n_steps + 1):
            assert np.min(tail[i].values - v.y1[i].values) >= -1e-9
            assert np.min(v.y2[i].values - tail[i].values) >= -1e-9
