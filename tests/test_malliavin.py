"""Flip-derivative regularity checks: identities and the linearized solve."""

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.drivers import LinearDriver, RiskDriver, TerminalSpec, ZPart
from mfbdsvie.fields import pair_sup_diff
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import (
    build_linearized,
    check_clark_ocone,
    check_delta_equation,
    flip_solution,
    solve_linearized,
)
from mfbdsvie.solver import Scenario, picard_solve

from _oracles import entrywise_flip_solution, f_coef, g_coef, max_abs, mul, w_level
from test_extremes import pairs
from test_stack import CASES

TOL = 1e-10


def solved(n, T, driver, terminal):
    sc = Scenario(build_lattice(n, T), driver, terminal)
    y, z, _ = picard_solve(sc, tol=1e-13, max_iter=400)
    return sc, y, z


class TestFlipSolution:
    def test_deterministic_solution_flips_to_zero(self):
        sc, y, z = solved(3, 1.0, LinearDriver(f={"y": -0.5}),
                          TerminalSpec(phi=1.0))
        dy, dz = flip_solution(y, z, 1)
        for i in range(4):
            assert max_abs(dy[i]) <= 1e-12
            for j in range(3):
                assert max_abs(dz.at(i, j)) <= 1e-12

    def test_walk_terminal_unit_derivative(self):
        sc, y, z = solved(3, 1.0, LinearDriver(), TerminalSpec(theta=1.0))
        for r in range(3):
            dy, dz = flip_solution(y, z, r)
            for i in range(r + 1, 4):
                assert np.allclose(dy[i].values, 1.0, atol=1e-12)
            for i in range(r + 1):
                assert max_abs(dy[i]) <= 1e-12

    def test_linear_growth_closed_form(self):
        # f = 0.5 y, zeta = W(T), N = 2: Y_i = c_i W(t_i) with
        # c_i = (1 - 0.5 dt)^-(N-i) = (16/9, 4/3, 1); D_r Y_i = c_i, r < i
        sc, y, z = solved(2, 1.0, LinearDriver(f={"y": 0.5}),
                          TerminalSpec(theta=1.0))
        c = {2: 1.0, 1: 4.0 / 3.0, 0: 16.0 / 9.0}
        for i in range(3):
            want = mul(w_level(sc.lattice, i), c[i])
            assert np.allclose(y[i].values, want.values, atol=1e-11)
        for r in range(2):
            dy, _ = flip_solution(y, z, r)
            for i in range(r + 1, 3):
                assert np.allclose(dy[i].values, c[i], atol=1e-11)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_flip_of_every_entry_bit_for_bit(self, name, n):
        _, both = pairs(name, n)
        for y, z in both:
            for r in range(n):
                got = flip_solution(y, z, r)
                want = entrywise_flip_solution(y, z, r)
                for a, b in zip(got, want):
                    assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("r", [-1, 4])
    def test_slot_outside_the_lattice_refused(self, r):
        _, y, z = solved(4, 1.0, LinearDriver(), TerminalSpec(theta=1.0))
        with pytest.raises(errors.IndexOutOfRange):
            flip_solution(y, z, r)


class TestClarkOcone:
    def test_deterministic_case_both_sides_zero(self):
        sc, y, z = solved(3, 1.0, LinearDriver(), TerminalSpec(phi=2.0))
        rep = check_clark_ocone(y, z, 1)
        assert rep.worst <= 1e-13

    def test_walk_terminal_both_sides_one(self):
        sc, y, z = solved(3, 1.0, LinearDriver(), TerminalSpec(theta=1.0))
        for r in range(3):
            rep = check_clark_ocone(y, z, r)
            assert rep.worst <= 1e-12

    def test_exact_for_every_driver_family(self):
        cases = [
            (LinearDriver(f={"y": -0.4, "z": 0.2, "z_rev": 0.1,
                             "mean_y": 0.3},
                          g={"z": 0.05, "y": 0.02}),
             TerminalSpec(phi=0.3, theta=0.8)),
            (RiskDriver(rate=0.1, h=ZPart("smooth_abs", k1=0.3),
                        g=ZPart("linear", k1=0.05)),
             TerminalSpec(theta=0.6, smooth=[("tanh", 0.5)])),
            (RiskDriver(rate=lambda s: 0.2 * (1 - s),
                        h=ZPart("abs", k1=0.25)),
             TerminalSpec(smooth=[("soft_abs", -1.0)], phi=0.4)),
        ]
        for driver, term in cases:
            sc, y, z = solved(3, 1.0, driver, term)
            for r in range(3):
                rep = check_clark_ocone(y, z, r)
                assert rep.worst <= TOL, (driver.family, r, rep.worst)


class TestLinearizedSolve:
    def test_zero_sources_zero_solution(self):
        sc, y, z = solved(3, 1.0, LinearDriver(f={"y": -0.5}),
                          TerminalSpec(phi=1.0))
        ls = build_linearized(sc, y, z, 1)
        u, v = solve_linearized(ls)
        assert pair_sup_diff(u, v, *flip_solution(y, z, 1)) <= 1e-12

    def test_matches_flip_for_plain_linear_driver(self):
        sc, y, z = solved(2, 1.0, LinearDriver(f={"y": 0.5}),
                          TerminalSpec(theta=1.0))
        for r in range(2):
            ls = build_linearized(sc, y, z, r)
            u, v = solve_linearized(ls)
            assert pair_sup_diff(u, v, *flip_solution(y, z, r)) <= TOL

    def test_matches_flip_with_kernel_and_swap_coefficients(self):
        d = LinearDriver(f={"y": -0.3, "z": 0.2, "z_rev": 0.15},
                         g={"z": 0.05, "y": 0.02, "z_rev": 0.03})
        sc, y, z = solved(3, 1.0, d, TerminalSpec(theta=0.7, phi=0.2))
        for r in range(3):
            ls = build_linearized(sc, y, z, r)
            u, v = solve_linearized(ls)
            assert pair_sup_diff(u, v, *flip_solution(y, z, r)) <= TOL, r

    def test_mean_field_coefficient_changes_the_verbatim_equation(self):
        # the flip of a plain expectation vanishes, so with a nonzero
        # mean coefficient the verbatim linearized equation is a
        # different equation from the one the flip satisfies
        d = LinearDriver(f={"y": -0.3, "mean_y": 0.4})
        sc, y, z = solved(2, 1.0, d, TerminalSpec(theta=1.0))
        ls = build_linearized(sc, y, z, 0)
        u, v = solve_linearized(ls)
        assert pair_sup_diff(u, v, *flip_solution(y, z, 0)) > 1e-6

    def test_smooth_terminal_source(self):
        d = LinearDriver(f={"y": 0.2})
        sc, y, z = solved(2, 1.0, d, TerminalSpec(smooth=[("tanh", 1.0)]))
        for r in range(2):
            ls = build_linearized(sc, y, z, r)
            u, v = solve_linearized(ls)
            assert pair_sup_diff(u, v, *flip_solution(y, z, r)) <= TOL

    def test_partials_required(self):
        from mfbdsvie.drivers import CustomDriver
        d = CustomDriver(f=lambda t, s, *a: 0.0, g=lambda t, s, *a: 0.0,
                         c=0.0, alpha=0.0)
        sc, y, z = solved(2, 1.0, d, TerminalSpec(theta=1.0))
        with pytest.raises(errors.PartialsUnavailable):
            build_linearized(sc, y, z, 0)

    def test_nonlinear_mismatch_shrinks_with_mesh(self):
        # rate zero keeps the mean coefficient out; the chain-rule defect
        # of the smooth z-map is the only mismatch and decays with dt in
        # the mean-square pair norm (the pathwise max is polluted by
        # slot-local kernel noise that shrinks only in measure)
        from mfbdsvie.fields import BetaWeight, m_beta_norm, pair_diff

        w0 = BetaWeight(0.0)
        mismatches = []
        for n in (2, 4, 8):
            d = RiskDriver(rate=0.0, h=ZPart("smooth_abs", k1=0.3),
                           g=ZPart("linear", k1=0.05))
            sc, y, z = solved(n, 1.0, d,
                              TerminalSpec(theta=0.4,
                                           smooth=[("soft_abs", 0.6)]))
            ls = build_linearized(sc, y, z, 0)
            u, v = solve_linearized(ls)
            du, dv = flip_solution(y, z, 0)
            mismatches.append(m_beta_norm(*pair_diff(u, v, du, dv), w0))
        assert mismatches[0] > mismatches[1] > mismatches[2]
        for a, b in zip(mismatches, mismatches[1:]):
            assert a / b >= 1.3


class TestDeltaEquation:
    def test_zero_source_zero_residual(self):
        sc, y, z = solved(3, 1.0, LinearDriver(f={"y": -0.5}),
                          TerminalSpec(phi=1.0))
        ls = build_linearized(sc, y, z, 2)
        rep = check_delta_equation(ls)
        assert rep.worst <= 1e-12
        assert rep.l2 <= TOL

    def test_exact_for_linear_bar_free_drivers(self):
        d = LinearDriver(f={"y": -0.3, "z": 0.2, "z_rev": 0.1},
                         g={"z": 0.05, "y": 0.02})
        sc, y, z = solved(3, 1.0, d, TerminalSpec(theta=0.7, phi=0.1))
        for r in range(3):
            ls = build_linearized(sc, y, z, r)
            rep = check_delta_equation(ls)
            assert rep.worst <= TOL, (r, rep.worst)
            assert rep.l2 <= TOL, (r, rep.l2)

    def test_nonlinear_residual_shrinks_with_mesh(self):
        res = []
        for n in (2, 4, 8):
            d = RiskDriver(rate=0.0, h=ZPart("smooth_abs", k1=0.3),
                           g=ZPart("linear", k1=0.05))
            sc, y, z = solved(n, 1.0, d,
                              TerminalSpec(theta=0.4,
                                           smooth=[("soft_abs", 0.6)]))
            ls = build_linearized(sc, y, z, 0)
            res.append(check_delta_equation(ls).l2)
        assert res[0] > res[1] > res[2]
        for a, b in zip(res, res[1:]):
            assert a / b >= 1.3


class TestCoefficientBounds:
    def test_frozen_coefficient_fields_bounded_by_constants(self):
        # every f-side coefficient table stays within the declared c,
        # every g-side table within the declared alpha
        cases = [
            LinearDriver(f={"y": -0.4, "z": 0.2, "z_rev": 0.1,
                            "mean_y": 0.3},
                         g={"z": 0.05, "y": 0.02}),
            RiskDriver(rate=0.1, h=ZPart("smooth_abs", k1=0.3),
                       g=ZPart("linear", k1=0.05)),
        ]
        for d in cases:
            sc, y, z = solved(3, 1.0, d,
                              TerminalSpec(theta=0.6,
                                           smooth=[("tanh", 0.4)]))
            ls = build_linearized(sc, y, z, 1)
            for i in range(4):
                for j in range(max(i, ls.r_idx), 3):
                    for coef in f_coef(ls)[i][j]:
                        assert max_abs(coef) <= d.lipschitz_c + 1e-12
                    for coef in g_coef(ls)[i][j]:
                        assert max_abs(coef) <= d.lipschitz_alpha + 1e-12


class TestBuildLinearized:
    def test_linear_driver_coefficients_are_the_parameters(self):
        d = LinearDriver(f={"y": -0.4, "z": 0.2, "mean_y": 0.3},
                         g={"z": 0.05})
        sc, y, z = solved(3, 1.0, d, TerminalSpec(theta=0.7))
        ls = build_linearized(sc, y, z, 1)
        for i in range(4):
            for j in range(max(i, ls.r_idx), 3):
                fy, fz, fzr, fmy, fmz, fmzr = f_coef(ls)[i][j]
                assert np.allclose(fy.values, -0.4)
                assert np.allclose(fz.values, 0.2)
                assert np.allclose(fmy.values, 0.3)
                assert np.allclose(fzr.values, 0.0)
                gy, gz, *_ = g_coef(ls)[i][j]
                assert np.allclose(gz.values, 0.05)
                assert np.allclose(gy.values, 0.0)

    def test_affine_terminal_source_is_theta(self):
        d = LinearDriver(f={"y": 0.2})
        sc, y, z = solved(2, 1.0, d, TerminalSpec(phi=0.3, theta=0.9))
        ls = build_linearized(sc, y, z, 0)
        for i in range(3):
            assert np.allclose(ls.source[i], 0.9, atol=1e-12)
