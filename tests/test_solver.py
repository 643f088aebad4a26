"""Fixed-point solver checks: map examples, Picard runs, stability."""

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.fields import (
    BetaWeight,
    l_beta_norm,
    m_beta_norm,
    m_identity_residual,
    pair_diff,
    zero_kernel,
    zero_path,
)
from mfbdsvie.lattice import build_lattice
from mfbdsvie.solver import (
    Scenario,
    gamma_map,
    picard_solve,
    representation_pair,
    residual,
    stability_compare,
)

from _oracles import LinearSystem, PathIndex, at, b_tail, cidx, w_level

TOL = 1e-12


def make(n, T, driver, terminal, beta=None):
    return Scenario(build_lattice(n, T), driver, terminal, beta=beta)


class TestGammaMap:
    def test_constant_terminal_is_fixed_point(self):
        sc = make(3, 1.0, LinearDriver(), TerminalSpec(phi=1.0))
        y, z = gamma_map(sc, zero_path(sc.lattice), zero_kernel(sc.lattice))
        for i in range(4):
            assert np.allclose(y[i].values, 1.0, atol=TOL)
            for j in range(3):
                assert z.at(i, j).max_abs() <= TOL
        y2, z2 = gamma_map(sc, y, z)
        assert np.allclose(y2[0].values, 1.0, atol=TOL)

    def test_walk_terminal_gives_martingale_and_unit_kernel(self):
        sc = make(3, 1.0, LinearDriver(), TerminalSpec(theta=1.0))
        y, z = gamma_map(sc, zero_path(sc.lattice), zero_kernel(sc.lattice))
        for i in range(4):
            want = w_level(sc.lattice, i)
            assert np.allclose(y[i].values, want.values, atol=TOL)
            for j in range(3):
                assert np.allclose(z.at(i, j).values, 1.0, atol=TOL)

    def test_backward_source_lands_in_y(self):
        # f = 0, g = 1: Y(t_i) = B(T) - B(t_i), kernel zero on the
        # upper triangle since backward increments are known at t_i
        sc = make(3, 1.0, LinearDriver(g_source=1.0), TerminalSpec())
        y, z = gamma_map(sc, zero_path(sc.lattice), zero_kernel(sc.lattice))
        for i in range(4):
            want = b_tail(sc.lattice, i)
            assert y[i].max_abs() == pytest.approx(want.max_abs(), abs=TOL)
            assert np.allclose(y[i].values, want.values, atol=TOL)
            for j in range(i, 3):
                assert z.at(i, j).max_abs() <= TOL

    def test_pathwise_split_identity(self):
        # Phi_i = Y_i + sum Z_ij dW_j exactly, mean-field and swapped
        # kernel coefficients included
        d = LinearDriver(
            f={"y": -0.5, "z": 0.3, "z_rev": 0.2, "mean_y": 0.4,
               "mean_z": -0.1, "mean_z_rev": 0.15},
            g={"y": 0.02, "z": 0.05, "z_rev": 0.03, "mean_y": 0.01},
        )
        sc = make(3, 1.0, d, TerminalSpec(phi=0.5, theta=1.0))
        y, z, _ = picard_solve(sc, tol=1e-12)
        assert residual(sc, y, z) <= 1e-11


class TestPicardSolve:
    def test_deterministic_linear_closed_form(self):
        # f = -y, zeta = 1, N = 2, T = 1: Y_i = (1 + dt)^-(N - i)
        sc = make(2, 1.0, LinearDriver(f={"y": -1.0}), TerminalSpec(phi=1.0))
        y, z, rep = picard_solve(sc, tol=1e-12)
        assert np.allclose(y[2].values, 1.0, atol=1e-12)
        assert np.allclose(y[1].values, 2.0 / 3.0, atol=1e-12)
        assert np.allclose(y[0].values, 4.0 / 9.0, atol=1e-12)
        assert rep.final_residual <= 1e-12

    def test_source_free_converges_immediately(self):
        sc = make(3, 1.0, LinearDriver(), TerminalSpec(theta=1.0))
        y, z, rep = picard_solve(sc, tol=1e-12)
        ry, rz = representation_pair(sc)
        for i in range(4):
            assert np.allclose(y[i].values, ry[i].values, atol=TOL)
        assert rep.iterations <= 2
        assert rep.final_residual <= TOL

    def test_matches_bruteforce_linear_system(self):
        # N = 2 with kernel feedback in f and g and a walk terminal,
        # against an independently assembled least-squares solution
        n, T = 2, 1.0
        f = {"z": 0.3}
        g = {"z": 0.05}
        sc = make(n, T, LinearDriver(f=f, g=g), TerminalSpec(theta=1.0))
        y, z, _ = picard_solve(sc, tol=1e-12)

        lat = sc.lattice
        oracle = LinearSystem(
            n, T, dict(f), dict(g),
            zeta=lambda i, w: sum(
                lat.inc * (2.0 * ((w >> j) & 1) - 1.0) for j in range(n)
            ),
        )
        oy, oz, resid = oracle.solve()
        assert resid <= 1e-9
        for i in range(n + 1):
            for w in range(1 << n):
                for b in range(1 << n):
                    got = at(y[i], PathIndex(w, b))
                    want = oy[i][cidx(i, w, b, n)]
                    assert got == pytest.approx(want, abs=1e-9)
        for i in range(n + 1):
            for j in range(n):
                for w in range(1 << n):
                    for b in range(1 << n):
                        got = at(z.at(i, j), PathIndex(w, b))
                        want = oz[i][j][cidx(j, w, b, n)]
                        assert got == pytest.approx(want, abs=1e-9)

    def test_mean_field_coupling_against_oracle(self):
        n, T = 2, 1.0
        f = {"y": -0.4, "mean_y": 0.5, "mean_z": 0.2}
        g = {"z": 0.05, "mean_y": 0.03}
        sc = make(n, T, LinearDriver(f=f, g=g), TerminalSpec(phi=0.3, theta=0.7))
        y, z, rep = picard_solve(sc, tol=1e-12)
        assert rep.final_residual <= 1e-11

        lat = sc.lattice
        oracle = LinearSystem(
            n, T, dict(f), dict(g),
            zeta=lambda i, w: 0.3 + 0.7 * sum(
                lat.inc * (2.0 * ((w >> j) & 1) - 1.0) for j in range(n)
            ),
        )
        oy, oz, resid = oracle.solve()
        assert resid <= 1e-9
        for i in range(n + 1):
            for w in range(1 << n):
                for b in range(1 << n):
                    got = at(y[i], PathIndex(w, b))
                    want = oy[i][cidx(i, w, b, n)]
                    assert got == pytest.approx(want, abs=1e-8)

    def test_swapped_kernel_coupling_against_oracle(self):
        n, T = 2, 1.0
        f = {"z_rev": 0.4, "mean_z_rev": 0.2}
        sc = make(n, T, LinearDriver(f=f), TerminalSpec(theta=1.0))
        y, z, rep = picard_solve(sc, tol=1e-12)
        assert rep.final_residual <= 1e-11
        lat = sc.lattice
        oracle = LinearSystem(
            n, T, dict(f), {},
            zeta=lambda i, w: sum(
                lat.inc * (2.0 * ((w >> j) & 1) - 1.0) for j in range(n)
            ),
        )
        oy, oz, resid = oracle.solve()
        assert resid <= 1e-9
        for i in range(n + 1):
            for w in range(1 << n):
                for b in range(1 << n):
                    got = at(y[i], PathIndex(w, b))
                    assert got == pytest.approx(oy[i][cidx(i, w, b, n)], abs=1e-8)

    def test_contraction_ratios_below_theory(self):
        d = LinearDriver(f={"y": -1.0, "z": 0.3}, g={"z": 0.05})
        sc = make(4, 1.0, d, TerminalSpec(phi=1.0, theta=0.5))
        _, _, rep = picard_solve(sc, tol=1e-12)
        assert all(r < 1.0 for r in rep.ratio_trace[1:])
        geo = float(np.exp(np.mean(np.log([r for r in rep.ratio_trace if r > 0]))))
        assert geo <= rep.gamma_theory + 0.1

    def test_uniqueness_across_starts(self):
        d = LinearDriver(f={"y": -0.8, "mean_y": 0.3}, g={"z": 0.04})
        sc = make(3, 1.0, d, TerminalSpec(phi=0.5, theta=1.0))
        tol = 1e-12
        y1, z1, _ = picard_solve(sc, tol=tol)
        y2, z2, _ = picard_solve(sc, tol=tol, start=representation_pair(sc))
        from mfbdsvie.fields import pair_sup_diff
        from mfbdsvie.solver import _weight_mass
        assert pair_sup_diff(y1, z1, y2, z2) <= 10 * tol
        w = BetaWeight(sc.beta)
        scaled = m_beta_norm(*pair_diff(y1, z1, y2, z2), w) / np.sqrt(
            _weight_mass(sc.lattice, sc.beta))
        assert scaled <= 10 * tol

    def test_extension_identity_exact(self):
        d = LinearDriver(f={"y": -0.5, "z_rev": 0.3}, g={"z": 0.05})
        sc = make(3, 1.0, d, TerminalSpec(theta=1.0))
        y, z, _ = picard_solve(sc, tol=1e-12)
        assert m_identity_residual(y, z) <= TOL

    def test_norm_equivalence_on_solutions(self):
        d = LinearDriver(f={"y": -1.0, "z": 0.3, "z_rev": 0.1}, g={"z": 0.05})
        sc = make(4, 1.0, d, TerminalSpec(phi=1.0, theta=1.0))
        y, z, _ = picard_solve(sc, tol=1e-12)
        w = BetaWeight(sc.beta)
        m2 = m_beta_norm(y, z, w) ** 2
        l2 = l_beta_norm(y, z, w) ** 2
        assert m2 <= l2 + 1e-10
        assert l2 <= 2 * m2 + 1e-10

    def test_no_convergence_reported(self):
        sc = make(2, 1.0, LinearDriver(f={"y": -1.0}), TerminalSpec(phi=1.0))
        with pytest.raises(errors.NoConvergence):
            picard_solve(sc, tol=1e-16, max_iter=2)

    def test_mean_field_self_consistency(self):
        # re-evaluating the residual with explicitly recomputed means
        # changes nothing: residual already freezes at the solution
        d = LinearDriver(f={"mean_y": 0.5, "y": -0.5}, g={"z": 0.05})
        sc = make(3, 1.0, d, TerminalSpec(phi=1.0, theta=0.3))
        y, z, _ = picard_solve(sc, tol=1e-12)
        r1 = residual(sc, y, z)
        r2 = residual(sc, y, z)
        assert r1 == r2
        assert r1 <= 1e-11


class TestScenarioValidation:
    def test_beta_below_threshold_rejected(self):
        d = LinearDriver(f={"y": 1.0})
        with pytest.raises(errors.ValidationError):
            make(2, 1.0, d, TerminalSpec(phi=1.0), beta=1.0)

    def test_alpha_guard_propagates(self):
        d = LinearDriver(g={"z": 1.0})
        with pytest.raises(errors.AlphaTooLarge):
            make(2, 1.0, d, TerminalSpec(phi=1.0))


class TestStability:
    def test_identical_scenarios_have_zero_gap(self):
        d = LinearDriver(f={"y": -0.5}, g={"z": 0.05})
        sc1 = make(2, 1.0, d, TerminalSpec(phi=1.0))
        sc2 = make(2, 1.0, d, TerminalSpec(phi=1.0))
        rep = stability_compare(sc1, sc2)
        assert rep.lhs <= 1e-20

    def test_terminal_shift_ratio_is_scale_free(self):
        d = LinearDriver()
        base = TerminalSpec(phi=1.0)
        sc = make(2, 1.0, d, base, beta=2.0)
        ratios = []
        for eps in (1e-2, 1e-3):
            sc_eps = make(2, 1.0, d, base.shifted(eps), beta=2.0)
            rep = stability_compare(sc, sc_eps)
            assert rep.f_term == 0.0 and rep.g_term == 0.0
            ratios.append(rep.lhs / rep.zeta_term)
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)

    def test_source_perturbation_scales_linearly(self):
        base_d = LinearDriver(f={"y": -0.5}, g={"z": 0.05})
        sc = make(2, 1.0, base_d, TerminalSpec(phi=1.0), beta=40.0)
        norms = []
        eps_list = (1e-2, 1e-3, 1e-4)
        for eps in eps_list:
            d2 = LinearDriver(f={"y": -0.5}, f_source=eps, g={"z": 0.05})
            sc2 = make(2, 1.0, d2, TerminalSpec(phi=1.0), beta=40.0)
            norms.append(np.sqrt(stability_compare(sc, sc2).lhs))
        slopes = np.diff(np.log(norms)) / np.diff(np.log(eps_list))
        assert np.all(np.abs(slopes - 1.0) <= 0.05)


class TestResidualExamples:
    def test_zero_pair_on_unit_terminal_has_unit_residual(self):
        sc = make(2, 1.0, LinearDriver(), TerminalSpec(phi=1.0))
        lat = sc.lattice
        r = residual(sc, zero_path(lat), zero_kernel(lat))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_perturbing_a_node_moves_the_residual_by_at_least_eps(self):
        from mfbdsvie.fields import AdaptedPath
        from mfbdsvie.lattice import MeasurableRV

        sc = make(2, 1.0, LinearDriver(f={"y": -0.3}), TerminalSpec(phi=1.0))
        y, z, _ = picard_solve(sc, tol=1e-12)
        eps = 1e-3
        bumped = y[0].values.copy()
        bumped[0, 0] += eps
        y_pert = AdaptedPath(sc.lattice, [
            MeasurableRV(y[0].field, bumped), y[1], y[2]
        ])
        assert residual(sc, y_pert, z) >= eps * (1.0 - 1e-9)


class TestIterationLimits:
    """Every fixed-point solve shares one check on tol and max_iter."""

    DRIVER = LinearDriver(f={"y": -0.3, "mean_y": 0.2}, g={"z": 0.04})
    TERMINAL = TerminalSpec(phi=0.3, theta=0.6)

    @classmethod
    def picard(cls, tol, max_iter):
        picard_solve(make(2, 1.0, cls.DRIVER, cls.TERMINAL), tol=tol,
                     max_iter=max_iter)

    @classmethod
    def linearized(cls, tol, max_iter):
        from mfbdsvie.malliavin import build_linearized, solve_linearized

        sc = make(2, 1.0, cls.DRIVER, cls.TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12)
        solve_linearized(build_linearized(sc, y, z, 0), tol=tol,
                         max_iter=max_iter)

    @classmethod
    def particles(cls, tol, max_iter):
        from mfbdsvie.particles import ParticleConfig, solve_particles

        solve_particles(ParticleConfig(
            n_particles=2, lattice=build_lattice(2, 1.0), driver=cls.DRIVER,
            terminal=cls.TERMINAL, tol=tol, max_iter=max_iter))

    @pytest.mark.parametrize("solver", ["picard", "linearized", "particles"])
    @pytest.mark.parametrize("tol, max_iter",
                             [(1e-12, 0), (1e-12, -3), (0.0, 50), (-1e-3, 50)])
    def test_bad_limits_rejected(self, solver, tol, max_iter):
        with pytest.raises(errors.ValidationError):
            getattr(self, solver)(tol, max_iter)
