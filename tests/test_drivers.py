"""Driver family checks: evaluation, partials, constants, audits."""

import math

import pytest

from mfbdsvie import errors
from mfbdsvie.drivers import (
    CustomDriver,
    LinearDriver,
    RiskDriver,
    TerminalSpec,
    ZPart,
    alpha_limit,
    beta_default,
    gamma_theory,
    terminal_rv,
)
from mfbdsvie.lattice import build_lattice

from _oracles import (
    depends_on_b_bit,
    eval_f,
    eval_g,
    eval_partials,
    lipschitz_audit,
    partial_bound_audit,
    partials_audit,
)

TOL = 1e-12


class TestEvalF:
    def test_linear_single_coefficient(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"y": -1.0})
        got = eval_f(d, lat, 0, 1, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert got == pytest.approx(-2.0, abs=TOL)

    def test_risk_family_discounting(self):
        lat = build_lattice(2, 1.0)
        d = RiskDriver(rate=0.1)
        got = eval_f(d, lat, 0, 1, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0)
        assert got == pytest.approx(-0.1 / 2.0 * (1.0 + 3.0), abs=TOL)

    def test_custom_passthrough(self):
        lat = build_lattice(2, 1.0)
        d = CustomDriver(
            f=lambda t, s, y, z, zr, my, mz, mzr: y * 0.5 + s,
            g=lambda t, s, *a: 0.0,
            c=0.5,
            alpha=0.0,
        )
        got = eval_f(d, lat, 0, 2, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert got == pytest.approx(2.0 + 1.0, abs=TOL)

    def test_index_guard(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver()
        with pytest.raises(errors.InvalidIndex):
            eval_f(d, lat, 0, 3, 0, 0, 0, 0, 0, 0)


class TestEvalG:
    def test_zero(self):
        lat = build_lattice(2, 1.0)
        assert eval_g(LinearDriver(), lat, 0, 1, 1, 1, 1, 1, 1, 1) == 0.0

    def test_linear_z_coefficient(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(g={"z": 0.05})
        assert eval_g(d, lat, 0, 1, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.1)

    def test_risk_g_ignores_y(self):
        lat = build_lattice(2, 1.0)
        d = RiskDriver(rate=0.1, g=ZPart("linear", k1=0.05))
        a = eval_g(d, lat, 0, 1, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0)
        b = eval_g(d, lat, 0, 1, 7.0, 2.0, 0.0, -3.0, 0.0, 0.0)
        assert a == b == pytest.approx(0.1)


class TestPartials:
    def test_linear_partials_are_coefficients(self):
        lat = build_lattice(2, 1.0)
        d = LinearDriver(f={"y": 0.3, "z_rev": -0.2}, g={"z": 0.05})
        p = eval_partials(d, lat, 0, 1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert p.f_y == pytest.approx(0.3)
        assert p.f_z_rev == pytest.approx(-0.2)
        assert p.g_z == pytest.approx(0.05)
        assert p.f_mean_y == p.g_y == 0.0

    def test_risk_partials(self):
        lat = build_lattice(2, 1.0)
        d = RiskDriver(rate=0.1, h=ZPart("smooth_abs", k1=1.0))
        z = 0.75
        p = eval_partials(d, lat, 0, 1, 0.0, z, 0.0, 0.0, 0.0, 0.0)
        assert p.f_y == pytest.approx(-0.05)
        assert p.f_mean_y == pytest.approx(-0.05)
        assert p.f_z == pytest.approx(z / math.sqrt(1 + z * z))

    def test_custom_without_partials_raises(self):
        lat = build_lattice(2, 1.0)
        d = CustomDriver(f=lambda *a: 0.0, g=lambda *a: 0.0, c=0.0, alpha=0.0)
        with pytest.raises(errors.PartialsUnavailable):
            eval_partials(d, lat, 0, 1, 0, 0, 0, 0, 0, 0)

    def test_partials_match_central_differences(self):
        for d in (
            LinearDriver(f={"y": 0.4, "z": -0.3, "mean_z_rev": 0.2},
                         g={"z": 0.05, "y": 0.01}),
            RiskDriver(rate=lambda s: 0.1 + 0.05 * s,
                       h=ZPart("smooth_abs", k1=0.5),
                       g=ZPart("linear", k1=0.04)),
        ):
            assert partials_audit(d, horizon=1.0, n_points=100) <= 1e-6


class TestConstants:
    def test_beta_default_reference_values(self):
        d = LinearDriver(c=1.0, alpha=0.0)
        beta = beta_default(d, horizon=1.0, safety=1.5)
        assert beta == pytest.approx(60.0)
        assert gamma_theory(d, 1.0, beta) == pytest.approx(40.0 / 60.0)

    def test_beta_default_degenerate(self):
        d = LinearDriver()
        assert beta_default(d, horizon=1.0, safety=1.5) == pytest.approx(1.5)
        assert gamma_theory(d, 1.0, 1.5) == 0.0

    def test_alpha_guard(self):
        d = LinearDriver(g={"z": 1.0})  # alpha = 1 >= 1/(2(T+2))
        with pytest.raises(errors.AlphaTooLarge):
            beta_default(d, horizon=1.0)
        assert alpha_limit(1.0) == pytest.approx(1.0 / 6.0)

    def test_gamma_below_one_for_any_admissible_alpha(self):
        d = LinearDriver(f={"y": 0.5}, g={"z": 0.1})
        beta = beta_default(d, horizon=1.0, safety=1.5)
        assert gamma_theory(d, 1.0, beta) < 1.0


class TestAudits:
    def test_declared_constants_dominate_sampled_ratios(self):
        drivers = [
            LinearDriver(f={"y": -1.0, "z": 0.3, "mean_y": 0.5},
                         g={"z": 0.05, "mean_z": 0.02}),
            RiskDriver(rate=0.1, h=ZPart("abs", k1=0.4),
                       g=ZPart("linear", k1=0.05)),
            RiskDriver(rate=lambda s: 0.2 * (1 - s), h=ZPart("smooth_abs", k1=0.3)),
        ]
        for d in drivers:
            worst_f, worst_g = lipschitz_audit(d, horizon=1.0, n_samples=1000)
            assert worst_f <= 0.0
            assert worst_g <= 0.0

    def test_partial_magnitudes_bounded_by_constants(self):
        d = RiskDriver(rate=0.1, h=ZPart("smooth_abs", k1=0.3),
                       g=ZPart("linear", k1=0.05))
        worst_f, worst_g = partial_bound_audit(d, horizon=1.0)
        assert worst_f <= 0.0
        assert worst_g <= 0.0

    def test_understated_constant_is_caught(self):
        d = LinearDriver(f={"y": 2.0}, c=0.25)
        worst_f, _ = lipschitz_audit(d, horizon=1.0, n_samples=200)
        assert worst_f > 0.0


class TestZPart:
    def test_flags(self):
        assert ZPart("linear", k1=0.3).additive
        assert ZPart("abs", k1=0.5).positively_homogeneous
        assert not ZPart("abs", k1=0.5).additive
        assert ZPart("smooth_abs", k1=0.5).convex
        assert not ZPart("smooth_abs", k1=-0.5).convex
        assert not ZPart("smooth_abs", k1=0.5).subadditive

    def test_abs_has_no_derivative(self):
        with pytest.raises(errors.PartialsUnavailable):
            ZPart("abs", k1=1.0).deriv(0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(errors.ValidationError):
            ZPart("cube", k1=1.0)


class TestTerminal:
    def test_families(self):
        assert TerminalSpec(phi=1.0).family == "deterministic"
        assert TerminalSpec(phi=0.0, theta=1.0).family == "affine"
        assert TerminalSpec(smooth=[("tanh", 0.5)]).family == "smooth"

    def test_values_are_backward_blind(self):
        lat = build_lattice(3, 1.0)
        term = TerminalSpec(phi=lambda t: t, theta=0.5,
                            smooth=[("soft_abs", -1.0)])
        for i in range(4):
            rv = terminal_rv(term, lat, i)
            for j in range(3):
                assert not depends_on_b_bit(rv, j)

    def test_algebra(self):
        t1 = TerminalSpec(phi=1.0, theta=2.0)
        t2 = TerminalSpec(phi=-0.5, smooth=[("tanh", 1.0)])
        w = 0.7
        mix = t1.mixed(t2, 0.25)
        want = 0.25 * t1.value(0.3, w) + 0.75 * t2.value(0.3, w)
        assert mix.value(0.3, w) == pytest.approx(want, abs=TOL)
        assert t1.negated().value(0.1, w) == pytest.approx(-t1.value(0.1, w))
        assert t1.shifted(2.0).value(0.1, w) == pytest.approx(t1.value(0.1, w) + 2.0)

    def test_unknown_smooth_kind_rejected(self):
        with pytest.raises(errors.ValidationError):
            TerminalSpec(smooth=[("relu", 1.0)])
