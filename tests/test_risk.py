"""Risk-measure checks: closed forms, the six axioms, negative controls."""

import math

import numpy as np
import pytest

from mfbdsvie import errors
from mfbdsvie.drivers import TerminalSpec, ZPart
from mfbdsvie.lattice import build_lattice
from mfbdsvie.risk import (
    PayoffStream,
    RiskSpec,
    axiom_convexity,
    axiom_monotonicity,
    axiom_past_independence,
    axiom_positive_homogeneity,
    axiom_subadditivity,
    axiom_translation,
    check_premises,
    discount_factors,
    rho,
    solve_positions,
)

from _oracles import audit_z_flags, max_abs

TOL = 1e-10


def make_rs(n=2, T=1.0, rate=0.1, h=None, g=None):
    return RiskSpec(build_lattice(n, T), rate, h=h, g=g)


def const_payoff(c):
    return PayoffStream(TerminalSpec(phi=c))


class TestRho:
    def test_zero_position_zero_risk(self):
        rs = make_rs()
        out = rho(rs, const_payoff(0.0))
        for i in range(3):
            assert max_abs(out[i]) <= 1e-11

    def test_constant_position_discounting_recursion(self):
        # scalar oracle: m_i = m_{i+1} / (1 + r dt), m_N = -c
        n, T, r0, c = 2, 1.0, 0.1, 1.0
        rs = make_rs(n, T, r0)
        out = rho(rs, const_payoff(c))
        dt = T / n
        m = -c
        want = [0.0] * (n + 1)
        want[n] = m
        for i in range(n - 1, -1, -1):
            want[i] = want[i + 1] / (1.0 + r0 * dt)
        for i in range(n + 1):
            assert np.allclose(out[i].values, want[i], atol=1e-11)
        # frozen reference values for the N=2, T=1, r=0.1, c=1 case
        assert np.allclose(out[0].values, -1.0 / 1.05 ** 2, atol=1e-11)
        assert out[0].values[0, 0] == pytest.approx(-0.9070294784580498, abs=1e-12)

    def test_discounting_approaches_continuous_limit(self):
        r0, c, T = 0.1, 1.0, 1.0
        limit = -c * math.exp(-r0 * T)
        gaps = []
        for n in (2, 4, 8):
            rs = make_rs(n, T, r0)
            out = rho(rs, const_payoff(c))
            gaps.append(abs(float(out[0].values[0, 0]) - limit))
        assert gaps[0] > gaps[1] > gaps[2]
        for a, b in zip(gaps, gaps[1:]):
            assert 1.7 <= a / b <= 2.3

    def test_discount_factors_match_product(self):
        rs = make_rs(4, 1.0, rate=lambda s: 0.1 + 0.2 * s)
        dt = 0.25
        want = np.ones(5)
        for i in range(3, -1, -1):
            want[i] = want[i + 1] / (1.0 + (0.1 + 0.2 * (i * dt)) * dt)
        assert np.allclose(discount_factors(rs), want, atol=1e-14)


class TestPastIndependence:
    def test_equal_positions(self):
        rs = make_rs(3)
        p = PayoffStream(TerminalSpec(phi=lambda t: t, theta=0.4))
        rep = axiom_past_independence(rs, p, p, 0)
        assert rep.passed and rep.worst_violation <= 1e-14

    def test_difference_before_cut_is_invisible(self):
        rs = make_rs(3)
        cut = 2
        dt = rs.lattice.dt
        p1 = PayoffStream(TerminalSpec(phi=lambda t: 0.5, theta=0.4))
        p2 = PayoffStream(TerminalSpec(
            phi=lambda t: 0.5 + (1.0 if t < cut * dt - 1e-12 else 0.0),
            theta=0.4,
        ))
        rep = axiom_past_independence(rs, p1, p2, cut)
        assert rep.passed

    def test_difference_at_or_after_cut_is_flagged(self):
        rs = make_rs(3)
        cut = 1
        dt = rs.lattice.dt
        p1 = PayoffStream(TerminalSpec(phi=0.5))
        p2 = PayoffStream(TerminalSpec(
            phi=lambda t: 0.5 + (1.0 if t >= cut * dt - 1e-12 else 0.0)
        ))
        rep = axiom_past_independence(rs, p1, p2, cut)
        assert not rep.passed
        assert rep.worst_violation > 0.1


class TestMonotonicity:
    def test_constant_positions_discounted_order(self):
        rs = make_rs(3)
        rep = axiom_monotonicity(rs, const_payoff(0.5), const_payoff(1.5))
        assert rep.passed

    def test_equal_positions_equality(self):
        rs = make_rs(3)
        p = const_payoff(1.0)
        rep = axiom_monotonicity(rs, p, p)
        assert rep.passed and rep.worst_violation <= 1e-11

    def test_walk_affine_positions_ordered_by_shift(self):
        rs = make_rs(3, h=ZPart("abs", k1=0.2), g=ZPart("linear", k1=0.05))
        p1 = PayoffStream(TerminalSpec(phi=-0.3, theta=0.5))
        p2 = PayoffStream(TerminalSpec(phi=0.2, theta=0.5))
        rep = axiom_monotonicity(rs, p1, p2)
        assert rep.passed

    def test_smooth_position_below_zero(self):
        rs = make_rs(3, h=ZPart("smooth_abs", k1=0.2))
        p1 = PayoffStream(TerminalSpec(smooth=[("soft_abs", -1.0)]))
        p2 = PayoffStream(TerminalSpec(phi=0.0))
        rep = axiom_monotonicity(rs, p1, p2)
        assert rep.passed


class TestTranslation:
    def test_zero_shift(self):
        rs = make_rs(3, h=ZPart("abs", k1=0.2), g=ZPart("linear", k1=0.05))
        p = PayoffStream(TerminalSpec(theta=0.7))
        rep = axiom_translation(rs, p, 0.0)
        assert rep.passed and rep.worst_violation <= 1e-12

    def test_zero_rate_shifts_exactly(self):
        rs = make_rs(3, rate=0.0, h=ZPart("abs", k1=0.2))
        p = PayoffStream(TerminalSpec(theta=0.7))
        rep = axiom_translation(rs, p, 2.0)
        assert rep.passed
        for (_, diff, predicted, _) in rep.rows:
            assert predicted == pytest.approx(-2.0)
            assert diff == pytest.approx(-2.0, abs=1e-11)

    def test_reference_difference_value(self):
        rs = make_rs(2, 1.0, rate=0.1)
        p = const_payoff(1.0)
        rep = axiom_translation(rs, p, 1.0)
        assert rep.passed
        diff0 = rep.rows[0][1]
        assert diff0 == pytest.approx(-0.9070294784580498, abs=1e-11)

    def test_nonlinear_h_still_exact(self):
        rs = make_rs(3, rate=lambda s: 0.1 + 0.1 * s,
                     h=ZPart("smooth_abs", k1=0.3), g=ZPart("linear", k1=0.05))
        p = PayoffStream(TerminalSpec(theta=0.6, smooth=[("tanh", 0.4)]))
        rep = axiom_translation(rs, p, -1.3)
        assert rep.passed


class TestConvexity:
    def test_endpoints_are_equalities(self):
        rs = make_rs(3, h=ZPart("smooth_abs", k1=0.3))
        p1 = PayoffStream(TerminalSpec(theta=0.8))
        p2 = PayoffStream(TerminalSpec(phi=0.5, theta=-0.3))
        for lam in (0.0, 1.0):
            rep = axiom_convexity(rs, p1, p2, lam)
            assert rep.passed and rep.worst_violation <= 1e-11

    def test_linear_h_gives_equality_for_all_lambda(self):
        rs = make_rs(3, h=ZPart("linear", k1=0.3), g=ZPart("linear", k1=0.05))
        p1 = PayoffStream(TerminalSpec(theta=0.8))
        p2 = PayoffStream(TerminalSpec(phi=0.5, theta=-0.3))
        rep = axiom_convexity(rs, p1, p2, 0.4)
        assert rep.passed and rep.worst_violation <= 1e-11

    def test_smooth_h_inequality_with_gap(self):
        rs = make_rs(3, h=ZPart("smooth_abs", k1=0.4))
        p1 = PayoffStream(TerminalSpec(theta=1.0))
        p2 = PayoffStream(TerminalSpec(theta=-1.0))
        rep = axiom_convexity(rs, p1, p2, 0.5)
        assert rep.passed
        # the mixed position kills the kernel, the mixed risks do not:
        # the convexity gap is strictly negative somewhere
        gaps = [g for (_, g) in rep.rows]
        assert min(gaps) < -1e-4

    def test_missing_flag_raises(self):
        rs = make_rs(3, h=ZPart("smooth_abs", k1=-0.3))
        with pytest.raises(errors.FlagMissing):
            axiom_convexity(rs, const_payoff(1.0), const_payoff(2.0), 0.5)

    def test_concave_h_measured_violation(self):
        # negative control: bypass the flag gate and measure the broken
        # inequality directly
        rs = make_rs(3, h=ZPart("smooth_abs", k1=-0.4))
        p1 = PayoffStream(TerminalSpec(theta=1.0))
        p2 = PayoffStream(TerminalSpec(theta=-1.0))
        lam = 0.5
        rmix = rho(rs, PayoffStream(p1.zeta.mixed(p2.zeta, lam)))
        r1, r2 = rho(rs, p1), rho(rs, p2)
        worst = max(
            float(np.max(rmix[i].values
                         - (lam * r1[i].values + (1 - lam) * r2[i].values)))
            for i in range(4)
        )
        assert worst > 1e-4


class TestHomogeneityAndSubadditivity:
    def test_lambda_one_identity(self):
        rs = make_rs(3, h=ZPart("abs", k1=0.3), g=ZPart("linear", k1=0.05))
        p = PayoffStream(TerminalSpec(theta=0.8))
        rep = axiom_positive_homogeneity(rs, p, 1.0)
        assert rep.passed and rep.worst_violation <= 1e-12

    def test_abs_h_homogeneity(self):
        rs = make_rs(3, h=ZPart("abs", k1=0.3))
        p = PayoffStream(TerminalSpec(theta=0.8, phi=-0.2))
        for lam in (0.5, 2.0, 3.7):
            rep = axiom_positive_homogeneity(rs, p, lam)
            assert rep.passed

    def test_smooth_h_breaks_homogeneity(self):
        rs = make_rs(3, h=ZPart("smooth_abs", k1=0.4))
        p = PayoffStream(TerminalSpec(theta=1.0))
        with pytest.raises(errors.FlagMissing):
            axiom_positive_homogeneity(rs, p, 2.0)
        lam = 2.0
        scaled = rho(rs, PayoffStream(p.zeta.scaled(lam)))
        base = rho(rs, p)
        worst = max(
            float(np.max(np.abs(scaled[i].values - lam * base[i].values)))
            for i in range(4)
        )
        assert worst > 1e-4

    def test_linear_h_subadditivity_equality(self):
        rs = make_rs(3, h=ZPart("linear", k1=0.3))
        p1 = PayoffStream(TerminalSpec(theta=0.8))
        p2 = PayoffStream(TerminalSpec(phi=0.4, theta=-0.5))
        rep = axiom_subadditivity(rs, p1, p2)
        assert rep.passed and rep.worst_violation <= 1e-10

    def test_abs_h_subadditivity_inequality(self):
        rs = make_rs(3, h=ZPart("abs", k1=0.3))
        p1 = PayoffStream(TerminalSpec(theta=1.0))
        p2 = PayoffStream(TerminalSpec(theta=-1.0))
        rep = axiom_subadditivity(rs, p1, p2)
        assert rep.passed
        assert min(g for (_, g) in rep.rows) < -1e-4

    def test_smooth_h_measured_superadditivity(self):
        rs = make_rs(3, h=ZPart("smooth_abs", k1=0.4))
        p1 = PayoffStream(TerminalSpec(theta=1.0))
        p2 = PayoffStream(TerminalSpec(theta=1.0))
        with pytest.raises(errors.FlagMissing):
            axiom_subadditivity(rs, p1, p2)
        pooled = rho(rs, PayoffStream(p1.zeta.plus(p2.zeta)))
        r1, r2 = rho(rs, p1), rho(rs, p2)
        worst = max(
            float(np.max(pooled[i].values - (r1[i].values + r2[i].values)))
            for i in range(4)
        )
        assert worst > 1e-5


class TestValidation:
    def test_undeclared_bound_read_at_the_grid_nodes(self):
        # 50 is never read: no node of [0, 1] passes t = 1
        rs = RiskSpec(build_lattice(4, 1.0),
                      rate=lambda t: 0.1 if t <= 1.0 else 50.0)
        assert rs.driver.rate_bound == 0.1
        assert np.all(np.isfinite(rho(rs, const_payoff(1.0)).values))
        rs = RiskSpec(build_lattice(4, 10.0), rate=lambda t: 0.01 + 0.005 * t)
        assert rs.driver.rate_bound == pytest.approx(0.06)

    def test_rate_bound_understated(self):
        with pytest.raises(errors.ValidationError):
            RiskSpec(build_lattice(2, 1.0), rate=lambda s: 10.0,
                     rate_bound=0.1)


class TestPremises:
    """Each axiom refuses its failed premises before any solve."""

    @pytest.mark.parametrize("lam", [-0.5, 1.7, float("nan")])
    def test_convexity_mixes_inside_the_unit_interval(self, monkeypatch, lam):
        monkeypatch.setattr("mfbdsvie.risk.rho", _never)
        rs = make_rs(h=ZPart("smooth_abs", k1=0.3))
        with pytest.raises(errors.ValidationError, match="lambda"):
            axiom_convexity(rs, const_payoff(1.0), const_payoff(2.0), lam)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_convexity_end_points_admitted(self, lam):
        check_premises(make_rs(h=ZPart("smooth_abs", k1=0.3)), "convexity", lam)

    def test_flags_and_scale_refused_before_rho(self, monkeypatch):
        monkeypatch.setattr("mfbdsvie.risk.rho", _never)
        p, smooth = const_payoff(1.0), ZPart("smooth_abs", k1=0.3)
        with pytest.raises(errors.ValidationError, match="positive-scale"):
            axiom_positive_homogeneity(make_rs(), p, 0.0)
        with pytest.raises(errors.FlagMissing):
            axiom_positive_homogeneity(make_rs(h=smooth), p, 2.0)
        with pytest.raises(errors.FlagMissing):
            axiom_subadditivity(make_rs(g=smooth), p, p)

    def test_unflagged_axioms_have_no_premises(self):
        rs = make_rs(h=ZPart("smooth_abs", k1=0.3), g=ZPart("abs", k1=0.3))
        for axiom in ("translation", "past_independence", "monotonicity"):
            check_premises(rs, axiom, -1.0)


def _never(*args, **kwargs):
    raise AssertionError("an axiom solved before checking its premises")


KINDS = ("zero", "linear", "affine", "abs", "smooth_abs")
SLOPES = (-1e8, -3.0, -0.5, 0.0, 0.5, 3.0, 1e5, 1e8)


class TestZMaps:
    """A z-map is settled where it is built: its flags are derived from
    the kind and the signs of k0 and k1, and a slope that is not finite,
    or whose square is not, is refused there."""

    @pytest.mark.parametrize("kind, k0, k1", [
        ("linear", 0.0, math.nan), ("abs", 0.0, -math.inf),
        ("smooth_abs", 0.0, math.inf), ("affine", math.nan, 1.0),
        ("affine", math.inf, 1.0), ("affine", -math.inf, 1.0),
        ("affine", 0.5, math.nan), ("zero", 0.0, math.inf),
    ])
    def test_non_finite_coefficient_refused_at_construction(self, kind, k0,
                                                            k1):
        with pytest.raises(errors.ValidationError):
            ZPart(kind, k0=k0, k1=k1)

    @pytest.mark.parametrize("part", ["h", "g"])
    def test_overflowing_square_refused_at_construction(self, part):
        with pytest.raises(errors.ValidationError, match="overflow a float"):
            make_rs(**{part: ZPart("linear", k1=1e200)})

    def test_steep_map_builds_and_its_weight_is_refused(self):
        rs = make_rs(h=ZPart("linear", k1=1e5))
        with pytest.raises(errors.ValidationError,
                           match=r"weight e\^\(beta t\) overflows a float"):
            solve_positions(rs, [const_payoff(1.0)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_derived_flags_hold_on_samples(self, kind):
        offsets = (-1.0, 0.0, 1.0) if kind == "affine" else (0.0,)
        for k0 in offsets:
            for k1 in SLOPES:
                audit_z_flags(ZPart(kind, k0=k0, k1=k1))
