"""Acceptance gate: the ten exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.  Tolerances are pinned here, not configurable: residual 1e-9,
extension identity 1e-12, norm equivalence and axiom slack 1e-10,
contraction slack 0.1 over the theoretical factor, stability slope
1.0 +/- 0.05, continuum halving ratio in [1.7, 2.3], nonlinear-study
decay ratio >= 1.3 per mesh doubling.
"""

import json
import math
import time

import numpy as np
import pytest

from mfbdsvie.comparison import ComparisonScenario, compare_solve, monotone_iteration
from mfbdsvie.drivers import LinearDriver, RiskDriver, TerminalSpec, ZPart
from mfbdsvie.fields import (
    BetaWeight,
    l_beta_norm,
    m_beta_norm,
    m_identity_residual,
    pair_diff,
    pair_sup_diff,
)
from mfbdsvie.lattice import build_lattice
from mfbdsvie.malliavin import (
    build_linearized,
    check_clark_ocone,
    check_delta_equation,
    flip_solution,
    solve_linearized,
)
from mfbdsvie.particles import convergence_study, ParticleConfig, solve_particles
from mfbdsvie.risk import (
    PayoffStream,
    RiskSpec,
    axiom_convexity,
    axiom_monotonicity,
    axiom_past_independence,
    axiom_positive_homogeneity,
    axiom_subadditivity,
    axiom_translation,
    discount_factors,
    rho,
)
from mfbdsvie.solver import (
    Scenario,
    _weight_mass,
    picard_solve,
    representation_pair,
    stability_compare,
)

from _oracles import sub

RESIDUAL_TOL = 1e-9
EXTENSION_TOL = 1e-12
EQUIV_TOL = 1e-10
AXIOM_TOL = 1e-10
GAP_TOL = 1e-10
CHAIN_TOL = 1e-12
SOLVE_TOL = 1e-11
NOISE_FLOOR = 1e-14


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def suite_scenarios(n=6, T=1.0):
    """Six scenarios: trivial, linear, kernel-coupled, mean-field, risk,
    swapped-kernel; constants kept modest so the default beta stays in
    the well-conditioned range."""
    lat = build_lattice(n, T)
    return [
        ("trivial", Scenario(
            lat, LinearDriver(),
            TerminalSpec(phi=lambda t: 1.0 + 0.5 * t))),
        ("linear-y", Scenario(
            lat, LinearDriver(f={"y": -0.25}),
            TerminalSpec(phi=0.5, theta=1.0))),
        ("kernel-coupled", Scenario(
            lat, LinearDriver(f={"y": -0.1, "z": 0.15}, g={"z": 0.05}),
            TerminalSpec(phi=0.2, theta=0.8))),
        ("mean-field", Scenario(
            lat,
            LinearDriver(f={"y": -0.2, "mean_y": 0.15, "mean_z": 0.05},
                         g={"z": 0.04, "mean_y": 0.02}),
            TerminalSpec(phi=0.3, smooth=[("tanh", 0.5)]))),
        ("risk", Scenario(
            lat,
            RiskDriver(rate=0.1, h=ZPart("smooth_abs", k1=0.3),
                       g=ZPart("linear", k1=0.05)),
            TerminalSpec(theta=0.4, smooth=[("soft_abs", -0.8)]))),
        ("swapped-kernel", Scenario(
            lat,
            LinearDriver(f={"z_rev": 0.2, "mean_z_rev": 0.1},
                         g={"y": 0.02}),
            TerminalSpec(phi=0.1, theta=0.6))),
    ]


@pytest.fixture(scope="module")
def solved_suite():
    out = []
    for name, sc in suite_scenarios():
        t0 = time.perf_counter()
        y, z, rep = picard_solve(sc, tol=SOLVE_TOL, max_iter=400)
        out.append((name, sc, y, z, rep, time.perf_counter() - t0))
    return out


def test_criterion_1_fixed_point_residual(solved_suite):
    details = []
    ok = True
    for name, sc, y, z, rep, elapsed in solved_suite:
        ext = m_identity_residual(y, z)
        good = (rep.final_residual <= RESIDUAL_TOL
                and ext <= EXTENSION_TOL and elapsed <= 10.0)
        ok = ok and good
        details.append(f"{name}: resid={rep.final_residual:.2e} "
                       f"ext={ext:.2e} {elapsed:.2f}s")
    report(1, ok and len(solved_suite) >= 6, "; ".join(details))


def test_criterion_2_contraction_vs_theory(solved_suite):
    details = []
    ok = True
    checked = 0
    for name, sc, y, z, rep, _ in solved_suite:
        if sc.driver.lipschitz_c <= 0 or sc.driver.lipschitz_alpha <= 0:
            continue
        checked += 1
        ratios = [r for k, r in enumerate(rep.ratio_trace)
                  if rep.diff_trace[k] > NOISE_FLOOR]
        tail_ok = all(r < 1.0 for r in ratios[1:])
        geo = math.exp(np.mean(np.log([r for r in ratios if r > 0])))
        bound = rep.gamma_theory + 0.1
        good = tail_ok and geo <= bound
        ok = ok and good
        details.append(f"{name}: geo={geo:.3f} vs gamma+0.1={bound:.3f}")
    report(2, ok and checked >= 3, "; ".join(details))


def test_criterion_3_norm_equivalence(solved_suite):
    details = []
    ok = True
    for name, sc, y, z, _, _ in solved_suite:
        w = BetaWeight(sc.beta)
        m2 = m_beta_norm(y, z, w) ** 2
        l2 = l_beta_norm(y, z, w) ** 2
        rel = max(m2, 1.0)
        good = (m2 <= l2 + EQUIV_TOL * rel
                and l2 <= 2.0 * m2 + EQUIV_TOL * rel)
        ok = ok and good
        details.append(f"{name}: l2/m2={l2 / m2 if m2 else 1.0:.4f}")
    report(3, ok, "; ".join(details))


def test_criterion_4_uniqueness(solved_suite):
    details = []
    ok = True
    for name, sc, y, z, _, _ in solved_suite:
        y2, z2, _ = picard_solve(sc, tol=SOLVE_TOL, max_iter=400,
                                 start=representation_pair(sc))
        sup = pair_sup_diff(y, z, y2, z2)
        w = BetaWeight(sc.beta)
        scaled = m_beta_norm(*pair_diff(y, z, y2, z2), w) / math.sqrt(
            _weight_mass(sc.lattice, sc.beta))
        good = sup <= 10 * SOLVE_TOL and scaled <= 10 * SOLVE_TOL
        ok = ok and good
        details.append(f"{name}: sup={sup:.2e}")
    report(4, ok, "; ".join(details))


def comparison_suite(n=4, T=1.0):
    def lin(a_y, a_mean, src=0.0, a_z=0.0):
        return LinearDriver(f={"y": a_y, "mean_y": a_mean, "z": a_z},
                            f_source=src)

    return [
        ("source-sandwich", ComparisonScenario(
            lattice=build_lattice(n, T),
            f1=lin(0.2, 0.1, -0.1), fbar=lin(0.2, 0.1), f2=lin(0.2, 0.1, 0.1),
            g=LinearDriver(),
            zeta1=TerminalSpec(phi=0.0), zeta2=TerminalSpec(phi=0.4))),
        ("affine-terminals", ComparisonScenario(
            lattice=build_lattice(n, T),
            f1=lin(0.15, 0.1, -0.05, a_z=0.1), fbar=lin(0.15, 0.1, 0.0, 0.1),
            f2=lin(0.15, 0.1, 0.05, a_z=0.1),
            g=LinearDriver(g={"z": 0.05}),
            zeta1=TerminalSpec(phi=-0.2, theta=0.5),
            zeta2=TerminalSpec(phi=0.2, theta=0.5))),
        ("smooth-below-zero", ComparisonScenario(
            lattice=build_lattice(n, T),
            f1=lin(0.15, 0.1, -0.05), fbar=lin(0.15, 0.1),
            f2=lin(0.15, 0.1, 0.05),
            g=LinearDriver(g={"z": 0.04}),
            zeta1=TerminalSpec(smooth=[("soft_abs", -0.8)]),
            zeta2=TerminalSpec(phi=0.0))),
        ("mean-heavy", ComparisonScenario(
            lattice=build_lattice(n, T),
            f1=lin(0.1, 0.2, -0.08), fbar=lin(0.1, 0.2),
            f2=lin(0.1, 0.2, 0.08),
            g=LinearDriver(g={"y": 0.03}),
            zeta1=TerminalSpec(phi=-0.1, theta=0.3),
            zeta2=TerminalSpec(phi=0.3, theta=0.3))),
    ]


def test_criterion_5_comparison():
    details = []
    ok = True
    for name, cs in comparison_suite():
        verdict = compare_solve(cs, gap_slack=GAP_TOL)
        chain = monotone_iteration(cs, p_max=3)
        worst_rise = max(
            float(np.max(chain[p][i].values - chain[p - 1][i].values))
            for p in range(1, len(chain))
            for i in range(cs.lattice.n_steps + 1)
        )
        good = verdict.passed and worst_rise <= CHAIN_TOL
        ok = ok and good
        details.append(f"{name}: gap={verdict.min_gap:.2e} "
                       f"rise={worst_rise:.2e}")
    report(5, ok and len(comparison_suite()) >= 4, "; ".join(details))


def test_criterion_6_risk_axioms():
    lat = build_lattice(4, 1.0)
    convex_rs = RiskSpec(lat, rate=0.1, h=ZPart("smooth_abs", k1=0.3),
                         g=ZPart("affine", k0=0.02, k1=0.05))
    coherent_rs = RiskSpec(lat, rate=0.1, h=ZPart("abs", k1=0.3),
                           g=ZPart("linear", k1=0.05))
    p_low = PayoffStream(TerminalSpec(phi=-0.2, theta=0.5))
    p_high = PayoffStream(TerminalSpec(phi=0.3, theta=0.5))
    p_other = PayoffStream(TerminalSpec(phi=0.1, theta=-0.4))
    reports = [
        axiom_past_independence(convex_rs, p_low, p_low, 2),
        axiom_monotonicity(convex_rs, p_low, p_high),
        axiom_translation(convex_rs, p_low, 1.3),
        axiom_convexity(convex_rs, p_low, p_other, 0.35),
        axiom_positive_homogeneity(coherent_rs, p_low, 2.4),
        axiom_subadditivity(coherent_rs, p_low, p_other),
    ]
    ok = all(r.passed and r.worst_violation <= AXIOM_TOL for r in reports)

    # discrete translation factor matches the product form exactly
    base = rho(convex_rs, p_low)
    shifted = rho(convex_rs, PayoffStream(p_low.zeta.shifted(1.3)))
    factors = discount_factors(convex_rs)
    factor_gap = max(
        float(np.max(np.abs(sub(shifted[i], base[i]).values
                            + 1.3 * factors[i])))
        for i in range(5)
    )
    ok = ok and factor_gap <= AXIOM_TOL

    # the gap to the continuous discount halves as the mesh doubles
    r0, T = 0.1, 1.0
    limit = math.exp(-r0 * T)
    gaps = []
    for n in (2, 4, 8):
        rs_n = RiskSpec(build_lattice(n, T), rate=r0)
        gaps.append(abs(discount_factors(rs_n)[0] - limit))
    halving = [a / b for a, b in zip(gaps, gaps[1:])]
    ok = ok and all(1.7 <= h <= 2.3 for h in halving)
    detail = ("; ".join(f"{r.axiom}={r.worst_violation:.2e}" for r in reports)
              + f"; factor_gap={factor_gap:.2e}"
              + f"; halving={['%.2f' % h for h in halving]}")
    report(6, ok, detail)


def test_criterion_7_malliavin(solved_suite):
    # Clark-Ocone holds exactly on every suite scenario and flip slot
    worst_co = 0.0
    for name, sc, y, z, _, _ in solved_suite:
        for r in range(sc.lattice.n_steps):
            worst_co = max(worst_co, check_clark_ocone(y, z, r).worst)
    ok = worst_co <= 1e-10

    # flip and linearized solve agree for affine drivers without mean
    # coefficients (the flip of a plain expectation vanishes, so mean
    # coefficients change the verbatim linearized equation by design)
    worst_lin = 0.0
    for name, sc, y, z, _, _ in [s for s in solved_suite
                                 if s[0] in ("linear-y", "kernel-coupled")]:
        for r in range(sc.lattice.n_steps):
            ls = build_linearized(sc, y, z, r)
            u, v = solve_linearized(ls)
            worst_lin = max(worst_lin,
                            pair_sup_diff(u, v, *flip_solution(y, z, r)))
    lat4 = build_lattice(4, 1.0)
    sc_swap = Scenario(
        lat4, LinearDriver(f={"y": -0.2, "z": 0.15, "z_rev": 0.1},
                           g={"z": 0.05, "z_rev": 0.02}),
        TerminalSpec(phi=0.2, theta=0.7))
    y, z, _ = picard_solve(sc_swap, tol=SOLVE_TOL, max_iter=400)
    for r in range(4):
        ls = build_linearized(sc_swap, y, z, r)
        u, v = solve_linearized(ls)
        worst_lin = max(worst_lin, pair_sup_diff(u, v, *flip_solution(y, z, r)))
    ok = ok and worst_lin <= 1e-10

    # smooth nonlinear driver: mismatch decays by >= 1.3 per doubling
    w0 = BetaWeight(0.0)
    mism, deltas = [], []
    for n in (2, 4, 8):
        d = RiskDriver(rate=0.0, h=ZPart("smooth_abs", k1=0.3),
                       g=ZPart("linear", k1=0.05))
        sc = Scenario(build_lattice(n, 1.0), d,
                      TerminalSpec(theta=0.4, smooth=[("soft_abs", 0.6)]))
        yn, zn, _ = picard_solve(sc, tol=1e-13, max_iter=400)
        ls = build_linearized(sc, yn, zn, 0)
        u, v = solve_linearized(ls)
        mism.append(m_beta_norm(*pair_diff(u, v, *flip_solution(yn, zn, 0)),
                                w0))
        deltas.append(check_delta_equation(ls).l2)
    ratios = [a / b for a, b in zip(mism, mism[1:])]
    ok = ok and all(r >= 1.3 for r in ratios)
    ok = ok and deltas[0] > deltas[1] > deltas[2]
    report(7, ok,
           f"clark_ocone={worst_co:.2e}; linear_equiv={worst_lin:.2e}; "
           f"nonlinear ratios={['%.2f' % r for r in ratios]}")


def test_criterion_8_particles():
    t0 = time.perf_counter()
    lat = build_lattice(2, 1.0)
    coupled = Scenario(
        lat, LinearDriver(f={"mean_y": 0.5, "y": -0.3}, g={"z": 0.04}),
        TerminalSpec(phi=0.3, theta=0.6))
    rows = convergence_study(coupled, [1, 2, 3])
    sums = {}
    for npart, _, gap in rows:
        sums[npart] = sums.get(npart, 0.0) + gap * lat.dt
    trend_ok = sums[1] > 0 and sums[3] < sums[1]

    uncoupled = Scenario(
        lat, LinearDriver(f={"y": -0.4, "z": 0.2}, g={"z": 0.05}),
        TerminalSpec(phi=0.2, theta=0.8))
    rows_u = convergence_study(uncoupled, [1, 2, 3])
    uncoupled_ok = max(gap for (_, _, gap) in rows_u) <= 1e-12

    pc = ParticleConfig(n_particles=3, lattice=lat, driver=coupled.driver,
                        terminal=coupled.terminal)
    _, rep = solve_particles(pc)
    elapsed = time.perf_counter() - t0
    ok = (trend_ok and uncoupled_ok and rep.exchangeability <= 1e-10
          and elapsed <= 60.0)
    report(8, ok,
           f"e_1={sums[1]:.3e} e_3={sums[3]:.3e}; uncoupled "
           f"max={max(g for (_, _, g) in rows_u):.1e}; "
           f"exch={rep.exchangeability:.1e}; {elapsed:.1f}s")


def test_criterion_9_stability_slope():
    lat = build_lattice(4, 1.0)
    base_driver = LinearDriver(f={"y": -0.3}, g={"z": 0.05})
    base = Scenario(lat, base_driver, TerminalSpec(phi=1.0, theta=0.4),
                    beta=20.0)
    eps_list = (1e-2, 1e-3, 1e-4)
    norms = []
    for eps in eps_list:
        pert = Scenario(
            lat, LinearDriver(f={"y": -0.3}, f_source=eps, g={"z": 0.05}),
            TerminalSpec(phi=1.0, theta=0.4), beta=20.0)
        norms.append(math.sqrt(stability_compare(base, pert,
                                                 tol=1e-13).lhs))
    slopes = np.diff(np.log(norms)) / np.diff(np.log(eps_list))
    ok = bool(np.all(np.abs(slopes - 1.0) <= 0.05))
    report(9, ok, f"slopes={['%.4f' % s for s in slopes]}")


def test_criterion_10_determinism(tmp_path):
    from mfbdsvie.cli import run

    scenarios = {
        "solve": {
            "lattice": {"n_steps": 4, "horizon": 1.0},
            "driver": {"family": "risk",
                       "params": {"rate": 0.1,
                                  "h": {"kind": "smooth_abs", "k1": 0.3},
                                  "g": {"kind": "linear", "k1": 0.05}}},
            "terminal": {"family": "smooth",
                         "params": {"theta": 0.4,
                                    "smooth": [{"kind": "soft_abs",
                                                "coef": -0.8}]}},
            "solver": {"tol": 1e-11},
        },
        "norms": None,  # reuse the solve scenario
        "compare": {
            "lattice": {"n_steps": 4, "horizon": 1.0},
            "solver": {"tol": 1e-12},
            "comparison": {
                "f1": {"family": "linear",
                       "params": {"f": {"y": 0.2, "mean_y": 0.1},
                                  "f_source": -0.1}},
                "fbar": {"family": "linear",
                         "params": {"f": {"y": 0.2, "mean_y": 0.1}}},
                "f2": {"family": "linear",
                       "params": {"f": {"y": 0.2, "mean_y": 0.1},
                                  "f_source": 0.1}},
                "zeta1": {"family": "deterministic", "params": {"phi": 0.0}},
                "zeta2": {"family": "deterministic", "params": {"phi": 0.4}},
                "p_max": 2,
            },
        },
        "risk": {
            "lattice": {"n_steps": 2, "horizon": 1.0},
            "solver": {"tol": 1e-12},
            "risk": {"rate": 0.1,
                     "payoff": {"family": "deterministic",
                                "params": {"phi": 1.0}},
                     "axioms": ["translation"], "shift": 1.0},
        },
        "malliavin": {
            "lattice": {"n_steps": 3, "horizon": 1.0},
            "driver": {"family": "linear", "params": {"f": {"y": -0.25}}},
            "terminal": {"family": "affine",
                         "params": {"phi": 0.5, "theta": 1.0}},
            "solver": {"tol": 1e-12},
            "malliavin": {},
        },
        "particles": {
            "lattice": {"n_steps": 2, "horizon": 1.0},
            "driver": {"family": "linear",
                       "params": {"f": {"mean_y": 0.5, "y": -0.3}}},
            "terminal": {"family": "affine",
                         "params": {"phi": 0.3, "theta": 0.6}},
            "solver": {"tol": 1e-12},
            "particles": {"n_list": [1, 2, 3]},
        },
    }
    ok = True
    details = []
    for sub, doc in scenarios.items():
        if doc is None:
            doc = scenarios["solve"]
        path = tmp_path / f"{sub}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            code = run(sub, str(path), str(out))
            assert code == 0, f"{sub} exited {code}"
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        same = files_a == files_b and all(
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in files_a
        )
        ok = ok and same
        details.append(f"{sub}:{'=' if same else '!='}")
    report(10, ok, " ".join(details))
