"""Seeded inputs and the three benchmark workloads.

Every workload draws its inputs from the seed inside ranges that satisfy
the premises of the checks it runs, so a failed check is a fault of the
program and never an input error:

* driver constants keep alpha below alpha_limit(T), so beta exists;
* comparison drivers keep f1 <= fbar <= f2 (sources -d, 0, +d on one
  affine body with nonnegative y and mean_y slopes) and zeta1 <= zeta2
  (equal slopes, ordered intercepts);
* risk inputs pair p1 <= p2 for monotonicity, equal streams for past
  independence, a convex smooth_abs h with an affine g for convexity,
  and abs/linear maps for homogeneity and subadditivity.

Driver coefficients move by at most DRIVER_SPREAD around their centre and
terminals by TERMINAL_SPREAD.  The centres put every Picard stopping test
well away from the tolerance, so every seed needs the same number of
iterations and does the same work: the seed changes values, not work.

Tolerances are the ones pinned in tests/test_acceptance.py.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

RESIDUAL_TOL = 1e-9      # equation residual
EXTENSION_TOL = 1e-12    # M-extension identity
EQUIV_TOL = 1e-10        # norm equivalence, relative to max(m2, 1)
AXIOM_TOL = 1e-10        # risk axioms
GAP_TOL = 1e-10          # comparison gap
CHAIN_TOL = 1e-12        # monotone chain rise
IDENTITY_TOL = 1e-10     # Clark-Ocone, linearized flip, exchangeability
SOLVE_TOL = 1e-11

DRIVER_SPREAD = 0.02
TERMINAL_SPREAD = 0.05

CheckResult = dict[str, tuple[bool, Any]]


@dataclass
class Step:
    """One timed call into the package and the checks made on its output.

    `run` is timed; `check` runs afterwards, untimed, and returns one
    (passed, value) entry for every name in `checks`.  A step that raises
    fails all of its checks.  `counts` reports counters the traced run
    cannot see from outside the call, such as iterations in a report.
    """

    name: str
    checks: tuple[str, ...]
    run: Callable[[], Any]
    check: Callable[[Any], CheckResult]
    counts: Callable[[Any], dict[str, int]] | None = None


@dataclass
class Workload:
    name: str
    table_bits: int  # log2 of the entries in the workload's largest table
    draw: Callable[[random.Random], dict]
    setup: Callable[[Any, dict, Path], list[Step]]


def _near(rng: random.Random, centre: float, spread: float) -> float:
    return round(centre * rng.uniform(1.0 - spread, 1.0 + spread), 6)


def _lattice(n_steps: int) -> dict:
    return {"n_steps": n_steps, "horizon": 1.0}


def _linear(rng, f: dict, g: dict | None = None) -> dict:
    params = {"f": {k: _near(rng, v, DRIVER_SPREAD) for k, v in f.items()}}
    if g:
        params["g"] = {k: _near(rng, v, DRIVER_SPREAD) for k, v in g.items()}
    return {"family": "linear", "params": params}


def _risk_driver(rng, h_kind: str, g_kind: str) -> dict:
    return {
        "rate": _near(rng, 0.1, DRIVER_SPREAD),
        "h": {"kind": h_kind, "k1": _near(rng, 0.3, DRIVER_SPREAD)},
        "g": {"kind": g_kind, "k1": _near(rng, 0.05, DRIVER_SPREAD)},
    }


def _affine(phi: float, theta: float) -> dict:
    return {"family": "affine", "params": {"phi": phi, "theta": theta}}


def _mean_field_doc(rng, n_steps: int, scale: float) -> dict:
    """The mean-field driver and tanh terminal of scenarios/linear_solve.json."""
    return {
        "lattice": _lattice(n_steps),
        "driver": _linear(rng, {"y": -0.2, "mean_y": 0.15, "mean_z": 0.05},
                          {"z": 0.04, "mean_y": 0.02}),
        "terminal": {"family": "smooth", "params": {
            "phi": _near(rng, 0.3 * scale, TERMINAL_SPREAD),
            "smooth": [{"kind": "tanh",
                        "coef": _near(rng, 0.5 * scale, TERMINAL_SPREAD)}]}},
        "solver": {"tol": SOLVE_TOL},
    }


def _risk_solve_doc(rng, n_steps: int, scale: float) -> dict:
    return {
        "lattice": _lattice(n_steps),
        "driver": {"family": "risk",
                   "params": _risk_driver(rng, "smooth_abs", "linear")},
        "terminal": {"family": "smooth", "params": {
            "theta": _near(rng, 0.4 * scale, TERMINAL_SPREAD),
            "smooth": [{"kind": "soft_abs",
                        "coef": _near(rng, -0.8 * scale, TERMINAL_SPREAD)}]}},
        "solver": {"tol": SOLVE_TOL},
    }


# -- solve_n10 -----------------------------------------------------------------


def draw_solve_n10(rng: random.Random) -> dict:
    # terminal scales that put the last two stopping tests of each solve
    # (11 and 10 iterations) at least a factor of three from the tolerance
    return {"mean_field": _mean_field_doc(rng, 10, 4.0),
            "risk": _risk_solve_doc(rng, 10, 0.8)}


def setup_solve_n10(m, inputs: dict, workdir: Path) -> list[Step]:
    steps = []
    for name, doc in inputs.items():
        sc, tol, max_iter = m.cli.build_base_scenario(doc)

        def check(out):
            y, z, rep = out
            ext = m.fields.m_identity_residual(y, z)
            return {"residual": (rep.final_residual <= RESIDUAL_TOL, rep.final_residual),
                    "extension": (ext <= EXTENSION_TOL, ext)}

        steps.append(Step(
            name, ("residual", "extension"),
            lambda sc=sc, tol=tol, max_iter=max_iter:
                m.solver.picard_solve(sc, tol=tol, max_iter=max_iter),
            check))
    return steps


# -- verify_suite --------------------------------------------------------------

VERIFY_STEPS = 6


def draw_verify_suite(rng: random.Random) -> dict:
    n = VERIFY_STEPS
    base = _mean_field_doc(rng, n, 1.0)
    slope_y, slope_mean = _near(rng, 0.2, DRIVER_SPREAD), _near(rng, 0.1, DRIVER_SPREAD)
    gap = _near(rng, 0.1, TERMINAL_SPREAD)
    body = {"y": slope_y, "mean_y": slope_mean}
    theta = _near(rng, 0.5, TERMINAL_SPREAD)
    intercept = _near(rng, 0.2, TERMINAL_SPREAD)
    compare = {
        "lattice": _lattice(n),
        "solver": {"tol": 1e-12},
        "comparison": {
            "f1": {"family": "linear", "params": {"f": body, "f_source": -gap}},
            "fbar": {"family": "linear", "params": {"f": body}},
            "f2": {"family": "linear", "params": {"f": body, "f_source": gap}},
            "g": _linear(rng, {}, {"z": 0.04}),
            "zeta1": _affine(-intercept, theta),
            "zeta2": _affine(intercept, theta),
            "p_max": 3,
        },
    }
    p_low = _affine(_near(rng, -0.2, TERMINAL_SPREAD), _near(rng, 0.5, TERMINAL_SPREAD))
    p_high = _affine(p_low["params"]["phi"] + _near(rng, 0.5, TERMINAL_SPREAD),
                     p_low["params"]["theta"])
    p_other = _affine(_near(rng, 0.1, TERMINAL_SPREAD), _near(rng, -0.4, TERMINAL_SPREAD))
    lam = _near(rng, 0.35, TERMINAL_SPREAD)

    def risk_doc(h_kind, g_kind, payoff2, axioms, **extra):
        risk = _risk_driver(rng, h_kind, g_kind)
        if g_kind == "affine":
            risk["g"]["k0"] = _near(rng, 0.02, DRIVER_SPREAD)
        risk.update(payoff=p_low, payoff2=payoff2, axioms=axioms, **extra)
        return {"lattice": _lattice(n), "solver": {"tol": 1e-12}, "risk": risk}

    return {
        "base": base,
        "compare": compare,
        "risk_convex": risk_doc("smooth_abs", "affine", p_high,
                                ["translation", "monotonicity", "convexity"],
                                shift=_near(rng, 1.3, TERMINAL_SPREAD), **{"lambda": lam}),
        "risk_coherent": risk_doc("abs", "linear", p_other,
                                  ["positive_homogeneity", "subadditivity"],
                                  **{"lambda": _near(rng, 2.4, TERMINAL_SPREAD)}),
        "risk_past": risk_doc("smooth_abs", "affine", p_low, ["past_independence"],
                              t_idx=rng.randrange(1, n)),
        "linearized": {
            "lattice": _lattice(n),
            "driver": _linear(rng, {"y": -0.1, "z": 0.15}, {"z": 0.05}),
            "terminal": _affine(_near(rng, 0.2, TERMINAL_SPREAD),
                                _near(rng, 0.8, TERMINAL_SPREAD)),
            "solver": {"tol": SOLVE_TOL},
        },
        "stability": {
            "lattice": _lattice(n),
            "driver": _linear(rng, {"y": -0.3}, {"z": 0.05}),
            "terminal": _affine(_near(rng, 1.0, TERMINAL_SPREAD),
                                _near(rng, 0.4, TERMINAL_SPREAD)),
            "solver": {"tol": 1e-12, "beta": 20.0},
            "eps": _near(rng, 3e-3, 0.5),
        },
    }


def _read_summary(out: Path) -> dict[str, str]:
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split(": ", 1) for line in lines)


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in
            path.read_text(encoding="utf-8").splitlines()[1:]]


def _cli_step(m, sub: str, scenario: Path, out: Path, checks: tuple[str, ...],
              check_files: Callable[[Path], CheckResult]) -> Step:
    """Run one CLI subcommand; `checks` name what check_files reads from out."""
    def check(code):
        if code != 0:
            return {"exit_code": (False, code)}
        return {"exit_code": (True, code), **check_files(out)}

    return Step(f"cli_{out.name}", ("exit_code", *checks),
                lambda: m.cli.run(sub, str(scenario), str(out)), check)


def _check_residual(out: Path) -> CheckResult:
    res = float(_read_summary(out)["final_residual"])
    return {"residual": (res <= RESIDUAL_TOL, res)}


def _check_norms(out: Path) -> CheckResult:
    m2, l2 = (float(v) for v in _read_csv(out / "norms.csv")[0][:2])
    rel = max(m2, 1.0)
    ok = m2 <= l2 + EQUIV_TOL * rel and l2 <= 2.0 * m2 + EQUIV_TOL * rel
    return {**_check_residual(out), "norm_equivalence": (ok, l2 / m2)}


def _check_clark_ocone(out: Path) -> CheckResult:
    worst = max(float(row[2]) for row in _read_csv(out / "clark_ocone.csv"))
    return {"clark_ocone": (worst <= IDENTITY_TOL, worst)}


def _check_compare(out: Path, p_max: int) -> CheckResult:
    gap = min(float(row[1]) for row in _read_csv(out / "compare.csv"))
    chain = _read_csv(out / "chain.csv")
    rise = max(float(row[1]) for row in chain)
    return {"order_gap": (gap >= -GAP_TOL, gap),
            "chain_rise": (rise <= CHAIN_TOL and len(chain) == p_max, rise)}


def _check_axioms(axioms: list[str]) -> Callable[[Path], CheckResult]:
    def check(out: Path) -> CheckResult:
        rows = {row[0]: float(row[1]) for row in _read_csv(out / "risk_axioms.csv")}
        return {name: (name in rows and rows[name] <= AXIOM_TOL, rows.get(name))
                for name in axioms}
    return check


def setup_verify_suite(m, inputs: dict, workdir: Path) -> list[Step]:
    files = {}
    for key in ("base", "compare", "risk_convex", "risk_coherent", "risk_past"):
        files[key] = workdir / f"{key}.json"
        files[key].write_text(json.dumps(inputs[key]), encoding="utf-8")
    # premises are audited here, so an input that breaks one stops the
    # benchmark before any pass instead of counting as a failed check
    m.cli.build_base_scenario(inputs["base"])
    for key in ("risk_convex", "risk_coherent", "risk_past"):
        cfg = inputs[key]["risk"]
        m.risk.RiskSpec(m.lattice.build_lattice(VERIFY_STEPS, 1.0), cfg["rate"],
                        h=m.cli.parse_zpart(cfg["h"], "h"),
                        g=m.cli.parse_zpart(cfg["g"], "g"))
    cmp_cfg = inputs["compare"]["comparison"]
    m.comparison.check_hypotheses(m.comparison.ComparisonScenario(
        lattice=m.lattice.build_lattice(VERIFY_STEPS, 1.0),
        **{k: m.cli.parse_driver(cmp_cfg[k], k) for k in ("f1", "fbar", "f2", "g")},
        **{k: m.cli.parse_terminal(cmp_cfg[k], k) for k in ("zeta1", "zeta2")}))

    steps = [
        _cli_step(m, "solve", files["base"], workdir / "solve",
                  ("residual",), _check_residual),
        _cli_step(m, "norms", files["base"], workdir / "norms",
                  ("residual", "norm_equivalence"), _check_norms),
        _cli_step(m, "malliavin", files["base"], workdir / "malliavin",
                  ("clark_ocone",), _check_clark_ocone),
        _cli_step(m, "compare", files["compare"], workdir / "compare",
                  ("order_gap", "chain_rise"),
                  lambda out: _check_compare(out, cmp_cfg["p_max"])),
    ]
    for key in ("risk_convex", "risk_coherent", "risk_past"):
        axioms = inputs[key]["risk"]["axioms"]
        steps.append(_cli_step(m, "risk", files[key], workdir / key,
                               tuple(axioms), _check_axioms(axioms)))
    steps.append(_linearized_step(m, inputs["linearized"]))
    steps.append(_stability_step(m, inputs["stability"]))
    return steps


def _linearized_step(m, doc: dict) -> Step:
    sc, tol, max_iter = m.cli.build_base_scenario(doc)
    slots = range(VERIFY_STEPS)

    def run():
        y, z, _ = m.solver.picard_solve(sc, tol=tol, max_iter=max_iter)
        flips = [m.malliavin.solve_linearized(m.malliavin.build_linearized(sc, y, z, r))
                 for r in slots]
        return y, z, flips

    def check(out):
        y, z, flips = out
        result = {}
        for r, (u, v) in zip(slots, flips):
            gap = m.fields.pair_sup_diff(u, v, *m.malliavin.flip_solution(y, z, r))
            result[f"flip_r{r}"] = (gap <= IDENTITY_TOL, gap)
        return result

    return Step("linearized", tuple(f"flip_r{r}" for r in slots), run, check)


def _stability_step(m, doc: dict) -> Step:
    """One stability_compare pair that differs only by a constant f source.

    The terminal and g terms then vanish exactly and the f term has the
    closed form eps^2 dt^2 sum_{i <= j < N} e^{beta t_j}.
    """
    eps = doc["eps"]
    base = {k: v for k, v in doc.items() if k != "eps"}
    moved = json.loads(json.dumps(base))
    moved["driver"]["params"]["f_source"] = eps
    sc1, tol, max_iter = m.cli.build_base_scenario(base)
    sc2, _, _ = m.cli.build_base_scenario(moved)
    n, dt, beta = VERIFY_STEPS, 1.0 / VERIFY_STEPS, sc1.beta
    f_term = eps * eps * dt * dt * sum(
        math.exp(beta * j * dt) for i in range(n + 1) for j in range(i, n))

    def check(rep):
        rel = abs(rep.f_term - f_term) / f_term
        return {"zero_terms": (rep.zeta_term == 0.0 and rep.g_term == 0.0,
                               [rep.zeta_term, rep.g_term]),
                "f_term": (rel <= IDENTITY_TOL, rel),
                "ratio": (rep.lhs > 0.0 and math.isfinite(rep.ratio), rep.ratio)}

    return Step("stability", ("zero_terms", "f_term", "ratio"),
                lambda: m.solver.stability_compare(sc1, sc2, tol=tol, max_iter=max_iter),
                check)


# -- particles_joint -----------------------------------------------------------

PARTICLE_COUNTS = [1, 2, 3]


def draw_particles_joint(rng: random.Random) -> dict:
    # the coupled system of criterion 8 with its terminal scaled by four,
    # which keeps each solve's stopping tests away from the tolerance
    return {
        "lattice": _lattice(3),
        "driver": _linear(rng, {"mean_y": 0.5, "y": -0.3}, {"z": 0.04}),
        "terminal": _affine(_near(rng, 1.2, TERMINAL_SPREAD),
                            _near(rng, 2.4, TERMINAL_SPREAD)),
        "solver": {"tol": 1e-12, "max_iter": 300},
        "particles": {"n_list": PARTICLE_COUNTS},
    }


def _capture_results(module, name: str, sink: list) -> Callable[[], None]:
    """Record what module.name returns until the returned undo is called."""
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, name, recorder)
    return lambda: setattr(module, name, original)


def setup_particles_joint(m, inputs: dict, workdir: Path) -> list[Step]:
    sc, tol, max_iter = m.cli.build_base_scenario(inputs)
    dt = sc.lattice.dt

    def run():
        # convergence_study keeps the particle reports to itself; the
        # exchangeability check needs the n = 3 one
        reports: list = []
        undo = _capture_results(m.particles, "solve_particles", reports)
        try:
            rows = m.particles.convergence_study(sc, PARTICLE_COUNTS, tol=tol,
                                                 max_iter=max_iter)
        finally:
            undo()
        return rows, [rep for _, rep in reports]

    def check(out):
        rows, reports = out
        sums = {n: 0.0 for n in PARTICLE_COUNTS}
        for n, _, gap in rows:
            sums[n] += gap * dt
        exch = reports[-1].exchangeability
        return {"gap_decreases": (0.0 < sums[3] < sums[1], [sums[n] for n in PARTICLE_COUNTS]),
                "exchangeability": (exch <= IDENTITY_TOL, exch)}

    return [Step("convergence", ("gap_decreases", "exchangeability"), run, check,
                 counts=lambda out: {"particles.iterations":
                                     sum(rep.iterations for rep in out[1])})]


WORKLOADS = {
    w.name: w for w in (
        Workload("solve_n10", 2 * 10, draw_solve_n10, setup_solve_n10),
        Workload("verify_suite", 2 * VERIFY_STEPS, draw_verify_suite, setup_verify_suite),
        Workload("particles_joint", 2 * 3 * max(PARTICLE_COUNTS), draw_particles_joint,
                 setup_particles_joint),
    )
}
