"""Batch front end: scenario files in, CSV reports and a summary out.

Scenario files are JSON documents with sections

    lattice   {n_steps, horizon}
    driver    {family, params, c?, alpha?}
    terminal  {family, params}
    solver    {beta?, safety?, tol?, max_iter?}

plus one optional section per subcommand (comparison, risk, malliavin,
particles).  Unknown keys, non-finite numbers and non-integer counts
are rejected before any computation runs.  Every output is written
under --out as CSV plus a summary text block; runs are fully
deterministic, so repeated invocations produce byte-identical files.

Exit codes: 0 all checks passed, 1 input or validation trouble,
2 a verified property failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import comparison as cmp_mod
from . import malliavin as mal_mod
from . import risk as risk_mod
from .drivers import (
    ARG_NAMES,
    DriverSpec,
    LinearDriver,
    RiskDriver,
    TerminalSpec,
    ZPart,
)
from .errors import Error, InputError, IoError, ValidationError
from .fields import BetaWeight, l_beta_norm, m_beta_norm, node_gaps
from .lattice import build_lattice
from .particles import MAX_PARTICLES, convergence_study
from .solver import Scenario, picard_solve

SUBCOMMANDS = ("solve", "compare", "risk", "malliavin", "particles", "norms")
AXIOMS = ("translation", "past_independence", "monotonicity", "convexity",
          "positive_homogeneity", "subadditivity")
NEEDS_PAYOFF2 = ("past_independence", "monotonicity", "convexity",
                 "subadditivity")


# -- schema walking ---------------------------------------------------------


def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InputError(f"{where}: missing keys {sorted(missing)}")


def _number(v, where):
    """A finite JSON number as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not abs(v) <= sys.float_info.max:
        raise InputError(f"{where}: expected a finite number")
    return float(v)


def _integer(v, where):
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{where}: expected an integer")
    return v


def _in_range(v, where, lo, hi):
    """An integer in lo..hi."""
    if not lo <= _integer(v, where) <= hi:
        raise InputError(f"{where}: {v} outside {lo}..{hi}")
    return v


def _num(obj, key, where, default=None):
    return default if key not in obj else _number(obj[key], f"{where}.{key}")


def _int(obj, key, where, default=None):
    return default if key not in obj else _integer(obj[key], f"{where}.{key}")


def _numbers(v, where, size):
    if not isinstance(v, list) or len(v) != size:
        raise InputError(f"{where}: expected a list of {size} numbers")
    return [_number(x, f"{where}[{k}]") for k, x in enumerate(v)]


def _time_fn(cfg, where):
    """Deterministic time profiles: a number or {const|affine: [c0, c1]}."""
    if not isinstance(cfg, dict):
        return _number(cfg, where)
    _require_keys(cfg, ("const", "affine"), (), where)
    if "const" in cfg:
        return _num(cfg, "const", where)
    c0, c1 = _numbers(cfg.get("affine"), f"{where}.affine", 2)
    return lambda t, a=c0, b=c1: a + b * t


def _surface_fn(cfg, where):
    """Source profiles phi(t, s): a number or {const|affine_ts: [c,ct,cs]}."""
    if cfg is None:
        return None
    if not isinstance(cfg, dict):
        return _number(cfg, where)
    _require_keys(cfg, ("const", "affine_ts"), (), where)
    if "const" in cfg:
        return _num(cfg, "const", where)
    c0, ct, cs = _numbers(cfg.get("affine_ts"), f"{where}.affine_ts", 3)
    return lambda t, s: c0 + ct * t + cs * s


def _coefs(cfg, where):
    """Linear coefficient map {argument: number}."""
    if cfg is None:
        return None
    _require_keys(cfg, ARG_NAMES, (), where)
    return {k: _num(cfg, k, where) for k in cfg}


def parse_driver(cfg, where="driver") -> DriverSpec:
    _require_keys(cfg, ("family", "params", "c", "alpha"), ("family",), where)
    family = cfg.get("family")
    params = cfg.get("params", {})
    c = _num(cfg, "c", where)
    alpha = _num(cfg, "alpha", where)
    if family == "linear":
        _require_keys(params, ("f", "g", "f_source", "g_source"), (),
                      f"{where}.params")
        return LinearDriver(
            f=_coefs(params.get("f"), f"{where}.f"),
            g=_coefs(params.get("g"), f"{where}.g"),
            f_source=_surface_fn(params.get("f_source"), f"{where}.f_source"),
            g_source=_surface_fn(params.get("g_source"), f"{where}.g_source"),
            c=c, alpha=alpha,
        )
    if family == "risk":
        _require_keys(params, ("rate", "h", "g", "rate_bound"), ("rate",),
                      f"{where}.params")
        return RiskDriver(
            rate=_time_fn(params["rate"], f"{where}.rate"),
            h=parse_zpart(params.get("h"), f"{where}.h"),
            g=parse_zpart(params.get("g"), f"{where}.g"),
            rate_bound=_num(params, "rate_bound", f"{where}.params"),
            c=c, alpha=alpha,
        )
    raise InputError(f"{where}.family: unknown family '{family}'")


def parse_zpart(cfg, where) -> ZPart:
    if cfg is None:
        return ZPart()
    _require_keys(cfg, ("kind", "k0", "k1"), ("kind",), where)
    return ZPart(kind=cfg["kind"], k0=_num(cfg, "k0", where, 0.0),
                 k1=_num(cfg, "k1", where, 0.0))


def parse_terminal(cfg, where="terminal") -> TerminalSpec:
    _require_keys(cfg, ("family", "params"), ("family",), where)
    family = cfg["family"]
    params = cfg.get("params", {})
    _require_keys(params, ("phi", "theta", "smooth"), (), f"{where}.params")
    phi = _time_fn(params.get("phi", 0.0), f"{where}.phi")
    theta = params.get("theta")
    smooth_cfg = params.get("smooth", [])
    if not isinstance(smooth_cfg, list):
        raise InputError(f"{where}.smooth: expected a list of objects")
    if family == "deterministic":
        if theta is not None or smooth_cfg:
            raise InputError(f"{where}: deterministic family takes phi only")
        return TerminalSpec(phi=phi)
    if family == "affine":
        if smooth_cfg:
            raise InputError(f"{where}: affine family takes phi and theta")
        return TerminalSpec(
            phi=phi, theta=_time_fn(theta or 0.0, f"{where}.theta")
        )
    if family == "smooth":
        smooth = []
        for k, entry in enumerate(smooth_cfg):
            _require_keys(entry, ("kind", "coef"), ("kind", "coef"),
                          f"{where}.smooth[{k}]")
            smooth.append((entry["kind"],
                           _time_fn(entry["coef"], f"{where}.smooth[{k}]")))
        th = None if theta is None else _time_fn(theta, f"{where}.theta")
        return TerminalSpec(phi=phi, theta=th, smooth=smooth)
    raise InputError(f"{where}.family: unknown family '{family}'")


TOP_KEYS = ("lattice", "driver", "terminal", "solver",
            "comparison", "risk", "malliavin", "particles")


def load_scenario_file(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc
    _require_keys(doc, TOP_KEYS, ("lattice",), "scenario")
    lat_cfg = doc["lattice"]
    _require_keys(lat_cfg, ("n_steps", "horizon"), ("n_steps", "horizon"),
                  "lattice")
    solver_cfg = doc.get("solver", {})
    _require_keys(solver_cfg, ("beta", "safety", "tol", "max_iter"), (),
                  "solver")
    return doc


def _lattice(doc):
    cfg = doc["lattice"]
    return build_lattice(_int(cfg, "n_steps", "lattice"),
                         _num(cfg, "horizon", "lattice"))


def build_base_scenario(doc) -> tuple[Scenario, float, int]:
    lat = _lattice(doc)
    if "driver" not in doc or "terminal" not in doc:
        raise InputError("scenario: solve needs driver and terminal sections")
    driver = parse_driver(doc["driver"])
    terminal = parse_terminal(doc["terminal"])
    solver_cfg = doc.get("solver", {})
    sc = Scenario(
        lat, driver, terminal,
        beta=_num(solver_cfg, "beta", "solver"),
        safety=_num(solver_cfg, "safety", "solver", 1.5),
    )
    tol = _num(solver_cfg, "tol", "solver", 1e-10)
    max_iter = _int(solver_cfg, "max_iter", "solver", 200)
    return sc, tol, max_iter


# -- emission ----------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):  # numpy float64 too, whose repr is not a number
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_profile(path: Path, y) -> None:
    """Per-node mean, min and max of a path over its paths."""
    stats = [f(y.values, axis=-1).tolist() for f in (np.mean, np.min, np.max)]
    write_csv(path, ["t_idx", "mean", "min", "max"],
              list(zip(range(len(y)), *stats)))


def write_summary(path: Path, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# -- subcommand bodies -------------------------------------------------------


def _run_solve(doc, out_dir: Path, emit_norms: bool) -> tuple[int, list[str]]:
    sc, tol, max_iter = build_base_scenario(doc)
    y, z, rep = picard_solve(sc, tol=tol, max_iter=max_iter)
    rows = [
        (k + 1, rep.diff_trace[k],
         rep.ratio_trace[k - 1] if k >= 1 else "")
        for k in range(len(rep.diff_trace))
    ]
    write_csv(out_dir / "solver_trace.csv",
              ["iteration", "diff_norm", "ratio"], rows)
    _write_profile(out_dir / "solution_y.csv", y)
    lines = [
        f"iterations: {rep.iterations}",
        f"gamma_theory: {_fmt(rep.gamma_theory)}",
        f"final_residual: {_fmt(rep.final_residual)}",
        f"norm_restricted: {_fmt(rep.final_norms[0])}",
        f"norm_full: {_fmt(rep.final_norms[1])}",
    ]
    failed = not (rep.final_residual <= 10 * tol  # nan and inf fail too
                  and all(map(math.isfinite, rep.final_norms)))
    if emit_norms:
        w = BetaWeight(sc.beta)
        m2 = m_beta_norm(y, z, w) ** 2
        l2 = l_beta_norm(y, z, w) ** 2
        finite = math.isfinite(m2) and math.isfinite(l2)
        lower = finite and m2 <= l2 + 1e-10
        upper = finite and l2 <= 2 * m2 + 1e-10
        write_csv(out_dir / "norms.csv",
                  ["m_beta_sq", "l_beta_sq", "lower_ok", "upper_ok"],
                  [(m2, l2, int(lower), int(upper))])
        ok = lower and upper
        lines.append(f"norm_equivalence: {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    lines.append(f"verdict: {'FAIL' if failed else 'PASS'}")
    return (2 if failed else 0), lines


def _run_compare(doc, out_dir: Path) -> tuple[int, list[str]]:
    if "comparison" not in doc:
        raise InputError("scenario: compare needs a comparison section")
    cfg = doc["comparison"]
    _require_keys(
        cfg,
        ("f1", "fbar", "f2", "g", "zeta1", "zeta2", "zetabar", "p_max"),
        ("f1", "fbar", "f2", "zeta1", "zeta2"),
        "comparison",
    )
    lat = _lattice(doc)
    solver_cfg = doc.get("solver", {})
    cs = cmp_mod.ComparisonScenario(
        lattice=lat,
        f1=parse_driver(cfg["f1"], "comparison.f1"),
        fbar=parse_driver(cfg["fbar"], "comparison.fbar"),
        f2=parse_driver(cfg["f2"], "comparison.f2"),
        g=parse_driver(cfg["g"], "comparison.g") if "g" in cfg
        else LinearDriver(),
        zeta1=parse_terminal(cfg["zeta1"], "comparison.zeta1"),
        zeta2=parse_terminal(cfg["zeta2"], "comparison.zeta2"),
        zetabar=parse_terminal(cfg["zetabar"], "comparison.zetabar")
        if "zetabar" in cfg else None,
        beta=_num(solver_cfg, "beta", "solver"),
        safety=_num(solver_cfg, "safety", "solver", 1.5),
        tol=_num(solver_cfg, "tol", "solver", 1e-12),
        max_iter=_int(solver_cfg, "max_iter", "solver", 300),
    )
    p_max = _int(cfg, "p_max", "comparison", 0)
    verdict = cmp_mod.compare_solve(cs)
    write_csv(out_dir / "compare.csv", ["t_idx", "min_gap"],
              list(enumerate(verdict.min_gap_by_node)))
    lines = [f"min_gap: {_fmt(verdict.min_gap)}"]
    if p_max > 0:
        chain = cmp_mod.monotone_iteration(cs, p_max)
        rows = [(p, max(rise for _, rise in node_gaps(chain[p], chain[p - 1])))
                for p in range(1, len(chain))]
        write_csv(out_dir / "chain.csv", ["p", "worst_rise"], rows)
        lines.append(f"chain_steps: {p_max}")
    lines.append(f"verdict: {'PASS' if verdict.passed else 'FAIL'}")
    return (0 if verdict.passed else 2), lines


def _run_risk(doc, out_dir: Path) -> tuple[int, list[str]]:
    if "risk" not in doc:
        raise InputError("scenario: risk needs a risk section")
    cfg = doc["risk"]
    _require_keys(
        cfg,
        ("rate", "h", "g", "rate_bound", "payoff", "payoff2", "axioms",
         "shift", "lambda", "t_idx"),
        ("rate", "payoff"),
        "risk",
    )
    lat = _lattice(doc)
    solver_cfg = doc.get("solver", {})
    rs = risk_mod.RiskSpec(
        lat, _time_fn(cfg["rate"], "risk.rate"),
        h=parse_zpart(cfg.get("h"), "risk.h"),
        g=parse_zpart(cfg.get("g"), "risk.g"),
        beta=_num(solver_cfg, "beta", "solver"),
        safety=_num(solver_cfg, "safety", "solver", 1.5),
        tol=_num(solver_cfg, "tol", "solver", 1e-12),
        max_iter=_int(solver_cfg, "max_iter", "solver", 300),
        rate_bound=_num(cfg, "rate_bound", "risk"),
    )
    p1 = risk_mod.PayoffStream(parse_terminal(cfg["payoff"], "risk.payoff"))
    p2 = None
    if "payoff2" in cfg:
        p2 = risk_mod.PayoffStream(
            parse_terminal(cfg["payoff2"], "risk.payoff2")
        )
    axioms = cfg.get("axioms", ["translation"])
    if not isinstance(axioms, list) or any(a not in AXIOMS for a in axioms):
        raise InputError(f"risk.axioms: expected a list of names from "
                         f"{list(AXIOMS)}")
    for name in axioms:
        if p2 is None and name in NEEDS_PAYOFF2:
            raise InputError(f"risk: {name} needs payoff2")
    shift = _num(cfg, "shift", "risk", 1.0)
    lam = _num(cfg, "lambda", "risk", 0.5)
    t_idx = _in_range(cfg.get("t_idx", 0), "risk.t_idx", 0, lat.n_steps)
    _write_profile(out_dir / "rho.csv", risk_mod.rho(rs, p1))
    reports = []
    for name in axioms:
        if name == "translation":
            rep = risk_mod.axiom_translation(rs, p1, shift)
            write_csv(out_dir / "translation.csv",
                      ["t_idx", "difference", "predicted", "gap"], rep.rows)
        elif name == "past_independence":
            rep = risk_mod.axiom_past_independence(rs, p1, p2, t_idx)
        elif name == "monotonicity":
            rep = risk_mod.axiom_monotonicity(rs, p1, p2)
        elif name == "convexity":
            rep = risk_mod.axiom_convexity(rs, p1, p2, lam)
        elif name == "positive_homogeneity":
            rep = risk_mod.axiom_positive_homogeneity(rs, p1, lam)
        else:  # subadditivity
            rep = risk_mod.axiom_subadditivity(rs, p1, p2)
        reports.append(rep)
    write_csv(out_dir / "risk_axioms.csv",
              ["axiom", "worst_violation", "pass"],
              [(r.axiom, r.worst_violation, int(r.passed)) for r in reports])
    lines = [f"{r.axiom}: {'PASS' if r.passed else 'FAIL'} "
             f"(worst {_fmt(r.worst_violation)})" for r in reports]
    ok = all(r.passed for r in reports)
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 2), lines


def _run_malliavin(doc, out_dir: Path) -> tuple[int, list[str]]:
    sc, tol, max_iter = build_base_scenario(doc)
    cfg = doc.get("malliavin", {})
    _require_keys(cfg, ("r_idx",), (), "malliavin")
    n = sc.lattice.n_steps
    r_list = (list(range(n)) if "r_idx" not in cfg
              else [_in_range(cfg["r_idx"], "malliavin.r_idx", 0, n - 1)])
    y, z, _ = picard_solve(sc, tol=tol, max_iter=max_iter)
    rows = []
    worst = 0.0
    for r in r_list:
        rep = mal_mod.check_clark_ocone(y, z, r)
        for (i, rr, gap) in rep.rows:
            rows.append((i, rr, gap))
        worst = max(worst, rep.worst)
    write_csv(out_dir / "clark_ocone.csv", ["t_idx", "r_idx", "residual"],
              rows)
    ok = worst <= 1e-10
    lines = [f"clark_ocone_worst: {_fmt(worst)}",
             f"verdict: {'PASS' if ok else 'FAIL'}"]
    return (0 if ok else 2), lines


def _run_particles(doc, out_dir: Path) -> tuple[int, list[str]]:
    sc, tol, max_iter = build_base_scenario(doc)
    cfg = doc.get("particles", {})
    _require_keys(cfg, ("n_list",), (), "particles")
    n_list = cfg.get("n_list", [1, 2, 3])
    if not isinstance(n_list, list) or not n_list:
        raise InputError("particles.n_list: expected a non-empty list")
    n_list = [_in_range(v, f"particles.n_list[{k}]", 1, MAX_PARTICLES)
              for k, v in enumerate(n_list)]
    rows = convergence_study(sc, n_list, tol=tol, max_iter=max_iter)
    write_csv(out_dir / "particles.csv", ["n", "t_idx", "e_n"], rows)
    sums = {}
    for (npart, _, gap) in rows:
        sums[npart] = sums.get(npart, 0.0) + gap
    lines = [f"e_sum[n={k}]: {_fmt(v)}" for k, v in sorted(sums.items())]
    ok = True
    if len(n_list) > 1 and sums[max(n_list)] > 0:
        ok = sums[max(n_list)] <= sums[min(n_list)] + 1e-12
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 2), lines


def run(subcommand: str, scenario_path: str, out_dir: str,
        tol: float | None = None, max_iter: int | None = None) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    try:
        if subcommand not in SUBCOMMANDS:
            raise InputError(f"unknown subcommand '{subcommand}'")
        doc = load_scenario_file(Path(scenario_path))
        if tol is not None:
            doc.setdefault("solver", {})["tol"] = tol
        if max_iter is not None:
            doc.setdefault("solver", {})["max_iter"] = max_iter
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if subcommand in ("solve", "norms"):
            code, lines = _run_solve(doc, out, emit_norms=subcommand == "norms")
        elif subcommand == "compare":
            code, lines = _run_compare(doc, out)
        elif subcommand == "risk":
            code, lines = _run_risk(doc, out)
        elif subcommand == "malliavin":
            code, lines = _run_malliavin(doc, out)
        else:
            code, lines = _run_particles(doc, out)
        write_summary(out / "summary.txt", lines)
        return code
    except (InputError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfbdsvie",
        description="exact lattice runs for the doubly stochastic "
                    "Volterra solver and its verification checks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="JSON scenario file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
    args = parser.parse_args(argv)
    return run(args.subcommand, args.scenario, args.out,
               tol=args.tol, max_iter=args.max_iter)


if __name__ == "__main__":
    sys.exit(main())
