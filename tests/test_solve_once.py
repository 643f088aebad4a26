"""Each problem is solved once, and no report is made that nobody reads.

`picard_solve(report=False)` gives the same iterates without the
diagnostics; `rho` solves each payoff once per risk spec; the CLI
`compare` audits the hypotheses once and hands its verdict to the chain;
the array audit matches the one-sample-at-a-time loop bit for bit; and
solve settings are refused when a spec is built, before any audit.
"""

import importlib.util
import json
import random
import re
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from mfbdsvie import cli, comparison, risk, solver
from mfbdsvie.cli import run
from mfbdsvie.comparison import (
    ComparisonScenario,
    _sample_hypotheses,
    check_hypotheses,
    compare_solve,
    monotone_iteration,
)
from mfbdsvie.drivers import LinearDriver, TerminalSpec, ZPart
from mfbdsvie.errors import HypothesisViolated, ValidationError
from mfbdsvie.lattice import build_lattice
from mfbdsvie.solver import Scenario, picard_solve

from _oracles import per_sample_hypotheses
from test_cli import _assert_input_error, _never, write_scenario
from test_sweep import DRIVERS, TERMINAL

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _verify_suite(seed):
    """The documents the benchmark's verify_suite workload draws for seed."""
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["bench_workloads"].draw_verify_suite(
        random.Random(seed))


def _count(monkeypatch, module, name):
    """Record each call of module.name, which still runs; returns the log."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _comparison(doc):
    """The comparison scenario of a document, built as the CLI builds it."""
    cfg = doc["comparison"]
    return ComparisonScenario(
        lattice=build_lattice(doc["lattice"]["n_steps"],
                              doc["lattice"]["horizon"]),
        **{k: cli.parse_driver(cfg[k], k) for k in ("f1", "fbar", "f2", "g")},
        **{k: cli.parse_terminal(cfg[k], k) for k in ("zeta1", "zeta2")})


def _sandwich_doc():
    return json.loads((SCENARIOS / "comparison_sandwich.json").read_text())


def _violating_doc():
    """The sandwich with every sampled hypothesis broken: the outer drivers
    and terminals swapped, fbar decreasing in y and reading z_rev, and g
    reading z_rev."""
    doc = _sandwich_doc()
    cfg = doc["comparison"]
    cfg["f1"], cfg["f2"] = cfg["f2"], cfg["f1"]
    cfg["zeta1"], cfg["zeta2"] = cfg["zeta2"], cfg["zeta1"]
    cfg["fbar"]["params"]["f"] = {"y": -0.2, "mean_y": -0.1, "z_rev": 0.3}
    cfg["g"]["params"]["g"]["z_rev"] = 0.1
    return doc


def _bits(report):
    return [np.float64(v).view(np.int64) for v in astuple(report)]


class TestReport:
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_same_iterates_without_diagnostics(self, monkeypatch, name, n):
        sc = Scenario(build_lattice(n, 1.0), DRIVERS[name], TERMINAL)
        y, z, rep = picard_solve(sc, tol=1e-12)
        assert rep is not None
        for diagnostic in ("residual", "pair_diff", "m_beta_norm",
                           "_norm_squared"):
            monkeypatch.setattr(solver, diagnostic, _never)
        y_bare, z_bare, none = picard_solve(sc, tol=1e-12, report=False)
        assert none is None
        assert np.array_equal(y_bare.values, y.values)
        assert np.array_equal(z_bare.values, z.values)

    def test_default_report_computes_one_residual(self, monkeypatch):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS["risk_smooth_abs"],
                      TERMINAL)
        calls = _count(monkeypatch, solver, "residual")
        _, _, rep = picard_solve(sc, tol=1e-12)
        assert len(calls) == 1
        assert rep.final_residual <= 1e-9


class TestRiskProfiles:
    def test_rho_solves_a_payoff_once(self, monkeypatch):
        rs = risk.RiskSpec(build_lattice(3, 1.0), 0.1,
                           h=ZPart("smooth_abs", k1=0.3))
        p = risk.PayoffStream(TerminalSpec(phi=0.2, theta=0.5))
        solves = _count(monkeypatch, risk, "picard_solve")
        first = risk.rho(rs, p)
        assert risk.rho(rs, p) is first
        assert len(solves) == 1
        # another payoff object is another position to solve
        risk.rho(rs, risk.PayoffStream(TerminalSpec(phi=0.2, theta=0.5)))
        assert len(solves) == 2

    @pytest.mark.parametrize("key, members", [
        ("risk_convex", 4), ("risk_coherent", 4), ("risk_past", 1)])
    def test_cli_solves_each_position_once(self, tmp_path, monkeypatch, key,
                                           members):
        # one Picard loop a document, each distinct position one member of
        # it (the past-independence document's two payoffs are one)
        doc = _verify_suite(3)[key]
        calls = _count(monkeypatch, solver, "iterate")
        path = write_scenario(tmp_path, doc)
        assert run("risk", str(path), str(tmp_path / "out")) == 0
        assert [len(args[1]) for args in calls] == [members]


class TestComparison:
    def test_cli_audits_once(self, tmp_path, monkeypatch):
        doc = _verify_suite(3)["compare"]
        assert doc["comparison"]["p_max"] == 3
        solves = _count(monkeypatch, solver, "iterate")
        audits = _count(monkeypatch, comparison, "check_hypotheses")
        path = write_scenario(tmp_path, doc)
        assert run("compare", str(path), str(tmp_path / "out")) == 0
        assert (len(solves), len(audits)) == (5, 1)

    def test_chain_from_the_verdict(self, monkeypatch):
        cs = _comparison(_sandwich_doc())
        verdict = compare_solve(cs)
        want = monotone_iteration(cs, 3)
        monkeypatch.setattr(comparison, "check_hypotheses", _never)
        solves = _count(monkeypatch, comparison, "picard_solve")
        chain = monotone_iteration(cs, 3, verdict)
        assert len(solves) == 3
        assert chain[0] is verdict.y2
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(chain, want, strict=True))

    def test_verdict_of_another_scenario_refused(self):
        verdict = compare_solve(_comparison(_sandwich_doc()))
        with pytest.raises(ValidationError, match="another"):
            monotone_iteration(_comparison(_sandwich_doc()), 1, verdict)


class TestHypothesesOnArrays:
    @pytest.mark.parametrize("source", ["sandwich", "seed1", "seed3"])
    def test_bit_identical_to_the_sample_loop(self, source):
        doc = (_sandwich_doc() if source == "sandwich"
               else _verify_suite(int(source[-1]))["compare"])
        cs = _comparison(doc)
        assert _bits(check_hypotheses(cs)) == _bits(per_sample_hypotheses(cs))

    def test_violations_bit_identical(self):
        cs = _comparison(_violating_doc())
        want = per_sample_hypotheses(cs)
        assert min(astuple(want)) > 0.0  # every hypothesis is broken
        assert _bits(_sample_hypotheses(cs, 400, 20240604)) == _bits(want)
        message = f"reduced form = {want.worst_reduced_form:.3e}"
        with pytest.raises(HypothesisViolated, match=re.escape(message)):
            check_hypotheses(cs)


class TestSettingsAtConstruction:
    @pytest.mark.parametrize("settings", [{"max_iter": 0}, {"tol": 0.0},
                                          {"tol": -1e-12}])
    def test_compare_refused_before_the_audit(self, tmp_path, capsys,
                                              monkeypatch, settings):
        monkeypatch.setattr("mfbdsvie.comparison.check_hypotheses", _never)
        doc = _sandwich_doc()
        doc["solver"].update(settings)
        _assert_input_error(tmp_path, capsys, "compare", doc)

    def test_risk_refused_before_the_audit(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr("mfbdsvie.risk.rho", _never)
        doc = json.loads((SCENARIOS / "risk_translation.json").read_text())
        doc.setdefault("solver", {})["max_iter"] = 0
        _assert_input_error(tmp_path, capsys, "risk", doc)

    def test_api_messages_are_those_of_iterate(self):
        lat = build_lattice(2, 1.0)
        with pytest.raises(ValidationError, match=r"^max_iter=0 must be >= 1$"):
            ComparisonScenario(lat, *[LinearDriver()] * 4,
                               TerminalSpec(), TerminalSpec(), max_iter=0)
        with pytest.raises(ValidationError, match=r"^tol=0\.0 must be > 0$"):
            risk.RiskSpec(lat, 0.1, tol=0.0)
