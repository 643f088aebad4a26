"""Solves that share a lattice, a driver and a beta run as one batch.

`picard_solve` on a list of scenarios maps its members as one stack
(`gamma_map`, `map_rows` and `lattice.clark_ocone_sweep` with a member
axis) in one `iterate` loop, where each member leaves at the iteration
where it would stop alone.  Each member's iterates, iteration count and
traces are bit-identical to its solo solve, and the risk profiles of
`risk.solve_positions` to the one-payoff solve of `_oracles.solo_rho`.
"""

import json
from dataclasses import astuple

import numpy as np
import pytest

from mfbdsvie import risk, solver
from mfbdsvie.cli import run
from mfbdsvie.drivers import LinearDriver, TerminalSpec, ZPart
from mfbdsvie.errors import NoConvergence, ValidationError
from mfbdsvie.lattice import build_lattice
from mfbdsvie.solver import Scenario, picard_solve

from _oracles import solo_rho
from test_cli import _never, write_scenario
from test_solve_once import _count, _verify_suite
from test_sweep import DRIVERS, TERMINAL

# terminals whose solves stop after different numbers of iterations
TERMINALS = [TERMINAL, TerminalSpec(phi=1e-3),
             TerminalSpec(phi=5.0, theta=-2.0, smooth=[("tanh", 3.0)]),
             TERMINAL.scaled(0.01)]


def _same_bits(a, b):
    return np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


def _report_bits(rep):
    return json.dumps(astuple(rep))


def _recording(monkeypatch, module, name, sink):
    """Record the arguments and result of each call of module.name."""
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append((args, out))
        return out

    monkeypatch.setattr(module, name, recorder)


class TestMembersAsSolo:
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_bit_identical_to_solo_solves(self, name, n):
        lat = build_lattice(n, 1.0)
        scs = [Scenario(lat, DRIVERS[name], t) for t in TERMINALS]
        ys, zs, reps = picard_solve(scs, tol=1e-12)
        assert len({rep.iterations for rep in reps}) > 1
        for sc, y, z, rep in zip(scs, ys, zs, reps, strict=True):
            y0, z0, rep0 = picard_solve(sc, tol=1e-12)
            assert _same_bits(y, y0) and _same_bits(z, z0)
            assert _report_bits(rep) == _report_bits(rep0)

    def test_frozen_member_leaves_the_batch(self, monkeypatch):
        scs = [Scenario(build_lattice(4, 1.0), DRIVERS["risk_smooth_abs"], t)
               for t in TERMINALS]
        maps = _count(monkeypatch, solver, "gamma_map")
        _, _, reps = picard_solve(scs, tol=1e-12)
        sizes = [len(args[0]) for args in maps]
        assert sizes[0] == len(scs) and sizes[-1] < len(scs)
        assert sizes == sorted(sizes, reverse=True)
        for sc, rep in zip(scs, reps):
            assert sum(sc in args[0] for args in maps) == rep.iterations

    def test_one_member_is_a_view(self):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS["risk_smooth_abs"],
                      TERMINAL)
        y, z, _ = picard_solve(sc, tol=1e-12, report=False)
        for x in (y, z):
            stacked = solver._stacked([x])
            assert np.shares_memory(stacked.values, x.values)
            assert stacked.values.shape == (1,) + x.values.shape

    def test_sup_trace(self):
        sc = Scenario(build_lattice(4, 1.0), DRIVERS["linear_mean_field"],
                      TERMINAL)
        _, _, rep = picard_solve(sc, tol=1e-12)
        assert len(rep.sup_trace) == rep.iterations
        assert rep.sup_trace[-1] <= 1e-12
        assert all(d > 1e-12 for d in rep.sup_trace[:-1])


class TestRiskDocuments:
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("key", ["risk_convex", "risk_coherent",
                                     "risk_past"])
    def test_profiles_bit_identical_to_solo(self, tmp_path, monkeypatch,
                                            seed, key):
        solves, loops = [], []
        _recording(monkeypatch, risk, "solve_positions", solves)
        _recording(monkeypatch, solver, "iterate", loops)
        path = write_scenario(tmp_path, _verify_suite(seed)[key])
        assert run("risk", str(path), str(tmp_path / "out")) == 0
        (rs, positions), _ = solves[0]
        members = list(dict.fromkeys(positions))
        assert set(rs._profiles) == set(members)
        (_, (_, iterations, _)), = loops
        for m, p in enumerate(members):
            assert _same_bits(rs._profiles[p], solo_rho(rs, p))
            sc = Scenario(rs.lattice, rs.driver, p.zeta.negated(),
                          beta=rs.beta, safety=rs.safety)
            _, _, rep = picard_solve(sc, tol=rs.tol, max_iter=rs.max_iter)
            assert iterations[m] == rep.iterations


class TestRefusals:
    LAT = build_lattice(3, 1.0)

    @pytest.mark.parametrize("other", [
        dict(lattice=build_lattice(4, 1.0)),
        dict(driver=LinearDriver(f={"y": -0.2})),
        dict(beta=30.0),
    ], ids=["lattice", "driver", "beta"])
    def test_mixed_batch_refused_before_any_map(self, monkeypatch, other):
        monkeypatch.setattr(solver, "gamma_map", _never)
        driver = LinearDriver(f={"y": -0.2})
        first = Scenario(self.LAT, driver, TERMINAL, beta=20.0)
        args = dict(lattice=self.LAT, driver=driver, terminal=TERMINAL,
                    beta=20.0) | other
        with pytest.raises(ValidationError, match="member 1 differs"):
            picard_solve([first, Scenario(**args)])

    def test_empty_batch_refused(self):
        with pytest.raises(ValidationError):
            picard_solve([])

    def test_unconverged_member_named_and_nothing_kept(self):
        # alone, the small position stops after 6 iterations, the large
        # one after 12
        rs = risk.RiskSpec(self.LAT, 0.1, h=ZPart("smooth_abs", k1=0.3),
                           max_iter=6)
        small = risk.PayoffStream(TerminalSpec(phi=1e-6))
        large = risk.PayoffStream(TerminalSpec(phi=100.0, theta=3.0))
        with pytest.raises(NoConvergence, match=r"^member 1: max_iter=6 "):
            risk.solve_positions(rs, [small, large])
        assert rs._profiles == {}
        risk.solve_positions(rs, [small])
        assert list(rs._profiles) == [small]

    def test_one_member_message_unchanged(self):
        sc = Scenario(self.LAT, DRIVERS["risk_smooth_abs"], TERMINAL)
        with pytest.raises(NoConvergence, match=r"^max_iter=2 hit with"):
            picard_solve(sc, tol=1e-12, max_iter=2)


class TestEqualPayoffs:
    def test_equal_documents_are_one_position(self, tmp_path, monkeypatch):
        doc = _verify_suite(3)["risk_past"]
        assert doc["risk"]["payoff2"] == doc["risk"]["payoff"]
        calls = _count(monkeypatch, solver, "iterate")
        path = write_scenario(tmp_path, doc)
        assert run("risk", str(path), str(tmp_path / "one")) == 0
        assert [len(args[1]) for args in calls] == [1]
        # the same terminal written differently is a second position, with
        # the same verdict, gap 0.0 and files
        doc["risk"]["payoff2"] = dict(doc["risk"]["payoff"])
        doc["risk"]["payoff2"]["params"] = dict(
            doc["risk"]["payoff"]["params"], smooth=[])
        path = write_scenario(tmp_path, doc, "two.json")
        assert run("risk", str(path), str(tmp_path / "two")) == 0
        assert [len(args[1]) for args in calls] == [1, 2]
        for name in ("risk_axioms.csv", "rho.csv", "summary.txt"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())


class _Built(Exception):
    """Raised in place of the solve once a batch's scenarios are built."""


class TestSharedSource:
    """The positions of one batch share the driver's source bound."""

    @staticmethod
    def spec(n, monkeypatch):
        rs = risk.RiskSpec(build_lattice(n, 1.0), 0.1,
                           h=ZPart("smooth_abs", k1=0.3),
                           g=ZPart("linear", k1=0.05))
        calls = {"f_values": 0, "g_values": 0}
        for name in calls:
            def counting(*args, name=name, fn=getattr(rs.driver, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(rs.driver, name, counting)

        def built(scs, **kwargs):
            raise _Built(len(scs))

        monkeypatch.setattr(risk, "picard_solve", built)
        return rs, calls

    def test_one_source_for_four_positions(self, monkeypatch):
        n = 4
        rs, calls = self.spec(n, monkeypatch)
        positions = [risk.PayoffStream(TerminalSpec(phi=c))
                     for c in (0.1, 0.2, 0.3, 0.4)]
        with pytest.raises(_Built, match="4"):
            risk.solve_positions(rs, positions)
        # one f and one g call a slot: 2N, not 4 x 2N; and each scenario's
        # one probe of f and of g (`Scenario.swapped`)
        assert calls == {"f_values": n + 4, "g_values": n + 4}

    def test_each_member_checks_its_own_terminal(self, monkeypatch):
        rs, _ = self.spec(4, monkeypatch)
        positions = [risk.PayoffStream(TerminalSpec(phi=c)) for c in (0.1, 1e160)]
        with pytest.raises(ValidationError, match="overflows a float"):
            risk.solve_positions(rs, positions)
