"""The Picard settings are checked before any map (`solver.check_settings`).

max_iter is an integer that `operator.index` takes, but not a bool, and
tol a real number, not a bool either; numpy's integers and floats pass.
`picard_solve`, `solver.iterate`, `risk.RiskSpec` and
`comparison.ComparisonScenario` share the check, so each refuses a setting
the loop could not run with `ValidationError`.
"""

import numpy as np
import pytest

from mfbdsvie import solver
from mfbdsvie.comparison import ComparisonScenario
from mfbdsvie.drivers import LinearDriver, TerminalSpec
from mfbdsvie.errors import ValidationError
from mfbdsvie.lattice import build_lattice
from mfbdsvie.risk import RiskSpec
from mfbdsvie.solver import Scenario, picard_solve

from test_cli import _never

LAT = build_lattice(2, 1.0)
REFUSED = [
    ({"max_iter": 2.5}, r"^max_iter=2\.5 must be an integer$"),
    ({"max_iter": float("inf")}, r"^max_iter=inf must be an integer$"),
    ({"max_iter": "3"}, r"^max_iter='3' must be an integer$"),
    ({"max_iter": True}, r"^max_iter=True must be an integer$"),
    ({"max_iter": np.bool_(True)}, r"must be an integer$"),
    ({"tol": "1e-9"}, r"^tol='1e-9' must be a real number$"),
    ({"tol": None}, r"^tol=None must be a real number$"),
    ({"tol": True}, r"^tol=True must be a real number$"),
    ({"tol": False}, r"^tol=False must be a real number$"),
    ({"tol": np.bool_(True)}, r"must be a real number$"),
]
ACCEPTED = [{"max_iter": np.int64(50)}, {"max_iter": np.uint8(50)},
            {"tol": np.float64(1e-9)}, {"tol": np.float32(1e-6)}]


def ids(settings):
    return ",".join(f"{k}={v!r}" for k, v in settings.items())


def solve(settings):
    return picard_solve(Scenario(LAT, LinearDriver(f={"y": -0.2}),
                                 TerminalSpec(phi=0.3)),
                        **{"tol": 1e-9, **settings})


def loop(settings):
    def step(members, y, z, out):  # the zero pair is its own image
        for table in out[:2]:
            table.fill(0.0)
        return out[:2]

    return solver.iterate(step, {0: None}, LAT,
                          **{"tol": 1e-9, "max_iter": 50, **settings})


def risk_spec(settings):
    return RiskSpec(LAT, 0.1, **settings)


def comparison(settings):
    return ComparisonScenario(LAT, *[LinearDriver()] * 4, TerminalSpec(),
                              TerminalSpec(), **settings)


BUILDERS = {"picard_solve": solve, "iterate": loop, "RiskSpec": risk_spec,
            "ComparisonScenario": comparison}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("settings, message", REFUSED,
                         ids=[ids(s) for s, _ in REFUSED])
def test_refused_before_any_map(monkeypatch, build, settings, message):
    monkeypatch.setattr(solver, "gamma_map", _never)
    with pytest.raises(ValidationError, match=message):
        build(settings)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("settings", ACCEPTED, ids=map(ids, ACCEPTED))
def test_numpy_numbers_pass(build, settings):
    build(settings)
