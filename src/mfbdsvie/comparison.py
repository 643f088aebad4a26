"""Order comparison between two solved equations.

Given reduced drivers f1 <= fbar <= f2 (no swapped-kernel arguments),
a shared g, ordered terminals, and fbar nondecreasing in the state y
and the mean argument, the solutions are ordered pathwise: Y1 <= Y2 on
every node and path.  The certificate is constructive: the auxiliary
chain freezes the mean argument at the previous sweep,

    chain_0 = Y2,
    chain_p solves the equation with driver fbar, terminal zetabar and
    the mean argument pinned to E[chain_{p-1}(s)],

and is pathwise nonincreasing with the limit sandwiched between the
two solutions.  Hypotheses are audited by sampling before anything is
solved; audit failures abort rather than produce a vacuous verdict.
The chain can start from the verdict of `compare_solve`, so a run that
checks both audits and solves the upper problem once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .drivers import DriverSpec, TerminalSpec, terminal_table
from .errors import HypothesisViolated, MonotonicityBroken, ValidationError
from .fields import AdaptedPath, node_gaps
from .lattice import LatticeSpec
from .solver import Scenario, check_settings, picard_solve

ROUNDING_SLACK = 1e-12


class FrozenMeanDriver(DriverSpec):
    """Wrapper pinning the mean argument of f and g to grid values."""

    family = "frozen-mean"

    def __init__(self, base: DriverSpec, mu: Sequence[float], dt: float):
        self.base = base
        self.mu = np.asarray(mu, dtype=float)
        self.dt = dt
        self.lipschitz_c = base.lipschitz_c
        self.lipschitz_alpha = base.lipschitz_alpha

    def _frozen(self, s: float) -> float:
        j = int(round(s / self.dt))
        if not 0 <= j < len(self.mu):
            raise ValidationError(f"frozen mean lookup off the grid: s={s}")
        return float(self.mu[j])

    def f_values(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        return self.base.f_values(t, s, y, z, z_rev, self._frozen(s),
                                  mean_z, mean_z_rev)

    def g_values(self, t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev):
        return self.base.g_values(t, s, y, z, z_rev, self._frozen(s),
                                  mean_z, mean_z_rev)


@dataclass
class ComparisonScenario:
    """Sandwiched problem pair plus the middle driver of the proof.

    The solve settings (tol, max_iter) are checked when the scenario is
    built and are fixed once built: a verdict holds solutions made with
    them, and the chain reuses it.
    """

    lattice: LatticeSpec
    f1: DriverSpec
    fbar: DriverSpec
    f2: DriverSpec
    g: DriverSpec
    zeta1: TerminalSpec
    zeta2: TerminalSpec
    zetabar: TerminalSpec | None = None
    beta: float | None = None
    safety: float = 1.5
    tol: float = 1e-12
    max_iter: int = 300

    def __post_init__(self):
        check_settings(self.tol, self.max_iter)

    def middle_terminal(self) -> TerminalSpec:
        return self.zetabar if self.zetabar is not None else self.zeta2

    def scenario(self, which: str) -> Scenario:
        driver = {"1": self.f1, "2": self.f2}[which]
        term = {"1": self.zeta1, "2": self.zeta2}[which]
        return Scenario(self.lattice, _CombinedDriver(driver, self.g),
                        term, beta=self.beta, safety=self.safety)


class _CombinedDriver(DriverSpec):
    """f from one spec, g from another (the pair shares g)."""

    family = "combined"

    def __init__(self, f_spec: DriverSpec, g_spec: DriverSpec):
        self.f_spec = f_spec
        self.g_spec = g_spec
        self.lipschitz_c = f_spec.lipschitz_c
        self.lipschitz_alpha = g_spec.lipschitz_alpha

    def f_values(self, t, s, *args):
        return self.f_spec.f_values(t, s, *args)

    def g_values(self, t, s, *args):
        return self.g_spec.g_values(t, s, *args)


@dataclass
class HypothesesReport:
    worst_order_low: float      # max of f1 - fbar over samples
    worst_order_high: float     # max of fbar - f2
    worst_monotone_y: float     # max decrease of fbar along increasing y
    worst_monotone_mean: float  # same along the mean argument
    worst_reduced_form: float   # sensitivity to swapped-kernel arguments
    worst_terminal_order: float  # max of zeta1 - zeta2 pathwise

    @property
    def passed(self) -> bool:
        return max(
            self.worst_order_low, self.worst_order_high,
            self.worst_monotone_y, self.worst_monotone_mean,
            self.worst_reduced_form, self.worst_terminal_order,
        ) <= ROUNDING_SLACK


def check_hypotheses(cs: ComparisonScenario, n_samples: int = 400,
                     seed: int = 20240604) -> HypothesesReport:
    """Sampled audit of the ordering and monotonicity hypotheses; fewer
    than one sample would pass it vacuously, so it is refused."""
    if n_samples < 1:
        raise ValidationError(f"n_samples={n_samples} must be >= 1")
    report = _sample_hypotheses(cs, n_samples, seed)
    if not report.passed:
        raise HypothesisViolated(
            f"order low/high = {report.worst_order_low:.3e}/"
            f"{report.worst_order_high:.3e}, monotone y/mean = "
            f"{report.worst_monotone_y:.3e}/{report.worst_monotone_mean:.3e}, "
            f"reduced form = {report.worst_reduced_form:.3e}, "
            f"terminal order = {report.worst_terminal_order:.3e}"
        )
    return report


def _sample_hypotheses(cs: ComparisonScenario, n_samples: int, seed: int
                       ) -> HypothesesReport:
    """The six worst values of the audit.

    The draws come from the standard library's `random.Random(seed)`, so
    the audit never loads `numpy.random`.  They are made sample by sample
    (t, s, y, z, ybar, dy, zr, mzr, mz) into one (9, n) array, then each
    driver is called once per argument set on the arrays of all samples.
    The worst value is the largest over the samples, skipping nan as a
    running max does.
    """
    rng = random.Random(seed)
    lat = cs.lattice
    draws = []
    for _ in range(n_samples):
        t = rng.uniform(0.0, lat.horizon)
        draws.append((t, rng.uniform(t, lat.horizon),
                      *(rng.gauss(0.0, 2.0) for _ in range(3)),
                      abs(rng.gauss(0.0, 1.0)),
                      *(rng.gauss(0.0, 3.0) for _ in range(3))))
    t, s, y, z, ybar, dy, zr, mzr, mz = np.array(draws).T

    def worst(v):
        v = np.broadcast_to(v, t.shape)
        return float(np.max(v, initial=-np.inf, where=~np.isnan(v)))

    args = (y, z, 0.0, ybar, 0.0, 0.0)
    swapped = (y, z, zr, ybar, mz, mzr)
    v1 = cs.f1.f_values(t, s, *args)
    vb = cs.fbar.f_values(t, s, *args)
    v2 = cs.f2.f_values(t, s, *args)
    up_y = cs.fbar.f_values(t, s, y + dy, z, 0.0, ybar, 0.0, 0.0)
    up_m = cs.fbar.f_values(t, s, y, z, 0.0, ybar + dy, 0.0, 0.0)
    # reduced form: nothing may read the swapped-kernel slots
    rf = [np.abs(d.f_values(t, s, *swapped) - v)
          for d, v in ((cs.f1, v1), (cs.fbar, vb), (cs.f2, v2))]
    rf.append(np.abs(cs.g.g_values(t, s, *swapped)
                     - cs.g.g_values(t, s, *args)))
    term_gap = np.max(terminal_table(cs.zeta1, lat)
                      - terminal_table(cs.zeta2, lat))
    return HypothesesReport(
        worst_order_low=worst(v1 - vb), worst_order_high=worst(vb - v2),
        worst_monotone_y=worst(vb - up_y),
        worst_monotone_mean=worst(vb - up_m),
        worst_reduced_form=max(map(worst, rf)),
        worst_terminal_order=float(term_gap),
    )


@dataclass
class ComparisonVerdict:
    min_gap_by_node: list[float]
    min_gap: float
    passed: bool
    y1: AdaptedPath = field(repr=False, default=None)
    y2: AdaptedPath = field(repr=False, default=None)
    scenario: ComparisonScenario = field(repr=False, default=None)


def compare_solve(cs: ComparisonScenario, gap_slack: float = 1e-10
                  ) -> ComparisonVerdict:
    """Audit hypotheses, solve both problems, report the pathwise gap."""
    check_hypotheses(cs)
    sc1, sc2 = cs.scenario("1"), cs.scenario("2")  # both validated first
    y1, _, _ = picard_solve(sc1, tol=cs.tol, max_iter=cs.max_iter,
                            report=False)
    y2, _, _ = picard_solve(sc2, tol=cs.tol, max_iter=cs.max_iter,
                            report=False)
    gaps = np.min(y2.values - y1.values, axis=-1).tolist()
    min_gap = min(gaps)
    return ComparisonVerdict(
        min_gap_by_node=gaps, min_gap=min_gap,
        passed=min_gap >= -gap_slack, y1=y1, y2=y2, scenario=cs,
    )


def monotone_iteration(cs: ComparisonScenario, p_max: int,
                       verdict: ComparisonVerdict | None = None
                       ) -> list[AdaptedPath]:
    """The frozen-mean auxiliary chain, checked nonincreasing pathwise.

    Returns [chain_0, ..., chain_{p_max}] with chain_0 the solution of
    the upper problem.  Given the verdict of `compare_solve(cs)`, the
    chain starts at its upper solution without a second audit or solve;
    a verdict on another scenario is refused.  A pathwise increase beyond
    rounding slack aborts with diagnostics instead of being absorbed.
    """
    if verdict is None:
        check_hypotheses(cs)
        y2, _, _ = picard_solve(cs.scenario("2"), tol=cs.tol,
                                max_iter=cs.max_iter, report=False)
    elif verdict.scenario is not cs:
        raise ValidationError("the verdict was reached on another "
                              "comparison scenario")
    else:
        y2 = verdict.y2
    lat = cs.lattice
    chain = [y2]
    zetabar = cs.middle_terminal()
    for p in range(1, p_max + 1):
        mu = np.mean(chain[-1].values, axis=-1)
        frozen = FrozenMeanDriver(_CombinedDriver(cs.fbar, cs.g), mu, lat.dt)
        sc = Scenario(lat, frozen, zetabar, beta=cs.beta, safety=cs.safety)
        yp, _, _ = picard_solve(sc, tol=cs.tol, max_iter=cs.max_iter,
                                report=False)
        for i, rise in node_gaps(yp, chain[-1]):
            if rise > ROUNDING_SLACK:
                raise MonotonicityBroken(
                    f"chain step {p} rose by {rise:.3e} at node {i}"
                )
        chain.append(yp)
    return chain
