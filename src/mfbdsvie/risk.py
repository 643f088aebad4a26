"""Dynamic risk measures read off the discounting-family equation.

The risk of a position stream zeta is rho(t) = Y(t) where (Y, Z)
solves the equation with terminal -zeta, driver

    f(t, s, y, z, mean_y) = -r(s)/2 (y + mean_y) + h(z),     g = g(z),

with a deterministic rate r.  The discrete translation identity is
exact: shifting the position by a constant c moves rho(t_i) by
-c * prod_{j >= i} (1 + r(s_j) dt)^(-1), the lattice analogue of the
continuous discount factor exp(-int_t^T r), because the product
telescopes through the y-part of the driver while the kernel is
untouched.

Axiom checks solve the equation for the payoffs involved and compare
pathwise, each payoff once per risk spec (the spec keeps the profiles it
solved); structural requirements (convexity of h, affinity or
additivity of g, positive homogeneity) are flags of the z-maps, derived
from the kind and the signs of k0 and k1, and `check_premises` refuses
an axiom whose flags or scale fail, all before any solve.

The positions of a spec differ only in the terminal, so `solve_positions`
solves every one not yet solved as a member of one batched Picard solve
(`solver.picard_solve` on a list of scenarios, one stack per map and each
member stopping as it would alone).  An axiom reads its positions from
`axiom_positions`, which builds the derived ones (shifted, scaled, mixed,
pooled) once per spec, so a caller can solve them all ahead in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .drivers import RiskDriver, TerminalSpec, ZPart, _as_time_fn
from .errors import FlagMissing, ValidationError
from .fields import AdaptedPath, node_gaps
from .lattice import LatticeSpec
from .solver import Scenario, check_settings, picard_solve

AXIOM_SLACK = 1e-10


@dataclass(frozen=True)
class PayoffStream:
    """A position process: one terminal-field variable per grid time."""

    zeta: TerminalSpec


class RiskSpec:
    """Rate, z-maps and lattice for one risk measure.

    Its settings are checked when it is built and are fixed once built:
    the profiles solved, one per payoff, and the positions the axioms
    derived are kept on the spec.  A rate with no declared bound takes
    its bound on the grid (`grid_rate_bound`).
    """

    def __init__(self, lattice: LatticeSpec, rate, h: ZPart | None = None,
                 g: ZPart | None = None, beta: float | None = None,
                 safety: float = 1.5, tol: float = 1e-12,
                 max_iter: int = 300, rate_bound: float | None = None):
        check_settings(tol, max_iter)
        self.lattice = lattice
        if rate_bound is None:
            rate_bound = grid_rate_bound(rate, lattice)
        self.driver = RiskDriver(rate, h=h, g=g, rate_bound=rate_bound)
        self.beta = beta
        self.safety = safety
        self.tol = tol
        self.max_iter = max_iter
        self._profiles: dict[PayoffStream, AdaptedPath] = {}
        self._derived: dict[tuple, PayoffStream] = {}
        check_rate_grid(self.driver, lattice)

    @property
    def h(self) -> ZPart:
        return self.driver.h

    @property
    def g(self) -> ZPart:
        return self.driver.g


def grid_rate_bound(rate, lattice: LatticeSpec) -> float:
    """The largest |rate| at the grid nodes, the only times a solve reads
    the rate at; rate is a number or a function of time."""
    rate = _as_time_fn(rate)
    return float(max(abs(rate(lattice.node(j)))
                     for j in range(lattice.n_steps + 1)))


def check_rate_grid(driver: RiskDriver, lattice: LatticeSpec) -> None:
    """Refuse a rate above its declared bound at a grid node."""
    grid_bound = grid_rate_bound(driver.rate, lattice)
    if grid_bound > driver.rate_bound + 1e-12:
        raise ValidationError(f"rate exceeds its declared bound on the grid: "
                              f"{grid_bound} > {driver.rate_bound}")


def solve_positions(rs: RiskSpec, positions) -> None:
    """Solve each position the spec has not solved yet, all as the members
    of one batched `picard_solve`; the profiles are kept only once every
    member has converged."""
    todo = list(dict.fromkeys(p for p in positions if p not in rs._profiles))
    if not todo:
        return
    scs = [Scenario(rs.lattice, rs.driver, p.zeta.negated(), beta=rs.beta,
                    safety=rs.safety) for p in todo]
    ys, _, _ = picard_solve(scs, tol=rs.tol, max_iter=rs.max_iter,
                            report=False)
    rs._profiles.update(zip(todo, ys))


def rho(rs: RiskSpec, p: PayoffStream) -> AdaptedPath:
    """Risk profile of the position stream, solved once per spec.

    The profile is write-locked, so every axiom that reads p shares it.
    """
    solve_positions(rs, [p])
    return rs._profiles[p]


def axiom_positions(rs: RiskSpec, axiom: str, p1: PayoffStream,
                    p2: PayoffStream | None = None, c: float = 1.0,
                    lam: float = 0.5) -> list[PayoffStream]:
    """The positions an axiom reads, in the order it reads them: the one
    it derives from p1 (and p2) with the shift c or the scale or weight
    lam, if any, then its inputs.  A derived position is built once per
    spec and kept, keyed by what it reads: profiles are kept by position,
    so it is solved once, whoever asks for it."""
    derived = {
        "translation": ((p1,), c, lambda: p1.zeta.shifted(c)),
        "positive_homogeneity": ((p1,), lam, lambda: p1.zeta.scaled(lam)),
        "convexity": ((p1, p2), lam, lambda: p1.zeta.mixed(p2.zeta, lam)),
        "subadditivity": ((p1, p2), None, lambda: p1.zeta.plus(p2.zeta)),
    }
    if axiom not in derived:  # past independence, monotonicity
        return [p1, p2]
    inputs, arg, build = derived[axiom]
    key = (axiom, *inputs, arg)
    if key not in rs._derived:
        rs._derived[key] = PayoffStream(build())
    return [rs._derived[key], *inputs]


def _profiles(rs: RiskSpec, axiom: str, *args, **kwargs
              ) -> list[AdaptedPath]:
    """The profiles of an axiom's positions, solved as one batch."""
    positions = axiom_positions(rs, axiom, *args, **kwargs)
    solve_positions(rs, positions)
    return [rs._profiles[p] for p in positions]


def discount_factors(rs: RiskSpec) -> np.ndarray:
    """P_i = prod_{j >= i} (1 + r(s_j) dt)^(-1) over grid nodes."""
    lat = rs.lattice
    out = np.ones(lat.n_steps + 1)
    for i in range(lat.n_steps - 1, -1, -1):
        out[i] = out[i + 1] / (1.0 + rs.driver.rate(lat.node(i)) * lat.dt)
    return out


def check_premises(rs: RiskSpec, axiom: str, lam: float = 0.5) -> None:
    """Refuse an axiom whose premises fail, before anything is solved: the
    z-map flags it needs, and the scale lam of convexity (in [0, 1]) and of
    positive homogeneity (> 0)."""
    if axiom == "convexity":
        if not rs.h.convex:
            raise FlagMissing("convexity needs a convex h z-map")
        if rs.g.kind not in ("zero", "linear", "affine"):
            raise FlagMissing("convexity needs an affine g z-map")
        if not 0 <= lam <= 1:
            raise ValidationError(f"convexity needs lambda in [0, 1], got {lam}")
    elif axiom == "positive_homogeneity":
        if not lam > 0:
            raise ValidationError("homogeneity is a positive-scale statement")
        if not (rs.h.positively_homogeneous and rs.g.positively_homogeneous):
            raise FlagMissing("homogeneity needs positively homogeneous h and g")
    elif axiom == "subadditivity":
        if not rs.h.subadditive:
            raise FlagMissing("subadditivity needs a subadditive h z-map")
        if not rs.g.additive:
            raise FlagMissing("subadditivity needs an additive g z-map")


@dataclass
class AxiomReport:
    axiom: str
    worst_violation: float
    passed: bool
    rows: list[tuple] = field(default_factory=list)


def _report(axiom: str, rows: list[tuple]) -> AxiomReport:
    """The verdict on per-node rows whose last entry is the gap."""
    worst = max([row[-1] for row in rows] + [0.0])
    return AxiomReport(axiom, worst, worst <= AXIOM_SLACK, rows)


def axiom_past_independence(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream,
                            t_idx: int) -> AxiomReport:
    """rho at and after t_idx only reads the positions there."""
    r1, r2 = _profiles(rs, "past_independence", p1, p2)
    return _report("past_independence", node_gaps(
        r1, r2, from_node=t_idx, absolute=True))


def axiom_monotonicity(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream
                       ) -> AxiomReport:
    """Positions ordered p1 <= p2 produce risks ordered the other way."""
    r1, r2 = _profiles(rs, "monotonicity", p1, p2)
    return _report("monotonicity", node_gaps(r2, r1))


def axiom_translation(rs: RiskSpec, p: PayoffStream, c: float) -> AxiomReport:
    """Shifting the position by c moves rho by -c times the discount."""
    shifted, base = _profiles(rs, "translation", p, c=c)
    diff = shifted.values - base.values
    predicted = -c * discount_factors(rs)
    gaps = np.max(np.abs(diff - predicted[:, None]), axis=-1)
    return _report("translation", list(zip(
        range(len(diff)), np.mean(diff, axis=-1).tolist(), predicted.tolist(),
        gaps.tolist())))


def axiom_convexity(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream,
                    lam: float) -> AxiomReport:
    """Mixing positions cannot increase risk beyond the mixed risks."""
    check_premises(rs, "convexity", lam)
    rmix, r1, r2 = _profiles(rs, "convexity", p1, p2, lam=lam)
    bound = AdaptedPath(rs.lattice, lam * r1.values + (1 - lam) * r2.values)
    return _report("convexity", node_gaps(rmix, bound))


def axiom_positive_homogeneity(rs: RiskSpec, p: PayoffStream, lam: float
                               ) -> AxiomReport:
    """rho(lam zeta) = lam rho(zeta) for lam > 0 under homogeneous maps."""
    check_premises(rs, "positive_homogeneity", lam)
    scaled, base = _profiles(rs, "positive_homogeneity", p, lam=lam)
    return _report("positive_homogeneity", node_gaps(
        scaled, AdaptedPath(rs.lattice, lam * base.values), absolute=True))


def axiom_subadditivity(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream
                        ) -> AxiomReport:
    """Pooling positions cannot exceed the sum of the risks."""
    check_premises(rs, "subadditivity")
    pooled, r1, r2 = _profiles(rs, "subadditivity", p1, p2)
    return _report("subadditivity", node_gaps(
        pooled, AdaptedPath(rs.lattice, r1.values + r2.values)))
