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
pathwise; structural requirements (convexity of h, affinity or
additivity of g, positive homogeneity) are declared by the z-map kind
and audited by sampling before any solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .drivers import RiskDriver, TerminalSpec, ZPart
from .errors import FlagMissing, ValidationError
from .fields import AdaptedPath, node_gaps
from .lattice import LatticeSpec
from .solver import Scenario, picard_solve

AXIOM_SLACK = 1e-10


@dataclass(frozen=True)
class PayoffStream:
    """A position process: one terminal-field variable per grid time."""

    zeta: TerminalSpec


class RiskSpec:
    """Rate, z-maps and lattice for one risk measure."""

    def __init__(self, lattice: LatticeSpec, rate, h: ZPart | None = None,
                 g: ZPart | None = None, beta: float | None = None,
                 safety: float = 1.5, tol: float = 1e-12,
                 max_iter: int = 300, rate_bound: float | None = None):
        self.lattice = lattice
        self.driver = RiskDriver(rate, h=h, g=g, rate_bound=rate_bound)
        self.beta = beta
        self.safety = safety
        self.tol = tol
        self.max_iter = max_iter
        audit_z_flags(self.driver.h)
        audit_z_flags(self.driver.g)
        grid_bound = max(
            abs(self.driver.rate(lattice.node(j)))
            for j in range(lattice.n_steps + 1)
        )
        if grid_bound > self.driver.rate_bound + 1e-12:
            raise ValidationError(
                f"rate exceeds its declared bound on the grid: "
                f"{grid_bound} > {self.driver.rate_bound}"
            )

    @property
    def h(self) -> ZPart:
        return self.driver.h

    @property
    def g(self) -> ZPart:
        return self.driver.g

    def _solve(self, term: TerminalSpec) -> AdaptedPath:
        sc = Scenario(self.lattice, self.driver, term,
                      beta=self.beta, safety=self.safety)
        y, _, _ = picard_solve(sc, tol=self.tol, max_iter=self.max_iter)
        return y


def audit_z_flags(part: ZPart, n_samples: int = 200,
                  seed: int = 20240605) -> None:
    """Sampled consistency check of the declared structure flags."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n_samples) * 3.0
    z2 = rng.standard_normal(n_samples) * 3.0
    lam = rng.uniform(0.0, 1.0, n_samples)
    v1, v2 = part.value(z1), part.value(z2)
    if part.convex:
        mid = part.value(lam * z1 + (1 - lam) * z2)
        if np.max(mid - (lam * v1 + (1 - lam) * v2)) > 1e-10:
            raise ValidationError(f"z-map '{part.kind}' is not convex")
    if part.positively_homogeneous:
        scale = rng.uniform(0.1, 4.0, n_samples)
        if np.max(np.abs(part.value(scale * z1) - scale * v1)) > 1e-10:
            raise ValidationError(
                f"z-map '{part.kind}' is not positively homogeneous"
            )
    if part.subadditive:
        if np.max(part.value(z1 + z2) - (v1 + v2)) > 1e-10:
            raise ValidationError(f"z-map '{part.kind}' is not subadditive")
    if part.additive:
        if np.max(np.abs(part.value(z1 + z2) - (v1 + v2))) > 1e-10:
            raise ValidationError(f"z-map '{part.kind}' is not additive")
    lip = part.lipschitz
    gaps = np.abs(v1 - v2)
    steps = np.abs(z1 - z2)
    if np.max(gaps - lip * steps) > 1e-10:
        raise ValidationError(f"z-map '{part.kind}' breaks its Lipschitz bound")


def rho(rs: RiskSpec, p: PayoffStream) -> AdaptedPath:
    """Risk profile of the position stream."""
    return rs._solve(p.zeta.negated())


def discount_factors(rs: RiskSpec) -> np.ndarray:
    """P_i = prod_{j >= i} (1 + r(s_j) dt)^(-1) over grid nodes."""
    lat = rs.lattice
    out = np.ones(lat.n_steps + 1)
    for i in range(lat.n_steps - 1, -1, -1):
        out[i] = out[i + 1] / (1.0 + rs.driver.rate(lat.node(i)) * lat.dt)
    return out


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
    return _report("past_independence", node_gaps(
        rho(rs, p1), rho(rs, p2), from_node=t_idx, absolute=True))


def axiom_monotonicity(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream
                       ) -> AxiomReport:
    """Positions ordered p1 <= p2 produce risks ordered the other way."""
    r1, r2 = rho(rs, p1), rho(rs, p2)
    return _report("monotonicity", node_gaps(r2, r1))


def axiom_translation(rs: RiskSpec, p: PayoffStream, c: float) -> AxiomReport:
    """Shifting the position by c moves rho by -c times the discount."""
    base = rho(rs, p)
    shifted = rho(rs, PayoffStream(p.zeta.shifted(c)))
    diff = shifted.values - base.values
    predicted = -c * discount_factors(rs)
    gaps = np.max(np.abs(diff - predicted[:, None]), axis=-1)
    return _report("translation", list(zip(
        range(len(diff)), np.mean(diff, axis=-1).tolist(), predicted.tolist(),
        gaps.tolist())))


def axiom_convexity(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream,
                    lam: float) -> AxiomReport:
    """Mixing positions cannot increase risk beyond the mixed risks."""
    if not rs.h.convex:
        raise FlagMissing("convexity needs a convex h z-map")
    if rs.g.kind not in ("zero", "linear", "affine"):
        raise FlagMissing("convexity needs an affine g z-map")
    rmix = rho(rs, PayoffStream(p1.zeta.mixed(p2.zeta, lam)))
    r1, r2 = rho(rs, p1), rho(rs, p2)
    bound = AdaptedPath(rs.lattice, lam * r1.values + (1 - lam) * r2.values)
    return _report("convexity", node_gaps(rmix, bound))


def axiom_positive_homogeneity(rs: RiskSpec, p: PayoffStream, lam: float
                               ) -> AxiomReport:
    """rho(lam zeta) = lam rho(zeta) for lam > 0 under homogeneous maps."""
    if lam <= 0:
        raise ValidationError("homogeneity is a positive-scale statement")
    if not (rs.h.positively_homogeneous and rs.g.positively_homogeneous):
        raise FlagMissing("homogeneity needs positively homogeneous h and g")
    scaled = rho(rs, PayoffStream(p.zeta.scaled(lam)))
    base = rho(rs, p)
    return _report("positive_homogeneity", node_gaps(
        scaled, AdaptedPath(rs.lattice, lam * base.values), absolute=True))


def axiom_subadditivity(rs: RiskSpec, p1: PayoffStream, p2: PayoffStream
                        ) -> AxiomReport:
    """Pooling positions cannot exceed the sum of the risks."""
    if not rs.h.subadditive:
        raise FlagMissing("subadditivity needs a subadditive h z-map")
    if not rs.g.additive:
        raise FlagMissing("subadditivity needs an additive g z-map")
    pooled = rho(rs, PayoffStream(p1.zeta.plus(p2.zeta)))
    r1, r2 = rho(rs, p1), rho(rs, p2)
    return _report("subadditivity", node_gaps(
        pooled, AdaptedPath(rs.lattice, r1.values + r2.values)))
