"""Fixed-point machinery for the discrete equation.

One application of the map takes a frozen pair (y, z) and produces the
new pair (Y, Z) solving the frozen-coefficient equation exactly on the
lattice.  For each node i it assembles

    Phi_i = zeta(t_i)
          + sum_{j >= i} f(t_i, s_j, y_j, z_ij, z_ji, E y_j, E z_ij, E z_ji) dt
          + sum_{j >= i} g(t_i, s_{j+1}, right-node frozen args) dB_j

with the g states read at the right grid node (kernel column N treated
as zero) so that dB_j is independent of the integrand's backward part,
then splits Phi_i against the forward walk:

    Y_i  = E[Phi_i | (i, i)],
    Z_ij = E[Phi_i dW_j | (j, j)] / dt     for j >= i,

and pins the lower triangle by the representation of Y_i.  For the
driver families shipped here (affine mean-field coefficients, and
nonlinearities that do not mix the swapped kernel argument into other
states) the split is exact pathwise:

    Phi_i = Y_i + sum_{j >= i} Z_ij dW_j   on every path,

which is what `residual` measures with self-consistent arguments.

The map is written once and shared: `frozen_args` reads the driver
arguments (the only place that knows the right-node convention),
`assemble_phi` builds Phi_i, `split_row` (from fields) splits it, and
`iterate` is the Picard loop.  The linearized flip equation (malliavin)
and the particle system (particles) are the same map with other
coefficients, other means and other lanes.

One application costs O(4^N), a few passes over the Phi tables, whose
sizes halve from row to row.  `assemble_phi` adds the slot terms
f dt + g dB_j in ascending j, so the running sum grows through the
fields (j + 1, i) and every addition is paid at its own size; each
driver output sits on the coarsest field it needs, and zeta_i, on the
widest field, comes last.  `split_row` is one backward sweep over the W
bits of Phi_i (the discrete Clark-Ocone formula): at bit j, the halved
difference over the bit divided by inc, averaged over the B bits
[i, j), is Z_ij, and then the bit is averaged out; Y_i falls out at bit
i, and the sweep goes on over Y_i for the lower triangle.

Iterating the map from (0, 0) contracts in the beta-weighted norm once
beta clears the threshold; the report keeps the successive-difference
trace so the empirical ratios can be held against the theoretical
contraction factor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drivers import (
    DriverSpec,
    TerminalSpec,
    beta_default,
    contraction_threshold,
    gamma_theory,
    terminal_rv,
)
from .errors import NoConvergence, ValidationError
from .fields import (
    AdaptedPath,
    BetaWeight,
    VolterraKernel,
    l_beta_norm,
    m_beta_norm,
    m_extend,
    pair_diff,
    pair_sup_diff,
    split_row,
    zero_kernel,
    zero_path,
)
from .lattice import (
    LatticeSpec,
    MeasurableRV,
    b_increment,
    bit_view,
    expectation,
    forward_integral,
    from_bit_view,
)

MAX_EXPONENT = math.log(sys.float_info.max)  # e^x overflows past this


class Scenario:
    """A validated problem instance: lattice + driver + terminal + beta."""

    def __init__(self, lattice: LatticeSpec, driver: DriverSpec,
                 terminal: TerminalSpec, beta: float | None = None,
                 safety: float = 1.5):
        if lattice.lanes != 1:
            raise ValidationError("scenarios run on single-lane lattices")
        threshold = contraction_threshold(driver, lattice.horizon)
        if beta is None:
            beta = beta_default(driver, lattice.horizon, safety)
        elif threshold > 0.0 and beta <= threshold:
            raise ValidationError(
                f"beta={beta} below the contraction threshold {threshold}"
            )
        if beta * lattice.node(lattice.n_steps) > MAX_EXPONENT:
            raise ValidationError(
                f"beta={beta} over horizon {lattice.horizon}: the weight "
                f"e^(beta t) overflows a float"
            )
        self.lattice = lattice
        self.driver = driver
        self.terminal = terminal
        self.beta = float(beta)
        self.zeta = tuple(
            terminal_rv(terminal, lattice, i)
            for i in range(lattice.n_steps + 1)
        )
        # the norms sum the weighted squared terminal: checked in logs
        peak = max(zeta_i.max_abs() for zeta_i in self.zeta)
        if peak and not (2 * math.log(peak) + math.log(
                _weight_mass(lattice, self.beta)) <= MAX_EXPONENT):
            raise ValidationError(f"terminal of size {peak:.3e}: its "
                                  f"weighted square overflows a float")

    @property
    def gamma_theory(self) -> float:
        return gamma_theory(self.driver, self.lattice.horizon, self.beta)


@dataclass
class SolverReport:
    """Iteration trace of one fixed-point run.

    The iteration stops once the pathwise sup-norm of the successive
    difference drops below tol (a beta-independent certificate for the
    pathwise residual contract).  diff_trace and ratio_trace hold the
    weighted-norm diffs the contraction theory speaks about, scaled by
    the square root of the total exponential weight mass so the entries
    stay on a pathwise scale; ratios are unaffected by the scaling.
    """

    iterations: int
    diff_trace: list[float]
    ratio_trace: list[float]
    gamma_theory: float
    final_residual: float
    final_norms: tuple[float, float]  # (restricted, full)


def _weight_mass(lat: LatticeSpec, beta: float) -> float:
    w = BetaWeight(beta)
    return sum(w.at(lat.node(i)) * lat.dt for i in range(lat.n_steps + 1))


def evaluate_driver(fn: Callable, t: float, s: float, args: tuple):
    """fn(t, s, *args) as lattice variables.

    Lattice-variable arguments are passed as bit views on the join of their
    fields and scalar arguments pass through, so the same call serves scalar
    means and the particles' random-variable empirical means.  Each output
    lives on the coarsest field its view needs (a constant partial on the
    trivial field), so later arithmetic is paid at that size.  A tuple
    result (the twelve partials) gives one lattice variable per component.
    """
    rvs = [a for a in args if isinstance(a, MeasurableRV)]
    f = rvs[0].field
    for a in rvs[1:]:
        f = f.join(a.field)
    out = fn(t, s, *[bit_view(a, f) if isinstance(a, MeasurableRV) else a
                     for a in args])
    if isinstance(out, tuple):
        return [from_bit_view(v, f) for v in out]
    return from_bit_view(out, f)


def frozen_args(y: AdaptedPath, z: VolterraKernel, ey, ez, i: int, j: int
                ) -> tuple[tuple, tuple]:
    """Frozen driver arguments of row i at slot j: (left, right).

    left feeds f at the left node (t_i, s_j); right feeds g at the right
    node (t_i, s_{j+1}), with kernel column N (and its mean) read as zero,
    so that dB_j is independent of the integrand.  Each tuple is in driver
    order (y, z, z_rev, mean_y, mean_z, mean_z_rev).  j ranges over
    i..N-1, so the swapped indices (j, i) and (j+1, i) are in range.
    """
    jr = j + 1
    last = jr == y.lattice.n_steps
    left = (y[j], z.at(i, j), z.at(j, i), ey[j], ez[i][j], ez[j][i])
    right = (y[jr], 0.0 if last else z.at(i, jr), z.at(jr, i),
             ey[jr], 0.0 if last else ez[i][jr], ez[jr][i])
    return left, right


def assemble_phi(driver: DriverSpec, zeta_i: MeasurableRV, y: AdaptedPath,
                 z: VolterraKernel, ey, ez, i: int, lane: int = 0
                 ) -> MeasurableRV:
    """Phi_i: the slot terms f dt + g dB_j over slots j >= i, then zeta_i.

    The slot terms are added in ascending j, so the running sum grows
    through the fields (j + 1, i) and each addition is paid at its own
    field's size; zeta_i, on the terminal field, comes last.  The backward
    increments are the given lane's.
    """
    lat = y.lattice
    t = lat.node(i)
    phi = None
    for j in range(i, lat.n_steps):
        left, right = frozen_args(y, z, ey, ez, i, j)
        term = (evaluate_driver(driver.f_values, t, lat.node(j), left) * lat.dt
                + evaluate_driver(driver.g_values, t, lat.node(j + 1), right)
                * b_increment(lat, lat.bit_of(j, lane)))
        phi = term if phi is None else phi + term
    return zeta_i if phi is None else phi + zeta_i


def iterate(step: Callable, start, distance: Callable, tol: float,
            max_iter: int):
    """Picard loop: apply step until distance(new, old) <= tol.

    Returns (state, iterations, last distance).
    """
    if not tol > 0:
        raise ValidationError(f"tol={tol} must be > 0")
    if not max_iter >= 1:
        raise ValidationError(f"max_iter={max_iter} must be >= 1")
    state = start
    for k in range(1, max_iter + 1):
        new = step(state)
        d = distance(new, state)
        state = new
        if d <= tol:
            return state, k, d
    raise NoConvergence(
        f"max_iter={max_iter} hit with successive difference {d:.3e} "
        f"> tol={tol}"
    )


def sup_distance(new, old) -> float:
    """Pathwise sup-norm distance between two (path, kernel) pairs."""
    return pair_sup_diff(*new, *old)


def means(y: AdaptedPath, z: VolterraKernel):
    """Expectations of every path and kernel entry (the mean arguments)."""
    return (np.mean(y.values, axis=-1).tolist(),
            np.mean(z.values, axis=-1).tolist())


def gamma_map(sc: Scenario, y: AdaptedPath, z: VolterraKernel,
              extend: bool = True) -> tuple[AdaptedPath, VolterraKernel]:
    """One exact application of the frozen-argument map.

    With extend=False the lower triangle of the result is left at zero
    instead of being pinned to the representation of the new Y; drivers
    that never read the swapped kernel argument produce identical upper
    triangles either way.
    """
    lat = sc.lattice
    ey, ez = means(y, z)
    ys, rows = [], []
    for i in range(lat.n_steps + 1):
        phi = assemble_phi(sc.driver, sc.zeta[i], y, z, ey, ez, i)
        yi, row = split_row(phi, i, first=0 if extend else i)
        ys.append(yi)
        rows.append(row)
    return AdaptedPath(lat, ys), VolterraKernel(lat, rows)


def representation_pair(sc: Scenario) -> tuple[AdaptedPath, VolterraKernel]:
    """The source-free solution: conditional terminal plus its kernel."""
    lat = sc.lattice
    ys, rows = zip(*(split_row(sc.zeta[i], i) for i in range(lat.n_steps + 1)))
    return AdaptedPath(lat, ys), VolterraKernel(lat, rows)


def residual(sc: Scenario, y: AdaptedPath, z: VolterraKernel) -> float:
    """Worst pathwise defect of the equation with self-consistent args."""
    n = sc.lattice.n_steps
    ey, ez = means(y, z)
    # the martingale sum grows through the fields (j + 1, i) like Phi_i
    return max((assemble_phi(sc.driver, sc.zeta[i], y, z, ey, ez, i) - y[i]
                - forward_integral(z.z[i], i, n)).max_abs()
               for i in range(n + 1))


def picard_solve(sc: Scenario, tol: float = 1e-10, max_iter: int = 200,
                 start: tuple[AdaptedPath, VolterraKernel] | None = None,
                 defer_extension: bool = False
                 ) -> tuple[AdaptedPath, VolterraKernel, SolverReport]:
    """Iterate the map until the successive difference drops below tol."""
    lat = sc.lattice
    w = BetaWeight(sc.beta)
    scale = 1.0 / np.sqrt(_weight_mass(lat, sc.beta))
    diffs: list[float] = []

    def step(pair):
        new = gamma_map(sc, *pair, extend=not defer_extension)
        diffs.append(scale * m_beta_norm(*pair_diff(*new, *pair), w))
        return new

    if start is None:
        start = zero_path(lat), zero_kernel(lat)
    (y, z), iterations, _ = iterate(step, start, sup_distance, tol, max_iter)
    if defer_extension:
        z = m_extend(y, z)
    ratios = [
        diffs[k] / diffs[k - 1] if diffs[k - 1] > 0 else 0.0
        for k in range(1, len(diffs))
    ]
    report = SolverReport(
        iterations=iterations,
        diff_trace=diffs,
        ratio_trace=ratios,
        gamma_theory=sc.gamma_theory,
        final_residual=residual(sc, y, z),
        final_norms=(m_beta_norm(y, z, w), l_beta_norm(y, z, w)),
    )
    return y, z, report


@dataclass
class StabilityReport:
    """Both sides of the data-stability estimate with the empirical ratio."""

    lhs: float
    zeta_term: float
    f_term: float
    g_term: float
    ratio: float

    @property
    def rhs(self) -> float:
        return self.zeta_term + self.f_term + self.g_term


def stability_compare(sc1: Scenario, sc2: Scenario,
                      tol: float = 1e-12, max_iter: int = 200) -> StabilityReport:
    """Solve both scenarios and evaluate the stability functional.

    lhs is the squared restricted norm of the solution difference; the
    right side evaluates the driver differences along solution 2 (the g
    difference at the right-node states it is integrated with) plus the
    weighted terminal gap.  The unexhibited theoretical constant is
    reported only through the empirical ratio lhs/rhs.
    """
    lat = sc1.lattice
    if lat != sc2.lattice or sc1.beta != sc2.beta:
        raise ValidationError("stability comparison needs same lattice and beta")
    n, dt = lat.n_steps, lat.dt
    w = BetaWeight(sc1.beta)
    y1, z1, _ = picard_solve(sc1, tol=tol, max_iter=max_iter)
    y2, z2, _ = picard_solve(sc2, tol=tol, max_iter=max_iter)
    lhs = m_beta_norm(*pair_diff(y1, z1, y2, z2), w) ** 2

    zeta_term = 0.0
    for i in range(n + 1):
        dz = sc1.zeta[i] - sc2.zeta[i]
        zeta_term += w.at(lat.node(i)) * expectation(dz * dz) * dt
    ey, ez = means(y2, z2)
    f_term = g_term = 0.0
    d1, d2 = sc1.driver, sc2.driver
    for i in range(n + 1):
        t = lat.node(i)
        for j in range(i, n):
            left, right = frozen_args(y2, z2, ey, ez, i, j)
            s, sr = lat.node(j), lat.node(j + 1)
            df = (evaluate_driver(d1.f_values, t, s, left)
                  - evaluate_driver(d2.f_values, t, s, left))
            f_term += w.at(s) * expectation(df * df) * dt * dt
            dg = (evaluate_driver(d1.g_values, t, sr, right)
                  - evaluate_driver(d2.g_values, t, sr, right))
            g_term += w.at(s) * expectation(dg * dg) * dt * dt
    rhs = zeta_term + f_term + g_term
    ratio = lhs / rhs if rhs > 0 else 0.0
    return StabilityReport(lhs=lhs, zeta_term=zeta_term, f_term=f_term,
                           g_term=g_term, ratio=ratio)
