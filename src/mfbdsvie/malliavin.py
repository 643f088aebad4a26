"""Regularity of the solved pair under the increment-flip derivative.

Flipping one forward increment is the lattice differentiation: applied
entrywise to a solved pair it produces (DY, DZ) with DY_i = 0 for
i <= r and DZ columns at slots <= r identically zero.

Two exact identities tie the flip to the base kernel.  First, the
lower-triangle entries ARE conditional flip derivatives:

    Z(t_i, s_r) = E[ D_r Y_i | (r, r) ],        r < i,

an identity of the lattice that holds for every solved pair no matter
the driver.  Second, the flip of the whole equation produces a linear
equation for (DY, DZ): on rows i > r it is driven by the twelve
partial-derivative coefficient fields frozen along the base solution
(swapped-kernel terms included), on rows i <= r the flip of the
equation instead pins the base kernel column r:

    Z(t_i, s_r) = D_r zeta(t_i) + (coefficient sums over slots >= r,
    swapped-kernel terms absent) - forward sum of DZ,      i <= r,

where the swapped-kernel coefficients drop out because the extension
entries those slots read are blind to the flipped increment.  The
mean-field derivative slots are kept verbatim (coefficients multiply
E[DY], E[DZ]); drivers here are deterministic functions of states, so
the direct derivative sources of f and g vanish and only the terminal
contributes a source.

For affine drivers the discrete chain rule is exact and the linearized
solve reproduces the flip to rounding error, provided the mean-field
coefficients vanish: the flip of a plain expectation is zero, so a
nonzero mean coefficient makes the verbatim linearized equation differ
from the flip by design.  For smooth nonlinear drivers the two differ
by the chain-rule defect, which shrinks as the mesh refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import AdaptedPath, VolterraKernel, split_row, zero_kernel, zero_path
from .lattice import (
    MeasurableRV,
    b_increment,
    condexp,
    expectation,
    flip_derivative,
    forward_integral,
    time_field,
)
from .solver import (
    Scenario,
    evaluate_driver,
    frozen_args,
    iterate,
    means,
    sup_distance,
)


def flip_solution(y: AdaptedPath, z: VolterraKernel, r_idx: int
                  ) -> tuple[AdaptedPath, VolterraKernel]:
    """Entrywise flip derivative of a solved pair."""
    lat = y.lattice
    dy = AdaptedPath(lat, [
        flip_derivative(y[i], r_idx) for i in range(lat.n_steps + 1)
    ])
    dz = VolterraKernel(lat, [
        [flip_derivative(z.at(i, j), r_idx) for j in range(lat.n_steps)]
        for i in range(lat.n_steps + 1)
    ])
    return dy, dz


@dataclass
class LinearizedScenario:
    """Coefficient fields and sources of the flip equation at one slot.

    f_coef[i][j] holds the six f-partials at the left node (t_i, s_j),
    g_coef[i][j] the six g-partials at the right node (t_i, s_{j+1}),
    both frozen along the base solution; source[i] is the flip of the
    terminal at node i.  Coefficients are kept for every j >= i row
    because the pinned rows i <= r read slots from r on.
    """

    scenario: Scenario
    base_y: AdaptedPath
    base_z: VolterraKernel
    r_idx: int
    f_coef: list
    g_coef: list
    source: list


def build_linearized(sc: Scenario, y: AdaptedPath, z: VolterraKernel,
                     r_idx: int) -> LinearizedScenario:
    """Freeze the coefficient fields along a solved pair."""
    lat = sc.lattice
    n = lat.n_steps
    if not 0 <= r_idx < n:
        raise ValidationError(f"flip slot {r_idx} outside 0..{n - 1}")
    if sc.terminal.family not in ("deterministic", "affine", "smooth"):
        raise ValidationError("terminal family has no flip derivative")
    ey, ez = means(y, z)
    f_coef = [[None] * n for _ in range(n + 1)]
    g_coef = [[None] * n for _ in range(n + 1)]
    for i in range(n + 1):
        t = lat.node(i)
        for j in range(i, n):
            left, right = frozen_args(y, z, ey, ez, i, j)
            f_coef[i][j] = evaluate_driver(sc.driver.partials, t, lat.node(j),
                                           left)[:6]
            g_coef[i][j] = evaluate_driver(sc.driver.partials, t,
                                           lat.node(j + 1), right)[6:]
    source = [flip_derivative(sc.zeta[i], r_idx) for i in range(n + 1)]
    return LinearizedScenario(sc, y, z, r_idx, f_coef, g_coef, source)


def _dot(coefs, args, slots) -> MeasurableRV:
    acc = coefs[slots[0]] * args[slots[0]]
    for k in slots[1:]:
        acc = acc + coefs[k] * args[k]
    return acc


def _linearized_term(ls: LinearizedScenario, u: AdaptedPath, v: VolterraKernel,
                     eu, ev, i: int, j: int, include_swapped: bool
                     ) -> MeasurableRV:
    """Row i's slot-j term of the flip equation, f dt + g dB_j."""
    lat = ls.scenario.lattice
    # argument slots in accumulation order: y, z, mean_y, mean_z, then the
    # swapped-kernel pair (z_rev, mean_z_rev), left out on the pinned rows
    slots = (0, 1, 3, 4, 2, 5) if include_swapped else (0, 1, 3, 4)
    left, right = frozen_args(u, v, eu, ev, i, j)
    return (_dot(ls.f_coef[i][j], left, slots) * lat.dt
            + _dot(ls.g_coef[i][j], right, slots) * b_increment(lat, j))


def _linearized_phi(ls: LinearizedScenario, u: AdaptedPath, v: VolterraKernel,
                    eu, ev, i: int, include_swapped: bool) -> MeasurableRV:
    """Row-i driver sums of the flip equation over slots >= max(i, r)."""
    phi = ls.source[i]
    for j in range(max(i, ls.r_idx), ls.scenario.lattice.n_steps):
        phi = phi + _linearized_term(ls, u, v, eu, ev, i, j, include_swapped)
    return phi


def _linearized_row(ls: LinearizedScenario, u: AdaptedPath, v: VolterraKernel,
                    eu, ev, i: int) -> tuple[MeasurableRV, list[MeasurableRV]]:
    """Y_i and kernel row i of one flip-equation map, swapped terms included.

    The terms start at slot r, and kernel column r is blind to the flipped
    increment in every kernel, so the columns <= r are left at zero: the
    entrywise flip's shape.
    """
    r = ls.r_idx

    def term(m):
        return _linearized_term(ls, u, v, eu, ev, i, m, True) if m >= r else None

    return split_row(ls.source[i], i, first=r + 1, term=term)


def solve_linearized(ls: LinearizedScenario, tol: float = 1e-12,
                     max_iter: int = 300
                     ) -> tuple[AdaptedPath, VolterraKernel]:
    """Fixed point of the flip equation.

    Rows above the flip slot solve the full equation with swapped-kernel
    terms; rows at or below it carry only kernel values over slots >= r
    (their path component is zero and columns below r stay zero, the
    shape the entrywise flip produces).
    """
    lat = ls.scenario.lattice
    r = ls.r_idx
    zero_y, zero_z = zero_path(lat), zero_kernel(lat)

    def step(pair):
        eu, ev = means(*pair)
        ys, rows = zip(*(_linearized_row(ls, *pair, eu, ev, i)
                         for i in range(lat.n_steps + 1)))
        # the path at rows <= r is zero, as in the entrywise flip
        ys = [yi if i > r else zero_y[i] for i, yi in enumerate(ys)]
        return AdaptedPath(lat, ys), VolterraKernel(lat, rows)

    pair, _, _ = iterate(step, (zero_y, zero_z), sup_distance, tol, max_iter)
    return pair


@dataclass
class IdentityReport:
    """Per-row worst pathwise residuals of one identity.

    l2 aggregates the residual in the time-weighted mean-square norm
    (zero when the identity is exact); convergence studies track it
    because the pathwise max is dominated by slot-local kernel noise
    that does not shrink pointwise.
    """

    rows: list[tuple]
    worst: float
    l2: float = 0.0


def check_clark_ocone(y: AdaptedPath, z: VolterraKernel, r_idx: int
                      ) -> IdentityReport:
    """Lower-triangle kernel against the conditional flip of Y.

    Exact on the lattice for every solved pair: max over nodes i > r and
    paths of |Z(t_i, s_r) - E[D_r Y_i | (r, r)]|.
    """
    lat = y.lattice
    rows = []
    worst = 0.0
    for i in range(r_idx + 1, lat.n_steps + 1):
        lhs = z.at(i, r_idx)
        rhs = condexp(flip_derivative(y[i], r_idx), time_field(lat, r_idx))
        gap = (lhs - rhs).max_abs()
        rows.append((i, r_idx, gap))
        worst = max(worst, gap)
    return IdentityReport(rows=rows, worst=worst)


def check_delta_equation(ls: LinearizedScenario,
                         u: AdaptedPath | None = None,
                         v: VolterraKernel | None = None) -> IdentityReport:
    """Upper-triangle identity: the base kernel column at the flip slot.

    Evaluates, for each row i <= r, the pathwise defect of

        Z(t_i, s_r) = D_r zeta(t_i) + coefficient sums over slots >= r
                      (no swapped-kernel terms) - sum_{j>=r} DZ_ij dW_j

    at the supplied derivative pair (defaults to the entrywise flip of
    the base solution).
    """
    sc = ls.scenario
    lat = sc.lattice
    n, r = lat.n_steps, ls.r_idx
    if u is None or v is None:
        u, v = flip_solution(ls.base_y, ls.base_z, r)
    eu, ev = means(u, v)
    rows = []
    worst = 0.0
    l2 = 0.0
    for i in range(r + 1):
        acc = (_linearized_phi(ls, u, v, eu, ev, i, include_swapped=False)
               - forward_integral(v.z[i], r, n) - ls.base_z.at(i, r))
        gap = acc.max_abs()
        rows.append((i, r, gap))
        worst = max(worst, gap)
        l2 += lat.dt * expectation(acc * acc)
    return IdentityReport(rows=rows, worst=worst, l2=float(np.sqrt(l2)))
