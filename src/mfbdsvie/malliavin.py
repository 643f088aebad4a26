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

The linearized equation is the solver's map with the frozen partials
as coefficients: `build_linearized` evaluates them once a slot from r
on, on the stack of rows `solver.SlotReader.slot_args` gives, cut to
each stack of rows once, they drive `SlotReader.slot_terms` (each map,
and the identity, reading its pair through one reader), its source is
the flip of the terminal table, and
`solver.map_rows` sweeps the rows as in
`gamma_map`: one stack for a driver blind to the swapped arguments, else
a stack per row.  The upper-triangle identity is the walk of
`lattice.row_extremes` on the same terms, the swapped-kernel terms left
out, as for the `residual`; its l2 needs each row's mean square, so the
walk carries the mean and the centred variance beside its extremes, and
no check builds a table of the defects.

For affine drivers the discrete chain rule is exact and the linearized
solve reproduces the flip to rounding error, provided the mean-field
coefficients vanish: the flip of a plain expectation is zero, so a
nonzero mean coefficient makes the verbatim linearized equation differ
from the flip by design.  For smooth nonlinear drivers the two differ
by the chain-rule defect, which shrinks as the mesh refines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .drivers import CustomDriver
from .errors import IndexOutOfRange, ValidationError
from .fields import AdaptedPath, VolterraKernel, _check_finite
from .lattice import (
    SigmaField,
    _check_bit,
    _max_abs,
    _onto,
    _onto_op,
    _owned,
    flip_rows,
    row_extremes,
    slot_field,
    terminal_rows,
    time_field,
)
from .solver import Scenario, SlotReader, _map_tables, _pairs, iterate, means


def flip_solution(y: AdaptedPath, z: VolterraKernel, r_idx: int
                  ) -> tuple[AdaptedPath, VolterraKernel]:
    """Entrywise flip derivative of a solved pair at W bit r_idx.

    Path row k and kernel column k share the time field (k, k), so each
    is one `flip_rows` call on the dense arrays, written into one array
    per side.
    """
    lat = y.lattice
    _check_bit(lat, r_idx)
    dy, dz = np.empty_like(y.values), np.empty_like(z.values)
    for k in range(lat.n_steps + 1):
        a = time_field(lat, k).w_upto
        dy[k] = flip_rows(y.values[k], a, r_idx, lat.inc)
        if k < lat.n_steps:
            dz[:, k] = flip_rows(z.values[:, k], a, r_idx, lat.inc)
    return AdaptedPath(lat, _owned(dy)), VolterraKernel(lat, _owned(dz))


@dataclass
class LinearizedScenario:
    """Coefficient fields and sources of the flip equation at one slot.

    coefs[j] is slot j's (field, partials) over the rows 0..j, frozen
    along the base solution on one `SlotReader.slot_args` stack: six f-partials
    at the left nodes, six g-partials at the right nodes, each an array on
    the field's bit axes (a leading row axis if they differ by row), and
    None below slot r: the map and the pinned rows i <= r read slots from
    r on.  The rows of a map make one stack unless `scenario.swapped`.
    source is the flip of the terminal table, one write-locked (N + 1, 2^M)
    table, row i that of the terminal at node i.  cuts holds the
    partials of each slot and stack of rows once `slot_coefs` has cut them.
    """

    scenario: Scenario
    base_y: AdaptedPath
    base_z: VolterraKernel
    r_idx: int
    coefs: list
    source: np.ndarray
    cuts: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def slot_coefs(self, j: int, rows: range) -> tuple[SigmaField, list]:
        """Slot j's twelve partials cut to `rows`, on the field `slot_args`
        gives those rows (no row reads the B bits below the first row); cut
        once a slot and stack of rows, and kept in cuts."""
        got = self.cuts.get((j, rows.start, rows.stop))
        if got is None:
            got = self.cuts[j, rows.start, rows.stop] = self._cut(j, rows)
        return got

    def _cut(self, j: int, rows: range) -> tuple[SigmaField, list]:
        f, values = self.coefs[j]
        b = rows.start if self.scenario.swapped else j
        axes = f.w_upto + f.lattice.n_bits - f.b_from
        cut = b * f.lattice.lanes - f.b_from

        def of_rows(c):
            if c.ndim > axes and len(c) > 1:
                c = c[rows.start:rows.stop]
            return c[(Ellipsis,) + (0,) * min(cut, c.ndim)]

        return slot_field(f.lattice, j, b), [of_rows(c) for c in values]


def build_linearized(sc: Scenario, y: AdaptedPath, z: VolterraKernel,
                     r_idx: int) -> LinearizedScenario:
    """Freeze the coefficient fields along a solved pair: one f-side and
    one g-side `partials` call a slot j >= r.  A driver blind to the
    swapped arguments with nonzero partials in them is refused: its flip
    equation would read arguments its map never builds."""
    lat = sc.lattice
    n = lat.n_steps
    if not 0 <= r_idx < n:
        raise ValidationError(f"flip slot {r_idx} outside 0..{n - 1}")
    if sc.terminal.family not in ("deterministic", "affine", "smooth"):
        raise ValidationError("terminal family has no flip derivative")
    read = SlotReader(y, z, *means(y, z))
    coefs = [None] * r_idx
    for j in range(r_idx, n):
        f, t, left, right = read.slot_args(j, range(j + 1), sc.swapped)
        values = [np.asarray(c) for c in (
            *sc.driver.partials(t, lat.node(j), *left)[:6],
            *sc.driver.partials(t, lat.node(j + 1), *right)[6:])]
        if not sc.swapped and any(values[k].any() for k in (2, 5, 8, 11)):
            raise ValidationError(
                "driver blind to z_rev and mean_z_rev declares nonzero "
                "partials in them")
        coefs.append((f, values))
    source = _owned(flip_rows(sc.zeta, lat.n_bits, r_idx, lat.inc))
    return LinearizedScenario(sc, y, z, r_idx, coefs, source)


def _linearized_terms(ls: LinearizedScenario, read: SlotReader, j: int,
                      rows: range, include_swapped: bool = True):
    """The slot-j terms f dt + g dB_j of the flip equation for a stack of
    rows, frozen at the pair and means of read, as (field, values); none
    below slot r.

    `SlotReader.slot_terms` with the partials cut to the rows as the driver
    (whose constants it never reads): each partial times its argument,
    added in the order y, z, mean_y, mean_z, then z_rev and mean_z_rev,
    left out on the pinned rows and for a blind driver (partials zero)."""
    if j < ls.r_idx:
        return None
    swapped = ls.scenario.swapped
    slots = (0, 1, 3, 4) + ((2, 5) if swapped and include_swapped else ())
    _, c = ls.slot_coefs(j, rows)

    def dot(coefs):
        return lambda t, s, *args: reduce(
            np.add, (coefs[k] * args[k] for k in slots))

    return read.slot_terms(CustomDriver(dot(c[:6]), dot(c[6:]), 0.0, 0.0),
                           j, rows, swapped=swapped)


def _linearized_map(ls: LinearizedScenario, pair, out: tuple | None = None
                    ) -> tuple[AdaptedPath, VolterraKernel]:
    """One map of the flip equation frozen at pair = (u, v), as paths and
    kernels or `Stacked`: one stack of all rows for a driver blind to the
    swapped arguments, else a stack per row, as in `solver.gamma_map`, into
    out as `solver.map_rows` takes it; the columns <= r left at zero
    (kernel column r is blind to the flipped increment in every kernel)
    and the path at rows <= r zeroed in place, as in the entrywise flip,
    once checked finite as the new pair's constructor checks it."""
    r = ls.r_idx
    term = partial(_linearized_terms, ls, SlotReader(*pair, *means(*pair)))
    lat = ls.scenario.lattice
    ys, zs = _map_tables(terminal_rows(lat, ls.source[None]), term,
                         ls.scenario.swapped, 0, r + 1, out)
    _check_finite(ys[0, :r + 1])
    ys[:, :r + 1] = 0.0
    (y,), (z,) = _pairs(lat, (ys, zs), out is None)
    return y, z


def solve_linearized(ls: LinearizedScenario, tol: float = 1e-12,
                     max_iter: int = 300
                     ) -> tuple[AdaptedPath, VolterraKernel]:
    """Fixed point of the flip equation from zero: `_linearized_map` as the
    step of `solver.iterate`.

    Rows above the flip slot solve the full equation with swapped-kernel
    terms; rows at or below it carry only kernel values over slots >= r
    (their path component is zero and columns below r stay zero, the
    shape the entrywise flip produces).
    """
    def step(members, y, z, out):
        _linearized_map(ls, (y, z), out)

    pairs, _, _ = iterate(step, {0: None}, ls.scenario.lattice, tol, max_iter)
    return pairs[0]


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
    paths of |Z(t_i, s_r) - E[D_r Y_i | (r, r)]|, each flip one
    `flip_rows` call on the dense path row, conditioned by an exact average
    (`lattice._onto`); a slot outside 0..N-1 raises IndexOutOfRange.
    """
    lat = y.lattice
    if not 0 <= r_idx < lat.n_steps:
        raise IndexOutOfRange(f"slot {r_idx} outside 0..{lat.n_steps - 1}")
    rows = []
    worst = 0.0
    base = time_field(lat, r_idx)
    for i in range(r_idx + 1, lat.n_steps + 1):
        f = time_field(lat, i)
        d = flip_rows(y.values[i], f.w_upto, r_idx, lat.inc)
        rhs = _onto(d.reshape((1,) + f.table_shape), _onto_op(f, base))
        gap = _max_abs(z.values[i, r_idx] - rhs.reshape(-1))
        rows.append((i, r_idx, gap))
        worst = max(worst, gap)
    return IdentityReport(rows=rows, worst=worst)


def check_delta_equation(ls: LinearizedScenario) -> IdentityReport:
    """Upper-triangle identity: the base kernel column at the flip slot.

    Evaluates, for each row i <= r, the pathwise defect of

        Z(t_i, s_r) = D_r zeta(t_i) + coefficient sums over slots >= r
                      (no swapped-kernel terms) - sum_{j>=r} DZ_ij dW_j

    at the entrywise flip (DY, DZ) of the base solution: the walk of
    `lattice.row_extremes` over the flip equation's stacked terms (j >= r),
    which gives each row's worst defect and, carrying the mean and the
    centred variance, its mean square for l2, with no table of the
    defects.  NaN propagates.
    """
    lat = ls.scenario.lattice
    r = ls.r_idx
    u, v = flip_solution(ls.base_y, ls.base_z, r)
    term = partial(_linearized_terms, ls, SlotReader(u, v, *means(u, v)),
                   include_swapped=False)
    sups, squares = row_extremes(
        terminal_rows(lat, ls.source[:r + 1]),
        ((time_field(lat, r),) * (r + 1), ls.base_z.values[:r + 1, r]), v,
        term, ls.scenario.swapped, [range(r, lat.n_steps)] * (r + 1),
        mean_square=True)
    return IdentityReport(rows=[(i, r, float(gap))
                                for i, gap in enumerate(sups)],
                          worst=float(np.max(sups)),
                          l2=float(np.sqrt(np.sum(lat.dt * squares))))
