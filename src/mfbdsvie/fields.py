"""Solution-space objects: adapted paths, two-parameter kernels, norms.

The solution of the equation is a pair (Y, Z): Y is indexed by grid
nodes 0..N with Y_i measurable at (i, i); Z is indexed by pairs (i, j)
with i in 0..N the outer time and j in 0..N-1 the increment slot, and
entry (i, j) measurable at (j, j) regardless of which triangle it lies
in.  On the upper triangle j >= i the kernel is determined by the
equation; on the lower triangle j < i it is pinned by the martingale
representation of Y_i against the forward walk:

    Z(t_i, s_j) := E[ Y_i dW_j | (j, j) ] / dt,        j < i,

which makes the reconstruction

    Y_i = E[ Y_i | (0, 0) ] + sum_{j < i} Z(t_i, s_j) dW_j

hold exactly on every path: conditioning at (j, j) with j < i keeps all
the B information Y_i carries, so the representation coefficients are
the exact pathwise ones.  `m_extend` gets every coefficient, for all
rows of a path in one stack, from the backward induction over the W bits
(`lattice.clark_ocone_sweep`) that also splits the equation's rows.

Two weighted norms measure pairs.  The restricted norm sums kernel
entries over the upper triangle only; the full norm sums everything.
For extended pairs the lower-triangle mass is controlled by the Y mass
through the representation, giving the exact two-sided bound

    restricted^2 <= full^2 <= 2 * restricted^2.

Quadrature: Y is summed over nodes 0..N with weight dt, kernel entries
over slots with weight dt^2, exponential weights e^{beta t} taken at
the left node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    LatticeMismatch,
    MeasurabilityViolation,
    ValidationError,
)
from .lattice import (
    LatticeSpec,
    MeasurableRV,
    SigmaField,
    _max_abs,
    _onto,
    _onto_op,
    _owned,
    clark_ocone_sweep,
    row_extremes,
    time_field,
)


@dataclass(frozen=True)
class BetaWeight:
    """Exponential weight e^{beta t} used by the solution norms.

    beta = 0 gives the unweighted norm; contraction arguments need
    beta above their threshold, which scenario validation enforces.
    """

    beta: float

    def __post_init__(self):
        if not self.beta >= 0:
            raise ValidationError(f"beta={self.beta} must be >= 0")

    def at(self, t: float) -> float:
        return math.exp(self.beta * t)


class AdaptedPath:
    """Y over grid nodes 0..N, entry i declared at the time field (i, i).

    Stored as one (N+1, 2^M) array `values`; y[i] is a view of row i, and
    the views are built on first use.
    """

    __slots__ = ("lattice", "values", "_cells")

    def __init__(self, lat: LatticeSpec, y: Sequence[MeasurableRV] | np.ndarray):
        self.lattice = lat
        self.values = _dense(lat, y, (lat.n_steps + 1,))
        self._cells = None

    @property
    def y(self) -> tuple[MeasurableRV, ...]:
        if self._cells is None:
            self._cells = _views(self.lattice, self.values)
        return self._cells

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> MeasurableRV:
        return self.y[i]


class VolterraKernel:
    """Z over (node i, slot j) in [0, N] x [0, N-1], entry at field (j, j).

    Stored as one (N+1, N, 2^M) array `values`; z.at(i, j) views a row, and
    the views are built on first use.
    """

    __slots__ = ("lattice", "values", "_cells")

    def __init__(self, lat: LatticeSpec,
                 z: Sequence[Sequence[MeasurableRV]] | np.ndarray):
        self.lattice = lat
        self.values = _dense(lat, z, (lat.n_steps + 1, lat.n_steps))
        self._cells = None

    @property
    def z(self) -> tuple[tuple[MeasurableRV, ...], ...]:
        if self._cells is None:
            self._cells = _views(self.lattice, self.values)
        return self._cells

    def at(self, i: int, j: int) -> MeasurableRV:
        return self.z[i][j]


def _dense(lat: LatticeSpec, entries, dims: tuple) -> np.ndarray:
    """A finite, write-locked dims + (2^M,) array.

    entries is such an array (a writable one is copied) or nested variables,
    each at the time field of its last index (a path node, a kernel slot).
    """
    shape = dims + (1 << lat.n_bits,)
    values = entries
    if not isinstance(entries, np.ndarray):
        fields = [time_field(lat, k) for k in range(dims[-1])]
        cells = np.array(entries, dtype=object)
        if cells.shape != dims:
            raise ValidationError(f"need {dims} entries, got {cells.shape}")
        for k, x in np.ndenumerate(cells):
            where = f"entry {k[0] if len(k) == 1 else k}"
            if x.lattice != lat:
                raise LatticeMismatch(f"{where} on a different lattice")
            if x.field != fields[k[-1]]:
                raise MeasurabilityViolation(
                    f"{where} declared at ({x.field.w_upto}, "
                    f"{x.field.b_from}), expected its time field")
        values = _owned(np.stack([x.values.reshape(-1) for x in cells.flat])
                        .reshape(shape))
    if values.shape != shape:
        raise ValidationError(f"need an array of shape {shape}, "
                              f"got {values.shape}")
    if (values.flags.writeable or not values.flags.c_contiguous
            or values.dtype != np.float64):
        values = _owned(np.array(values, dtype=np.float64, order="C"))
    _check_finite(values)
    return values


def _check_finite(values: np.ndarray) -> None:
    """Refuse a dense path or kernel with an entry that is not finite,
    naming the first such entry."""
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values).all(axis=-1))[0].tolist()
        raise ValidationError(
            f"entry {bad[0] if len(bad) == 1 else tuple(bad)} is not finite")


def _same_lattice(*xs) -> None:
    """Refuse paths and kernels that are not all on one lattice."""
    if any(x.lattice != xs[0].lattice for x in xs[1:]):
        raise LatticeMismatch("operands on different lattices")


def _unchecked(cls, lat: LatticeSpec, values: np.ndarray):
    """An `AdaptedPath` or `VolterraKernel` on values, a write-locked dense
    table of its shape that a Picard loop owns, not re-read for finiteness:
    the loop's distance from the last pair is NaN or inf exactly when an
    entry is, and it then names the entry (`_check_finite`)."""
    x = object.__new__(cls)
    x.lattice, x.values, x._cells = lat, values, None
    return x


def _path_rows(y: AdaptedPath) -> tuple:
    """The rows of y as `lattice.clark_ocone_sweep` and
    `lattice.row_extremes` take them: (fields, values), node k on (k, k)."""
    lat = y.lattice
    return tuple(time_field(lat, k) for k in range(len(y))), y.values


def _views(lat: LatticeSpec, values: np.ndarray):
    """Nested tuples of variables over the rows of a dense array, each at
    the time field of its last index."""
    fields = [time_field(lat, k) for k in range(values.shape[-2])]

    def views(rows):
        if rows.ndim > 2:
            return tuple(map(views, rows))
        return tuple(MeasurableRV(f, r.reshape(f.table_shape))
                     for f, r in zip(fields, rows))

    return views(values)


def zero_path(lat: LatticeSpec) -> AdaptedPath:
    return AdaptedPath(lat, _owned(np.zeros((lat.n_steps + 1, 1 << lat.n_bits))))


def zero_kernel(lat: LatticeSpec) -> VolterraKernel:
    n = lat.n_steps
    return VolterraKernel(lat, _owned(np.zeros((n + 1, n, 1 << lat.n_bits))))


def m_extend(y: AdaptedPath, z_delta: VolterraKernel) -> VolterraKernel:
    """Fill the lower triangle from the representation of Y.

    Upper-triangle entries (j >= i) of z_delta are kept as given; every
    j < i entry is replaced by the representation coefficient of Y_i.  The
    rows are one stack: row i joins the backward induction at step i - 1.
    """
    _same_lattice(y, z_delta)
    lat, n = y.lattice, y.lattice.n_steps
    fields, values = _path_rows(y)
    _, (lower,) = clark_ocone_sweep((fields, values[None]), 0)
    upper = np.arange(n) >= np.arange(n + 1)[:, None]
    return VolterraKernel(lat, _owned(np.where(upper[..., None],
                                               z_delta.values, lower)))


def m_identity_residual(y: AdaptedPath, z: VolterraKernel) -> float:
    """Worst pathwise defect of the representation identity.

    max over nodes i and paths of
    | Y_i - E[Y_i | (0,0)] - sum_{j<i} Z_ij dW_j |, exact and with no table
    of them: `lattice.row_extremes` over the slots j < i, no term, each
    E[Y_i | (0,0)] an exact average of Y_i (`lattice._onto`).
    """
    base = SigmaField(y.lattice, 0, 0)
    x = _path_rows(y)
    means = np.concatenate([_onto(v.reshape((1,) + f.table_shape),
                                  _onto_op(f, base))[0] for f, v in zip(*x)])
    return float(np.max(row_extremes(
        x, ((base,) * len(y), means), z, None, False,
        [range(i) for i in range(len(y))])))


def node_gaps(a: AdaptedPath, b: AdaptedPath, from_node: int = 0,
              absolute: bool = False) -> list[tuple[int, float]]:
    """Rows (i, worst over paths of a_i - b_i, or of |a_i - b_i|).

    One row per node from from_node on; a pathwise order or equality
    between two profiles holds when every gap is at most zero.  Paths on
    different lattices are refused.
    """
    _same_lattice(a, b)
    d = a.values[from_node:] - b.values[from_node:]
    gaps = np.max(np.abs(d) if absolute else d, axis=-1)
    return list(enumerate(gaps.tolist(), start=from_node))


def _mean_squares(values: np.ndarray) -> np.ndarray:
    """The means over the paths of a dense path's or kernel's squared
    entries, (N + 1,) or (N + 1, N): `np.mean`'s sum and division of each
    node row's squares, one row at a time, so no squared copy of the whole
    table is made."""
    out = np.empty(values.shape[:-1])
    for i, row in enumerate(values):
        np.add.reduce(np.square(row), axis=-1, out=out[i, ...])
    out /= values.shape[-1]
    return out


def _norm_squared(lat: LatticeSpec, y2: np.ndarray, z2: np.ndarray,
                  w: BetaWeight) -> tuple[float, float]:
    """The squared weighted norms, restricted and full, of a dense path and
    kernel on lat, from the means over the paths of their squared entries,
    y2 (N + 1,) and z2 (N + 1, N): one set of terms serves both sums."""
    # terms in node order, then row by row, added as one running float:
    # a dot product or a pairwise sum would move the last digit
    dt = lat.dt
    n = lat.n_steps
    weights = np.array([w.at(lat.node(i)) for i in range(n + 1)])
    y_terms = weights * y2 * dt
    z_terms = weights[:n] * z2 * dt * dt
    upper = z_terms[np.arange(n) >= np.arange(n + 1)[:, None]]
    return tuple(float(np.add.accumulate(np.concatenate([y_terms, t]))[-1])
                 for t in (upper, z_terms.ravel()))


def m_beta_norm(y: AdaptedPath, z: VolterraKernel, w: BetaWeight) -> float:
    """Weighted norm with the kernel summed over the upper triangle."""
    return math.sqrt(_norm_squared(y.lattice, _mean_squares(y.values),
                                   _mean_squares(z.values), w)[0])


def l_beta_norm(y: AdaptedPath, z: VolterraKernel, w: BetaWeight) -> float:
    """Weighted norm with the kernel summed over the whole square."""
    return math.sqrt(_norm_squared(y.lattice, _mean_squares(y.values),
                                   _mean_squares(z.values), w)[1])


def pair_sup_diff(
    y1: AdaptedPath, z1: VolterraKernel, y2: AdaptedPath, z2: VolterraKernel
) -> float:
    """Pathwise sup-norm distance (beta-independent) between two pairs on
    one lattice."""
    _same_lattice(y1, z1, y2, z2)
    return max(_max_abs(y1.values - y2.values),
               _max_abs(z1.values - z2.values))


def pair_diff(
    y1: AdaptedPath, z1: VolterraKernel, y2: AdaptedPath, z2: VolterraKernel
) -> tuple[AdaptedPath, VolterraKernel]:
    """Entrywise difference of two solution pairs on one lattice."""
    _same_lattice(y1, z1, y2, z2)
    return (AdaptedPath(y1.lattice, _owned(y1.values - y2.values)),
            VolterraKernel(y1.lattice, _owned(z1.values - z2.values)))
