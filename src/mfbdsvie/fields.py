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
the exact pathwise ones.  `split_row` and `m_extend` get every
coefficient of a row from one backward sweep over the W bits
(`lattice.clark_ocone_sweep`).

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
    IndexOutOfRange,
    LatticeMismatch,
    MeasurabilityViolation,
    ValidationError,
)
from .lattice import (
    LatticeSpec,
    MeasurableRV,
    SigmaField,
    _owned,
    clark_ocone_sweep,
    condexp,
    forward_integral,
    lift,
    time_field,
    zero_rv,
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

    Stored as one (N+1, 2^M) array `values`; y[i] is a view of row i.
    """

    __slots__ = ("lattice", "values", "y")

    def __init__(self, lat: LatticeSpec, y: Sequence[MeasurableRV] | np.ndarray):
        self.lattice = lat
        self.values, self.y = _dense(lat, y, (lat.n_steps + 1,))

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i: int) -> MeasurableRV:
        return self.y[i]


class VolterraKernel:
    """Z over (node i, slot j) in [0, N] x [0, N-1], entry at field (j, j).

    Stored as one (N+1, N, 2^M) array `values`; z.at(i, j) views a row.
    """

    __slots__ = ("lattice", "values", "z")

    def __init__(self, lat: LatticeSpec,
                 z: Sequence[Sequence[MeasurableRV]] | np.ndarray):
        self.lattice = lat
        self.values, self.z = _dense(lat, z, (lat.n_steps + 1, lat.n_steps))

    def at(self, i: int, j: int) -> MeasurableRV:
        return self.z[i][j]


def _dense(lat: LatticeSpec, entries, dims: tuple):
    """A finite, write-locked dims + (2^M,) array and views of its rows.

    entries is such an array (a writable one is copied) or nested variables,
    each at the time field of its last index (a path node, a kernel slot).
    """
    fields = [time_field(lat, k) for k in range(dims[-1])]
    shape = dims + (1 << lat.n_bits,)
    values = entries
    if not isinstance(entries, np.ndarray):
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
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values).all(axis=-1))[0].tolist()
        raise ValidationError(
            f"entry {bad[0] if len(bad) == 1 else tuple(bad)} is not finite")

    def views(rows):
        if rows.ndim > 2:
            return tuple(map(views, rows))
        return tuple(MeasurableRV(f, r.reshape(f.table_shape))
                     for f, r in zip(fields, rows))

    return values, views(values)


def zero_path(lat: LatticeSpec) -> AdaptedPath:
    return AdaptedPath(lat, _owned(np.zeros((lat.n_steps + 1, 1 << lat.n_bits))))


def zero_kernel(lat: LatticeSpec) -> VolterraKernel:
    n = lat.n_steps
    return VolterraKernel(lat, _owned(np.zeros((n + 1, n, 1 << lat.n_bits))))


def split_row(phi: MeasurableRV, i: int, lane: int = 0, first: int = 0
              ) -> tuple[MeasurableRV, list[MeasurableRV]]:
    """Y_i and kernel row i from Phi_i against one lane's forward walk.

    Y_i = E[Phi_i | (i, i)]; the upper triangle j >= i is
    E[Phi_i dW_j | (j, j)] / dt and the lower triangle j < i is the
    representation of Y_i (the M-extension), all from one backward sweep
    over the W bits (the discrete Clark-Ocone formula).  Columns j < first
    are zero tables and are not computed.
    """
    lat = phi.lattice
    yi, cols = clark_ocone_sweep(phi, i, lane, first)
    return yi, [cols[j] if j in cols else lift(zero_rv(lat), time_field(lat, j))
                for j in range(lat.n_steps)]


def representation_row(y_i: MeasurableRV, j: int, lane: int = 0) -> MeasurableRV:
    """Lower-triangle kernel value E[Y_i dW_j | (j, j)] / dt.

    dW_j is the forward increment of the given lane at step j.
    """
    lat = y_i.lattice
    if not 0 <= j < lat.n_steps:
        raise IndexOutOfRange(f"slot {j} outside 0..{lat.n_steps - 1}")
    return split_row(y_i, 0, lane, first=j)[1][j]


def m_extend(y: AdaptedPath, z_delta: VolterraKernel) -> VolterraKernel:
    """Fill the lower triangle from the representation of Y.

    Upper-triangle entries (j >= i) of z_delta are kept as given; every
    j < i entry is replaced by the representation coefficient of Y_i.
    """
    lat = y.lattice
    if z_delta.lattice != lat:
        raise LatticeMismatch("path and kernel on different lattices")
    rows = []
    for i in range(lat.n_steps + 1):
        _, lower = clark_ocone_sweep(y[i], i)
        rows.append([lower[j] if j < i else z_delta.at(i, j)
                     for j in range(lat.n_steps)])
    return VolterraKernel(lat, rows)


def m_identity_residual(y: AdaptedPath, z: VolterraKernel) -> float:
    """Worst pathwise defect of the representation identity.

    max over nodes i and paths of
    | Y_i - E[Y_i | (0,0)] - sum_{j<i} Z_ij dW_j |.
    """
    base_field = SigmaField(y.lattice, 0, 0)
    return max((condexp(y[i], base_field) - y[i]
                + forward_integral(z.z[i], 0, i)).max_abs()
               for i in range(len(y)))


def node_gaps(a: AdaptedPath, b: AdaptedPath, from_node: int = 0,
              absolute: bool = False) -> list[tuple[int, float]]:
    """Rows (i, worst over paths of a_i - b_i, or of |a_i - b_i|).

    One row per node from from_node on; a pathwise order or equality
    between two profiles holds when every gap is at most zero.
    """
    d = a.values[from_node:] - b.values[from_node:]
    gaps = np.max(np.abs(d) if absolute else d, axis=-1)
    return list(enumerate(gaps.tolist(), start=from_node))


def _norm_squared(
    y: AdaptedPath, z: VolterraKernel, w: BetaWeight, full_square: bool
) -> float:
    # terms in node order, then row by row, added as one running float:
    # a dot product or a pairwise sum would move the last digit
    lat = y.lattice
    dt = lat.dt
    n = lat.n_steps
    weights = np.array([w.at(lat.node(i)) for i in range(n + 1)])
    y_terms = weights * np.mean(y.values * y.values, axis=-1) * dt
    z_terms = weights[:n] * np.mean(z.values * z.values, axis=-1) * dt * dt
    if not full_square:
        z_terms = z_terms[np.arange(n) >= np.arange(n + 1)[:, None]]
    return float(np.add.accumulate(np.concatenate([y_terms, z_terms.ravel()]))[-1])


def m_beta_norm(y: AdaptedPath, z: VolterraKernel, w: BetaWeight) -> float:
    """Weighted norm with the kernel summed over the upper triangle."""
    return math.sqrt(_norm_squared(y, z, w, full_square=False))


def l_beta_norm(y: AdaptedPath, z: VolterraKernel, w: BetaWeight) -> float:
    """Weighted norm with the kernel summed over the whole square."""
    return math.sqrt(_norm_squared(y, z, w, full_square=True))


def pair_sup_diff(
    y1: AdaptedPath, z1: VolterraKernel, y2: AdaptedPath, z2: VolterraKernel
) -> float:
    """Pathwise sup-norm distance between two pairs (beta-independent)."""
    return float(max(np.max(np.abs(y1.values - y2.values)),
                     np.max(np.abs(z1.values - z2.values))))


def pair_diff(
    y1: AdaptedPath, z1: VolterraKernel, y2: AdaptedPath, z2: VolterraKernel
) -> tuple[AdaptedPath, VolterraKernel]:
    """Entrywise difference of two solution pairs."""
    return (AdaptedPath(y1.lattice, _owned(y1.values - y2.values)),
            VolterraKernel(y1.lattice, _owned(z1.values - z2.values)))


def dump_csv_rows(y: AdaptedPath, z: VolterraKernel) -> list[tuple]:
    """Debug dump: rows (i, j, path_code, value); j = -1 for Y entries.

    path_code is a representative full-path code (W sign bits in the low
    half, B sign bits shifted to their absolute positions).
    """
    lat = y.lattice
    m = lat.n_bits
    rows: list[tuple] = []

    def emit(i, j, rv):
        a, b = rv.field.w_upto, rv.field.b_from
        for wc in range(1 << a):
            for bc in range(rv.values.shape[1]):
                code = (wc << m) | (bc << b)
                rows.append((i, j, code, float(rv.values[wc, bc])))

    for i in range(lat.n_steps + 1):
        emit(i, -1, y[i])
    for i in range(lat.n_steps + 1):
        for j in range(lat.n_steps):
            emit(i, j, z.at(i, j))
    return rows
