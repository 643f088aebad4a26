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
    clark_ocone_sweep,
    condexp,
    expectation,
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
    """Y over grid nodes 0..N, entry i declared at the time field (i, i)."""

    __slots__ = ("lattice", "y")

    def __init__(self, lat: LatticeSpec, y: Sequence[MeasurableRV]):
        if len(y) != lat.n_steps + 1:
            raise ValidationError(
                f"need {lat.n_steps + 1} entries, got {len(y)}"
            )
        for i, yi in enumerate(y):
            if yi.lattice != lat:
                raise LatticeMismatch("path entry on a different lattice")
            if yi.field != time_field(lat, i):
                raise MeasurabilityViolation(
                    f"entry {i} declared at ({yi.field.w_upto}, "
                    f"{yi.field.b_from}), expected time field"
                )
            if not np.all(np.isfinite(yi.values)):
                raise ValidationError(f"entry {i} is not finite")
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "y", tuple(y))

    def __len__(self) -> int:
        return len(self.y)

    def __getitem__(self, i: int) -> MeasurableRV:
        return self.y[i]


class VolterraKernel:
    """Z over (node i, slot j) in [0, N] x [0, N-1], entry at field (j, j)."""

    __slots__ = ("lattice", "z")

    def __init__(self, lat: LatticeSpec, z: Sequence[Sequence[MeasurableRV]]):
        if len(z) != lat.n_steps + 1:
            raise ValidationError(f"need {lat.n_steps + 1} rows, got {len(z)}")
        rows = []
        for i, row in enumerate(z):
            if len(row) != lat.n_steps:
                raise ValidationError(
                    f"row {i}: need {lat.n_steps} entries, got {len(row)}"
                )
            for j, zij in enumerate(row):
                if zij.lattice != lat:
                    raise LatticeMismatch("kernel entry on a different lattice")
                if zij.field != time_field(lat, j):
                    raise MeasurabilityViolation(
                        f"entry ({i}, {j}) not declared at the slot field"
                    )
                if not np.all(np.isfinite(zij.values)):
                    raise ValidationError(f"entry ({i}, {j}) is not finite")
            rows.append(tuple(row))
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "z", tuple(rows))

    def at(self, i: int, j: int) -> MeasurableRV:
        return self.z[i][j]


def zero_path(lat: LatticeSpec) -> AdaptedPath:
    zs = [
        condexp(zero_rv(lat), time_field(lat, i))
        for i in range(lat.n_steps + 1)
    ]
    return AdaptedPath(lat, zs)


def zero_kernel(lat: LatticeSpec) -> VolterraKernel:
    rows = [
        [condexp(zero_rv(lat), time_field(lat, j)) for j in range(lat.n_steps)]
        for _ in range(lat.n_steps + 1)
    ]
    return VolterraKernel(lat, rows)


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


def node_gaps(a: Sequence[MeasurableRV], b: Sequence[MeasurableRV],
              from_node: int = 0, absolute: bool = False
              ) -> list[tuple[int, float]]:
    """Rows (i, worst over paths of a_i - b_i, or of |a_i - b_i|).

    One row per node from from_node on; a pathwise order or equality
    between two profiles holds when every gap is at most zero.
    """
    rows = []
    for i in range(from_node, len(a)):
        d = (a[i] - b[i]).values
        rows.append((i, float(np.max(np.abs(d) if absolute else d))))
    return rows


def _norm_squared(
    y: AdaptedPath, z: VolterraKernel, w: BetaWeight, full_square: bool
) -> float:
    lat = y.lattice
    dt = lat.dt
    total = 0.0
    for i in range(lat.n_steps + 1):
        total += w.at(lat.node(i)) * expectation(y[i] * y[i]) * dt
    for i in range(lat.n_steps + 1):
        j_lo = 0 if full_square else i
        for j in range(j_lo, lat.n_steps):
            zij = z.at(i, j)
            total += w.at(lat.node(j)) * expectation(zij * zij) * dt * dt
    return total


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
    lat = y1.lattice
    worst = 0.0
    for i in range(lat.n_steps + 1):
        worst = max(worst, (y1[i] - y2[i]).max_abs())
        for j in range(lat.n_steps):
            worst = max(worst, (z1.at(i, j) - z2.at(i, j)).max_abs())
    return worst


def pair_diff(
    y1: AdaptedPath, z1: VolterraKernel, y2: AdaptedPath, z2: VolterraKernel
) -> tuple[AdaptedPath, VolterraKernel]:
    """Entrywise difference of two solution pairs."""
    lat = y1.lattice
    dy = AdaptedPath(lat, [y1[i] - y2[i] for i in range(lat.n_steps + 1)])
    dz = VolterraKernel(
        lat,
        [
            [z1.at(i, j) - z2.at(i, j) for j in range(lat.n_steps)]
            for i in range(lat.n_steps + 1)
        ],
    )
    return dy, dz


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
