"""Independent brute-force oracles used to freeze expected values.

Everything here works directly on full path enumerations with raw bit
arithmetic and NumPy least squares; nothing imports solver internals,
so agreement between the two sides is meaningful.  The one exception is
the last sections, built on the package's primitives: the one-row split
(`split_row`, and `representation_row` on it), the package's split
before every caller swept a stack of rows; the per-entry
frozen-argument wiring (`frozen_args` for one row's arguments at one
slot, `evaluate_driver` for a driver call on them as lattice
variables, each output put back on the coarsest field it needs by
`from_bit_view`), which the package replaced by the stacked bit views
of `solver.SlotReader.slot_args`; a per-slot split of the whole assembled right side
Phi_i, built zeta-first on that wiring, and the map and residual made of
them, the references for the backward induction of `split_row` (which
never builds Phi_i) and for `gamma_map` and `residual`; the flip
equation one entry at a time (`per_entry_build_linearized`, its
`_linearized_terms` and `per_entry_linearized_map`), the reference for
the slot stacks of coefficients and the one-stack flip map of
`malliavin`, with the package's coefficients cut entry by entry as
variables (`coef_entry`, `f_coef`, `g_coef`); the one-row slot
terms as lattice variables (`slot_term` for the map's,
`_linearized_term`, `_linearized_phi` and `_linearized_row` for the flip
equation's), which the package replaced by its stacked terms, and the
residual and the upper-triangle identity summed one row and slot at a
time on them, and the extension identity made one whole table a row;
every row defect summed on whole tables in the order the walk of
extremes eliminates them (`ordered_row_extremes`, `ordered_mean_squares`),
the exact references for `lattice.row_extremes`, with each row's slack
against another order; the map and the
particle map swept one row at a time, with one f call and one g call per
row and slot, the references for the stacked rows of `gamma_map` and
`particle_map`; the whole-pair statistics and the flip of a pair written
one entry at a time, the references for their array expressions over
the dense pair storage;
the stability functional one row and slot at a time on the
per-entry wiring, the reference for `stability_compare`; the
comparison's hypotheses audit one sample at a time with scalar driver
calls, the reference for the array calls of `check_hypotheses`; and a
risk profile solved alone, one payoff and one `picard_solve`, the
reference for the batched positions of `risk.solve_positions`; and
the particle map with each particle swept on its own lane, the
reference for the one sweep of `particles.particle_map`; and the
particle gaps e_n taken on tables of all joint paths
(`lift_single_to_joint`, `full_field_convergence_study`), the reference
for the gaps of `particles.convergence_study` on the joint time field.
The next three sections hold what the package once exported and no
package code calls: the per-entry algebra (`MeasurableRV` arithmetic as
the free functions `add`, `sub`, `mul` and `neg`, `constant`, `at` on a
`PathIndex`, `lift` and `fill_table`, `expectation`, `flip_derivative`
and `b_increment`), in which the lower-triangle identity one entry at a
time (`per_entry_clark_ocone`) is the reference for
`malliavin.check_clark_ocone`; the increments, walks, dependence audits
and forward and backward integrals in that algebra (both integrals are
`_source_sum` with no source); and the pointwise driver evaluators,
sampled driver audits and the sampled audit of a z-map's derived flags
(`audit_z_flags`, its slack scaled by max(1, |k1|)), and before them the
names the per-entry layer kept last (`condexp`, `bit_view`, `max_abs`,
`terminal_rv` and the one-slot `slot_args` and `slot_terms`) with the
conversions between variables and the rows the walks take as (fields,
values) (`rvs`, `rows_of`, `zeta_rvs`, `source_rvs`).  Then comes the
backward induction as it worked out its fields on every call
(`unplanned_sweep`), the reference
for the plan that `lattice.clark_ocone_sweep` replays.  The next holds
the lift as one broadcast copy (`broadcast_onto`), g dB_j as one
broadcast product (`broadcast_times_db`) and the Picard traces made from
two differences an iteration (`two_difference_traces`), the references
for the lifts and products by halves and the one difference of
`picard_solve`; then the frozen arguments read with the means in three
forms (`three_form_slot_args`, on `list_means`), the reference for the
one mean form that `solver.SlotReader.slot_args` reads; and every slot's arguments
sliced and reshaped at the slot (`_frozen_args`, `per_slot_terms`), the
reference for the arrays a `solver.SlotReader` reshapes once a pair; and
the sweep with a new table for every lift and halving of its stack
(`allocating_sweep`), the reference for the sweep into the storage a
Picard loop keeps, and a map's own new tables written into a loop's
storage with the kernel's move folded in (`into_loop`), for maps that do
not sweep into it; and the Picard loop on pairs the step makes and a
distance it is given (`iterate`, `sup_distance`), the reference for the
loop of `solver.iterate`, which owns its tables.

Conventions (the discretisation contract, restated independently):
  * path = (w_bits, b_bits); bit j set means increment j equals +inc;
  * field (k, k) knows W bits < k and B bits >= k; a variable
    measurable there is a table over cidx(k, w, b) below;
  * the equation for node i sums slots j in [i, N): the f part at the
    left node s_j with weight dt, the g part against dB_j with state
    arguments read at the right node s_{j+1} (kernel column N treated
    as zero), minus the W martingale sum;
  * lower-triangle kernel entries satisfy
    Z_ij * dt = E[Y_i dW_j | (j, j)] for j < i.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Iterator, Sequence

import numpy as np

from mfbdsvie import lattice
from mfbdsvie.comparison import HypothesesReport
from mfbdsvie.drivers import (
    DriverPartials,
    DriverSpec,
    TerminalSpec,
    ZPart,
    terminal_walk_values,
)
from mfbdsvie.errors import (
    IndexOutOfRange,
    InvalidIndex,
    LatticeMismatch,
    MeasurabilityViolation,
    NoConvergence,
    ValidationError,
)
from mfbdsvie.fields import (
    AdaptedPath,
    BetaWeight,
    VolterraKernel,
    _path_rows,
    _views,
    m_beta_norm,
    pair_diff,
    pair_sup_diff,
    zero_kernel,
    zero_path,
)
from mfbdsvie.lattice import (
    LatticeSpec,
    MeasurableRV,
    SigmaField,
    _check_bit,
    _max_abs,
    _owned,
    bit_view_shape,
    clark_ocone_sweep,
    flip_rows,
    full_field,
    slot_field,
    terminal_rows,
    time_field,
)
from mfbdsvie.malliavin import IdentityReport, LinearizedScenario, flip_solution
from mfbdsvie.particles import ParticleConfig, solve_particles
from mfbdsvie.solver import (
    Scenario,
    SlotReader,
    _slot_layout,
    _stacked,
    _times_db,
    _weight_mass,
    check_settings,
    gamma_map,
    map_rows,
    means,
    picard_solve,
    reads_swapped,
)


def inc_of(bits: int, j: int, inc: float) -> float:
    return inc * (2.0 * ((bits >> j) & 1) - 1.0)


def cidx(k: int, w: int, b: int, n: int) -> int:
    """Compact cell index of a (k, k)-measurable table at path (w, b)."""
    return (w & ((1 << k) - 1)) * (1 << (n - k)) + (b >> k)


def brute_condexp(values: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Exact conditional expectation on full-path tables.

    values has shape (2^n, 2^n) indexed (w_bits, b_bits); the result is
    the average over W bits >= a and B bits < b, returned full-shape.
    """
    size = 1 << n
    out = np.zeros_like(values)
    w_mask = (1 << a) - 1
    b_mask = ((1 << n) - 1) ^ ((1 << b) - 1)
    sums: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for w in range(size):
        for bb in range(size):
            key = (w & w_mask, bb & b_mask)
            sums[key] = sums.get(key, 0.0) + values[w, bb]
            counts[key] = counts.get(key, 0) + 1
    for w in range(size):
        for bb in range(size):
            key = (w & w_mask, bb & b_mask)
            out[w, bb] = sums[key] / counts[key]
    return out


class LinearSystem:
    """Least-squares assembly of the discrete equation for linear drivers.

    f and g are dicts with keys y, z, z_rev, mean_y, mean_z, mean_z_rev
    (missing -> 0) plus an optional 'source' callable (t, s) -> float.
    zeta is a callable (i, w_bits) -> float (terminal is a W functional).
    """

    def __init__(self, n_steps, horizon, f, g, zeta):
        self.n = n_steps
        self.T = horizon
        self.dt = horizon / n_steps
        self.inc = np.sqrt(self.dt)
        self.f = f
        self.g = g
        self.zeta = zeta
        self.cells = 1 << n_steps  # cells per compact table
        self.n_paths = 1 << (2 * n_steps)
        # unknown layout: Y_0..Y_N then Z_ij row major over (i, j)
        self.ny = (n_steps + 1) * self.cells
        self.nz = (n_steps + 1) * n_steps * self.cells
        self.y_off = lambda i: i * self.cells
        self.z_off = lambda i, j: self.ny + (i * n_steps + j) * self.cells

    def _coef(self, key, d):
        return float(d.get(key, 0.0))

    def _add_driver_terms(self, row, d, weight, i, j_state, w, b, t, s):
        """Add weight * d(args at (i, j_state) read at path (w, b))."""
        n, cells = self.n, self.cells
        row[self.y_off(j_state) + cidx(j_state, w, b, n)] += weight * self._coef(
            "y", d
        )
        if j_state < n:
            row[self.z_off(i, j_state) + cidx(j_state, w, b, n)] += (
                weight * self._coef("z", d)
            )
        if i < n:
            row[self.z_off(j_state, i) + cidx(i, w, b, n)] += weight * self._coef(
                "z_rev", d
            )
        # mean-field arguments: every compact cell is equally likely
        cy = weight * self._coef("mean_y", d) / cells
        if cy != 0.0:
            off = self.y_off(j_state)
            for c in range(cells):
                row[off + c] += cy
        cz = weight * self._coef("mean_z", d) / cells
        if cz != 0.0 and j_state < n:
            off = self.z_off(i, j_state)
            for c in range(cells):
                row[off + c] += cz
        czr = weight * self._coef("mean_z_rev", d) / cells
        if czr != 0.0 and i < n:
            off = self.z_off(j_state, i)
            for c in range(cells):
                row[off + c] += czr
        src = d.get("source")
        return weight * src(t, s) if src is not None else 0.0

    def assemble(self):
        n, cells, dt = self.n, self.cells, self.dt
        n_unknowns = self.ny + self.nz
        rows, rhs = [], []
        size = 1 << n
        for i in range(n + 1):
            t = i * dt
            for w in range(size):
                for b in range(size):
                    row = np.zeros(n_unknowns)
                    row[self.y_off(i) + cidx(i, w, b, n)] += 1.0
                    const = 0.0
                    for j in range(i, n):
                        row[self.z_off(i, j) + cidx(j, w, b, n)] += inc_of(
                            w, j, self.inc
                        )
                        const -= self._add_driver_terms(
                            row, self.f, -dt, i, j, w, b, t, j * dt
                        )
                        db = inc_of(b, j, self.inc)
                        const -= self._add_driver_terms(
                            row, self.g, -db, i, j + 1, w, b, t, (j + 1) * dt
                        )
                    rows.append(row)
                    rhs.append(self.zeta(i, w) + const)
        # lower-triangle pinning: Z_ij dt = E[Y_i dW_j | (j, j)]
        for i in range(n + 1):
            for j in range(i):
                for w in range(size):
                    for b in range(size):
                        row = np.zeros(n_unknowns)
                        row[self.z_off(i, j) + cidx(j, w, b, n)] += dt
                        w_mask = (1 << j) - 1
                        b_mask = ((1 << n) - 1) ^ ((1 << j) - 1)
                        matches = [
                            (w2, b2)
                            for w2 in range(size)
                            for b2 in range(size)
                            if (w2 & w_mask) == (w & w_mask)
                            and (b2 & b_mask) == (b & b_mask)
                        ]
                        for (w2, b2) in matches:
                            row[self.y_off(i) + cidx(i, w2, b2, n)] -= inc_of(
                                w2, j, self.inc
                            ) / len(matches)
                        rows.append(row)
                        rhs.append(0.0)
        return np.array(rows), np.array(rhs)

    def solve(self):
        a, b = self.assemble()
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        resid = float(np.max(np.abs(a @ x - b)))
        y = [x[self.y_off(i) : self.y_off(i) + self.cells] for i in range(self.n + 1)]
        z = [
            [
                x[self.z_off(i, j) : self.z_off(i, j) + self.cells]
                for j in range(self.n)
            ]
            for i in range(self.n + 1)
        ]
        return y, z, resid


class ParticleLinearSystem:
    """Joint-lattice least squares for the linear interacting system.

    Unknowns are per-particle compact tables; the equations encode the
    conditional-expectation fixed point (the pathwise identity cannot
    hold with only the own-particle martingale term, so the system is
    defined exactly the way the display reads: node values are the
    time-field conditionals of the assembled right side, kernel values
    its own-increment projections, empirical means replace plain
    expectations).  The increment of particle p at step j is bit
    j*n_part + p; the time field at node i knows bits below i*n_part.
    """

    def __init__(self, n_part, n_steps, horizon, f, g, zeta):
        self.npart = n_part
        self.n = n_steps
        self.m = n_part * n_steps  # bits per side
        self.T = horizon
        self.dt = horizon / n_steps
        self.inc = np.sqrt(self.dt)
        self.f = f
        self.g = g
        self.zeta = zeta  # callable (particle, i, w_bits) -> float
        self.cells = 1 << self.m
        self.y_off = lambda p, i: (p * (self.n + 1) + i) * self.cells
        base = n_part * (self.n + 1) * self.cells
        self.z_off = lambda p, i, j: base + (
            (p * (self.n + 1) + i) * self.n + j
        ) * self.cells

    def _cidx(self, node, w, b):
        k = node * self.npart
        return (w & ((1 << k) - 1)) * (1 << (self.m - k)) + (b >> k)

    def _inc_of(self, bits, step, p):
        return inc_of(bits, step * self.npart + p, self.inc)

    def _block(self, node):
        """All paths sharing the compact cell of a (node)-field value."""
        k = node * self.npart
        reps = []
        for w_low in range(1 << k):
            for b_high in range(1 << (self.m - k)):
                members = [
                    (w_low | (w_rest << k), (b_high << k) | b_low)
                    for w_rest in range(1 << (self.m - k))
                    for b_low in range(1 << k)
                ]
                reps.append(((w_low, b_high), members))
        return reps

    def _phi_coefs(self, p, i, w, b, row, weight):
        """Accumulate weight * Phi^p_i(path) into the row; return the
        weighted constant part (terminal plus sources)."""
        n, npart, dt = self.n, self.npart, self.dt
        const = weight * self.zeta(p, i, w)
        for j in range(i, n):
            for d, wt, j_state in (
                (self.f, weight * dt, j),
                (self.g, weight * self._inc_of(b, j, p), j + 1),
            ):
                coef = float(d.get("y", 0.0))
                if coef:
                    row[self.y_off(p, j_state) + self._cidx(j_state, w, b)] \
                        += wt * coef
                coef = float(d.get("z", 0.0))
                if coef and j_state < n:
                    row[self.z_off(p, i, j_state)
                        + self._cidx(j_state, w, b)] += wt * coef
                coef = float(d.get("mean_y", 0.0))
                if coef:
                    for q in range(npart):
                        row[self.y_off(q, j_state)
                            + self._cidx(j_state, w, b)] += wt * coef / npart
                coef = float(d.get("mean_z", 0.0))
                if coef and j_state < n:
                    for q in range(npart):
                        row[self.z_off(q, i, j_state)
                            + self._cidx(j_state, w, b)] += wt * coef / npart
                src = d.get("source")
                if src is not None:
                    const += wt * src(i * dt, j_state * dt)
        return const

    def assemble(self):
        n, npart, dt = self.n, self.npart, self.dt
        n_unknowns = npart * (self.n + 1) * self.cells * (1 + self.n)
        rows, rhs = [], []
        for p in range(npart):
            for i in range(n + 1):
                # node values: Y = E[Phi | time field]
                for (cell, members) in self._block(i):
                    row = np.zeros(n_unknowns)
                    w0, b0 = members[0]
                    row[self.y_off(p, i) + self._cidx(i, w0, b0)] += 1.0
                    const = 0.0
                    for (w, b) in members:
                        const += self._phi_coefs(
                            p, i, w, b, row, -1.0 / len(members)
                        )
                    rows.append(row)
                    rhs.append(-const)
                # kernel values: Z dt = E[Phi dW^p_j | slot field]
                for j in range(n):
                    for (cell, members) in self._block(j):
                        row = np.zeros(n_unknowns)
                        w0, b0 = members[0]
                        row[self.z_off(p, i, j)
                            + self._cidx(j, w0, b0)] += dt
                        const = 0.0
                        for (w, b) in members:
                            dw = self._inc_of(w, j, p)
                            if j >= i:
                                const += self._phi_coefs(
                                    p, i, w, b, row, -dw / len(members)
                                )
                            else:
                                row[self.y_off(p, i) + self._cidx(i, w, b)] \
                                    -= dw / len(members)
                        rows.append(row)
                        rhs.append(-const)
        return np.array(rows), np.array(rhs)

    def solve(self):
        a, b = self.assemble()
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        resid = float(np.max(np.abs(a @ x - b)))
        y = [
            [
                x[self.y_off(p, i) : self.y_off(p, i) + self.cells]
                for i in range(self.n + 1)
            ]
            for p in range(self.npart)
        ]
        return y, resid


# -- the one-row split -----------------------------------------------------------
#
# The backward induction on a stack of one row, with a slot term as a
# lattice variable: the package's split before every caller swept a stack
# of rows (`solver.map_rows`, `fields.m_extend`).


def split_row(x: MeasurableRV, i: int, lane: int = 0, first: int = 0,
              term: Callable[[int], MeasurableRV | None] | None = None
              ) -> tuple[MeasurableRV, list[MeasurableRV]]:
    """Y_i and kernel row i of S = x + sum_{m >= i} term(m).

    Y_i = E[S | (i, i)]; the upper triangle j >= i is E[S dW_j | (j, j)] / dt
    against one lane's forward walk, and the lower triangle j < i is the
    representation of Y_i (the M-extension), all from one backward
    induction over the steps (`lattice.clark_ocone_sweep`, a stack of this
    one row) that adds each slot term before it splits the slot's W bits,
    so S is never built.  Without a term this is the split of the given
    table x.  Columns j < first are zero tables and are not computed.
    """
    lat = x.lattice

    def stacked(m, rows):  # on the sweep's slot field, if t is measurable there
        t = term(m)
        if t is None:
            return None
        f = slot_field(lat, m, i)
        f = f if f.contains(t.field) else t.field
        return f, bit_view(t, f)[None]

    (ys,), (zs,) = clark_ocone_sweep(rows_of([[x]]), i, lane, first,
                                     None if term is None else stacked,
                                     swapped=True)
    f = time_field(lat, i)
    return (MeasurableRV(f, _owned(ys)[0].reshape(f.table_shape)),
            list(_views(lat, _owned(zs)[0])))


def representation_row(y_i: MeasurableRV, j: int, lane: int = 0) -> MeasurableRV:
    """Lower-triangle kernel value E[Y_i dW_j | (j, j)] / dt.

    dW_j is the forward increment of the given lane at step j.
    """
    lat = y_i.lattice
    if not 0 <= j < lat.n_steps:
        raise IndexOutOfRange(f"slot {j} outside 0..{lat.n_steps - 1}")
    return split_row(y_i, 0, lane, first=j)[1][j]


# -- reference split, assembly, map and residual --------------------------------
#
# One conditional expectation per kernel entry and every addition at the
# terminal field: slower, and independent of the induction.


def condexp_representation_row(y_i, j, lane=0):
    """E[Y_i dW_j | (j, j)] / dt with one conditional expectation."""
    lat = y_i.lattice
    wj = w_increment(lat, lat.bit_of(j, lane))
    return mul(condexp(mul(y_i, wj), time_field(lat, j)), 1.0 / lat.dt)


def condexp_split_row(phi, i, lane=0, first=0):
    """Y_i and kernel row i, one conditional expectation per column."""
    lat = phi.lattice
    yi = condexp(phi, time_field(lat, i))
    row = [lift(zero_rv(lat), time_field(lat, j)) for j in range(first)]
    row += [condexp_representation_row(yi, j, lane) for j in range(first, i)]
    for j in range(max(i, first), lat.n_steps):
        wj = w_increment(lat, lat.bit_of(j, lane))
        row.append(mul(condexp(mul(phi, wj), time_field(lat, j)),
                       1.0 / lat.dt))
    return yi, row


def condexp_m_extend(y, z_delta):
    """Lower triangle from condexp_representation_row, upper kept."""
    lat = y.lattice
    rows = [[z_delta.at(i, j) if j >= i else condexp_representation_row(y[i], j)
             for j in range(lat.n_steps)] for i in range(lat.n_steps + 1)]
    return VolterraKernel(lat, rows)


# The per-entry frozen-argument wiring: one row and slot at a time, each
# driver output a lattice variable on the join of its arguments' fields.


def from_bit_view(v, f: SigmaField) -> MeasurableRV:
    """The variable whose bit view on f is v, on the coarsest field it needs.

    v broadcasts against f's bit axes (a driver output, a scalar).  Size-1
    axes at the top of the W axes and at the bottom of the B axes are
    increments v is blind to, so they are dropped from the field.
    """
    axes = f.w_upto + f.lattice.n_bits - f.b_from
    shape = (1,) * (axes - np.ndim(v)) + np.shape(v)

    def blind(dims):  # leading size-1 axes
        return next((k for k, d in enumerate(dims) if d != 1), len(dims))

    top, bottom = blind(shape[:f.w_upto]), blind(shape[f.w_upto:][::-1])
    g = SigmaField(f.lattice, f.w_upto - top, f.b_from + bottom)
    return MeasurableRV(g, fill_table(np.reshape(v, shape[top:axes - bottom]), g))


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


def zeta_first_assemble_phi(driver, zeta_i, y, z, ey, ez, i, lane=0):
    """Phi_i summed from zeta_i, so every addition is at the widest field."""
    lat = y.lattice
    t = lat.node(i)
    phi = zeta_i
    for j in range(i, lat.n_steps):
        left, right = frozen_args(y, z, ey, ez, i, j)
        f = evaluate_driver(driver.f_values, t, lat.node(j), left)
        phi = add(phi, mul(f, lat.dt))
        g = evaluate_driver(driver.g_values, t, lat.node(j + 1), right)
        phi = add(phi, mul(g, b_increment(lat, lat.bit_of(j, lane))))
    return phi


def condexp_gamma_map(scs, y, z, out):
    """One map application of each member of a batch, as `picard_solve`'s
    loop calls `gamma_map`: the scenarios, the members' paths and kernels
    as `Stacked`, and the tables out that receive the new pairs.  Each
    member's whole Phi_i of every row, split per slot."""
    new = []
    for m, sc in enumerate(scs):
        lat = sc.lattice
        ym, zm = AdaptedPath(lat, y.values[m]), VolterraKernel(lat, z.values[m])
        ey, ez = entrywise_means(ym, zm)
        ys, rows = zip(*(
            condexp_split_row(
                zeta_first_assemble_phi(sc.driver, zeta_rvs(sc)[i], ym, zm,
                                        ey, ez, i),
                i)
            for i in range(lat.n_steps + 1)))
        new.append((AdaptedPath(lat, ys), VolterraKernel(lat, rows)))
        for table, x in zip(out, new[-1]):
            table[m] = x.values
    return tuple(map(list, zip(*new)))


def assembled_residual(sc, y, z):
    """Worst pathwise |Phi_i - Y_i - sum_{j >= i} Z_ij dW_j| over rows."""
    n = sc.lattice.n_steps
    ey, ez = entrywise_means(y, z)
    return max(
        max_abs(sub(sub(zeta_first_assemble_phi(sc.driver, zeta_rvs(sc)[i],
                                                y, z, ey, ez, i), y[i]),
                    forward_integral(z.z[i], i, n)))
        for i in range(n + 1))


# -- the flip equation one entry at a time -------------------------------------
#
# The coefficients frozen one (row, slot) at a time, each partial a lattice
# variable, and the map with every row a stack of its own: the package's
# flip equation before its coefficients were stacked a slot at a time and
# the rows of a blind driver's map swept as one stack.  `_linearized_terms`
# reads one entry's coefficients as variables, so it serves the per-entry
# scenario below and the package's, whose entries `coef_entry` cuts from
# its stacks (`f_coef` and `g_coef` cut them all, as the package once did).


@dataclass
class PerEntryLinearized:
    """Coefficient fields and sources of the flip equation at one slot.

    f_coef[i][j] holds the six f-partials at the left node (t_i, s_j),
    g_coef[i][j] the six g-partials at the right node (t_i, s_{j+1}),
    both frozen along the base solution (`solver.SlotReader.slot_args`); source[i]
    is the flip of the terminal at node i.  Coefficients are kept for
    every j >= i row because the pinned rows i <= r read slots from r on.
    """

    scenario: Scenario
    base_y: AdaptedPath
    base_z: VolterraKernel
    r_idx: int
    f_coef: list
    g_coef: list
    source: list


def per_entry_build_linearized(sc: Scenario, y: AdaptedPath,
                               z: VolterraKernel, r_idx: int
                               ) -> PerEntryLinearized:
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
        for j in range(i, n):
            f, t, left, right = slot_args(y, z, ey, ez, j, range(i, i + 1))
            f_coef[i][j] = [one_row(f, c) for c in
                            sc.driver.partials(t, lat.node(j), *left)[:6]]
            g_coef[i][j] = [one_row(f, c) for c in
                            sc.driver.partials(t, lat.node(j + 1), *right)[6:]]
    source = [flip_derivative(x, r_idx) for x in zeta_rvs(sc)]
    return PerEntryLinearized(sc, y, z, r_idx, f_coef, g_coef, source)


def _linearized_terms(ls: PerEntryLinearized | LinearizedScenario,
                      u: AdaptedPath, v: VolterraKernel, eu, ev, j: int,
                      rows: range, include_swapped: bool = True):
    """The slot-j term f dt + g dB_j of the flip equation for a stack of
    one row, as (field, values); none below slot r.

    Numpy on the bit views of `solver.SlotReader.slot_args` and of the frozen
    coefficients, added in the order y, z, mean_y, mean_z, then the
    swapped-kernel pair (z_rev, mean_z_rev), left out on the pinned rows.
    """
    if j < ls.r_idx:
        return None
    (i,) = rows
    lat = u.lattice
    slots = (0, 1, 3, 4, 2, 5) if include_swapped else (0, 1, 3, 4)
    f, _, left, right = slot_args(u, v, eu, ev, j, rows)

    def dot(coefs, args):
        return reduce(np.add, (bit_view(coefs[k], f) * args[k]
                               for k in slots))

    db = bit_view(b_increment(lat, j), f)
    if isinstance(ls, PerEntryLinearized):
        fc, gc = ls.f_coef[i][j], ls.g_coef[i][j]
    else:
        fc, gc = coef_entry(ls, i, j, 0), coef_entry(ls, i, j, 1)
    return f, dot(fc, left) * lat.dt + dot(gc, right) * db


def coef_entry(ls: LinearizedScenario, i: int, j: int, side: int) -> list:
    """Entry (i, j)'s six f-partials (side 0) or g-partials (side 1) as
    variables, cut from the slot stacks of ls."""
    f, values = ls.slot_coefs(j, range(i, i + 1))
    axes = f.w_upto + f.lattice.n_bits - f.b_from
    return [from_bit_view(c[0] if c.ndim > axes else c, f)
            for c in values[6 * side:6 * side + 6]]


def _entries(ls: LinearizedScenario, side: int) -> list:
    """Every frozen entry's coefficients of one side, [i][j] for j >= i
    and j >= r."""
    n = ls.scenario.lattice.n_steps
    return [[coef_entry(ls, i, j, side) if j >= max(i, ls.r_idx) else None
             for j in range(n)] for i in range(n + 1)]


def f_coef(ls: LinearizedScenario) -> list:
    """f_coef[i][j]: the six f-partials at the left node (t_i, s_j)."""
    return _entries(ls, 0)


def g_coef(ls: LinearizedScenario) -> list:
    """g_coef[i][j]: the six g-partials at the right node (t_i, s_{j+1})."""
    return _entries(ls, 1)


def per_entry_linearized_map(ls: PerEntryLinearized, pair
                             ) -> tuple[AdaptedPath, VolterraKernel]:
    """One map of the flip equation frozen at pair = (u, v): each row a
    stack of its own (every row reads the swapped-kernel terms), the
    columns <= r left at zero (kernel column r is blind to the flipped
    increment in every kernel) and the path at rows <= r zero, as in the
    entrywise flip."""
    term = partial(_linearized_terms, ls, *pair, *means(*pair))
    (y,), (z,) = map_rows(rows_of([ls.source]), term, True,
                          first=ls.r_idx + 1)
    ys = y.values.copy()
    ys[:ls.r_idx + 1] = 0.0
    return AdaptedPath(y.lattice, _owned(ys)), z


# -- one-row slot terms and the row defects made of them -----------------------
#
# A slot term as a lattice variable, one (row, slot) at a time: the map's
# (slot_term) and the flip equation's (_linearized_term, summed into
# _linearized_phi and split by _linearized_row), as the package made them
# before the residual and the upper-triangle identity read the stacked
# terms through lattice.row_extremes; with those two written one row and
# slot at a time on them.


def slot_term(driver: DriverSpec, y: AdaptedPath, z: VolterraKernel, ey, ez,
              i: int, j: int, lane: int = 0) -> MeasurableRV:
    """Row i's slot-j term f dt + g dB_j, with the given lane's dB_j.

    A stack of one row (`slot_terms`); the term sits on the coarsest field
    it needs, so for a driver blind to z_rev it lives on (j + 1, j).
    """
    return one_row(*slot_terms(driver, y, z, ey, ez, j, range(i, i + 1), lane))


def _linearized_term(ls: LinearizedScenario, u: AdaptedPath, v: VolterraKernel,
                     eu, ev, i: int, j: int, include_swapped: bool
                     ) -> MeasurableRV | None:
    """Row i's slot-j term of the flip equation, f dt + g dB_j (none below
    slot r): the one row of its stack."""
    got = _linearized_terms(ls, u, v, eu, ev, j, range(i, i + 1),
                            include_swapped)
    return None if got is None else one_row(*got)


def _linearized_phi(ls: LinearizedScenario, u: AdaptedPath, v: VolterraKernel,
                    eu, ev, i: int, include_swapped: bool) -> MeasurableRV:
    """Row-i driver sums of the flip equation over slots >= max(i, r)."""
    phi = source_rvs(ls)[i]
    for j in range(max(i, ls.r_idx), ls.scenario.lattice.n_steps):
        phi = add(phi, _linearized_term(ls, u, v, eu, ev, i, j,
                                        include_swapped))
    return phi


def _linearized_row(ls: LinearizedScenario, u: AdaptedPath, v: VolterraKernel,
                    eu, ev, i: int) -> tuple[MeasurableRV, list[MeasurableRV]]:
    """Y_i and kernel row i of one flip-equation map, swapped terms included.

    The terms start at slot r, and kernel column r is blind to the flipped
    increment in every kernel, so the columns <= r are left at zero: the
    entrywise flip's shape.
    """
    term = partial(_linearized_term, ls, u, v, eu, ev, i, include_swapped=True)
    return split_row(source_rvs(ls)[i], i, first=ls.r_idx + 1, term=term)


def one_row(f: SigmaField, v) -> MeasurableRV:
    """The variable of a one-row stack's values v on its slot field f
    (`slot_args`, `slot_terms`), on the coarsest field v needs."""
    axes = f.w_upto + f.lattice.n_bits - f.b_from
    return from_bit_view(v[0] if np.ndim(v) > axes else v, f)


def _source_sum(vals: Sequence[MeasurableRV], j_lo: int, j_hi: int,
                lag: int, increment: Callable, kind: str,
                source: Callable[[int], MeasurableRV] | None = None
                ) -> MeasurableRV:
    """sum_{j in [j_lo, j_hi)} vals_j increment_j, in ascending j.

    Each vals_j must be measurable for the field (j + lag, j + lag), so
    it is independent of its increment and the isometry holds exactly.
    With a source, each summand is source(j) - vals_j increment_j instead
    (the row defects as the package summed them before it grew them in
    one table, then walked them): the running sum grows
    only through the fields its summands need.  Without one it is the
    forward and backward integral below.
    """
    if not vals:
        raise IndexOutOfRange("empty integrand sequence")
    lat = vals[0].lattice
    out = None
    for j in range(j_lo, j_hi):
        k = j + lag
        if not measurable_wrt(vals[j], SigmaField(lat, k, k)):
            raise MeasurabilityViolation(
                f"{kind} integrand at slot {j} depends on increments "
                f"unknown at ({k}, {k})"
            )
        term = mul(vals[j], increment(lat, j))
        if source is not None:
            term = sub(source(j), term)
        out = term if out is None else add(out, term)
    return zero_rv(lat) if out is None else out


def per_row_residual(sc, y, z):
    """Worst pathwise defect, each row's audited sum over its slot_term."""
    n = sc.lattice.n_steps
    ey, ez = means(y, z)
    zeta = zeta_rvs(sc)
    return max(max_abs(add(_source_sum(z.z[i], i, n, 0, w_increment, "forward",
                                       partial(slot_term, sc.driver, y, z, ey,
                                               ez, i)),
                           sub(zeta[i], y[i])))
               for i in range(n + 1))


def whole_table_m_identity(y, z):
    """`fields.m_identity_residual` with each row's defect made whole, as
    one table on (i, 0), before it was read a block at a time."""
    base_field = SigmaField(y.lattice, 0, 0)
    return max(max_abs(add(sub(condexp(y[i], base_field), y[i]),
                           forward_integral(z.z[i], 0, i)))
               for i in range(len(y)))


def per_row_delta_equation(ls):
    """(rows, worst, l2) of the upper-triangle identity: each row's
    _linearized_phi less the forward sum of DZ and the base kernel."""
    lat = ls.scenario.lattice
    n, r = lat.n_steps, ls.r_idx
    u, v = flip_solution(ls.base_y, ls.base_z, r)
    eu, ev = means(u, v)
    rows = []
    worst = 0.0
    l2 = 0.0
    for i in range(r + 1):
        acc = sub(sub(_linearized_phi(ls, u, v, eu, ev, i,
                                      include_swapped=False),
                      forward_integral(v.z[i], r, n)), ls.base_z.at(i, r))
        gap = max_abs(acc)
        rows.append((i, r, gap))
        worst = max(worst, gap)
        l2 += lat.dt * expectation(mul(acc, acc))
    return rows, worst, float(np.sqrt(l2))


# -- the row defects in the walk's order ---------------------------------------
#
# `lattice.row_extremes` builds no defect table: it eliminates the W bits
# from the top.  Each path's defect summed in its order on whole tables has
# the same maxima bit for bit (rounded addition is monotone), and each
# row's slack bounds how far another order of the same summands moves it.

EPS = float(np.finfo(float).eps)


def _ordered_defects(x, target, z, term, slots):
    """Per row i, (D_i, n_i, S_i): D_i = x_i + s_{i,last} + ... +
    s_{i,first} - target_i, summed in that order on whole tables, s_ij =
    term(i, j) - Z_ij dW_j (-Z_ij dW_j for term None), n_i the row's slot
    count and S_i = sup|x_i| + sup|target_i| + sum_j sup|s_ij|.  x and
    target are rows as `lattice.row_extremes` takes them."""
    lat = z.lattice
    x, target = rvs(x), rvs(target)
    for i, row in enumerate(slots):
        acc, scale = x[i], max_abs(x[i]) + max_abs(target[i])
        for j in reversed(row):
            zdw = mul(z.at(i, j), w_increment(lat, j))
            s = neg(zdw) if term is None else sub(term(i, j), zdw)
            acc = add(acc, s)
            scale += max_abs(s)
        yield sub(acc, target[i]), len(row), scale


def ordered_row_extremes(x, target, z, term, slots):
    """Per row i, (sup over every path of |D_i|, slack) of the ordered
    defect (`_ordered_defects`).  The slack is 2 (n_i + 2) eps S_i."""
    return [(max_abs(d), 2 * (n + 2) * EPS * scale)
            for d, n, scale in _ordered_defects(x, target, z, term, slots)]


def ordered_mean_squares(x, target, z, term, slots):
    """Per row i, E[D_i^2] of the ordered defect, averaged over its whole
    table."""
    return [expectation(mul(d, d))
            for d, _, _ in _ordered_defects(x, target, z, term, slots)]


def _worst(rows):
    return max(sup for sup, _ in rows), max(slack for _, slack in rows)


def ordered_residual(sc, y, z):
    """(sup, slack) of `solver.residual` in the walk's order: the worst row
    and the largest slack, on each row's own slot terms (`slot_term`)."""
    n = sc.lattice.n_steps
    term = partial(slot_term, sc.driver, y, z, *means(y, z))
    return _worst(ordered_row_extremes(
        terminal_rows(sc.lattice, sc.zeta), _path_rows(y), z, term,
        [range(i, n) for i in range(n + 1)]))


def ordered_m_identity(y, z):
    """(sup, slack) of `fields.m_identity_residual` in the walk's order."""
    base = SigmaField(y.lattice, 0, 0)
    return _worst(ordered_row_extremes(
        _path_rows(y), rows_of([condexp(yi, base) for yi in y.y]), z, None,
        [range(i) for i in range(len(y))]))


# -- the map one row at a time -------------------------------------------------
#
# Each row is its own backward induction, with its own f and g call per
# slot: the rows of a map before they were stacked.


def per_row_map(driver, zetas, y, z, ey, ez, lane=0):
    """One map of the rows of a terminal table zetas, each row swept
    alone."""
    lat = y.lattice
    zetas = rvs(terminal_rows(lat, zetas))
    ys, rows = zip(*(
        split_row(zetas[i], i, lane=lane,
                  term=partial(slot_term, driver, y, z, ey, ez, i, lane=lane))
        for i in range(lat.n_steps + 1)))
    return AdaptedPath(lat, ys), VolterraKernel(lat, rows)


def per_row_gamma_map(sc, y, z):
    return per_row_map(sc.driver, sc.zeta, y, z, *means(y, z))


def per_row_particle_map(driver, zetas, pairs):
    joint = pairs[0][0].lattice
    k = 1.0 / len(pairs)
    mean_y = reduce(np.add, [y.values for y, _ in pairs]) * k
    mean_z = reduce(np.add, [z.values for _, z in pairs]) * k
    return [per_row_map(driver, zetas[p], y, z, mean_y, mean_z, lane=p)
            for p, (y, z) in enumerate(pairs)]


# -- per-entry whole-pair statistics -------------------------------------------
#
# One Python step per path or kernel entry, through y[i] and z.at(i, j):
# the references for the array expressions of fields and solver, for the
# flip of a whole pair in `malliavin.flip_solution`, and for the
# lower-triangle identity of `malliavin.check_clark_ocone`.


def entrywise_flip_solution(y, z, r_idx):
    """`flip_derivative` of every entry, the pair rebuilt from variables."""
    return (AdaptedPath(y.lattice, [flip_derivative(yi, r_idx) for yi in y.y]),
            VolterraKernel(y.lattice, [[flip_derivative(zij, r_idx)
                                        for zij in row] for row in z.z]))


def per_entry_clark_ocone(y, z, r_idx):
    """`malliavin.check_clark_ocone` on the entry views: each row's flip a
    variable, conditioned, less the kernel entry."""
    lat = y.lattice
    if not 0 <= r_idx < lat.n_steps:
        raise IndexOutOfRange(f"slot {r_idx} outside 0..{lat.n_steps - 1}")
    rows = []
    worst = 0.0
    for i in range(r_idx + 1, lat.n_steps + 1):
        lhs = z.at(i, r_idx)
        rhs = condexp(flip_derivative(y[i], r_idx), time_field(lat, r_idx))
        gap = max_abs(sub(lhs, rhs))
        rows.append((i, r_idx, gap))
        worst = max(worst, gap)
    return IdentityReport(rows=rows, worst=worst)


def entrywise_pair_sup_diff(y1, z1, y2, z2):
    lat = y1.lattice
    worst = 0.0
    for i in range(lat.n_steps + 1):
        worst = max(worst, max_abs(sub(y1[i], y2[i])))
        for j in range(lat.n_steps):
            worst = max(worst, max_abs(sub(z1.at(i, j), z2.at(i, j))))
    return worst


def entrywise_pair_diff(y1, z1, y2, z2):
    lat = y1.lattice
    dy = AdaptedPath(lat, [sub(y1[i], y2[i]) for i in range(lat.n_steps + 1)])
    dz = VolterraKernel(lat, [[sub(z1.at(i, j), z2.at(i, j))
                               for j in range(lat.n_steps)]
                              for i in range(lat.n_steps + 1)])
    return dy, dz


def entrywise_norm_squared(y, z, w, full_square):
    lat = y.lattice
    dt = lat.dt
    total = 0.0
    for i in range(lat.n_steps + 1):
        total += w.at(lat.node(i)) * expectation(mul(y[i], y[i])) * dt
    for i in range(lat.n_steps + 1):
        for j in range(0 if full_square else i, lat.n_steps):
            zij = z.at(i, j)
            total += w.at(lat.node(j)) * expectation(mul(zij, zij)) * dt * dt
    return total


def entrywise_means(y, z):
    n = y.lattice.n_steps
    ey = [expectation(y[i]) for i in range(n + 1)]
    ez = [[expectation(z.at(i, j)) for j in range(n)] for i in range(n + 1)]
    return ey, ez


def entrywise_node_gaps(a, b, from_node=0, absolute=False):
    rows = []
    for i in range(from_node, len(a)):
        d = sub(a[i], b[i]).values
        rows.append((i, float(np.max(np.abs(d) if absolute else d))))
    return rows


# -- the stability functional one entry at a time ------------------------------
#
# The driver differences on frozen_args and evaluate_driver, and the norm
# of the solution difference one entry at a time: the reference for
# stability_compare, which reads the stacked arguments of slot_args.


def entrywise_stability(sc1, sc2, y1, z1, y2, z2):
    """(lhs, zeta_term, f_term, g_term) along the solutions (y1, z1) of sc1
    and (y2, z2) of sc2, the driver differences frozen along solution 2."""
    lat = sc1.lattice
    n, dt = lat.n_steps, lat.dt
    w = BetaWeight(sc1.beta)
    lhs = entrywise_norm_squared(*entrywise_pair_diff(y1, z1, y2, z2), w,
                                 full_square=False)
    zeta_term = 0.0
    for i in range(n + 1):
        dz = sub(zeta_rvs(sc1)[i], zeta_rvs(sc2)[i])
        zeta_term += w.at(lat.node(i)) * expectation(mul(dz, dz)) * dt
    ey, ez = entrywise_means(y2, z2)
    f_term = g_term = 0.0
    d1, d2 = sc1.driver, sc2.driver
    for i in range(n + 1):
        t = lat.node(i)
        for j in range(i, n):
            left, right = frozen_args(y2, z2, ey, ez, i, j)
            s, sr = lat.node(j), lat.node(j + 1)
            df = sub(evaluate_driver(d1.f_values, t, s, left),
                     evaluate_driver(d2.f_values, t, s, left))
            f_term += w.at(s) * expectation(mul(df, df)) * dt * dt
            dg = sub(evaluate_driver(d1.g_values, t, sr, right),
                     evaluate_driver(d2.g_values, t, sr, right))
            g_term += w.at(s) * expectation(mul(dg, dg)) * dt * dt
    return lhs, zeta_term, f_term, g_term


# -- the hypotheses audit one sample at a time ---------------------------------
#
# The comparison audit as the package made it before its drivers were
# called once per argument set on the arrays of all samples: 13 scalar
# driver calls per sample and a running max.  The reference for
# comparison._sample_hypotheses, which must match it bit for bit.


def per_sample_hypotheses(cs, n_samples=400, seed=20240604):
    """The six worst values of the audit, one sample at a time, drawn from
    the same `random.Random(seed)` stream in the same order."""
    rng = random.Random(seed)
    lat = cs.lattice
    lo = hi = my = mm = rf = -np.inf
    for _ in range(n_samples):
        t = rng.uniform(0.0, lat.horizon)
        s = rng.uniform(t, lat.horizon)
        y, z, ybar = (rng.gauss(0.0, 2.0) for _ in range(3))
        args = (y, z, 0.0, ybar, 0.0, 0.0)
        v1 = cs.f1.f_values(t, s, *args)
        vb = cs.fbar.f_values(t, s, *args)
        v2 = cs.f2.f_values(t, s, *args)
        lo = max(lo, v1 - vb)
        hi = max(hi, vb - v2)
        dy = abs(rng.gauss(0.0, 1.0))
        up_y = cs.fbar.f_values(t, s, y + dy, z, 0.0, ybar, 0.0, 0.0)
        my = max(my, vb - up_y)
        up_m = cs.fbar.f_values(t, s, y, z, 0.0, ybar + dy, 0.0, 0.0)
        mm = max(mm, vb - up_m)
        # reduced form: nothing may read the swapped-kernel slots
        zr, mzr, mz = (rng.gauss(0.0, 3.0) for _ in range(3))
        for d in (cs.f1, cs.fbar, cs.f2):
            rf = max(rf, abs(
                d.f_values(t, s, y, z, zr, ybar, mz, mzr)
                - d.f_values(t, s, y, z, 0.0, ybar, 0.0, 0.0)
            ))
        rf = max(rf, abs(
            cs.g.g_values(t, s, y, z, zr, ybar, mz, mzr)
            - cs.g.g_values(t, s, y, z, 0.0, ybar, 0.0, 0.0)
        ))
    term_gap = -np.inf
    for i in range(lat.n_steps + 1):
        d = sub(terminal_rv(cs.zeta1, lat, i), terminal_rv(cs.zeta2, lat, i))
        term_gap = max(term_gap, float(np.max(d.values)))
    return HypothesesReport(
        worst_order_low=float(lo), worst_order_high=float(hi),
        worst_monotone_y=float(my), worst_monotone_mean=float(mm),
        worst_reduced_form=float(rf),
        worst_terminal_order=float(term_gap),
    )


# -- one risk position, one solve ----------------------------------------------
#
# A risk profile as the package solved it before the positions of a spec
# were the members of one batch: one payoff, one `picard_solve`.  The
# reference for `risk.solve_positions`, whose profiles must match it bit
# for bit.


def solo_solve(rs, term):
    """The profile of one terminal, alone (`RiskSpec._solve` as it was)."""
    sc = Scenario(rs.lattice, rs.driver, term,
                  beta=rs.beta, safety=rs.safety)
    y, _, _ = picard_solve(sc, tol=rs.tol, max_iter=rs.max_iter,
                           report=False)
    return y


def solo_rho(rs, p):
    """The profile of position p, solved alone (`rho` as it was)."""
    return solo_solve(rs, p.zeta.negated())


# -- each particle its own sweep -----------------------------------------------
#
# The particle map as the package made it before the particles were the
# members of one sweep: one `map_rows` call per particle, each on its own
# lane with the shared empirical means.  The reference for
# `particles.particle_map`, whose pairs must match it bit for bit.


def per_lane_particle_map(driver, zetas, pairs):
    """One map application for every particle, each swept on its own lane."""
    joint = pairs[0][0].lattice
    k = 1.0 / len(pairs)
    mean_y = reduce(np.add, [y.values for y, _ in pairs]) * k
    mean_z = reduce(np.add, [z.values for _, z in pairs]) * k
    swapped = reads_swapped(driver)
    return [tuple(x[0] for x in map_rows(
        terminal_rows(joint, zetas[p:p + 1]),
        partial(slot_terms, driver, y, z, mean_y, mean_z, lane=p,
                swapped=swapped), swapped, lane=p))
            for p, (y, z) in enumerate(pairs)]


# -- the particle gaps on full joint tables --------------------------------------
#
# e_n(t_i) as the package computed it before the gap was taken on the joint
# time field: particle 1's Y and the mean-field Y each filled onto the table
# of all 4^(nN) joint paths, the mean-field side through
# `lift_single_to_joint`.  The reference for `particles.convergence_study`,
# whose rows must match it to rounding.


def lift_single_to_joint(rv: MeasurableRV, single: LatticeSpec,
                         joint: LatticeSpec, lane: int) -> np.ndarray:
    """Full-path table of a single-lattice variable on the joint lattice,
    reading only the given lane's increments."""
    view = bit_view(rv, full_field(single))
    # each single-lattice bit axis becomes its step's group of lane axes
    # (lanes descending), with size 1 for the other lanes
    above, below = (1,) * (joint.lanes - 1 - lane), (1,) * lane
    shape = [k for d in view.shape for k in (*above, d, *below)]
    return fill_table(view.reshape(shape), full_field(joint))


def full_field_convergence_study(base: Scenario, n_list: list[int],
                                 tol: float = 1e-12, max_iter: int = 300
                                 ) -> list[tuple[int, int, float]]:
    """Rows (n, t_idx, e_n) of `convergence_study`, each gap the mean of a
    table of all joint paths."""
    y_mf, _, _ = picard_solve(base, tol=tol, max_iter=max_iter, report=False)
    single = base.lattice
    rows = []
    for npart in n_list:
        pc = ParticleConfig(
            n_particles=npart, lattice=single, driver=base.driver,
            terminal=base.terminal, tol=tol, max_iter=max_iter,
        )
        joint = pc.joint_lattice()
        y, _ = solve_particles(pc)
        for i in range(single.n_steps + 1):
            a = lift(y[0][i], full_field(joint)).values
            b = lift_single_to_joint(y_mf[i], single, joint, 0)
            gap = float(np.mean((a - b) ** 2))
            rows.append((npart, i, gap))
    return rows


# -- the per-entry layer's last names and the row form ------------------------
#
# What the package kept of its per-entry layer until every walk took its
# rows as (fields, values): the conditional expectation of one variable
# (`condexp`), a variable's bit view (`bit_view`) and sup (`max_abs`), the
# terminal built one node at a time (`terminal_rv`, the reference for
# `drivers.terminal_table`), and one slot read through a reader of its own
# (`slot_args`, `slot_terms`); and the conversions between variables and
# the row form (`rvs`, `rows_of`, `zeta_rvs`, `source_rvs`).


def condexp(x: MeasurableRV, f: SigmaField) -> MeasurableRV:
    """Exact conditional expectation of x given the two-sided field f.

    Averages uniformly over the W increments with index >= f.w_upto and
    the B increments with index < f.b_from; the result is declared
    f-measurable.
    """
    if x.lattice != f.lattice:
        raise LatticeMismatch("value and field on different lattices")
    return MeasurableRV(f, _owned(lattice._onto(
        x.values[None], lattice._onto_op(x.field, f))[0]))


def bit_view(x: MeasurableRV, f: SigmaField) -> np.ndarray:
    """x's table with one axis per increment the finer field f knows."""
    if not f.contains(x.field):
        raise MeasurabilityViolation(
            f"cannot lift ({x.field.w_upto},{x.field.b_from}) onto "
            f"non-refining ({f.w_upto},{f.b_from})")
    return x.values.reshape(bit_view_shape(x.field, f))


def max_abs(x: MeasurableRV) -> float:
    return _max_abs(x.values)


def terminal_rv(term: TerminalSpec, lat: LatticeSpec, t_idx: int,
                lane: int = 0) -> MeasurableRV:
    """zeta(t_idx) as a lattice variable on the terminal field."""
    if not 0 <= t_idx <= lat.n_steps:
        raise InvalidIndex(f"node {t_idx} outside the grid")
    w = terminal_walk_values(lat, lane)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = term.value(lat.node(t_idx), w)
    if not np.isfinite(vals).all():
        raise ValidationError(f"terminal at node {t_idx} overflows a float")
    f = SigmaField(lat, lat.n_bits, lat.n_bits)
    return MeasurableRV(f, np.asarray(vals, dtype=float)[:, None])


def rvs(x: tuple) -> list[MeasurableRV]:
    """Rows (fields, values), values (row, entries), as variables."""
    return [MeasurableRV(f, v.reshape(f.table_shape)) for f, v in zip(*x)]


def rows_of(x: Sequence) -> tuple:
    """Variables as the walks take rows: a sequence of them gives (fields,
    values) with values (row, entries), a list of such sequences, one a
    member on the same fields, values (member, row, entries)."""
    if isinstance(x[0], MeasurableRV):
        fields, values = rows_of([x])
        return fields, values[0]
    fields = tuple(v.field for v in x[0])
    return fields, np.array([[v.values.reshape(-1) for v in xm] for xm in x])


def zeta_rvs(sc: Scenario) -> list[MeasurableRV]:
    """A scenario's terminals as variables, one a node."""
    return rvs(terminal_rows(sc.lattice, sc.zeta))


def source_rvs(ls) -> list[MeasurableRV]:
    """A flip equation's source as variables, one a node."""
    if isinstance(ls, PerEntryLinearized):
        return ls.source
    return rvs(terminal_rows(ls.scenario.lattice, ls.source))


def slot_args(y, z, ey, ez, j: int, rows: range, swapped: bool = True
              ) -> tuple[SigmaField, np.ndarray, tuple, tuple]:
    """`SlotReader.slot_args` of one slot through a reader of its own."""
    return SlotReader(y, z, ey, ez).slot_args(j, rows, swapped)


def slot_terms(driver: DriverSpec, y, z, ey, ez, j: int, rows: range,
               lane: int | tuple = 0, swapped: bool = True
               ) -> tuple[SigmaField, np.ndarray]:
    """`SlotReader.slot_terms` of one slot through a reader of its own."""
    return SlotReader(y, z, ey, ez).slot_terms(driver, j, rows, lane, swapped)


# -- the per-entry algebra ---------------------------------------------------
#
# `MeasurableRV` arithmetic, lifts, evaluation at one path, plain
# expectations, the flip of one variable and the backward increments, as
# the package kept them before its callers worked on the dense arrays and
# its entry type became a (field, table) record.  The operators are free
# functions on a variable and a variable or a number, two variables lifted
# to the join of their fields.


@dataclass(frozen=True)
class PathIndex:
    """One sample point: sign codes for all W and all B increments.

    Bit j of w_bits (resp. b_bits) is 1 when increment j is +inc.
    """

    w_bits: int
    b_bits: int


def constant(lat: LatticeSpec, value: float) -> MeasurableRV:
    """value on the trivial field (no information: constants only)."""
    f = SigmaField(lat, 0, lat.n_bits)
    return MeasurableRV(f, _owned(np.full(f.table_shape, float(value))))


def _binary(x: MeasurableRV, other, op) -> MeasurableRV:
    """op(x, other), other a variable or a number: two variables on the join
    of their fields, a number against x's table."""
    if isinstance(other, MeasurableRV):
        if x.lattice != other.lattice:
            raise LatticeMismatch("operands on different lattices")
        f = x.field.join(other.field)
        out = op(bit_view(x, f), bit_view(other, f))
        return MeasurableRV(f, _owned(out.reshape(f.table_shape)))
    return MeasurableRV(x.field, _owned(op(x.values, float(other))))


def add(x: MeasurableRV, other) -> MeasurableRV:
    return _binary(x, other, np.add)


def sub(x: MeasurableRV, other) -> MeasurableRV:
    return _binary(x, other, np.subtract)


def mul(x: MeasurableRV, other) -> MeasurableRV:
    return _binary(x, other, np.multiply)


def neg(x: MeasurableRV) -> MeasurableRV:
    return MeasurableRV(x.field, _owned(-x.values))


def at(x: MeasurableRV, path: PathIndex) -> float:
    """x's value on one path."""
    w = path.w_bits & ((1 << x.field.w_upto) - 1)
    b = path.b_bits >> x.field.b_from
    return float(x.values[w, b])


def fill_table(v, f: SigmaField) -> np.ndarray:
    """A value broadcasting against f's bit axes, as f's C-ordered table.

    The result is read-only: a fresh table, or a view of v when v already
    is one.
    """
    axes = f.w_upto + f.lattice.n_bits - f.b_from
    return _owned(np.ascontiguousarray(
        np.broadcast_to(v, (2,) * axes).reshape(f.table_shape)))


def lift(x: MeasurableRV, f: SigmaField) -> MeasurableRV:
    """Re-express x on the finer field f (no information change)."""
    return MeasurableRV(f, fill_table(bit_view(x, f), f))


def expectation(x: MeasurableRV) -> float:
    """Plain expectation: uniform average over all paths."""
    return float(x.values.mean())


def flip_derivative(x: MeasurableRV, j: int) -> MeasurableRV:
    """Discrete Malliavin derivative in the W direction at slot j.

    (x with dW_j = +inc minus x with dW_j = -inc) / (2 inc); linear,
    annihilates anything blind to dW_j, and the result never depends on
    dW_j itself.
    """
    _check_bit(x.lattice, j)
    d = flip_rows(x.values.reshape(-1), x.field.w_upto, j, x.lattice.inc)
    return MeasurableRV(x.field, _owned(d.reshape(x.field.table_shape)))


@lru_cache(maxsize=1024)
def b_increment(lat: LatticeSpec, j: int) -> MeasurableRV:
    """The j-th backward increment, +/- inc by sign bit j (shared: immutable)."""
    _check_bit(lat, j)
    f = SigmaField(lat, 0, j)
    c = np.arange(1 << (lat.n_bits - j))
    signs = 2.0 * (c & 1) - 1.0
    return MeasurableRV(f, _owned((lat.inc * signs)[None, :]))


# -- increments, walks, dependence audits and integrals --------------------
#
# `MeasurableRV` arithmetic the package once kept as public API; every
# exact identity now goes through `lattice.row_extremes` and
# `clark_ocone_sweep`, so these serve the tests only.


def all_paths(lat: LatticeSpec) -> Iterator[PathIndex]:
    """Total ordered enumeration of all 4^M paths (use on small lattices)."""
    m = 1 << lat.n_bits
    for w in range(m):
        for b in range(m):
            yield PathIndex(w, b)


def zero_rv(lat: LatticeSpec) -> MeasurableRV:
    return constant(lat, 0.0)


def w_increment(lat: LatticeSpec, j: int) -> MeasurableRV:
    """The j-th forward increment, +/- inc by sign bit j."""
    _check_bit(lat, j)
    f = SigmaField(lat, j + 1, lat.n_bits)
    w = np.arange(1 << (j + 1))
    signs = 2.0 * ((w >> j) & 1) - 1.0
    return MeasurableRV(f, _owned((lat.inc * signs)[:, None]))


def w_level(lat: LatticeSpec, i: int) -> MeasurableRV:
    """Walk value W(t_i) = sum of the first i*lanes forward increments."""
    out = zero_rv(lat)
    for j in range(i * lat.lanes):
        out = add(out, w_increment(lat, j))
    return out


def b_tail(lat: LatticeSpec, i: int) -> MeasurableRV:
    """B(T) - B(t_i) = sum of backward increments with index >= i*lanes."""
    out = zero_rv(lat)
    for j in range(i * lat.lanes, lat.n_bits):
        out = add(out, b_increment(lat, j))
    return out


def _varies(x: MeasurableRV, axis: int) -> bool:
    v = bit_view(x, x.field)
    return bool(np.any(v.take(0, axis) != v.take(1, axis)))


def depends_on_w_bit(x: MeasurableRV, j: int) -> bool:
    """True when the value table actually varies with W increment j."""
    _check_bit(x.lattice, j)
    return j < x.field.w_upto and _varies(x, x.field.w_upto - 1 - j)


def depends_on_b_bit(x: MeasurableRV, j: int) -> bool:
    """True when the value table actually varies with B increment j."""
    _check_bit(x.lattice, j)
    a, m = x.field.w_upto, x.lattice.n_bits
    return j >= x.field.b_from and _varies(x, a + m - 1 - j)


def measurable_wrt(x: MeasurableRV, f: SigmaField) -> bool:
    """Value-based audit: does x genuinely depend only on what f knows?"""
    for j in range(f.w_upto, x.field.w_upto):
        if depends_on_w_bit(x, j):
            return False
    for j in range(x.field.b_from, f.b_from):
        if depends_on_b_bit(x, j):
            return False
    return True


def forward_integral(
    z: Sequence[MeasurableRV], j_lo: int, j_hi: int
) -> MeasurableRV:
    """Discrete forward Ito integral sum_{j in [j_lo, j_hi)} z_j dW_j.

    Each integrand is taken at the left node and must be measurable for
    the field (j, j) there, so it cannot see its own increment.
    """
    return _source_sum(z, j_lo, j_hi, 0, w_increment, "forward")


def backward_integral(
    g_vals: Sequence[MeasurableRV], j_lo: int, j_hi: int
) -> MeasurableRV:
    """Discrete backward Ito integral sum_{j in [j_lo, j_hi)} g_j dB_j.

    The integrand multiplying dB_j carries right-node information: it
    must be measurable for (j+1, j+1), whose B part starts after j, so
    dB_j is independent of it.
    """
    return _source_sum(g_vals, j_lo, j_hi, 1, b_increment, "backward")


# -- pointwise driver evaluation and sampled driver audits -----------------
#
# A driver at one grid pair, and sampled checks of its declared
# constants and partials and of a z-map's derived flags.  The CLI
# refuses a declared constant below the family's closed form, and the
# Python API trusts it.


def _check_grid(lat: LatticeSpec, t_idx: int, s_idx: int) -> tuple[float, float]:
    if not (0 <= t_idx <= lat.n_steps and 0 <= s_idx <= lat.n_steps):
        raise InvalidIndex(f"grid indices ({t_idx}, {s_idx}) outside the lattice")
    return lat.node(t_idx), lat.node(s_idx)


def eval_f(d: DriverSpec, lat: LatticeSpec, t_idx: int, s_idx: int,
           y, z, z_rev, mean_y, mean_z, mean_z_rev) -> float:
    t, s = _check_grid(lat, t_idx, s_idx)
    return float(d.f_values(t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev))


def eval_g(d: DriverSpec, lat: LatticeSpec, t_idx: int, s_idx: int,
           y, z, z_rev, mean_y, mean_z, mean_z_rev) -> float:
    t, s = _check_grid(lat, t_idx, s_idx)
    return float(d.g_values(t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev))


def eval_partials(d: DriverSpec, lat: LatticeSpec, t_idx: int, s_idx: int,
                  y, z, z_rev, mean_y, mean_z, mean_z_rev) -> DriverPartials:
    t, s = _check_grid(lat, t_idx, s_idx)
    p = d.partials(t, s, y, z, z_rev, mean_y, mean_z, mean_z_rev)
    return DriverPartials(*[float(v) for v in p])


def lipschitz_audit(d: DriverSpec, horizon: float, n_samples: int = 1000,
                    seed: int = 20240601, scale: float = 3.0) -> tuple[float, float]:
    """Worst sampled squared-difference ratios (f against c, g against alpha).

    Returns (worst_f_excess, worst_g_excess): positive excess means the
    declared constant fails to dominate.
    """
    rng = np.random.default_rng(seed)
    worst_f = worst_g = -math.inf
    for _ in range(n_samples):
        t = rng.uniform(0.0, horizon)
        s = rng.uniform(t, horizon)
        a1 = scale * rng.standard_normal(6)
        a2 = scale * rng.standard_normal(6)
        gap = float(np.sum((a1 - a2) ** 2))
        if gap == 0.0:
            continue
        df = d.f_values(t, s, *a1) - d.f_values(t, s, *a2)
        dg = d.g_values(t, s, *a1) - d.g_values(t, s, *a2)
        worst_f = max(worst_f, df * df / gap - d.lipschitz_c)
        worst_g = max(worst_g, dg * dg / gap - d.lipschitz_alpha)
    return worst_f, worst_g


def partials_audit(d: DriverSpec, horizon: float, n_points: int = 100,
                   seed: int = 20240602, scale: float = 2.0,
                   step: float = 1e-5) -> float:
    """Worst |analytic - central difference| over sampled points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        t = rng.uniform(0.0, horizon)
        s = rng.uniform(t, horizon)
        args = scale * rng.standard_normal(6)
        p = d.partials(t, s, *args)
        for k in range(6):
            hi = args.copy()
            lo = args.copy()
            hi[k] += step
            lo[k] -= step
            fd_f = (d.f_values(t, s, *hi) - d.f_values(t, s, *lo)) / (2 * step)
            fd_g = (d.g_values(t, s, *hi) - d.g_values(t, s, *lo)) / (2 * step)
            worst = max(worst, abs(p[k] - fd_f), abs(p[6 + k] - fd_g))
    return worst


def partial_bound_audit(d: DriverSpec, horizon: float, n_points: int = 100,
                        seed: int = 20240603, scale: float = 2.0) -> tuple[float, float]:
    """Worst sampled |f-partial| - c and |g-partial| - alpha excesses."""
    rng = np.random.default_rng(seed)
    worst_f = worst_g = -math.inf
    for _ in range(n_points):
        t = rng.uniform(0.0, horizon)
        s = rng.uniform(t, horizon)
        args = scale * rng.standard_normal(6)
        p = d.partials(t, s, *args)
        worst_f = max(worst_f, max(abs(v) for v in p[:6]) - d.lipschitz_c)
        worst_g = max(worst_g, max(abs(v) for v in p[6:]) - d.lipschitz_alpha)
    return worst_f, worst_g


def audit_z_flags(part: ZPart, n_samples: int = 200,
                  seed: int = 20240605) -> None:
    """Sampled consistency check of the derived structure flags.

    The slack is 1e-10 times max(1, |k1|): the rounding of k1 z is of
    order |k1| |z| eps, so a fixed slack would refuse a steep valid map.
    """
    rng = np.random.default_rng(seed)
    slack = 1e-10 * max(1.0, abs(part.k1))
    z1 = rng.standard_normal(n_samples) * 3.0
    z2 = rng.standard_normal(n_samples) * 3.0
    lam = rng.uniform(0.0, 1.0, n_samples)
    v1, v2 = part.value(z1), part.value(z2)
    if part.convex:
        mid = part.value(lam * z1 + (1 - lam) * z2)
        if np.max(mid - (lam * v1 + (1 - lam) * v2)) > slack:
            raise ValidationError(f"z-map '{part.kind}' is not convex")
    if part.positively_homogeneous:
        scale = rng.uniform(0.1, 4.0, n_samples)
        if np.max(np.abs(part.value(scale * z1) - scale * v1)) > slack:
            raise ValidationError(
                f"z-map '{part.kind}' is not positively homogeneous"
            )
    if part.subadditive:
        if np.max(part.value(z1 + z2) - (v1 + v2)) > slack:
            raise ValidationError(f"z-map '{part.kind}' is not subadditive")
    if part.additive:
        if np.max(np.abs(part.value(z1 + z2) - (v1 + v2))) > slack:
            raise ValidationError(f"z-map '{part.kind}' is not additive")
    lip = part.lipschitz
    gaps = np.abs(v1 - v2)
    steps = np.abs(z1 - z2)
    if np.max(gaps - lip * steps) > slack:
        raise ValidationError(f"z-map '{part.kind}' breaks its Lipschitz bound")


# -- the sweep before its field algebra was planned ------------------------------
#
# `lattice.clark_ocone_sweep` as the package ran it before it replayed a
# plan built once per lattice: every call joins the fields, works out the
# shapes of each lift and average and checks each term's field.  The
# reference for the planned sweep, which must match it bit for bit.


def _lift_rows(v: np.ndarray, g: SigmaField, f: SigmaField) -> np.ndarray:
    """A stack of g's tables (leading row, or member and row, axes) as a
    stack of f's tables."""
    if g == f:
        return v
    lead = v.shape[:-2]
    full = lead + (2,) * (f.w_upto + f.lattice.n_bits - f.b_from)
    wide = np.broadcast_to(v.reshape(lead + bit_view_shape(g, f)), full)
    return np.ascontiguousarray(wide).reshape(lead + f.table_shape)


def _onto(v: np.ndarray, g: SigmaField, f: SigmaField) -> np.ndarray:
    """A stack of g's tables conditioned on f, as a stack of f's tables.

    The W increments >= f.w_upto are the top bits of the W index and the
    B increments < f.b_from the low bits of the B index; both are averaged
    out, and the result is lifted onto f.  Axes ahead of the table's two
    (members, rows) are kept.
    """
    a, b, lead = g.w_upto, g.b_from, v.shape[:-2]
    if a > f.w_upto:
        v = v.reshape(lead + (1 << (a - f.w_upto), -1, v.shape[-1])).mean(
            axis=-3)
    if b < f.b_from:
        v = v.reshape(lead + (v.shape[-2], -1, 1 << (f.b_from - b))).mean(
            axis=-1)
    coarse = SigmaField(f.lattice, min(a, f.w_upto), max(b, f.b_from))
    return _lift_rows(v, coarse, f)


def unplanned_sweep(x: tuple, i: int, lane: int | Sequence[int] = 0,
                      first: int = 0, term: Callable | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Y and the kernel rows of a stack of rows i, i + 1, ..., one per x.

    Row r's sum S_r = x_r + sum_{m >= r} term_r(m) is never built: the
    rows share one table with a leading row axis, and the induction walks
    the steps m from the last down.  At step m it adds the slot-m terms of
    the rows r <= m, then walks the step's W bits from the highest down
    (the discrete Clark-Ocone formula).  At the given lane's bit the halved
    difference over the bit divided by inc, conditioned on the slot field
    (m, m), is column m of every row, E[S_r dW_m | (m, m)] / dt; then the
    bit is averaged out.  With a lane per member (below) only the members
    on the bit's lane read that column.  The split is linear and a term at
    a slot m' < m is blind to the bits of step m, so the earlier terms add
    nothing to that column.  After step r row r is Y_r, conditioned on
    (r, r), and it stays in the stack, so its columns j < r are the
    representation of Y_r.  Each bit costs a few passes over the stack:
    terms on the field (m + 1, m) keep it at 2^(M + lanes) entries a row.

    x is (fields, values), values a table (member, row, entries) of the
    members' rows on the same fields, each row a new contiguous copy.  The
    stack has a leading member axis ahead of the row axis, and the members
    advance together; every operation is the same on each member's rows as
    on a stack of them alone.

    term(m, rows) gives the slot-m terms of the rows `rows` (those at or
    below m) as (field, values), values broadcasting against the leading
    (member,) row axes and the field's bit axes; a field past
    ((m + 1) lanes, .) knows W bits of later steps, would feed columns
    already read, and raises MeasurabilityViolation.  A row without terms
    joins the stack at the step of the highest W bit its x knows, so the
    stack of a path's rows (the M-extension) grows downwards as the walk
    reaches them; rows that join at one step are a block right below
    those that joined earlier.

    Columns j < first are not computed.  Returns (ys, zs): ys[p, k] is
    the table of member p's Y_{i+k} on its time field and zs[p, k, j] that
    of its column j, each flattened as in the dense path and kernel;
    columns not computed, and those at bits S is blind to, are zero.
    """
    fields, values = x
    lat = fields[0].lattice
    n, lanes, rows, size = lat.n_steps, lat.lanes, len(fields), len(values)
    ys = np.empty((size, rows, 1 << lat.n_bits))
    zs = np.zeros((size, rows, n, 1 << lat.n_bits))
    on_lane = {lane: [slice(None)]} if isinstance(lane, int) else {}
    for p, ln in enumerate([] if on_lane else np.broadcast_to(lane, (size,))):
        on_lane.setdefault(int(ln), []).append(slice(p, p + 1))

    # the step at which each row joins the stack: the last one for a row
    # with terms, else that of the highest W bit its x knows
    enters = [n - 1 if term is not None and i + k < n
              else -(-fields[k].w_upto // lanes) - 1 for k in range(rows)]
    starts = {}  # step -> tables of the rows that join there, by row
    for k in range(rows):
        e, r, field = enters[k], i + k, fields[k]
        table = values[:, k].reshape((size,) + field.table_shape).copy()
        if e < r:  # it joins after its own step: Y is its conditioned x
            own = time_field(lat, r)
            table, field = _onto(table, field, own), own
            ys[:, k] = table.reshape(size, -1)
            if e < first:
                continue
        starts.setdefault(e, []).append((k, field, table))
    stack, f, lo, hi = None, None, i + rows, i + rows
    for m in range(n - 1, -1, -1):
        if stack is None and not any(e <= m for e in starts):
            break
        new = starts.get(m, [])
        if new:  # a block of rows right below the stack
            g = f if stack is not None else new[0][1]
            for _, field, _ in new:
                g = g.join(field)
            parts = [_lift_rows(t[:, None], field, g) for _, field, t in new]
            if stack is not None:
                parts.append(_lift_rows(stack, f, g))
            else:
                hi = new[-1][0] + i + 1
            stack, f, lo = np.concatenate(parts, axis=1), g, new[0][0] + i
        if stack is None:
            continue
        if term is not None and lo <= m:
            got = term(m, range(lo, min(hi - 1, m) + 1))
            if got is not None:
                tf, tv = got
                if tf.w_upto > (m + 1) * lanes:
                    raise MeasurabilityViolation(
                        f"slot {m} term on ({tf.w_upto}, {tf.b_from}) knows "
                        f"W bits past {(m + 1) * lanes}")
                g = f.join(tf)
                stack, f = _lift_rows(stack, f, g), g
                axes = stack.reshape(stack.shape[:2] + bit_view_shape(f, f))
                lead = np.ndim(tv) - (tf.w_upto + lat.n_bits - tf.b_from)
                axes[:, :min(hi - 1, m) + 1 - lo] += np.reshape(
                    tv, tv.shape[:lead] + (1,) * (f.w_upto - tf.w_upto)
                    + tv.shape[lead:] + (1,) * (tf.b_from - f.b_from))
        # the step's W bits, each halving applied at once (halving is
        # exact, so the order of the halvings does not matter)
        read = m >= first
        a, b = f.w_upto, f.b_from
        for k in range(a - 1, m * lanes - 1, -1):
            # bit k tops the W index
            pair = stack.reshape(stack.shape[:2] + (2, -1, stack.shape[-1]))
            for on in on_lane.get(k - m * lanes, []) if read else []:
                d = pair[on, :, 1] - pair[on, :, 0]
                d *= 0.5 / lat.inc
                col = _onto(d, SigmaField(lat, k, b), time_field(lat, m))
                zs[on, lo - i:hi - i, m] = col.reshape(col.shape[:2] + (-1,))
            stack = pair[:, :, 0] + pair[:, :, 1]
            stack *= 0.5
        f = SigmaField(lat, min(a, m * lanes), b)
        if lo <= m < hi and enters[m - i] >= m:
            # row m is done: Y_m is its table conditioned on (m, m), and
            # the lower triangle is the representation of Y_m
            own = time_field(lat, m)
            mid = SigmaField(lat, f.w_upto, max(b, own.b_from))
            r = m - lo
            y = _onto(stack[:, r:r + 1], f, mid)
            if mid != f:
                stack[:, r] = _lift_rows(y, mid, f)[:, 0]
            ys[:, m - i] = _lift_rows(y, mid, own).reshape(size, -1)
        if first >= m:
            hi = min(hi, m)
            stack = stack[:, :hi - lo] if hi > lo else None
    return ys, zs


# -- lifts and g dB_j as one broadcast each ---------------------------------
#
# `lattice._onto` and `solver._times_db` as the package ran them before a
# lift onto one new innermost bit, and g dB_j on a field whose innermost
# bit is dB_j's, went by the two halves of that axis.  The references for
# the halves, which must match them bit for bit; and the Picard loop with
# its sup distance and weighted diff each taken from a difference of its
# own, the reference for the one difference of `picard_solve`.


def broadcast_onto(v: np.ndarray, op: tuple, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """`lattice._onto` with every lift one broadcast copy, into out if given."""
    w, b, lift = op
    lead = v.shape[:-2]
    if w:
        v = np.add.reduce(v.reshape(lead + (w, -1, v.shape[-1])), axis=-3)
        v /= w
    if b:
        v = np.add.reduce(v.reshape(lead + (v.shape[-2], -1, b)), axis=-1)
        v /= b
    if lift is None:
        return v
    _, known, full, table = lift
    if out is None:
        out = np.empty(lead + table)
    np.copyto(out.reshape(lead + full), v.reshape(lead + known))
    return out


def broadcast_times_db(g, db: np.ndarray) -> np.ndarray:
    """g dB_j as one product broadcast against the dB_j view."""
    return g * db


def two_difference_traces(sc: Scenario, tol: float, max_iter: int):
    """The sup and weighted-diff traces of `picard_solve` from zero, each
    distance from its own difference of the successive pairs."""
    lat = sc.lattice
    w = BetaWeight(sc.beta)
    scale = 1.0 / math.sqrt(_weight_mass(lat, sc.beta))
    old, sups, diffs = (zero_path(lat), zero_kernel(lat)), [], []
    for _ in range(max_iter):
        new = gamma_map(sc, *old)
        diffs.append(scale * m_beta_norm(*pair_diff(*new, *old), w))
        sups.append(float(max(np.max(np.abs(new[0].values - old[0].values)),
                              np.max(np.abs(new[1].values - old[1].values)))))
        old = new
        if sups[-1] <= tol:
            break
    return old, sups, diffs


# -- the mean arguments in three forms -----------------------------------------
#
# `solver.SlotReader.slot_args` as it read the mean arguments before they had one form,
# a code path for each: lists of floats for a pair (`list_means`), arrays
# behind the member axis for a batch, and nested lists of variables for the
# particles' empirical means.  Its field, row times and bit-view shapes are
# worked out here, not taken from `solver._slot_layout`.  The reference for
# the one reader of `slot_args`.


def list_means(y, z):
    """`solver.means` as it was: lists of floats for a pair; for a batch's
    `Stacked` paths and kernels, arrays behind the member axis."""
    ey, ez = np.mean(y.values, axis=-1), np.mean(z.values, axis=-1)
    return (ey.tolist(), ez.tolist()) if ey.ndim == 1 else (ey, ez)


def three_form_slot_args(y, z, ey, ez, j: int, rows: range,
                         swapped: bool = True):
    """(field, t, left, right) of `solver.SlotReader.slot_args`, the means read in
    the form they come in."""
    lat = y.lattice
    jr = j + 1
    last = jr == lat.n_steps
    mem = y.values.shape[:-2]
    f = slot_field(lat, j, rows.start if swapped else j)
    axes = len(bit_view_shape(f, f))
    t = np.reshape([lat.node(i) for i in rows],
                   (1,) * len(mem) + (len(rows),) + (1,) * axes)
    lead = mem + t.shape[len(mem):]
    cut = slice(rows.start, rows.stop)

    def view(v, k):  # dense entries on node k's time field, as bit views
        return v.reshape(v.shape[:-1] + bit_view_shape(time_field(lat, k), f))

    if isinstance(ey, np.ndarray):  # a batch's means, behind the members
        def path_mean(k):  # a float for one member, as for a pair
            m = ey[:, k]
            return float(m[0]) if len(m) == 1 else m.reshape(
                mem + (1,) * (len(lead) - 1))

        def row_means(k, swap=False):  # of entries (i, k), or (k, i)
            return (ez[:, k, cut] if swap else ez[:, cut, k]).reshape(lead)
    else:
        def path_mean(k):
            x = ey[k]
            return bit_view(x, f)[None] if isinstance(x, MeasurableRV) else x

        def row_means(k, swap=False):
            cells = [ez[k][i] if swap else ez[i][k] for i in rows]
            if isinstance(cells[0], MeasurableRV):
                return np.stack(np.broadcast_arrays(*[bit_view(c, f)
                                                      for c in cells]))
            return np.reshape(cells, lead)

    def kernel(k):  # entries (i, k) of the rows
        return view(z.values[..., cut, k, :], k)

    def swap(k):  # entries (k, i) of the rows, on time fields by row
        if not swapped:
            return 0.0, 0.0
        return (np.stack(np.broadcast_arrays(*[
                    view(z.values[..., k, i, :], i) for i in rows]),
                         axis=len(mem)),
                row_means(k, swap=True))

    zr, mzr = swap(j)
    left = (view(y.values[..., j:jr, :], j), kernel(j), zr, path_mean(j),
            row_means(j), mzr)
    zr, mzr = swap(jr)
    right = (view(y.values[..., jr:jr + 1, :], jr),
             0.0 if last else kernel(jr), zr, path_mean(jr),
             0.0 if last else row_means(jr), mzr)
    return f, t, left, right


# -- every slot's arguments sliced and reshaped at the slot ----------------------
#
# `solver.SlotReader.slot_args` and `solver.SlotReader.slot_terms` as they read a slot before one
# `SlotReader` served a pair: twelve slices of the path, the kernel and the
# means, each reshaped on every call to the shape it is read in at that
# slot (`_frozen_args`); the reference for the reader, whose basic slices
# of arrays reshaped once a pair must read the same arguments bit for bit.
# And the particle map on the `Stacked` tables of the particles' loop, each
# particle swept on its own lane (`per_lane_tables`).


def _frozen_args(y, z, ey, ez, j: int, rows: range, swapped: bool = True,
                 lane: int | tuple = 0):
    """(field, t, left, right, dB_j view) of slot j for the rows `rows`,
    every argument sliced and reshaped at the slot."""
    lat, rank = y.lattice, y.values.ndim - 2
    f, t, bits, db = _slot_layout(lat, j, rows.start, rows.stop, swapped,
                                  rank, lane)

    def shapes(k, n):  # node k's n entries as one node and as the rows
        return [(-1,) * rank + (m,) + bits[k, n] for m in (1, len(rows))]

    def read(v, shape):  # v in shape, or its one entry as a float
        return v.item() if v.size == 1 else v.reshape(shape)

    def swap(kernel, k, n):  # entries (k, i) of the rows, on fields by row
        v = np.concatenate(np.broadcast_arrays(*[
            kernel[..., k, i:i + 1, :].reshape(shapes(i, n)[0])
            for i in rows]), axis=rank)
        return read(v, v.shape)

    left, right = [], []
    for path, kernel in ((y.values, z.values), (ey, ez)):
        n = path.shape[-1]
        for k, side in ((j, left), (j + 1, right)):
            one, stack = shapes(k, n)
            side += (read(path[..., k:k + 1, :], one), 0.0 if k == lat.n_steps
                     else read(kernel[..., rows.start:rows.stop, k, :], stack),
                     swap(kernel, k, n) if swapped else 0.0)
    return f, t, tuple(left), tuple(right), db


def per_slot_terms(driver: DriverSpec, y, z, ey, ez, j: int, rows: range,
                   lane: int | tuple = 0, swapped: bool = True):
    """`solver.SlotReader.slot_terms` on the arguments of `_frozen_args`."""
    lat = y.lattice
    f, t, left, right, db = _frozen_args(y, z, ey, ez, j, rows, swapped,
                                         lane)
    v = (driver.f_values(t, lat.node(j), *left) * lat.dt
         + _times_db(driver.g_values(t, lat.node(j + 1), *right), db))
    return f, v.reshape((1,) * (t.ndim - v.ndim) + v.shape)


def per_lane_tables(driver, zetas, tables):
    """`per_lane_particle_map` on the particles' paths and kernels as
    `Stacked`, the new ones as `Stacked` too."""
    y, z = tables
    pairs = [(AdaptedPath(y.lattice, a), VolterraKernel(z.lattice, b))
             for a, b in zip(y.values, z.values)]
    return tuple(_stacked(parts)
                 for parts in zip(*per_lane_particle_map(driver, zetas, pairs)))


# -- the sweep on a new stack table at every step ------------------------------
#
# `lattice.clark_ocone_sweep` as the package ran it before its running stack
# was written into the storage a Picard loop keeps (`lattice.SweepStacks`):
# each lift onto a slot field and each W-bit halving made a new table.  The
# reference for the sweep into kept storage, which must match it bit for bit.


def allocating_sweep(x: Sequence, i: int, lane: int | Sequence[int] = 0,
                     first: int = 0, term: Callable | None = None,
                     swapped: bool = False, out: tuple | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """`lattice.clark_ocone_sweep` with a new table for every lift and
    halving of its stack; out's stack storage, if any, goes unused but for
    a loop's record of the kernel's move (`moved`), which it fills from a
    copy of each column it writes.  Each row of x is read as a new
    contiguous copy."""
    fields, values = x
    lat, size = fields[0].lattice, len(values)
    lanes = np.ravel(lane).tolist()
    if len(lanes) not in (1, size):
        raise IndexOutOfRange(f"{len(lanes)} lanes for {size} members")
    lane = tuple(lanes) if len(lanes) > 1 else lanes[0]
    half, entries, steps, whole, _ = lattice._sweep_plan(
        fields, i, lane, first, term is not None, swapped and term is not None)
    onto = lattice._onto
    if out is None:
        ys = np.empty((size, len(fields), 1 << lat.n_bits))
        zs = np.zeros((size, len(fields), lat.n_steps, 1 << lat.n_bits))
    moved = out[2].moved if out is not None and len(out) == 3 else None
    if out is not None:
        ys, zs = out[:2]
        if not whole and moved is None:
            zs.fill(0.0)
    tables = {}
    for k, own, joins in entries:
        table = values[:, k].reshape((size,) + fields[k].table_shape).copy()
        if own is not None:
            table = onto(table, own)
            ys[:, k] = table.reshape(size, -1)
        tables[k] = table
    # every slot's terms before the column writes of the step above
    asks = [(m, add[0]) for m, _, add, *_ in steps if add is not None]
    got = {}
    stack = None
    for m, join, add, bits, cols, done, trim, _, _ in steps:
        if join is not None:
            parts = [onto(tables[k][:, None], op) for k, op in join[0]]
            stack = np.concatenate(parts + ([onto(stack, join[1])]
                                            if join[1] else []), axis=1)
        if add is not None:
            rows, tf, restack, axes, padw, padb, naxes = add
            terms = got.pop(m) if m in got else term(m, rows)
            stack = onto(stack, restack)
            if terms is not None:
                gf, tv = terms
                if gf is not tf and gf != tf:
                    raise MeasurabilityViolation(
                        f"slot {m} term on ({gf.w_upto}, {gf.b_from}), not on "
                        f"its slot field ({tf.w_upto}, {tf.b_from})")
                lead = tv.shape[:tv.ndim - naxes]
                view = stack.reshape(stack.shape[:2] + axes)
                view[:, :len(rows)] += tv.reshape(lead + padw
                                                  + tv.shape[len(lead):] + padb)
        below = [ask for ask in asks if ask[0] < m]
        if below and below[0][0] not in got:
            got[below[0][0]] = term(*below[0])
        old = zs[:, cols, m].copy() if moved is not None else None
        for on, col in bits:
            pair = stack.reshape(stack.shape[:2] + (2, -1, stack.shape[-1]))
            for sl in on:
                d = pair[sl, :, 1] - pair[sl, :, 0]
                d *= half
                d = onto(d, col)
                zs[sl, cols, m] = d.reshape(d.shape[:2] + (-1,))
            stack = pair[:, :, 0] + pair[:, :, 1]
            stack *= 0.5
        if old is not None:
            d = np.abs(zs[:, cols, m] - old)
            moved[0][:, i + cols.start:i + cols.stop, m] = np.max(d, axis=-1)
            if moved[1] is not None:
                moved[1][:, i + cols.start:i + cols.stop, m] = np.mean(
                    d * d, axis=-1)
        if done is not None:
            r, to_mid, back, to_own, row = done
            y = onto(stack[:, r:r + 1], to_mid)
            if back is not None:
                stack[:, r] = onto(y, back)[:, 0]
            ys[:, row] = onto(y, to_own).reshape(size, -1)
        if trim is not None:
            stack = stack[:, :trim] if trim else None
    return ys, zs


def into_loop(out: tuple, tables) -> None:
    """A map's new (ys, zs) tables of its own written into a loop's out, as
    `solver.iterate` takes a step's: each member's kernel move (and, if the
    loop asks, its entries' mean squares) folded into out's `moved` from
    the whole tables, then both tables copied over out's."""
    ys, zs, stacks = out
    tops, squares = stacks.moved
    d = np.abs(tables[1] - zs)
    tops[:] = np.max(d, axis=-1)
    if squares is not None:
        squares[:] = np.mean(d * d, axis=-1)
    ys[:], zs[:] = tables


# -- the Picard loop on the step's own pairs -----------------------------------
#
# `solver.iterate` as it was before it owned its tables: the step makes each
# new state, and the distance is given.  The reference for the loop that
# recycles the maps' storage, run on allocating maps.


def iterate(step: Callable, start, distance: Callable, tol: float,
            max_iter: int):
    """Picard loop: apply step until distance(new, old) <= tol.

    Returns (state, iterations, last distance).

    A dict start is a batch of member states: step and distance take the
    dict of the members still running, and give a dict over the same
    members, of new states and of distances.  Each member leaves the
    batch at the iteration where its own distance reaches tol, so it runs
    as it would alone.  The state and iterations are then dicts over every
    member, and the distance a list per member: its distance at each
    iteration it ran.
    """
    check_settings(tol, max_iter)
    batch = isinstance(start, dict)
    states = dict(start) if batch else {0: start}
    traces = {m: [] for m in states}
    running = dict(states)
    for _ in range(max_iter):
        new = step(running) if batch else {0: step(running[0])}
        d = distance(new, running) if batch else {
            0: distance(new[0], running[0])}
        states.update(new)
        for m in new:
            traces[m].append(d[m])
        running = {m: x for m, x in new.items() if not d[m] <= tol}
        if not running:
            if batch:
                return states, {m: len(t) for m, t in traces.items()}, traces
            return states[0], len(traces[0]), traces[0][-1]
    m = next(iter(running))
    raise NoConvergence(
        (f"member {m}: " if len(states) > 1 else "")
        + f"max_iter={max_iter} hit with successive difference "
        f"{traces[m][-1]:.3e} > tol={tol}")


def sup_distance(new, old) -> float:
    """Pathwise sup-norm distance between two (path, kernel) pairs."""
    return pair_sup_diff(*new, *old)
