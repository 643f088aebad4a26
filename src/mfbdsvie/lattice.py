"""Exact finite probability space for doubly stochastic equations.

The forward motion W and the backward motion B are discretised as
independent Rademacher walks: each of the N steps carries one W
increment and one B increment, both valued +/- sqrt(dt) with equal
probability, all 4^N sign combinations forming the sample space with
uniform weight 4^(-N).

Information is two-sided.  A sigma-field is a pair (a, b): the W
increments with index < a are known, together with the B increments
with index >= b.  The time-t_i field is (i, i); it knows the forward
past of W and the backward future of B.  The family {(i, i)} is
neither increasing nor decreasing in i, so it is not a filtration --
conditional expectations onto it do not commute across times, which is
the feature everything downstream exercises.

A random variable is stored as a compact table indexed only by the
increments its field knows: shape (2^a, 2^(M-b)) where M is the number
of increment slots.  Bit j of the W index is the sign of the j-th W
increment; bit p of the B index is the sign of B increment b+p.  All
conditional expectations are exact finite averages over the unknown
axes, so every identity checked downstream holds to rounding error
only; no regression or Monte Carlo noise enters anywhere.

`bit_view_shape(g, f)` owns this layout: the shape that takes a table on
g to one axis per increment the finer field f knows, W increments
f.w_upto-1 down to 0, then B increments M-1 down to f.b_from, size 1
where g is blind.  Tables on one field so reshaped broadcast together
and reshape for free to f.table_shape; the sweep's lifts, the driver
arguments and the walk of extremes are built on it.  The walks take
rows as (fields, values): the rows' fields and one dense table of the
rows flattened, as a path's values are.  A `MeasurableRV` is the (field,
table) record of one entry view, `y[i]` or `z.at(i, j)`, with no
arithmetic.  Tables the package builds are write-locked and
kept, never copied; only a caller's writable array is copied.
The lowest known B increment, f.b_from, is innermost: a broadcast along
it runs two entries at a time, so a lift onto one new such bit
(`_onto_op`) and g dB_j (`solver._times_db`) go by the axis's halves.

The backward induction `clark_ocone_sweep` advances a stack of rows on
a leading row axis, and a batch of members (equations that differ only
in their data) on a member axis ahead of it.  Its field algebra (which
rows join at which step, every join, and the shapes of every average and
lift, `_onto_op`) depends on the lattice and the shape of the sweep only,
so `_sweep_plan` builds it once, cached as `time_field` is, and each call
replays the plan in bare numpy (`_onto` keeps every leading axis).  The
plan also fixes the shapes its running stack takes, so the stack is
written into storage cut once (`SweepStacks`), which a Picard loop keeps
across its maps.

A lattice may carry several independent walk pairs per time step
("lanes"); the interacting particle system uses one lane per particle
on a joint lattice, with time-node fields at multiples of the lane
count.  Single-equation work always uses lanes=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import prod, sqrt
from typing import Callable, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    LatticeMismatch,
    MeasurabilityViolation,
    NonPositiveHorizon,
    StepCountOutOfRange,
)

MAX_STEPS = 14  # memory guard: the path count is 4^N


@dataclass(frozen=True)
class LatticeSpec:
    """Discrete doubly stochastic probability space.

    n_steps time steps of size dt = horizon/n_steps; each step carries
    `lanes` independent (W, B) increment pairs of size +/- sqrt(dt).
    Bit index of lane l at time step j is j*lanes + l.
    """

    n_steps: int
    horizon: float
    lanes: int = 1

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def inc(self) -> float:
        return sqrt(self.dt)

    @property
    def n_bits(self) -> int:
        return self.n_steps * self.lanes

    def node(self, i: int) -> float:
        """Grid time t_i = i*dt."""
        return i * self.dt

    def bit_of(self, step: int, lane: int = 0) -> int:
        return step * self.lanes + lane


def build_lattice(n_steps: int, horizon: float, lanes: int = 1) -> LatticeSpec:
    """Validated lattice constructor."""
    if not (1 <= n_steps <= MAX_STEPS):
        raise StepCountOutOfRange(f"n_steps={n_steps} outside 1..{MAX_STEPS}")
    if not horizon > 0:
        raise NonPositiveHorizon(f"horizon={horizon} must be > 0")
    if lanes < 1:
        raise StepCountOutOfRange(f"lanes={lanes} must be >= 1")
    return LatticeSpec(n_steps=n_steps, horizon=float(horizon), lanes=lanes)


@dataclass(frozen=True)
class SigmaField:
    """Two-sided information: W bits < w_upto and B bits >= b_from known."""

    lattice: LatticeSpec
    w_upto: int
    b_from: int

    def __post_init__(self):
        m = self.lattice.n_bits
        if not (0 <= self.w_upto <= m and 0 <= self.b_from <= m):
            raise IndexOutOfRange(
                f"field ({self.w_upto}, {self.b_from}) outside 0..{m}"
            )

    def contains(self, other: SigmaField) -> bool:
        """True when `other` is a sub-field of self (self knows more)."""
        return other.w_upto <= self.w_upto and other.b_from >= self.b_from

    def join(self, other: SigmaField) -> SigmaField:
        """Coarsest field refining both operands."""
        if self.lattice != other.lattice:
            raise LatticeMismatch("fields live on different lattices")
        return SigmaField(
            self.lattice,
            max(self.w_upto, other.w_upto),
            min(self.b_from, other.b_from),
        )

    @property
    def table_shape(self) -> tuple[int, int]:
        return (1 << self.w_upto, 1 << (self.lattice.n_bits - self.b_from))


@lru_cache(maxsize=1024)
def time_field(lat: LatticeSpec, i: int) -> SigmaField:
    """The field F_{t_i} = (i*lanes, i*lanes) available at grid node i
    (one shared, immutable object per lattice and node)."""
    if not 0 <= i <= lat.n_steps:
        raise IndexOutOfRange(f"node {i} outside 0..{lat.n_steps}")
    return SigmaField(lat, i * lat.lanes, i * lat.lanes)


def full_field(lat: LatticeSpec) -> SigmaField:
    return SigmaField(lat, lat.n_bits, 0)


def terminal_rows(lat: LatticeSpec, values: np.ndarray) -> tuple:
    """Terminal tables (a scenario's zeta, a flip equation's source), rows
    on the last axis but one, as the walks take rows: (fields, values), each
    row on the time field of node N, which knows W(T)."""
    return (time_field(lat, lat.n_steps),) * values.shape[-2], values


class MeasurableRV:
    """An entry view's record: a random variable's table and the field it
    is measurable against (`AdaptedPath.y` and `VolterraKernel.z`).

    values has shape field.table_shape; entries are the exact values on
    each combination of known increments.  Instances are immutable and
    their tables write-locked; they carry no arithmetic (numpy on
    `values` and `bit_view_shape` does it).  A writable array is copied; a
    read-only one, such as a table the package has just built and locked
    with `_owned`, is kept as it is.
    """

    __slots__ = ("field", "values")

    def __init__(self, field: SigmaField, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != field.table_shape:
            raise MeasurabilityViolation(
                f"table shape {values.shape} does not match field "
                f"({field.w_upto}, {field.b_from}) -> {field.table_shape}"
            )
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("MeasurableRV is immutable")

    @property
    def lattice(self) -> LatticeSpec:
        return self.field.lattice


def _owned(table: np.ndarray) -> np.ndarray:
    """Write-lock a table only the package holds, so it is kept, not copied."""
    table.flags.writeable = False
    return table


def _check_bit(lat: LatticeSpec, j: int) -> None:
    if not 0 <= j < lat.n_bits:
        raise IndexOutOfRange(f"increment index {j} outside 0..{lat.n_bits - 1}")


# -- lifting and conditioning ---------------------------------------------


def bit_view_shape(g: SigmaField, f: SigmaField) -> tuple[int, ...]:
    """The axes of g's table among the bit axes of the finer field f."""
    known = g.w_upto + g.lattice.n_bits - g.b_from
    return ((1,) * (f.w_upto - g.w_upto) + (2,) * known
            + (1,) * (g.b_from - f.b_from))


def _onto_op(g: SigmaField, f: SigmaField) -> tuple:
    """How `_onto` takes a stack of g's tables onto f: the sizes of the W
    blocks (W bits >= f.w_upto top the index) and B blocks (B bits < f.b_from
    end it) averaged out, 0 for none, and the lift of the rest onto f (None
    when it is on f): a copy, the rest's and f's bit-view shapes with each
    run of axes the rest knows or is blind to merged, and f's table shape.
    The copy is `_halves` for a lift onto one new innermost bit, else one
    broadcast (onto several innermost bits too)."""
    a, b = g.w_upto, g.b_from
    c = SigmaField(f.lattice, min(a, f.w_upto), max(b, f.b_from))
    runs = [(d, len(list(k))) for d, k in groupby(bit_view_shape(c, f))]
    lift = None if c == f else (
        _halves if runs[-1] == (1, 1) else np.copyto,
        tuple(d ** k for d, k in runs), tuple(2 ** k for _, k in runs),
        f.table_shape)
    return (1 << (a - f.w_upto) if a > f.w_upto else 0,
            1 << (f.b_from - b) if b < f.b_from else 0, lift)


def _halves(out: np.ndarray, v: np.ndarray) -> None:
    """v, blind to out's innermost axis of size 2, copied into its halves:
    two long strided runs."""
    np.copyto(out[..., 0], v[..., 0])
    np.copyto(out[..., 1], v[..., 0])


def _onto(v: np.ndarray, op: tuple, out: np.ndarray | None = None
          ) -> np.ndarray:
    """A stack of tables (leading row, or member and row, axes) conditioned
    and lifted by op (`_onto_op`); a mean is a sum over the count, as
    `ndarray.mean` makes it.  The lift is written into out, a table of its
    shape that v does not share, or a new one."""
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
    copy, known, full, table = lift
    if out is None:
        out = np.empty(lead + table)
    copy(out.reshape(lead + full), v.reshape(lead + known))
    return out


@lru_cache(maxsize=1024)
def slot_field(lat: LatticeSpec, m: int, b: int) -> SigmaField:
    """Slot m's term field ((m + 1) lanes, b lanes): b is m, or the stack's
    first row for terms that read the swapped arguments (shared, immutable)."""
    return SigmaField(lat, (m + 1) * lat.lanes, b * lat.lanes)


def check_lanes(lat: LatticeSpec, lane: int | tuple) -> tuple[int, ...]:
    """The lanes of an int lane or a lane per member, each in 0..lanes - 1."""
    lanes = (lane,) if isinstance(lane, int) else lane
    for ln in lanes:
        if not 0 <= ln < lat.lanes:
            raise IndexOutOfRange(f"lane {ln} outside 0..{lat.lanes - 1}")
    return lanes


@lru_cache(maxsize=1024)
def _sweep_plan(fields: tuple, i: int, lane: int | tuple, first: int,
                terms: bool, swapped: bool) -> tuple:
    """The field algebra of `clark_ocone_sweep` on rows on `fields`: the
    halving scale, per row (row, its op onto its time field if its Y is its
    conditioned x, whether it joins) and per step (m, join, add, bits, cols,
    done, trim, lift, halves), whether the steps write every column of every
    row and member, and the entries of a member's part of the stack storage
    (`SweepStacks`).  join: the lifts of the joining rows and of the stack
    (None: no stack yet); add: the term rows and field, the stack's lift and
    bit axes, the term's pads and bit axis count; bits: per W bit the
    members reading it and the op onto the column's field; cols: the
    stack's rows; done: row m's index and ops onto (m, m) (and back, None if
    it stays); trim: the rows kept; lift and halves: where in that part the
    step's lift (None: none) and each halving write, as (start, stop,
    shape).  No table or member count enters, so a plan serves every call
    of its shape.
    """
    lat = fields[0].lattice
    n, lanes, rows = lat.n_steps, lat.lanes, len(fields)
    on_lane = {}
    for p, ln in enumerate(check_lanes(lat, lane)):
        on_lane.setdefault(ln, []).append(
            slice(None) if isinstance(lane, int) else slice(p, p + 1))
    # the step at which each row joins the stack: the last one for a row
    # with terms, else that of the highest W bit its x knows
    enters = [n - 1 if terms and i + k < n
              else -(-fields[k].w_upto // lanes) - 1 for k in range(rows)]
    entries, starts = [], {}
    for k, (e, field) in enumerate(zip(enters, fields)):
        own = time_field(lat, i + k)
        entries.append((k, _onto_op(field, own) if e < i + k else None,
                        e >= min(first, i + k)))
        if entries[-1][2]:  # it joins after its own step on its time field
            starts.setdefault(e, []).append((k, own if e < i + k else field))
    steps, written, f, lo, hi = [], set(), None, i + rows, i + rows
    # the stack's rows, its halvings so far, and the most entries a member's
    # lifts, even halvings and odd halvings write
    depth, halvings, most = 0, 0, [0, 0, 0]
    for m in range(n - 1, -1, -1):
        if f is None and not any(e <= m for e in starts):
            break
        join = add = done = trim = None
        if m in starts:  # a block of rows right below the stack
            new = starts[m]
            g = f or new[0][1]
            for _, field in new:
                g = g.join(field)
            join = (tuple((k, _onto_op(field, g)) for k, field in new),
                    f and _onto_op(f, g))
            hi = hi if f else new[-1][0] + i + 1
            depth = len(new) + (depth if f else 0)
            f, lo = g, new[0][0] + i
        if f is None:
            continue
        lift = None  # the shape a member's lift onto the slot field writes
        if terms and lo <= m:
            tf = slot_field(lat, m, i if swapped else m)
            g = f.join(tf)
            add = (range(lo, min(hi - 1, m) + 1), tf, _onto_op(f, g),
                   (2,) * (g.w_upto + lat.n_bits - g.b_from),
                   (1,) * (g.w_upto - tf.w_upto), (1,) * (tf.b_from - g.b_from),
                   tf.w_upto + lat.n_bits - tf.b_from)
            if add[2][2] is not None:
                lift = (depth,) + g.table_shape
                most[0] = max(most[0], prod(lift))
            f = g
        a, b, own = f.w_upto, f.b_from, time_field(lat, m)
        bits, halves = [], []  # the step's W bits, from the highest down
        for k in range(a - 1, m * lanes - 1, -1):
            on = tuple(on_lane.get(k - m * lanes, ())) if m >= first else ()
            bits.append((on, on and _onto_op(SigmaField(lat, k, b), own)))
            parity = 1 + halvings % 2
            halves.append((parity, (depth, 1 << k, 1 << (lat.n_bits - b))))
            most[parity] = max(most[parity], prod(halves[-1][1]))
            halvings += 1
            written.update((sl.start, r, m) for sl in on
                           for r in range(lo - i, hi - i))
        cols = slice(lo - i, hi - i)
        f = SigmaField(lat, min(a, m * lanes), b)
        if lo <= m < hi and enters[m - i] >= m:
            mid = SigmaField(lat, f.w_upto, max(b, own.b_from))
            done = (m - lo, _onto_op(f, mid), None if mid == f
                    else _onto_op(mid, f), _onto_op(mid, own), m - i)
        if first >= m:
            hi = min(hi, m)
            trim = depth = max(hi - lo, 0)
            f = f if trim else None
        steps.append((m, join, add, tuple(bits), cols, done, trim,
                      lift, halves))
    # a member's part of the stack storage (`SweepStacks`): the lifts, then
    # the even and the odd halvings, each view from its part's start, as
    # (start, stop, shape behind the members)
    base = (0, most[0], most[0] + most[1])

    def part(k, shape):
        return base[k], base[k] + prod(shape), (-1,) + shape

    steps = tuple((*step[:7], lift and part(0, lift),
                   tuple(part(k, shape) for k, shape in halves))
                  for *step, lift, halves in steps)
    members = 1 if isinstance(lane, int) else len(lane)
    return (0.5 / lat.inc, tuple(entries), steps,
            len(written) == members * rows * n, sum(most))


class SweepStacks:
    """Storage for the running stack of `clark_ocone_sweep`, one table cut
    in three: the lifts onto a slot field, and the W-bit halvings, which
    alternate between the other two.  A lift reads the join's table or a
    halving's and each halving the table before it, so no write aliases the
    stack it reads, and no view of it is handed out.  Each plan's views of
    it for a member count are cut on the first sweep of that plan and
    count.  A Picard loop keeps one for all its maps; a sweep given none
    cuts a table of its own for the call (`_cut`).

    A loop whose maps write over the kernel they read sets `moved` before
    each map to (tops, squares), zeros shaped (member, row, column) (and
    None for squares if it takes none), which the sweeps fill
    (`_take_moved`)."""

    __slots__ = ("table", "views", "moved")

    def __init__(self):
        self.table = np.empty(0)
        self.views = {}
        self.moved = None

    def steps(self, plan: tuple, size: int) -> list:
        """Each step's (lift, halvings) destinations for plan's sweep of
        size members: a lift view or None, and a view per W bit."""
        got = self.views.get((id(plan), size))
        if got is not None:
            return got[1]
        if plan[4] * size > len(self.table):  # the old views go with it
            self.table = np.empty(plan[4] * size)
            self.views.clear()
        # the entry holds plan, so its id names no other while it is kept
        views = self.views[id(plan), size] = plan, _cut(self.table, plan, size)
        return views[1]


def _cut(table: np.ndarray, plan: tuple, size: int) -> list:
    """Each step's (lift, halvings) destinations in table for plan's sweep
    of size members: a lift view or None, and a view per W bit."""
    views = []
    for step in plan[2]:
        lift = step[7]
        if lift is not None:
            lift = table[lift[0] * size:lift[1] * size].reshape(lift[2])
        views.append((lift, [table[a * size:b * size].reshape(shape)
                             for a, b, shape in step[8]]))
    return views


def clark_ocone_sweep(x: tuple, i: int, lane: int | Sequence[int] = 0,
                      first: int = 0, term: Callable | None = None,
                      swapped: bool = False, out: tuple | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Y and the kernel rows of each member's stack of rows i, i + 1, ....

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
    representation of Y_r.  Terms on the field (m + 1, m) keep the stack
    at 2^(M + lanes) entries a row.

    x is (fields, values): the rows' fields and a table (member, row,
    entries) of the rows flattened, the members' rows on the same fields,
    whose member axis goes ahead of the row axis; member p's row k is read
    as the view values[p, k].  The members advance together, each as it
    would alone, on one lane or a lane each.

    term(m, rows) gives the slot-m terms of the rows `rows` (those at or
    below m) as (field, values), or None: values is an array broadcasting
    against the leading (member,) row axes and the field's bit axes, on
    `slot_field(lat, m, i if swapped else m)` (swapped: they read the
    swapped arguments); a term on another field raises
    MeasurabilityViolation (one that knows W bits of later steps would feed
    columns already read).  A row without terms joins the stack at the
    step of the highest W bit its x knows, so the stack of a path's rows
    (the M-extension) grows downwards as the walk reaches them.

    All of that (which rows join when, every join, lift and average, the
    columns each member reads, the rows `first` trims) depends only on the
    lattice and the shape of the sweep: `_sweep_plan` builds it once and
    checks the lanes, and each call replays it in bare numpy.

    Columns j < first are not computed.  Returns (ys, zs): ys[p, k] is
    the table of member p's Y_{i+k} on its time field and zs[p, k, j]
    that of its column j, each flattened as in the dense path and kernel;
    columns not computed, and those at bits S is blind to, are zero.  Given
    out, a writable (ys, zs) pair of those shapes, the sweep writes into it
    in place of new tables, zeroing zs first unless it writes every column.
    Each lift of the running stack onto a slot field and each W-bit
    halving is written into storage: out's third entry, a `SweepStacks`
    that a Picard loop keeps across its maps, so a warm sweep takes no
    stack table and looks its views up once; else one table made for the
    call.

    The sweep takes slot m - 1's terms before step m's halvings write
    column m, so each term reads its kernel entries before the writes that
    replace them: slot m - 1 reads columns m - 1 and m, and z_rev of a row
    i that is a stack of its own (`solver.map_rows` sweeps those in row
    order) reads column i of rows k >= i, written by later sweeps, and
    entry (i, i), written at step i.  So a Picard loop's map may write
    over the kernel it reads: the loop sets the storage's `moved`, zs is
    then not zeroed, and the sweep copies column m before each step's
    writes and takes its move from the copy (`_take_moved`).
    """
    fields, values = x
    lat, size = fields[0].lattice, len(values)
    lanes = np.ravel(lane).tolist()  # one lane for all, or one a member
    if len(lanes) not in (1, size):
        raise IndexOutOfRange(f"{len(lanes)} lanes for {size} members")
    lane = tuple(lanes) if len(lanes) > 1 else lanes[0]
    plan = _sweep_plan(fields, i, lane, first, term is not None,
                       swapped and term is not None)
    half, entries, steps, whole, _ = plan
    kept = moved = None
    if out is None:
        ys = np.empty((size, len(fields), 1 << lat.n_bits))
        zs = np.zeros((size, len(fields), lat.n_steps, 1 << lat.n_bits))
    else:
        ys, zs = out[:2]
        if len(out) == 3:
            kept = out[2]
            moved = kept.moved
        if not whole and moved is None:
            zs.fill(0.0)
    views = (kept.steps(plan, size) if kept is not None
             else _cut(np.empty(plan[4] * size), plan, size))
    tables = {}
    for k, own, joins in entries:
        table = values[:, k].reshape((size,) + fields[k].table_shape)
        if own is not None:
            table = _onto(table, own)
            ys[:, k] = table.reshape(size, -1)
        tables[k] = table
    # each slot's terms are made one add ahead, before the halvings of the
    # step above write the kernel column they read at the right node
    terms = (term(m, add[0]) for m, _, add, *_ in steps if add is not None)
    ahead = next(terms, None)
    stack = None
    for (m, join, add, bits, cols, done, trim, _, _), (lift, halves) in zip(
            steps, views):
        if join is not None:
            parts = [_onto(tables[k][:, None], op) for k, op in join[0]]
            stack = np.concatenate(parts + ([_onto(stack, join[1])]
                                            if join[1] else []), axis=1)
        if add is not None:
            stack = _onto(stack, add[2], lift)
            if ahead is not None:
                _add_terms(stack, m, add, ahead)
            ahead = None  # dropped before the next slot's terms are made
            ahead = next(terms, None)
        old = None  # column m as the map found it
        if moved is not None and m >= first:
            new = zs[:, cols, m]
            old = new.copy()
        # each halving applied at once (halving is exact, so the order of
        # the halvings does not matter); bit k tops the W index
        for (on, col), into in zip(bits, halves):
            pair = stack.reshape(stack.shape[:2] + (2, -1, stack.shape[-1]))
            for sl in on:
                d = pair[sl, :, 1] - pair[sl, :, 0]
                d *= half
                d = _onto(d, col)
                zs[sl, cols, m] = d.reshape(d.shape[:2] + (-1,))
            stack = np.add(pair[:, :, 0], pair[:, :, 1], out=into)
            stack *= 0.5
        if old is not None:
            _take_moved(moved, new, old, i + cols.start, len(old[0]), m)
        if done is not None:
            # row m is done: Y_m is its table conditioned on (m, m), and
            # the lower triangle is the representation of Y_m
            r, to_mid, back, to_own, row = done
            y = _onto(stack[:, r:r + 1], to_mid)
            if back is not None:
                stack[:, r] = _onto(y, back)[:, 0]
            ys[:, row] = _onto(y, to_own).reshape(size, -1)
        if trim is not None:
            stack = stack[:, :trim] if trim else None
    return ys, zs


def _add_terms(stack: np.ndarray, m: int, add: tuple, got: tuple) -> None:
    """Add step m's slot terms got = (field, values) into the stack lifted
    onto their slot field, as the plan's add lays them out."""
    rows, tf, _, axes, padw, padb, naxes = add
    gf, tv = got
    if gf is not tf and gf != tf:
        raise MeasurabilityViolation(
            f"slot {m} term on ({gf.w_upto}, {gf.b_from}), not on its slot "
            f"field ({tf.w_upto}, {tf.b_from})")
    lead = tv.shape[:tv.ndim - naxes]
    view = stack.reshape(stack.shape[:2] + axes)
    view[:, :len(rows)] += tv.reshape(lead + padw + tv.shape[len(lead):]
                                      + padb)


def _take_moved(moved: tuple, new: np.ndarray, old: np.ndarray, r: int,
                rows: int, m: int) -> None:
    """Fold the move of kernel column m, rows r .. r + rows - 1, into a loop's
    record moved = (tops, squares), each (member, row, column): old, the
    copy of new taken before its writes, becomes |new - old|, its max over
    those rows and the paths goes into tops[:, r, m] and, with squares,
    each entry's mean square into squares[:, r:r + rows, m] (`np.mean`'s
    sum and division, without its Python wrapper)."""
    tops, squares = moved
    d = np.subtract(new, old, out=old)
    np.abs(d, out=d)
    np.maximum.reduce(d.reshape(len(d), -1), axis=1, out=tops[:, r, m])
    if squares is not None:
        total = np.add.reduce(np.square(d, out=d), axis=-1,
                              out=squares[:, r:r + rows, m])
        total /= d.shape[-1]


def _max_abs(v: np.ndarray) -> float:
    """max |v| with no temporary; a NaN makes v.max() and v.min() NaN."""
    return abs(max(float(v.max()), -float(v.min())))


def row_extremes(x: tuple, target: tuple, z, term: Callable | None,
                 swapped: bool, slots: Sequence[range],
                 mean_square: bool = False):
    """Row i's sup over paths of |D_i| for each i < len(slots), D_i = x_i
    + s_ij over j in slots[i] from the last down - target_i in that order,
    s_ij = term_ij - Z_ij dW_j (a missing term is zero), with no table of
    D_i.  term(k, rows) gives the slot-k terms of the run of rows walked
    (all rows, or each row alone when swapped: the terms read the swapped
    arguments) as `solver.map_rows` takes them: None, or (field, values),
    values a stack on a leading axis (one entry a row, or one for all)
    over the bit view of a field that knows no W bit after k.  Row i joins
    with x_i at the top slot of its range; at slot k the stack adds s_ik
    and takes the max into hi and the min into lo over the halves of W bit
    k, which no later summand knows; at its first slot row i reads
    max(max(hi - target_i), -min(lo - target_i)), so target_i must be
    known there: blind to W bits from that slot on.  Variable elimination
    in the (max, +) semiring, exact as rounded addition is monotone; NaN
    propagates.  The tables are on (k, b), 2^N entries a row for terms
    blind to the swapped arguments, O(N^2 2^N) in all.  x and target are
    (fields, values), values a table (row, entries) of the rows flattened,
    as `clark_ocone_sweep` takes a member's rows.

    With mean_square a row also carries the mean and the centred variance
    of x_i + s_ij over the W bits eliminated so far, merged by halves as
    Chan, Golub and LeVeque do (no raw moment is subtracted), and the
    result is (sups, E[D_i^2]): the mean of var + (mean - target_i)^2.
    """
    (xf, xv), (tf, tv) = x, target
    if any(f.lattice != z.lattice for f in (*xf, *tf)):
        raise LatticeMismatch("rows and kernel on different lattices")
    sups, squares = np.empty(len(slots)), np.empty(len(slots))
    for group in ([range(i, i + 1) for i in range(len(slots))] if swapped
                  else [range(len(slots))]):
        live = [i for i in group if slots[i]]
        for i in group:
            if not slots[i]:
                g = xf[i].join(tf[i])
                d = (xv[i].reshape(bit_view_shape(xf[i], g))
                     - tv[i].reshape(bit_view_shape(tf[i], g)))
                sups[i] = _max_abs(d)
                if mean_square:
                    squares[i] = np.mean(d * d)
        order, ext, f = [], None, None  # the rows walked, their tables on f
        for k in range(max([slots[i].stop for i in live], default=0) - 1,
                       min([slots[i].start for i in live], default=0) - 1, -1):
            new = [i for i in live if slots[i].stop == k + 1]
            if new:
                order, ext, f = _join(x, new, order, ext, f, k)
            if not order:
                continue
            ext, f = _eliminate(ext, f, z, term, range(order[0], order[-1] + 1),
                                k, mean_square)
            for p, i in enumerate(order):
                if slots[i].start == k:
                    g = f.join(tf[i])
                    t = tv[i].reshape(bit_view_shape(tf[i], g))
                    hi, lo, *moments = ext[:, p].reshape(
                        (len(ext),) + bit_view_shape(f, g))
                    sups[i] = np.maximum(np.max(hi - t), -np.min(lo - t))
                    if moments:
                        mean, var = moments
                        d = mean - t
                        squares[i] = np.mean(var + d * d)
            keep = [p for p, i in enumerate(order) if slots[i].start != k]
            order = [order[p] for p in keep]
            ext = (ext[:, :len(keep)] if keep == list(range(len(keep)))
                   else ext[:, keep])
    return (sups, squares) if mean_square else sups


def _join(x: tuple, new: list, order: list, ext, f, k: int) -> tuple:
    """The rows `new` at x_i joined below or above the stack ext on f of
    the rows `order`, at slot k: (rows, stack, its field); a new stack
    holds hi, lo and the mean as one table, with no variance."""
    fields, values = x
    g = SigmaField(fields[new[0]].lattice, k + 1, min(
        [fields[i].b_from for i in new] + ([f.b_from] if order else [])))
    shape = (len(ext) if order else 1, 1) + (2,) * len(bit_view_shape(g, g))
    parts = [np.broadcast_to(values[i].reshape(bit_view_shape(fields[i], g)),
                             shape) for i in new]
    if order:
        below = sum(i < order[0] for i in new)
        lifted = ext.reshape(ext.shape[:2] + bit_view_shape(f, g))
        parts.insert(below, np.broadcast_to(lifted,
                                            lifted.shape[:2] + shape[2:]))
        new = new[:below] + order + new[below:]
    stack = np.concatenate(parts, axis=1)
    if len(stack) == 4:  # joined a walked stack: the new rows' variance is 0
        stack[3, :below] = stack[3, below + len(order):] = 0.0
    return new, stack, g


def _eliminate(ext, f: SigmaField, z, term: Callable | None, rows: range,
               k: int, mean_square: bool) -> tuple:
    """Slot k of `row_extremes` on the stack ext (hi, lo and with
    mean_square the mean and the variance, or a new stack's one table) on
    f = (k + 1, .): its new tables on (k, b), and that field.  The term
    (4^N entries for a row 0 that reads z_rev) is dropped on return, not
    held into the next slot's."""
    lat = f.lattice
    got = term(k, rows) if term is not None else None
    b = min(f.b_from, k, got[0].b_from if got else k)
    g = SigmaField(lat, k + 1, b)
    iz = z.values[rows.start:rows.stop, k].reshape(
        (len(rows),) + bit_view_shape(time_field(lat, k), g)[1:]) * lat.inc
    if got:  # s_ik on W bit k's halves: term + Z inc, then term - Z inc
        tf, tv = got
        tv = tv.reshape(tv.shape[:1] + (1,) * (k + 1 - tf.w_upto) + tv.shape[1:]
                        + (1,) * (tf.b_from - b))
        s = np.add(tv[:, 0], iz)
    else:
        s = iz
    lifted = ext.reshape(ext.shape[:2] + bit_view_shape(f, g))
    shifted = lifted[:3]  # s_ik moves hi, lo and the mean, not the variance
    out = np.empty((4 if mean_square else 2, len(rows))
                   + (2,) * (k + lat.n_bits - b))
    _add(shifted[:, :, 0], s, out[:3])
    if got:
        np.subtract(tv[:, -1], iz, out=s)
    else:
        np.negative(s, out=s)
    u = (s[None] if len(ext) == 1 and s.shape == out.shape[1:]
         else np.empty((len(shifted),) + out.shape[1:]))
    _add(shifted[:, :, 1], s, u)
    if mean_square:  # the halves' means a0 and a1 merged with no raw moment
        with np.errstate(invalid="ignore"):  # inf - inf is NaN
            d = np.subtract(u[-1], out[2], out=out[3])
            d *= 0.5
            d *= d  # ((a1 - a0) / 2)^2
            out[2] += u[-1]
            out[2] *= 0.5
            if len(ext) == 4:  # plus the mean of the halves' variances
                v = lifted[3, :, 0] + lifted[3, :, 1]
                v *= 0.5
                d += v
    np.maximum(out[0], u[0], out=out[0])
    np.minimum(out[1], u[min(1, len(u) - 1)], out=out[1])
    return out, SigmaField(lat, k, b)


def _add(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a + b, by out's innermost halves when a is blind to that axis
    alone: a broadcast would run two entries at a time."""
    if out.shape[-1] == 2 and a.shape[-1] == 1 and a.shape[-2] != 1:
        np.add(a[..., 0], b[..., 0], out=out[..., 0])
        np.add(a[..., 0], b[..., -1], out=out[..., 1])
    else:
        np.add(a, b, out=out)


# -- increment-flip derivative ----------------------------------------------


def flip_rows(v: np.ndarray, a: int, j: int, inc: float) -> np.ndarray:
    """Discrete Malliavin derivative in the W direction at bit j of tables
    flattened on the last axis, each knowing the W bits below a: (x with
    dW_j = +inc minus x with dW_j = -inc) / (2 inc), one strided difference
    over the halves of bit j, on both halves, or zeros when j >= a.  It is
    linear, annihilates anything blind to dW_j, and the result never
    depends on dW_j itself."""
    if j >= a:
        return np.zeros_like(v)
    w = v.reshape(v.shape[:-1] + (-1, 2, (v.shape[-1] >> a) << j))
    d = np.diff(w, axis=-2) / (2.0 * inc)
    return np.broadcast_to(d, w.shape).reshape(v.shape)
