"""Fixed-point machinery for the discrete equation.

One application of the map takes a frozen pair (y, z) and produces the
new pair (Y, Z) solving the frozen-coefficient equation exactly on the
lattice.  For each node i the right side is

    Phi_i = zeta(t_i)
          + sum_{j >= i} f(t_i, s_j, y_j, z_ij, z_ji, E y_j, E z_ij, E z_ji) dt
          + sum_{j >= i} g(t_i, s_{j+1}, right-node frozen args) dB_j

with the g states read at the right grid node (kernel column N treated
as zero) so that dB_j is independent of the integrand's backward part,
and the row splits it against the forward walk:

    Y_i  = E[Phi_i | (i, i)],
    Z_ij = E[Phi_i dW_j | (j, j)] / dt     for j >= i,

and pins the lower triangle by the representation of Y_i.  For the
driver families shipped here (affine mean-field coefficients, and
nonlinearities that do not mix the swapped kernel argument into other
states) the split is exact pathwise:

    Phi_i = Y_i + sum_{j >= i} Z_ij dW_j   on every path,

which is what `residual` measures with self-consistent arguments.

The map is written once and shared: `slot_args` gives the frozen
arguments of a stack of rows at a slot as bit views (the only place that
knows the right-node convention), read through a `SlotReader` that a map
builds once for its pair, `slot_terms` their terms f dt + g dB_j,
`map_rows` runs the rows through `lattice.clark_ocone_sweep`, the one
backward induction, `lattice.row_extremes` walks the same stacked terms
to each row's worst pathwise defect (`residual`).
The flip equation (malliavin) and the particles are the same map with
other terms, means and lanes; the stability functional reads the same
arguments.  Each mean is an array shaped like its path or kernel, with
one entry (`means`) or 2^M (the particles') on the last axis.

At a fixed t_i the equation is a backward equation in s, so Phi_i is
never built: the induction starts from zeta_i and, for m = N-1 down to
i, adds the slot-m term and then splits the W bits of step m (the
discrete Clark-Ocone formula), reading Z_im from the halved difference
over the bit; after step i the running table is Y_i, and the sweep goes
on over Y_i for the lower triangle.  The N + 1 rows of a map do not
interact and advance as one stack, one f call and one g call a slot.
For a driver blind to z_rev the slot terms live on (m + 1, m), each row
keeps 2^(N+1) entries, and a map (or one of its flip equation) costs
O(N^2 2^N); one that reads z_rev or mean_z_rev knows the B bits from i
on, so each row is a stack of its own on (m + 1, i), O(4^N) a map.
`residual` reads every path without a table of them: the walk keeps a
max and a min table down the W bits, about the cost of a map.

Every fixed point here (the solution, the particle system, the flip
equation) is found by one Picard loop, `iterate`, over members: the
scenarios of a batch, the particles, or the flip equation's one pair.
The loop owns its tables, the new pairs' and the sweep's running stack,
recycles them from map to map, takes each difference into the pair it
replaces, and frees them when it returns.

Solves that share a lattice, a driver and a beta and differ only in the
terminal (the positions of a risk measure) are one batch of
`picard_solve`, a member axis ahead of the row axis (`Stacked` pairs,
means per member), so a member costs little more than its share of the
arithmetic.  A single scenario is the batch of one.  Iterating the map
from (0, 0) contracts in the beta-weighted norm once beta clears the
threshold; the report keeps the successive-difference trace so the
empirical ratios can be held against the theoretical contraction factor.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .drivers import (
    DriverSpec,
    TerminalSpec,
    beta_default,
    contraction_threshold,
    gamma_theory,
    terminal_rv,
)
from .errors import LatticeMismatch, NoConvergence, ValidationError
from .fields import (
    AdaptedPath,
    BetaWeight,
    VolterraKernel,
    _check_finite,
    _norm_squared,
    _unchecked,
    m_beta_norm,
    pair_diff,
)
from .lattice import (
    LatticeSpec,
    SigmaField,
    SweepStacks,
    _max_abs,
    _owned,
    bit_view_shape,
    check_lanes,
    clark_ocone_sweep,
    row_extremes,
    slot_field,
    time_field,
)

MAX_EXPONENT = math.log(sys.float_info.max)  # e^x overflows past this


class Scenario:
    """A validated problem instance: lattice + driver + terminal + beta;
    swapped: whether the driver reads the swapped arguments, probed once
    (`reads_swapped`)."""

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
        self.swapped = reads_swapped(driver)
        self.zeta = tuple(
            terminal_rv(terminal, lattice, i)
            for i in range(lattice.n_steps + 1)
        )
        # the norms form weight * E[y^2] and weight * E[z^2], with |y| <= peak
        # and |z| <= peak / inc, and add up at most (N + 2) times the weight
        # mass times peak^2: checked in logs.  peak is the terminal plus the
        # driver at the zero state summed over the slots of a row (`_source`)
        peak = (max(zeta_i.max_abs() for zeta_i in self.zeta)
                + _source(driver, lattice))
        top = self.beta * lattice.horizon + max(0.0, -math.log(lattice.dt))
        total = math.log((lattice.n_steps + 2) * _weight_mass(lattice, self.beta))
        if peak and not 2 * math.log(peak) + max(top, total) <= MAX_EXPONENT:
            raise ValidationError(f"terminal and driver source of size "
                                  f"{peak:.3e}: their weighted square "
                                  f"overflows a float")

    @property
    def gamma_theory(self) -> float:
        return gamma_theory(self.driver, self.lattice.horizon, self.beta)


@dataclass
class SolverReport:
    """Iteration trace of one fixed-point run.

    The iteration stops once the pathwise sup-norm of the successive
    difference drops below tol (a beta-independent certificate for the
    pathwise residual contract); sup_trace holds that distance at each
    iteration.  diff_trace and ratio_trace hold the
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
    sup_trace: list[float] = field(default_factory=list)


@lru_cache(maxsize=1024)
def _source(driver: DriverSpec, lat: LatticeSpec) -> float:
    """A bound on every row's sum over its slots of |f| dt + |g| inc, with
    f and g at the zero state: the largest row at each slot, added up.

    One f call and one g call per slot, with the column of the row times.
    """
    times = np.array([lat.node(i) for i in range(lat.n_steps + 1)])
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf fails the check
        for j in range(lat.n_steps):
            t = times[:j + 1]
            f = driver.f_values(t, lat.node(j), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            g = driver.g_values(t, lat.node(j + 1), 0.0, 0.0, 0.0, 0.0, 0.0,
                                0.0)
            total += (float(np.max(np.abs(f))) * lat.dt
                      + float(np.max(np.abs(g))) * lat.inc)
    return total


def _weight_mass(lat: LatticeSpec, beta: float) -> float:
    w = BetaWeight(beta)
    return sum(w.at(lat.node(i)) * lat.dt for i in range(lat.n_steps + 1))


class Stacked(NamedTuple):
    """The paths or the kernels of a batch's members as one array: `values`
    is that of an `AdaptedPath` or a `VolterraKernel` behind a leading
    member axis."""

    lattice: LatticeSpec
    values: np.ndarray


def _stacked(parts) -> Stacked:
    """The members' paths or kernels stacked; a batch of one is a view,
    and a `Stacked` is kept.  Members on different lattices are refused."""
    if isinstance(parts, Stacked):
        return parts
    if any(x.lattice != parts[0].lattice for x in parts):
        raise LatticeMismatch("batch members on different lattices")
    values = [x.values for x in parts]
    return Stacked(parts[0].lattice,
                   values[0][None] if len(values) == 1 else np.stack(values))


@lru_cache(maxsize=1024)
def _slot_layout(lat: LatticeSpec, j: int, start: int, stop: int,
                 swapped: bool, rank: int, lane: int | tuple) -> tuple:
    """Slot j's field, locked row times t, read shapes and dB_j view (-inc,
    +inc on its bit's axis, size 1 on the others; stacked by member for a
    lane tuple) for rows start..stop - 1.  shapes[k, n] is the shape of
    node k's n entries (2^M, or a mean's 1) on the field's bit axes."""
    f = slot_field(lat, j, start if swapped else j)
    axes = len(bit_view_shape(f, f))
    t = _owned(np.reshape([lat.node(i) for i in range(start, stop)],
                          (1,) * rank + (stop - start,) + (1,) * axes))
    shapes = {(k, n): bits
              for k in range(f.b_from // lat.lanes, j + 2) for n, bits in (
                  (1, (1,) * axes),
                  (1 << lat.n_bits, bit_view_shape(time_field(lat, k), f)))}

    def db_view(bit):  # the W axes, then the B bits from M - 1 down
        shape = [1] * axes
        shape[f.w_upto + lat.n_bits - 1 - bit] = 2
        return np.array([-lat.inc, lat.inc]).reshape(shape)

    db = _owned(np.stack(np.broadcast_arrays(*[
        db_view(lat.bit_of(j, ln)) for ln in check_lanes(lat, lane)])))
    return f, t, shapes, db if isinstance(lane, int) else db[:, None]


def _item(v: np.ndarray):
    """v, or its one entry as a float."""
    return v.item() if v.size == 1 else v


class SlotReader:
    """The frozen driver arguments of one pair at any slot and stack of rows.

    y and z are a pair's path and kernel, or a batch's as `Stacked`; ey and
    ez their means, arrays shaped like y's and z's values with one entry
    (`means`) or 2^M (the particles' random means) on the last axis, with
    or without the member axis.  Each of the four arrays is reshaped to
    each shape of entries on a slot field it is read in once, on first
    use, and kept, so a slot takes basic slices of them.  For a driver blind to the swapped
    arguments every slot reads the same two shapes: the left node is blind
    to step j's W bits, the right node to its B bits.  A stack of rows
    that reads the swapped arguments reads a shape per row.  `slot_args`
    and `slot_terms` are one slot through a reader of their own; a map, a
    residual, a flip equation's map and the stability functional read
    every slot through one.
    """

    def __init__(self, y: AdaptedPath | Stacked, z: VolterraKernel | Stacked,
                 ey, ez):
        self.lattice, self.dt = y.lattice, y.lattice.dt
        self.rank = y.values.ndim - 2
        self.arrays = (y.values, z.values, ey, ez)
        self.entries = (y.values.shape[-1], ey.shape[-1])
        self.lead = (-1,) * self.rank
        self.index = (slice(None),) * self.rank
        self.shaped = {}

    def _read(self, a: int, shape: tuple) -> np.ndarray:
        """Array a (the path, the kernel, their means) with its entries in
        shape, behind its member axis (of size 1 if it has none) and node
        axes."""
        try:
            return self.shaped[a, shape]
        except KeyError:
            x = self.arrays[a]
            v = self.shaped[a, shape] = x.reshape(
                self.lead + x.shape[x.ndim - 2 - a % 2:-1] + shape)
            return v

    def _args(self, j: int, rows: range, swapped: bool, lane: int | tuple
              ) -> tuple:
        """`slot_args` with the looked-up dB_j view of the lane."""
        f, t, shapes, db = _slot_layout(self.lattice, j, rows.start, rows.stop,
                                        swapped, self.rank, lane)
        read, lead, (n, nm) = self._read, self.index, self.entries
        sides = []
        for k in (j, j + 1):
            node = lead + (slice(k, k + 1),)
            z = mz = zr = mzr = 0.0
            if k < self.lattice.n_steps:
                cut = lead + (slice(rows.start, rows.stop), k)
                z = read(1, shapes[k, n])[cut]
                mz = _item(read(3, shapes[k, nm])[cut])
            if swapped:  # entries (k, i) of the rows, on time fields by row
                zr, mzr = (np.concatenate(np.broadcast_arrays(*[
                    read(a, shapes[i, e])[node + (i,)] for i in rows]),
                    axis=self.rank) for a, e in ((1, n), (3, nm)))
                mzr = _item(mzr)
            # a read of the pair holds 2^M entries or more, never one
            sides.append((read(0, shapes[k, n])[node], z, zr,
                          _item(read(2, shapes[k, nm])[node]), mz, mzr))
        return f, t, sides[0], sides[1], db

    def slot_args(self, j: int, rows: range, swapped: bool = True
                  ) -> tuple[SigmaField, np.ndarray, tuple, tuple]:
        """`solver.slot_args` of the reader's pair and means."""
        return self._args(j, rows, swapped, 0)[:4]

    def slot_terms(self, driver: DriverSpec, j: int, rows: range,
                   lane: int | tuple = 0, swapped: bool = True
                   ) -> tuple[SigmaField, np.ndarray]:
        """`solver.slot_terms` of the reader's pair and means."""
        dt = self.dt  # s_j = j dt, as `LatticeSpec.node` has it
        f, t, left, right, db = self._args(j, rows, swapped, lane)
        fdt = driver.f_values(t, j * dt, *left) * dt
        v = _times_db(driver.g_values(t, (j + 1) * dt, *right), db)
        # g dB_j is a new table: f dt goes into it where it fits, the same
        # sum, as addition commutes
        if np.broadcast(fdt, v).shape == v.shape:
            v += fdt
        else:
            v = fdt + v
        if v.ndim < t.ndim:  # dB_j is an array: v is one
            v = v.reshape((1,) * (t.ndim - v.ndim) + v.shape)
        return f, v


def slot_args(y: AdaptedPath | Stacked, z: VolterraKernel | Stacked, ey, ez,
              j: int, rows: range, swapped: bool = True
              ) -> tuple[SigmaField, np.ndarray, tuple, tuple]:
    """Frozen driver arguments of the rows `rows` (each <= j) at slot j.

    Returns (field, t, left, right): left feeds f at the left node
    (t_i, s_j), right feeds g at the right node (t_i, s_{j+1}) with kernel
    column N and its mean read as zero, each in driver order (y, z, z_rev,
    mean_y, mean_z, mean_z_rev) as bit views on the field ((j + 1) lanes,
    j lanes); t is the column of row times.  The path is shared, the
    kernel entries are stacked on a leading row axis, and the means
    (`means`: one entry on the last axis, passed as a float when it is an
    argument's only one, or 2^M, the particles' random means) are read as
    the path and the kernel are.  With swapped=False, z_rev and mean_z_rev
    are zeros, for a driver blind to them (`reads_swapped`); else the
    field knows the B bits from the first row on, and the rows' swapped
    entries, on time fields by row, are broadcast and stacked.  For a
    batch's `Stacked` y and z every argument has a leading member axis
    (of size 1 in t); a mean without one is every member's.  One slot
    through a `SlotReader` of its own.
    """
    return SlotReader(y, z, ey, ez).slot_args(j, rows, swapped)


def slot_terms(driver: DriverSpec, y: AdaptedPath, z: VolterraKernel, ey, ez,
               j: int, rows: range, lane: int | tuple = 0, swapped: bool = True
               ) -> tuple[SigmaField, np.ndarray]:
    """The slot-j terms f dt + g dB_j of the rows `rows` (each <= j), stacked.

    One f call and one g call serve every row, on the arguments of
    `slot_args`, with the given lane's dB_j, or each member's own for one
    lane per member, g dB_j by halves where it can (`_times_db`), and f dt
    added into its table where it fits.  Returns
    the field and values with a leading row axis and the field's bit axes,
    behind the member axis for a batch.  One slot through a `SlotReader` of
    its own.
    """
    return SlotReader(y, z, ey, ez).slot_terms(driver, j, rows, lane, swapped)


def _times_db(g, db: np.ndarray) -> np.ndarray:
    """g dB_j for the dB_j view db of `_slot_layout`: when dB_j's bit is
    the innermost axis, g's halves along it times -inc and +inc, each a
    long strided run where a broadcast runs two entries at a time; else
    (a lower B bit known, a lane per member, a scalar g) g times db.  The
    table is always a new one."""
    if db.size != 2 or db.shape[-1] != 2 or np.ndim(g) == 0:
        return g * db
    out = np.empty((1,) * (db.ndim - g.ndim) + g.shape[:-1] + (2,))
    halves, g = out.reshape(-1, 2), g.reshape(-1, g.shape[-1])
    np.multiply(g[:, 0], db.flat[0], out=halves[:, 0])
    np.multiply(g[:, -1], db.flat[1], out=halves[:, 1])
    return out


def reads_swapped(driver: DriverSpec) -> bool:
    """Whether f or g reads z_rev or mean_z_rev.

    Read off the shape of the output, whose size-1 axes are blindness:
    the two swapped slots get a size-2 array and every other argument a
    zero scalar, at the zero state the first Picard step starts from.
    """
    probe = np.zeros(2)
    return any(np.size(fn(0.0, 0.0, 0.0, 0.0, probe, 0.0, 0.0, probe)) > 1
               for fn in (driver.f_values, driver.g_values))


def _map_tables(zeta, term: Callable | None, swapped: bool,
                lane: int | tuple, first: int, out: tuple | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The tables (member, row, ...) of `map_rows`'s paths and kernels, in
    out as `clark_ocone_sweep` takes it; swapped, each row's sweep writes
    its rows of the tables."""
    if not swapped:
        return clark_ocone_sweep(zeta, 0, lane, first, term, out=out)
    lat, size, rows = zeta[0][0].lattice, len(zeta), len(zeta[0])
    if out is None:
        out = (np.empty((size, rows, 1 << lat.n_bits)),
               np.empty((size, rows, lat.n_steps, 1 << lat.n_bits)))
    ys, zs = out[:2]
    for i in range(rows):
        clark_ocone_sweep([x[i:i + 1] for x in zeta], i, lane, first, term,
                          swapped=True,
                          out=(ys[:, i:i + 1], zs[:, i:i + 1], *out[2:]))
    return ys, zs


def map_rows(zeta, term: Callable | None, swapped: bool,
             lane: int | tuple = 0, first: int = 0, out: tuple | None = None
             ) -> tuple[list[AdaptedPath], list[VolterraKernel]]:
    """The rows of one map application, from their terminals zeta, one
    sequence per member, with terms for the members' stacked pairs.

    term(j, rows) gives the slot-j terms of a stack of rows as
    `lattice.clark_ocone_sweep` takes them (`slot_terms`, the flip
    equation's, or none for the split of zeta itself).  Frozen at a pair,
    each row is a backward equation in s, so the rows advance as one
    stack, unless swapped: terms that read the swapped arguments know B
    bits that differ by row, so for them each row is a stack of its own.
    lane and first are those of `clark_ocone_sweep`.  The members sweep
    together; Y and Z are lists, one path and kernel per member, each a
    write-locked view of one table: of a new one, or of out's, a writable
    (ys, zs) pair of tables (member, row, ...) that receives them, with the
    sweeps' `lattice.SweepStacks` as a third entry if the caller keeps one.
    Those written into out are not re-read for finiteness: out is a Picard
    loop's, whose distance finds a non-finite entry (`iterate`).
    """
    return _pairs(zeta[0][0].lattice,
                  _map_tables(zeta, term, swapped, lane, first, out),
                  out is None)


def check_settings(tol: float, max_iter: int) -> None:
    """Refuse a Picard tolerance or iteration budget `iterate` cannot run:
    tol a positive real number, max_iter a positive integer (numpy's
    numbers too, but neither a bool), before any map."""
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise ValidationError(f"tol={tol!r} must be a real number")
    if not tol > 0:
        raise ValidationError(f"tol={tol} must be > 0")
    try:
        operator.index(max_iter)
    except TypeError:
        integer = False
    else:
        integer = not isinstance(max_iter, bool)  # an int to operator.index
    if not integer:
        raise ValidationError(f"max_iter={max_iter!r} must be an integer")
    if not max_iter >= 1:
        raise ValidationError(f"max_iter={max_iter} must be >= 1")


def _pairs(lat: LatticeSpec, tables, checked: bool = True) -> tuple:
    """The paths and the kernels of (ys, zs) tables (member, row, ...), one
    per member, as write-locked views: checked by their constructors, or
    not re-read for finiteness (tables a Picard loop owns, whose distance
    finds an entry that is not finite)."""
    return tuple([cls(lat, v) if checked else _unchecked(cls, lat, v)
                  for v in _owned(t.view())]
                 for cls, t in zip((AdaptedPath, VolterraKernel), tables))


def iterate(step: Callable, members: dict, lat: LatticeSpec, tol: float,
            max_iter: int, squares: Callable | None = None,
            coupled: bool = False):
    """The Picard loop: map the members' pairs until each moves by at most
    tol in the pathwise sup norm.  Returns (pairs, iterations, traces),
    dicts over the members: the last pair, the iterations run and the
    distance at each.

    members maps each member to its start pair, or each to None for zeros.
    step(running, y, z, out) maps the members still running (a list of
    keys) frozen at y and z, their paths and kernels as `Stacked`, and
    returns the new (ys, zs) tables (member, row, ...), written into out,
    whose third entry is the loop's `lattice.SweepStacks` for the sweep's
    running stacks.  The loop owns the tables: the zero start lives in
    them, out is those of the map two back if it mapped the same members
    (else new ones: for the first two maps and the two after a member
    stops), and y and z are the last map's, restacked when a member stops;
    a caller's start is never written.  So past its second map an iteration
    allocates no pair and no stack, and all of it is freed on return but
    the pairs handed out: a member that stops while others run on gets a
    copy of its rows, so no pair keeps a co-member's rows alive but those
    of the members that stop last, which share their map's tables.

    A member's difference goes into its rows of y's and z's tables when
    the loop owns them (the zero start, a map's out, restacked rows): the
    pair it replaces, whose storage the next map writes over.  Else (a
    caller's start, or tables a step returns other than its out) it goes
    into a pair made for the iteration.  So the loop holds two pairs, the
    last two maps'.  The difference's sup is the member's distance, and
    squares(m, y2, z2), if given, gets it squared in place.  Coupled
    members (given no squares) are one system, with one difference over
    all of them, and stop together; else each stops at the iteration
    where it would alone.  The new pairs are not re-read for finiteness:
    a distance that is not finite names the first entry that is not, of
    the paths, then of the kernels (the pairs' constructors' check), in
    the iteration that made it.
    """
    check_settings(tol, max_iter)
    n = lat.n_steps
    shapes = ((n + 1, 1 << lat.n_bits), (n + 1, n, 1 << lat.n_bits))
    width = len(members) if coupled else 1  # the members a difference spans
    stacks = SweepStacks()
    running, done = list(members), {}
    held = []  # (members, tables) of the last two maps, or of the zero start
    old = None  # the tables of y and z if the loop owns them, else None
    if all(pair is None for pair in members.values()):
        old = tuple(np.zeros((len(running),) + s) for s in shapes)
        held.append((running, old))
        y, z = (Stacked(lat, _owned(t.view())) for t in old)
    else:
        y, z = (_stacked([members[m][k] for m in running]) for k in (0, 1))
    traces = {m: [] for m in running}
    for _ in range(max_iter):
        size = len(running)
        if len(held) == 2 and held[0][0] == running:
            out = held[0][1]
        else:
            out = tuple(np.empty((size,) + s) for s in shapes)
        tables = step(running, y, z, (*out, stacks))
        held[:] = held[-1:] + [(running, tables)]
        ys, zs = (_owned(t.view()) for t in tables)
        sups = []
        for k in range(0, size, width):
            dy, dz = (np.subtract(t[k:k + width], x.values[k:k + width],
                                  out=None if d is None else d[k:k + width])
                      for t, x, d in zip((ys, zs), (y, z), old or (None,) * 2))
            sy, sz = _max_abs(dy), _max_abs(dz)
            if not math.isfinite(sy + sz):
                for table in (ys, zs):
                    for values in table:
                        _check_finite(values)
            sups += [max(sy, sz)] * width
            if squares:
                squares(running[k], np.square(dy[0], out=dy[0]),
                        np.square(dz[0], out=dz[0]))
        del dy, dz  # a pair made for the iteration is freed with it
        keep = [k for k, d in enumerate(sups) if d > tol]
        for k, (m, d) in enumerate(zip(running, sups)):
            traces[m].append(d)
            if d <= tol:  # the pair handed out, its own rows if others run on
                done[m] = tuple(_unchecked(cls, lat, _owned(t[k].copy())
                                           if keep else t[k])
                                for cls, t in ((AdaptedPath, ys),
                                               (VolterraKernel, zs)))
        if not keep:
            return ({m: done[m] for m in traces},
                    {m: len(t) for m, t in traces.items()}, traces)
        if len(keep) < size:  # the running members' rows restacked
            old = tuple(t[keep] for t in tables)
            ys, zs = (_owned(t.view()) for t in old)
        else:  # the last map's tables, if they are the out it was handed
            old = tables if all(t is o for t, o in zip(tables, out)) else None
        running = [running[k] for k in keep]
        y, z = Stacked(lat, ys), Stacked(lat, zs)
    m = running[0]
    raise NoConvergence(
        (f"member {m}: " if len(traces) > 1 and not coupled else "")
        + f"max_iter={max_iter} hit with successive difference "
        f"{traces[m][-1]:.3e} > tol={tol}")


def means(y: AdaptedPath | Stacked, z: VolterraKernel | Stacked):
    """Expectations of every path and kernel entry (the mean arguments), as
    arrays shaped like y's and z's values with one entry on the last axis:
    `np.mean`'s sum and division, without its Python wrapper."""
    sums = tuple(np.add.reduce(x.values, axis=-1, keepdims=True)
                 for x in (y, z))
    for s in sums:
        s /= y.values.shape[-1]
    return sums


def _driver_terms(sc: Scenario, y, z) -> tuple[Callable, bool]:
    """The stacked slot terms of sc's driver frozen at (y, z), read through
    one `SlotReader`, and the `swapped` flag they are built with: whether
    the driver reads the swapped arguments, so that each row is a stack of
    its own.  The map's and the residual's one lattice check: a path or
    kernel off sc's lattice is refused before any slot is read."""
    if y.lattice != sc.lattice or z.lattice != sc.lattice:
        raise LatticeMismatch("path or kernel not on the scenario's lattice")
    return (partial(SlotReader(y, z, *means(y, z)).slot_terms, sc.driver,
                    swapped=sc.swapped), sc.swapped)


def check_batch(scs) -> None:
    """Refuse a batch of scenarios that differ in lattice, driver or beta."""
    if not scs:
        raise ValidationError("a batch needs at least one scenario")
    first = (scs[0].lattice, scs[0].driver, scs[0].beta)
    for m, sc in enumerate(scs):
        if (sc.lattice, sc.driver, sc.beta) != first:
            raise ValidationError(f"batch member {m} differs from member 0 "
                                  f"in lattice, driver or beta")


def gamma_map(sc: Scenario, y: AdaptedPath, z: VolterraKernel,
              out: tuple | None = None) -> tuple[AdaptedPath, VolterraKernel]:
    """One exact application of the frozen-argument map.

    sc, y and z may be lists, the scenarios (`check_batch`) and pairs of a
    batch's members (or the members' paths and kernels as `Stacked`):
    they are mapped as one stack, and the new paths and kernels are lists
    too.  A pair is the batch of one.  out is the storage of the new
    pairs, as in `map_rows` (None: new tables), a Picard loop's: the pairs
    written there are not re-read for finiteness.  A path or kernel off
    the scenarios' lattice is refused with `LatticeMismatch` before any
    sweep.
    """
    batch = not isinstance(sc, Scenario)
    scs, ys, zs = (sc, y, z) if batch else ([sc], [y], [z])
    new = map_rows([x.zeta for x in scs], *_driver_terms(
        scs[0], _stacked(ys), _stacked(zs)), out=out)
    return new if batch else (new[0][0], new[1][0])


def representation_pair(sc: Scenario) -> tuple[AdaptedPath, VolterraKernel]:
    """The source-free solution: conditional terminal plus its kernel."""
    (y,), (z,) = map_rows([sc.zeta], None, False)
    return y, z


def residual(sc: Scenario, y: AdaptedPath, z: VolterraKernel) -> float:
    """Worst pathwise defect of the equation with self-consistent args:
    zeta_i - Y_i + sum_{j >= i} (f dt + g dB_j - Z_ij dW_j) over rows i and
    paths, exact and with no table of them (`lattice.row_extremes` on the
    map's stacked slot terms), about the cost of a map.  NaN propagates."""
    return float(np.max(row_extremes(
        sc.zeta, y.y, z, *_driver_terms(sc, y, z),
        [range(i, sc.lattice.n_steps) for i in range(len(y))])))


def picard_solve(sc: Scenario, tol: float = 1e-10, max_iter: int = 200,
                 start: tuple[AdaptedPath, VolterraKernel] | None = None,
                 report: bool = True
                 ) -> tuple[AdaptedPath, VolterraKernel, SolverReport | None]:
    """Iterate the map from start (default zero) until the successive
    difference drops below tol: `gamma_map` as the step of `iterate`.

    With report=False the third entry is None, and the weighted diffs,
    the exact `residual` and the final norms are never computed; the
    iterates are the same.

    sc may be a list of scenarios sharing a lattice, a driver and a beta
    (`check_batch`), with start a list of pairs, one per scenario: they are
    the members of one loop, mapped as one stack, each stopping at the
    iteration where it would alone, and each entry of the result is a
    list, one item per member.
    """
    batch = not isinstance(sc, Scenario)
    scs = list(sc) if batch else [sc]
    check_batch(scs)
    if start is None:
        start = [None] * len(scs)
    elif not batch:
        start = [start]
    elif len(start) != len(scs):
        raise ValidationError(f"{len(start)} start pairs for {len(scs)} "
                              f"scenarios")
    lat, beta = scs[0].lattice, scs[0].beta
    w = BetaWeight(beta)
    # a Python float: a norm that overflows gives an inf diff and a nan
    # ratio, not a numpy warning
    scale = 1.0 / math.sqrt(_weight_mass(lat, beta))
    diffs = {m: [] for m in range(len(scs))}

    def step(members, y, z, out):
        gamma_map([scs[m] for m in members], y, z, out=out)
        return out[:2]

    def squares(m, y2, z2):
        diffs[m].append(scale * math.sqrt(_norm_squared(lat, y2, z2, w)[0]))

    pairs, iterations, traces = iterate(
        step, dict(enumerate(start)), lat, tol, max_iter,
        squares if report else None)
    ys, zs = ([pairs[m][k] for m in range(len(scs))] for k in (0, 1))
    reports = None
    if report:
        reports = [SolverReport(
            iterations=iterations[m],
            diff_trace=diffs[m],
            ratio_trace=[d / p if p > 0 else 0.0
                         for p, d in zip(diffs[m], diffs[m][1:])],
            gamma_theory=x.gamma_theory,
            final_residual=residual(x, ys[m], zs[m]),
            final_norms=tuple(map(math.sqrt, _norm_squared(
                lat, np.square(ys[m].values), np.square(zs[m].values), w))),
            sup_trace=traces[m],
        ) for m, x in enumerate(scs)]
    if batch:
        return ys, zs, reports
    return ys[0], zs[0], reports and reports[0]


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
    y1, z1, _ = picard_solve(sc1, tol=tol, max_iter=max_iter, report=False)
    y2, z2, _ = picard_solve(sc2, tol=tol, max_iter=max_iter, report=False)
    lhs = m_beta_norm(*pair_diff(y1, z1, y2, z2), w) ** 2

    zeta_term = 0.0
    for i in range(n + 1):
        dz = sc1.zeta[i].values - sc2.zeta[i].values
        zeta_term += w.at(lat.node(i)) * float(np.mean(dz * dz)) * dt
    read = SlotReader(y2, z2, *means(y2, z2))
    f_term = g_term = 0.0
    d1, d2 = sc1.driver, sc2.driver
    swapped = sc1.swapped or sc2.swapped
    for j in range(n):
        _, t, left, right = read.slot_args(j, range(j + 1), swapped)
        s, sr = lat.node(j), lat.node(j + 1)
        df = d1.f_values(t, s, *left) - d2.f_values(t, s, *left)
        dg = d1.g_values(t, sr, *right) - d2.g_values(t, sr, *right)
        # rows share one shape: their means sum to (j + 1) times the stack's
        weight = w.at(s) * dt * dt * (j + 1)
        f_term += weight * float(np.mean(df * df))
        g_term += weight * float(np.mean(dg * dg))
    rhs = zeta_term + f_term + g_term
    ratio = lhs / rhs if rhs > 0 else 0.0
    return StabilityReport(lhs=lhs, zeta_term=zeta_term, f_term=f_term,
                           g_term=g_term, ratio=ratio)
