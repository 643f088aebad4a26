"""Independent brute-force oracles used to freeze expected values.

Everything here works directly on full path enumerations with raw bit
arithmetic and NumPy least squares; nothing imports solver internals,
so agreement between the two sides is meaningful.  The one exception is
the last two sections: a per-slot split and a zeta-first assembly built
on the package's primitives, the references for the backward sweep of
`split_row` and the ascending assembly of `assemble_phi`; and the
whole-pair statistics written one entry at a time, the references for
their array expressions over the dense pair storage.

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

import numpy as np

from mfbdsvie.fields import AdaptedPath, VolterraKernel
from mfbdsvie.lattice import (
    b_increment,
    condexp,
    expectation,
    lift,
    time_field,
    w_increment,
    zero_rv,
)
from mfbdsvie.solver import evaluate_driver, frozen_args


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


# -- reference split and assembly --------------------------------------------
#
# One conditional expectation per kernel entry and every addition at the
# terminal field: slower, and independent of the sweep.


def condexp_representation_row(y_i, j, lane=0):
    """E[Y_i dW_j | (j, j)] / dt with one conditional expectation."""
    lat = y_i.lattice
    wj = w_increment(lat, lat.bit_of(j, lane))
    return condexp(y_i * wj, time_field(lat, j)) * (1.0 / lat.dt)


def condexp_split_row(phi, i, lane=0, first=0):
    """Y_i and kernel row i, one conditional expectation per column."""
    lat = phi.lattice
    yi = condexp(phi, time_field(lat, i))
    row = [lift(zero_rv(lat), time_field(lat, j)) for j in range(first)]
    row += [condexp_representation_row(yi, j, lane) for j in range(first, i)]
    for j in range(max(i, first), lat.n_steps):
        wj = w_increment(lat, lat.bit_of(j, lane))
        row.append(condexp(phi * wj, time_field(lat, j)) * (1.0 / lat.dt))
    return yi, row


def condexp_m_extend(y, z_delta):
    """Lower triangle from condexp_representation_row, upper kept."""
    lat = y.lattice
    rows = [[z_delta.at(i, j) if j >= i else condexp_representation_row(y[i], j)
             for j in range(lat.n_steps)] for i in range(lat.n_steps + 1)]
    return VolterraKernel(lat, rows)


def zeta_first_assemble_phi(driver, zeta_i, y, z, ey, ez, i, lane=0):
    """Phi_i summed from zeta_i, so every addition is at the widest field."""
    lat = y.lattice
    t = lat.node(i)
    phi = zeta_i
    for j in range(i, lat.n_steps):
        left, right = frozen_args(y, z, ey, ez, i, j)
        f = evaluate_driver(driver.f_values, t, lat.node(j), left)
        phi = phi + f * lat.dt
        g = evaluate_driver(driver.g_values, t, lat.node(j + 1), right)
        phi = phi + g * b_increment(lat, lat.bit_of(j, lane))
    return phi


# -- per-entry whole-pair statistics -------------------------------------------
#
# One Python step per path or kernel entry, through y[i] and z.at(i, j):
# the references for the array expressions of fields and solver.


def entrywise_pair_sup_diff(y1, z1, y2, z2):
    lat = y1.lattice
    worst = 0.0
    for i in range(lat.n_steps + 1):
        worst = max(worst, (y1[i] - y2[i]).max_abs())
        for j in range(lat.n_steps):
            worst = max(worst, (z1.at(i, j) - z2.at(i, j)).max_abs())
    return worst


def entrywise_pair_diff(y1, z1, y2, z2):
    lat = y1.lattice
    dy = AdaptedPath(lat, [y1[i] - y2[i] for i in range(lat.n_steps + 1)])
    dz = VolterraKernel(lat, [[z1.at(i, j) - z2.at(i, j)
                               for j in range(lat.n_steps)]
                              for i in range(lat.n_steps + 1)])
    return dy, dz


def entrywise_norm_squared(y, z, w, full_square):
    lat = y.lattice
    dt = lat.dt
    total = 0.0
    for i in range(lat.n_steps + 1):
        total += w.at(lat.node(i)) * expectation(y[i] * y[i]) * dt
    for i in range(lat.n_steps + 1):
        for j in range(0 if full_square else i, lat.n_steps):
            zij = z.at(i, j)
            total += w.at(lat.node(j)) * expectation(zij * zij) * dt * dt
    return total


def entrywise_means(y, z):
    n = y.lattice.n_steps
    ey = [expectation(y[i]) for i in range(n + 1)]
    ez = [[expectation(z.at(i, j)) for j in range(n)] for i in range(n + 1)]
    return ey, ez


def entrywise_node_gaps(a, b, from_node=0, absolute=False):
    rows = []
    for i in range(from_node, len(a)):
        d = (a[i] - b[i]).values
        rows.append((i, float(np.max(np.abs(d) if absolute else d))))
    return rows
