"""Interacting particle system on the exact joint lattice.

n particles carry independent walk pairs (one lane per particle on a
joint lattice with n lanes per time step).  Each particle solves the
equation with its own terminal data and its own backward and forward
integrals, while every expectation argument is replaced by the
empirical mean over the n particles, the own value included: a dense
path or kernel, the random means `solver.SlotReader` reads.  The solve
is the fixed point of the natural map: each particle's frozen right
side, conditioned on the joint time field, with the kernel extracted
against the particle's own forward increments.  The particles are the
members of one backward induction: member p reads its kernel columns at
lane p's bits and its own dB_j, one f and one g call a slot.

The n = 1 system with a mean-field-free driver reproduces the single
solve exactly; coupled drivers generate a gap to the mean-field
solution whose exact second moment

    e_n(t_i) = E | Y_particle_1(t_i) - Y_meanfield(t_i) |^2

is computed on the joint time field F_{t_i}: the mean-field solution is
read as particle 1's bit view, blind to the other particles'
increments, so the difference spans at most the 2^(nN) entries of that
field and no table of the 4^(nN) joint paths is built.  No sampling
enters anywhere, so the decreasing trend in n is a deterministic
statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .drivers import DriverSpec, TerminalSpec, terminal_table
from .errors import JointSpaceTooLarge, ValidationError
from .fields import AdaptedPath
from .lattice import (
    LatticeSpec,
    _owned,
    bit_view_shape,
    full_field,
    terminal_rows,
    time_field,
)
from .solver import (
    Scenario,
    SlotReader,
    _map_tables,
    _pairs,
    _stacked,
    iterate,
    picard_solve,
    reads_swapped,
)

JOINT_PATH_GUARD = 1 << 24
MAX_PARTICLES = 3


@dataclass(frozen=True)
class ParticleConfig:
    """Joint-lattice particle run: n particles on an N-step grid."""

    n_particles: int
    lattice: LatticeSpec  # single-lane template (n_steps, horizon)
    driver: DriverSpec
    terminal: TerminalSpec
    tol: float = 1e-12
    max_iter: int = 300

    def __post_init__(self):
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise ValidationError(
                f"n_particles={self.n_particles} outside 1..{MAX_PARTICLES}"
            )
        if self.lattice.lanes != 1:
            raise ValidationError("pass a single-lane template lattice")
        bits = self.n_particles * self.lattice.n_steps
        if (1 << (2 * bits)) > JOINT_PATH_GUARD:
            raise JointSpaceTooLarge(
                f"4^(N*n) = 4^{bits} exceeds the enumeration guard"
            )

    def joint_lattice(self) -> LatticeSpec:
        return LatticeSpec(
            n_steps=self.lattice.n_steps,
            horizon=self.lattice.horizon,
            lanes=self.n_particles,
        )


@dataclass
class ParticleReport:
    iterations: int
    sup_diff: float
    exchangeability: float


def solve_particles(pc: ParticleConfig
                    ) -> tuple[list[AdaptedPath], ParticleReport]:
    """Exact fixed point of the empirical-mean system: `_particle_map` as
    the step of `solver.iterate`, one member a particle, all stopping
    together.

    Returns each particle's path on the joint lattice, the loop's own,
    plus a report carrying the exchangeability defect measured pathwise
    under the particle-swap permutation.
    """
    joint = pc.joint_lattice()
    zetas = _owned(np.stack([terminal_table(pc.terminal, joint, lane=p)
                             for p in range(pc.n_particles)]))
    swapped = reads_swapped(pc.driver)

    def step(members, y, z, out):
        _particle_map(pc.driver, swapped, zetas, (y, z), out)

    pairs, iterations, traces = iterate(
        step, dict.fromkeys(range(pc.n_particles)), joint, pc.tol,
        pc.max_iter, coupled=True)
    y = [pairs[p][0] for p in range(pc.n_particles)]
    report = ParticleReport(
        iterations=iterations[0],
        sup_diff=traces[0][-1],
        exchangeability=_exchangeability_defect(pc, joint, y),
    )
    return y, report


def particle_map(driver: DriverSpec, zetas, pairs):
    """One map application for every particle on the joint lattice: one
    sweep, particle p on its own lane's increments, and the empirical means
    over all particles (dense random means) as every particle's mean
    arguments.  zetas stacks each particle's lane's `terminal_table`.
    """
    tables = [_stacked(parts) for parts in zip(*pairs)]
    return list(zip(*_pairs(tables[0].lattice, _particle_map(
        driver, reads_swapped(driver), zetas, tables))))


def _particle_map(driver: DriverSpec, swapped: bool, zetas, tables,
                  out: tuple | None = None) -> tuple:
    """`particle_map` on tables, the particles' paths and kernels as
    `Stacked`, read through one `SlotReader`, for a driver already probed:
    swapped is `reads_swapped(driver)`, which `solve_particles` finds once a
    solve.  Returns the new (ys, zs) tables (particle, row, ...), new ones
    or out's (`solver.map_rows`)."""
    y, z = tables
    k = 1.0 / len(y.values)
    lanes = tuple(range(len(y.values)))
    read = SlotReader(y, z, y.values.sum(axis=0) * k, z.values.sum(axis=0) * k)
    return _map_tables(terminal_rows(y.lattice, zetas),
                       partial(read.slot_terms, driver, lane=lanes,
                               swapped=swapped),
                       swapped, lanes, 0, out)


def _exchangeability_defect(pc: ParticleConfig, joint: LatticeSpec,
                            y: list[AdaptedPath]) -> float:
    """Worst pathwise defect of Y under swapping two particle labels."""
    if pc.n_particles == 1:
        return 0.0
    m = joint.n_bits
    # bit views hold bit m-1-k at axis k of each half (W, then B): swap the
    # axes of particles 0 and 1 at every step
    swap = list(range(2 * m))
    for step in range(joint.n_steps):
        k = m - 1 - joint.bit_of(step, 0)  # particle 1 sits at axis k - 1
        for a in (k, k + m):
            swap[a], swap[a - 1] = swap[a - 1], swap[a]
    worst = 0.0
    for i in range(joint.n_steps + 1):
        d = _full_view(y[0], i).transpose(swap) - _full_view(y[1], i)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def _full_view(y: AdaptedPath, i: int) -> np.ndarray:
    """Row i of y with one axis per increment of its lattice."""
    lat = y.lattice
    return y.values[i].reshape(bit_view_shape(time_field(lat, i),
                                              full_field(lat)))


def lane_view(view: np.ndarray, joint: LatticeSpec, lane: int
              ) -> np.ndarray:
    """A single-lattice `_full_view` as a bit view on the joint lattice's
    full field, reading only the given lane's increments: each
    single-lattice bit axis becomes its step's group of lane axes (lanes
    descending), with size 1 for the other lanes."""
    above, below = (1,) * (joint.lanes - 1 - lane), (1,) * lane
    return view.reshape([k for d in view.shape
                         for k in (*above, d, *below)])


def convergence_study(base: Scenario, n_list: list[int],
                      tol: float = 1e-12, max_iter: int = 300
                      ) -> list[tuple[int, int, float]]:
    """Exact mean-square gaps e_n(t_i) between particle 1 and the limit.

    Returns rows (n, t_idx, e_n) for every n in n_list and grid node.
    Every particle count is checked against the guard before the first
    solve.  Both sides of a gap are bit views on the joint time field, so
    their difference holds at most 2^(nN) entries.
    """
    configs = [ParticleConfig(
        n_particles=npart, lattice=base.lattice, driver=base.driver,
        terminal=base.terminal, tol=tol, max_iter=max_iter,
    ) for npart in n_list]
    y_mf, _, _ = picard_solve(base, tol=tol, max_iter=max_iter, report=False)
    rows = []
    for pc in configs:
        joint = pc.joint_lattice()
        y, _ = solve_particles(pc)
        for i in range(len(y_mf)):
            d = _full_view(y[0], i) - lane_view(_full_view(y_mf, i), joint, 0)
            rows.append((pc.n_particles, i, float(np.mean(d ** 2))))
    return rows
