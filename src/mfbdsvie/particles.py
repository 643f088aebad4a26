"""Interacting particle system on the exact joint lattice.

n particles carry independent walk pairs (one lane per particle on a
joint lattice with n lanes per time step).  Each particle solves the
equation with its own terminal data and its own backward and forward
integrals, while every expectation argument is replaced by the
empirical mean over the n particles, the own value included.  The
solve is the fixed point of the natural map: assemble each particle's
frozen right side, condition on the joint time field, and extract the
kernel against the particle's own forward increments.

The n = 1 system with a mean-field-free driver reproduces the single
solve exactly; coupled drivers generate a gap to the mean-field
solution whose exact second moment

    e_n(t_i) = E | Y_particle_1(t_i) - Y_meanfield(t_i) |^2

is computed by full joint enumeration, lifting the mean-field solution
onto particle 1's increments.  No sampling enters anywhere, so the
decreasing trend in n is a deterministic statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .drivers import DriverSpec, TerminalSpec, terminal_rv
from .errors import JointSpaceTooLarge, ValidationError
from .fields import AdaptedPath, VolterraKernel, zero_kernel, zero_path
from .lattice import (
    LatticeSpec,
    MeasurableRV,
    _owned,
    bit_view,
    fill_table,
    full_field,
    lift,
)
from .solver import (
    Scenario,
    assemble_phi,
    iterate,
    picard_solve,
    split_row,
    sup_distance,
)

JOINT_PATH_GUARD = 1 << 24
MAX_PARTICLES = 3


@dataclass(frozen=True)
class ParticleConfig:
    """Joint-lattice particle run: n particles on an N-step grid."""

    n_particles: int
    lattice: LatticeSpec  # single-lane template (n_steps, horizon)
    driver: DriverSpec = None
    terminal: TerminalSpec = None
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
                    ) -> tuple[list[list[MeasurableRV]], ParticleReport]:
    """Exact fixed point of the empirical-mean system.

    Returns per-particle node values y[p][i] on the joint lattice plus a
    report carrying the exchangeability defect measured pathwise under
    the particle-swap permutation.
    """
    joint = pc.joint_lattice()
    n = joint.n_steps
    zetas = [[terminal_rv(pc.terminal, joint, i, lane=p) for i in range(n + 1)]
             for p in range(pc.n_particles)]

    def step(pairs):
        # particle p solves the frozen map with its own lane's increments
        # and the empirical means over all particles as mean arguments
        k = 1.0 / len(pairs)
        mean_y = AdaptedPath(joint, _owned(
            reduce(np.add, [y.values for y, _ in pairs]) * k)).y
        mean_z = VolterraKernel(joint, _owned(
            reduce(np.add, [z.values for _, z in pairs]) * k)).z
        new = []
        for p, (y, z) in enumerate(pairs):
            ys, rows = zip(*(
                split_row(assemble_phi(pc.driver, zetas[p][i], y, z,
                                       mean_y, mean_z, i, lane=p), i, lane=p)
                for i in range(n + 1)))
            new.append((AdaptedPath(joint, ys), VolterraKernel(joint, rows)))
        return new

    def distance(new, old):
        return max(sup_distance(a, b) for a, b in zip(new, old))

    start = [(zero_path(joint), zero_kernel(joint))] * pc.n_particles
    pairs, iterations, sup = iterate(step, start, distance, pc.tol, pc.max_iter)
    y = [list(yp.y) for yp, _ in pairs]
    report = ParticleReport(
        iterations=iterations,
        sup_diff=sup,
        exchangeability=_exchangeability_defect(pc, joint, y),
    )
    return y, report


def _exchangeability_defect(pc: ParticleConfig, joint: LatticeSpec,
                            y: list) -> float:
    """Worst pathwise defect of Y under swapping two particle labels."""
    if pc.n_particles == 1:
        return 0.0
    m = joint.n_bits
    ff = full_field(joint)
    # bit views hold bit m-1-k at axis k of each half (W, then B): swap the
    # axes of particles 0 and 1 at every step
    swap = list(range(2 * m))
    for step in range(joint.n_steps):
        k = m - 1 - joint.bit_of(step, 0)  # particle 1 sits at axis k - 1
        for a in (k, k + m):
            swap[a], swap[a - 1] = swap[a - 1], swap[a]
    worst = 0.0
    for i in range(joint.n_steps + 1):
        d = bit_view(y[0][i], ff).transpose(swap) - bit_view(y[1][i], ff)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


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


def convergence_study(base: Scenario, n_list: list[int],
                      tol: float = 1e-12, max_iter: int = 300
                      ) -> list[tuple[int, int, float]]:
    """Exact mean-square gaps e_n(t_i) between particle 1 and the limit.

    Returns rows (n, t_idx, e_n) for every n in n_list and grid node.
    """
    y_mf, _, _ = picard_solve(base, tol=tol, max_iter=max_iter)
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
