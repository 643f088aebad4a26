"""Exact lattice solver and verification suite for mean-field backward
doubly stochastic Volterra integral equations.

The probability space is a pair of Rademacher walks (forward W,
backward B) on a finite grid, so every conditional expectation is an
exact finite average and every verified identity holds to rounding
error.  See the module docstrings for the discretisation conventions.
"""

from .errors import Error
from .lattice import (
    LatticeSpec,
    MeasurableRV,
    SigmaField,
    build_lattice,
    condexp,
    time_field,
)
from .fields import (
    AdaptedPath,
    BetaWeight,
    VolterraKernel,
    l_beta_norm,
    m_beta_norm,
    m_extend,
    m_identity_residual,
)
from .drivers import (
    CustomDriver,
    DriverSpec,
    LinearDriver,
    RiskDriver,
    TerminalSpec,
    ZPart,
    beta_default,
    gamma_theory,
)
from .solver import (
    Scenario,
    SolverReport,
    gamma_map,
    picard_solve,
    representation_pair,
    residual,
    stability_compare,
)
from .comparison import (
    ComparisonScenario,
    check_hypotheses,
    compare_solve,
    monotone_iteration,
)
from .risk import (
    PayoffStream,
    RiskSpec,
    axiom_convexity,
    axiom_monotonicity,
    axiom_past_independence,
    axiom_positions,
    axiom_positive_homogeneity,
    axiom_subadditivity,
    axiom_translation,
    discount_factors,
    rho,
    solve_positions,
)
from .malliavin import (
    LinearizedScenario,
    build_linearized,
    check_clark_ocone,
    check_delta_equation,
    flip_solution,
    solve_linearized,
)
from .particles import ParticleConfig, convergence_study, solve_particles

__all__ = [name for name in dir() if not name.startswith("_")]
