"""Solver and experiment tools for two-dimensional neural field equations.

The package discretises the field equation with a composite Gauss-Legendre
quadrature in space and an implicit two-step scheme in time, optionally
routing the integral operator through a low-order Chebyshev interpolant to
cut its cost, and optionally accounting for a finite transmission speed
via space-dependent delays.
"""

from .problems import ProblemSpec, example1, example2, example3, example4, example5
from .solver import SolveResult, SolverConfig, solve
from .analysis import error_norm, field_norm, space_convergence_study, time_convergence_study

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec", "example1", "example2", "example3", "example4", "example5",
    "SolveResult", "SolverConfig", "solve",
    "error_norm", "field_norm", "space_convergence_study", "time_convergence_study",
    "__version__",
]
