"""Replica-exchange Langevin dynamics for nonconvex minimization.

Public surface: objectives, the one Euler-Maruyama kernel that integrates
single chains and replica pairs, convergence diagnostics, the experiment
harness, and the CLI.
"""

from .diagnostics import (DecayFit, GridMeasure, chi2_decay_experiment,
                          chi_square_divergence, dirichlet_acceleration_term,
                          empirical_histogram, gibbs_density,
                          pair_gibbs_density, total_variation)
from .errors import DivergenceError, InputError, RelexError
from .harness import RunSummary, discretization_error_experiment, run_comparison
from .objective import (ObjectiveFunction, build_gaussian_mixture, check_gradient,
                        double_well, benchmark_mixture, quadratic)
from .replica import run_pair_ensemble, swap_rate
from .rng import RngStream, derive_stream

__version__ = "0.1.0"

__all__ = [
    "DecayFit", "DivergenceError", "GridMeasure", "InputError",
    "ObjectiveFunction", "RelexError", "RngStream", "RunSummary",
    "build_gaussian_mixture", "check_gradient",
    "chi2_decay_experiment", "chi_square_divergence", "derive_stream",
    "dirichlet_acceleration_term", "discretization_error_experiment",
    "double_well", "empirical_histogram", "gibbs_density",
    "pair_gibbs_density", "benchmark_mixture", "quadratic", "run_comparison",
    "run_pair_ensemble", "swap_rate", "total_variation",
]
