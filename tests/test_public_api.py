"""The public surface: ``relex.__all__`` is pinned, so growing or shrinking it
is a deliberate, reviewed diff of this list."""

import relex

PUBLIC = [
    "ConfigError", "DecayFit", "DivergenceError", "EmptyInputError",
    "FitError", "GaussianMixtureSpec", "GridMeasure", "GridMismatchError",
    "InputError", "ObjectiveFunction", "RelexError", "RngStream",
    "RunSummary", "SimConfig", "SwapPolicy", "TruncationError",
    "benchmark_mixture", "build_gaussian_mixture", "build_objective",
    "check_gradient", "chi2_decay_experiment", "chi_square_divergence",
    "comparison_configs", "derive_stream", "dirichlet_acceleration_term",
    "discretization_error_experiment", "double_well", "em_update",
    "empirical_histogram", "gibbs_density", "kappa_sweep",
    "pair_gibbs_density", "quadratic", "run_comparison", "run_pair_ensemble",
    "stream_id", "swap_probability", "swap_rate", "total_variation",
]


def test_all_is_pinned():
    assert sorted(relex.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in relex.__all__:
        assert getattr(relex, name) is not None
