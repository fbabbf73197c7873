"""The public surface: ``relex.__all__`` is pinned, so growing or shrinking it
is a deliberate, reviewed diff of this list. The runtime dependencies are
pinned too: the package imports only the standard library and numpy. The
README's library example runs as written."""

import ast
import pathlib
import re
import sys

import numpy as np

import relex

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "ConfigError", "DecayFit", "DivergenceError", "FitError",
    "GaussianMixtureSpec", "GridMeasure", "InputError", "ObjectiveFunction",
    "RelexError", "RngStream", "RunSummary", "SimConfig", "SwapPolicy",
    "benchmark_mixture", "build_gaussian_mixture", "build_objective",
    "check_gradient", "chi2_decay_experiment", "chi_square_divergence",
    "derive_stream", "dirichlet_acceleration_term",
    "discretization_error_experiment", "double_well", "em_update",
    "empirical_histogram", "gibbs_density", "kappa_sweep",
    "pair_gibbs_density", "quadratic", "run_comparison", "run_pair_ensemble",
    "swap_probability", "swap_rate", "total_variation",
]


def test_all_is_pinned():
    assert sorted(relex.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in relex.__all__:
        assert getattr(relex, name) is not None


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "relex"}
    found = set()
    for path in pathlib.Path(relex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module)
    assert found
    assert {name.partition(".")[0] for name in found} - allowed == set()


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert np.median(names["rex"].final_best) <= np.median(names["low"].final_best)
