"""The public surface: ``relex.__all__`` and the parameter names of every
public callable are pinned, so a new name or a new knob is a deliberate,
reviewed diff of the table below. The runtime dependencies are pinned too:
the package imports only the standard library and numpy. The README's
library example runs as written."""

import ast
import inspect
import pathlib
import re
import sys

import numpy as np

import relex

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Every public name with its parameter names in order; None for an exception
# class that keeps Exception's own constructor.
SIGNATURES = {
    "ConfigError": None,
    "DecayFit": ("times", "chi2", "rate", "bootstrap_std", "rate_std"),
    "DivergenceError": ("message", "iteration", "chain", "slot", "position"),
    "GridMeasure": ("bounds", "resolution", "mass", "overflow"),
    "InputError": None,
    "ObjectiveFunction": ("dimension", "value_and_grad", "name"),
    "RelexError": None,
    "RngStream": ("seed", "stream_id"),
    "RunSummary": ("algorithm", "iterations", "best_curves", "median", "q25", "q75",
                   "final_best", "swap_counts", "wall_time"),
    "SimConfig": ("objective", "tau1", "tau2", "intensity", "eta", "steps", "ensemble",
                  "seed", "init", "stride"),
    "benchmark_mixture": ("kappa", "confinement"),
    "build_gaussian_mixture": ("centers", "weights", "kappa", "confinement"),
    "check_gradient": ("f", "point"),
    "chi2_decay_experiment": ("f", "tau1", "tau2", "a", "eta", "ensemble", "sample_times",
                              "bounds", "resolution", "seed", "fit_floor"),
    "chi_square_divergence": ("mu", "pi"),
    "derive_stream": ("seed", "purpose", "chain"),
    "dirichlet_acceleration_term": ("f_test", "f", "tau1", "tau2", "a", "pair_pi"),
    "discretization_error_experiment": ("f", "tau1", "tau2", "a", "etas", "T", "ensemble",
                                        "seed", "eta_ref"),
    "double_well": (),
    "empirical_histogram": ("positions", "bounds", "resolution"),
    "gibbs_density": ("f", "tau", "bounds", "resolution"),
    "pair_gibbs_density": ("f", "tau1", "tau2", "bounds", "resolution"),
    "quadratic": ("dim", "scale"),
    "run_comparison": ("cfg",),
    "run_pair_ensemble": ("f", "x0", "temps", "steps", "streams", "eta", "intensity",
                          "mode", "observe", "m"),
    "swap_rate": ("u1", "u2", "tau1", "tau2"),
    "total_variation": ("mu", "pi"),
}


def test_all_is_pinned():
    assert sorted(relex.__all__) == sorted(SIGNATURES)


def test_public_signatures_are_pinned():
    found = {}
    for name in relex.__all__:
        obj = getattr(relex, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and "__init__" not in vars(obj):
            found[name] = None
        else:
            found[name] = tuple(inspect.signature(obj).parameters)
    assert found == SIGNATURES


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
