"""The public surface: ``relex.__all__`` and the parameter names of every
public callable are pinned, so a new name or a new knob is a deliberate,
reviewed diff of the table below. The runtime dependencies are pinned too:
the package imports only the standard library and numpy. An array input that
is not numbers is an InputError naming it. The README's library example runs
as written."""

import ast
import inspect
import pathlib
import re
import sys

import numpy as np
import pytest

import relex
from relex import InputError
from relex.rng import pair_streams

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Every public name with its parameter names in order; None for an exception
# class that keeps Exception's own constructor.
SIGNATURES = {
    "DecayFit": ("times", "chi2", "rate", "bootstrap_std", "rate_std"),
    "DivergenceError": ("message", "iteration", "chain", "slot", "position"),
    "GridMeasure": ("bounds", "resolution", "mass", "overflow"),
    "InputError": None,
    "ObjectiveFunction": ("dimension", "value_and_grad"),
    "RelexError": None,
    "RngStream": ("seed", "stream_id"),
    "RunSummary": ("algorithm", "iterations", "best_curves", "final_best", "swap_counts",
                   "wall_time"),
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
    "run_comparison": ("f", "tau1", "tau2", "a", "eta", "steps", "ensemble", "seed", "init",
                       "stride"),
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


def _uses_numpy_random(tree) -> bool:
    """Whether a module imports numpy.random or reads .random off a name
    bound to numpy."""
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.random") for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            return True
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            return True
    return False


def test_only_rng_touches_numpy_random():
    # every random draw comes from an RngStream, so stream keys have one home
    users = {path.name for path in pathlib.Path(relex.__file__).parent.glob("*.py")
             if _uses_numpy_random(ast.parse(path.read_text(), str(path)))}
    assert users == {"rng.py"}


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.random.default_rng()",
    "import numpy\nnumpy.random.Philox(1)",
    "import numpy.random",
    "from numpy import random",
    "from numpy.random import Generator",
])
def test_numpy_random_detector_sees_each_spelling(source):
    assert _uses_numpy_random(ast.parse(source))
    assert not _uses_numpy_random(ast.parse("import numpy as np\nrandom = np.ones(2)"))


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    names = {}
    exec(blocks[0], names)
    assert np.median(names["rex"].final_best) <= np.median(names["low"].final_best)


F = relex.double_well()
PAIRS = np.zeros((2, 2, 1))


@pytest.mark.parametrize("call, what", [
    (lambda: relex.run_pair_ensemble(F, PAIRS, "hot", 5, pair_streams(0), 0.01, 1.0),
     "temperatures"),
    (lambda: relex.run_pair_ensemble(F, PAIRS, [[0.1, 0.2], [0.3]], 5, pair_streams(0),
                                     0.01, 1.0), "temperatures"),
    (lambda: relex.run_pair_ensemble(F, PAIRS, (0.1, object()), 5, pair_streams(0),
                                     0.01, 1.0), "temperatures"),
    (lambda: relex.run_pair_ensemble(F, "abc", 0.1, 5, pair_streams(0), 0.01, 1.0),
     "starting positions"),
    (lambda: relex.run_comparison(relex.benchmark_mixture(0.1), 0.01, 1.0, 1.0, 0.01, 10, 2,
                                  0, [[2.0, 2.0], [2.0]]), "init"),
    (lambda: relex.empirical_histogram("abc", [[-1.0, 1.0]], 4), "positions"),
    (lambda: relex.build_gaussian_mixture("ab", [1.0], 0.1), "mixture centers"),
    (lambda: relex.build_gaussian_mixture([[0.0, 0.0]], ["x"], 0.1), "mixture weights"),
    (lambda: relex.swap_rate("a", 0, 0.1, 1), "objective values"),
    (lambda: relex.swap_rate(0, 0, 0.1, [1, [2]]), "temperatures"),
    (lambda: relex.gibbs_density(F, 0.5, "ab", 10), "grid bounds"),
    (lambda: relex.check_gradient(F, "a"), "point"),
    (lambda: relex.chi2_decay_experiment(F, 0.1, 1.0, 1.0, 0.01, 1000, "abc", [[-3.0, 3.0]],
                                         10, 0), "sample times"),
    (lambda: relex.discretization_error_experiment(F, 0.1, 1.0, 1.0, "ab", 1.0, 10, 0),
     "stepsizes"),
    (lambda: relex.discretization_error_experiment(F, 0.1, 1.0, 1.0, [0.01, [0.02]], 1.0,
                                                   10, 0), "stepsizes"),
], ids=["temps-text", "temps-ragged", "temps-object", "x0-text", "init-ragged",
        "histogram-text", "centers-text", "weights-text", "swap-rate-text",
        "swap-rate-ragged", "gibbs-bounds-text", "gradcheck-text", "sample-times-text",
        "etas-text", "etas-ragged"])
def test_an_array_input_that_is_not_numbers_is_an_input_error(call, what):
    with pytest.raises(InputError, match=f"^{what} must be a number or a regular array "
                                         f"of numbers, got "):
        call()
