"""The public surface: ``relex.__all__`` and the parameter names of every
public callable are pinned, so a new name or a new knob is a deliberate,
reviewed diff of the table below. The runtime dependencies are pinned too:
the package imports only the standard library and numpy. An array input that
is not numbers, or that holds one element breaking its rule, is an InputError
naming it, and so is a scalar parameter that is no number or out of its range.
The README's library example runs as written."""

import ast
import inspect
import pathlib
import re
import sys

import numpy as np
import pytest

import relex
from relex import InputError
from relex.errors import floats
from relex.objective import DEFAULT_CENTERS, DEFAULT_WEIGHTS
from relex.rng import RngStream, pair_streams

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Every public name with its parameter names in order; None for an exception
# class that keeps Exception's own constructor.
SIGNATURES = {
    "DecayFit": ("times", "chi2", "rate", "bootstrap_std", "rate_std"),
    "DivergenceError": ("message", "iteration", "chain", "slot", "position", "temperature"),
    "GridMeasure": ("bounds", "mass", "overflow"),
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
    "dirichlet_acceleration_term": ("h", "a", "pair_pi"),
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
                          "observe", "m"),
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
    # text stays text even where it spells a number
    (lambda: relex.swap_rate("0.5", 0, 0.1, 1), "objective values"),
    (lambda: relex.empirical_histogram(["1", "2"], [[-1.0, 1.0]], 4), "positions"),
    (lambda: relex.swap_rate(0, 0, b"3", 1), "temperatures"),
    (lambda: floats("x", "1.5"), "x"),
    # truth values are no numbers either, as errors.number holds
    (lambda: relex.swap_rate(True, 0, 0.1, 1), "objective values"),
    (lambda: relex.swap_rate(0, 0, [True, False], 1), "temperatures"),
    (lambda: relex.empirical_histogram([[True], [False]], [[-1.0, 2.0]], 3), "positions"),
    (lambda: floats("x", np.bool_(1)), "x"),
], ids=["temps-text", "temps-ragged", "temps-object", "x0-text", "init-ragged",
        "histogram-text", "centers-text", "weights-text", "swap-rate-text",
        "swap-rate-ragged", "gibbs-bounds-text", "gradcheck-text", "sample-times-text",
        "etas-text", "etas-ragged", "swap-rate-numeric-text", "histogram-numeric-text",
        "temps-bytes", "floats-numeric-text", "swap-rate-bool", "temps-bools",
        "histogram-bools", "floats-numpy-bool"])
def test_an_array_input_that_is_not_numbers_is_an_input_error(call, what):
    with pytest.raises(InputError, match=f"^{what} must be a number or a regular array "
                                         f"of numbers, got "):
        call()


# Every public scalar parameter: the name its message starts with, a call that
# passes the value for it (all other arguments valid) and one out-of-range value.
PAIR_PI = relex.pair_gibbs_density(F, 0.1, 1.0, [[-3.0, 3.0]], 8)


def _pairs(**kw):
    return relex.run_pair_ensemble(F, PAIRS, (0.1, 1.0), **{
        "steps": 5, "streams": pair_streams(0), "eta": 0.01, "intensity": 1.0, "m": 1, **kw})


def _comparison(**kw):
    return relex.run_comparison(F, **{"tau1": 0.1, "tau2": 1.0, "a": 1.0, "eta": 0.01,
                                      "steps": 10, "ensemble": 2, "seed": 0, "init": (0.0,),
                                      "stride": 5, **kw})


def _chi2(**kw):
    return relex.chi2_decay_experiment(F, **{
        "tau1": 0.1, "tau2": 1.0, "a": 1.0, "eta": 0.01, "ensemble": 1000,
        "sample_times": (0.1, 0.2, 0.3), "bounds": [[-3.0, 3.0]], "resolution": 10,
        "seed": 0, "fit_floor": 0.01, **kw})


def _discretization(**kw):
    return relex.discretization_error_experiment(F, **{
        "tau1": 0.1, "tau2": 1.0, "a": 1.0, "etas": (0.02, 0.01), "T": 0.2,
        "ensemble": 10, "seed": 0, "eta_ref": 0.005, **kw})


SCALARS = {
    "run_pair_ensemble.intensity": ("swap intensity", lambda v: _pairs(intensity=v), -1.0),
    "run_pair_ensemble.eta": ("eta", lambda v: _pairs(eta=v), 0.0),
    "run_pair_ensemble.steps": ("steps", lambda v: _pairs(steps=v), 0),
    "run_pair_ensemble.m": ("m", lambda v: _pairs(m=v), 0),
    "run_comparison.tau1": ("tau1", lambda v: _comparison(tau1=v), -0.1),
    "run_comparison.tau2": ("tau2", lambda v: _comparison(tau2=v), 0.0),
    "run_comparison.steps": ("steps", lambda v: _comparison(steps=v), 0),
    "run_comparison.ensemble": ("ensemble", lambda v: _comparison(ensemble=v), 0),
    "run_comparison.stride": ("stride", lambda v: _comparison(stride=v), 0),
    "chi2_decay_experiment.ensemble": ("ensemble", lambda v: _chi2(ensemble=v), 999),
    "chi2_decay_experiment.tau1": ("tau1", lambda v: _chi2(tau1=v), 0.0),
    "chi2_decay_experiment.tau2": ("tau2", lambda v: _chi2(tau2=v), -1.0),
    "chi2_decay_experiment.a": ("swap intensity", lambda v: _chi2(a=v), -1.0),
    "chi2_decay_experiment.eta": ("eta", lambda v: _chi2(eta=v), 0.0),
    "discretization_error_experiment.ensemble": (
        "ensemble", lambda v: _discretization(ensemble=v), 1),
    "discretization_error_experiment.tau1": (
        "tau1", lambda v: _discretization(tau1=v), 0.0),
    "discretization_error_experiment.tau2": (
        "tau2", lambda v: _discretization(tau2=v), -1.0),
    "discretization_error_experiment.T": ("horizon T", lambda v: _discretization(T=v), 0.0),
    "discretization_error_experiment.eta_ref": (
        "eta_ref", lambda v: _discretization(eta_ref=v), -0.001),
    "gibbs_density.tau": ("tau", lambda v: relex.gibbs_density(F, v, [[-3.0, 3.0]], 10), 0.0),
    "gibbs_density.resolution": (
        "grid resolution", lambda v: relex.gibbs_density(F, 0.5, [[-3.0, 3.0]], v), 0),
    "pair_gibbs_density.tau1": (
        "tau1", lambda v: relex.pair_gibbs_density(F, v, 1.0, [[-3.0, 3.0]], 10), 0.0),
    "pair_gibbs_density.tau2": (
        "tau2", lambda v: relex.pair_gibbs_density(F, 0.1, v, [[-3.0, 3.0]], 10), -1.0),
    "dirichlet_acceleration_term.a": ("swap intensity", lambda v: relex.dirichlet_acceleration_term(
        np.zeros((8, 8)), v, PAIR_PI), -1.0),
    "ObjectiveFunction.dimension": (
        "dimension", lambda v: relex.ObjectiveFunction(v, lambda x: (x, x)), 0),
    "build_gaussian_mixture.kappa": ("kappa", lambda v: relex.build_gaussian_mixture(
        DEFAULT_CENTERS, DEFAULT_WEIGHTS, v), 0.0),
    "build_gaussian_mixture.confinement": ("confinement", lambda v: relex.build_gaussian_mixture(
        DEFAULT_CENTERS, DEFAULT_WEIGHTS, 0.1, v), -1.0),
    "quadratic.scale": ("scale", lambda v: relex.quadratic(2, v), -0.5),
}
NO_NUMBERS = {"text": "1", "none": None, "bool": True, "array": np.array([1.0, 2.0]),
              "object": object(), "nan": np.nan, "inf": np.inf}


# eta_ref=None asks for the default reference step, so it is no error
CASES = [(scalar, bad) for scalar in SCALARS for bad in [*NO_NUMBERS, "out-of-range"]
         if (scalar, bad) != ("discretization_error_experiment.eta_ref", "none")]


@pytest.mark.parametrize("scalar, bad", CASES, ids=[f"{s}-{b}" for s, b in CASES])
def test_a_scalar_that_is_no_number_or_out_of_range_is_an_input_error(scalar, bad,
                                                                       monkeypatch):
    what, call, out_of_range = SCALARS[scalar]
    for draw in ("normal", "uniform", "integers"):
        monkeypatch.setattr(RngStream, draw, lambda *args: pytest.fail("noise was drawn"))
    with pytest.raises(InputError, match=f"^{re.escape(what)} must be "):
        call(out_of_range if bad == "out-of-range" else NO_NUMBERS[bad])


# Every public array input with a rule: the name its message starts with, the
# condition the message states, a call that passes the array for it (all other
# arguments valid), a valid array, the bad values to put in one element of it
# (NaN, inf where inf breaks the rule, and one out of range where the rule has
# a range), and the number of axes it must have, None where it takes two forms.
ARRAYS = {
    "swap_rate.u1": ("objective values", "finite",
                     lambda v: relex.swap_rate(v, 0.0, 0.1, 1.0), [0.0, 1.0], (np.nan, np.inf),
                     None),
    "swap_rate.u2": ("objective values", "finite",
                     lambda v: relex.swap_rate(0.0, v, 0.1, 1.0), [0.0, 1.0], (np.nan, -np.inf),
                     None),
    # 1 / inf is 0, so an infinite temperature has a swap rate
    "swap_rate.tau1": ("temperatures", "positive",
                       lambda v: relex.swap_rate(0.0, 1.0, v, 1.0), [0.1, 0.2], (np.nan, 0.0),
                       None),
    "swap_rate.tau2": ("temperatures", "positive",
                       lambda v: relex.swap_rate(0.0, 1.0, 0.1, v), [1.0, 2.0], (np.nan, -1.0),
                       None),
    "run_pair_ensemble.x0": ("starting positions", "finite",
                             lambda v: relex.run_pair_ensemble(
                                 F, v, (0.1, 1.0), 5, pair_streams(0), 0.01, 1.0),
                             PAIRS, (np.nan, np.inf), None),
    "run_pair_ensemble.temps": ("temperatures", "finite and nonnegative",
                                lambda v: relex.run_pair_ensemble(
                                    F, PAIRS, v, 5, pair_streams(0), 0.01, 1.0),
                                [0.1, 1.0], (np.nan, np.inf, -0.1), None),
    "discretization_error_experiment.etas": (
        "stepsizes", "positive and finite", lambda v: _discretization(etas=v), [0.02, 0.01],
        (np.nan, np.inf, 0.0), 1),
    "GridMeasure.mass": ("grid mass", "finite and nonnegative in every cell",
                         lambda v: relex.GridMeasure([[0.0, 1.0]], v), [0.5, 0.5],
                         (np.nan, np.inf, -0.5), None),
    # a bad bound is named with the rows that hold it (tests/test_diagnostics.py)
    "GridMeasure.bounds": ("grid bounds", "finite (lo, hi) rows with lo < hi",
                           lambda v: relex.GridMeasure(v, [0.5, 0.5]), [[0.0, 1.0]], (), 2),
    "chi2_decay_experiment.sample_times": (
        "sample times", "positive and finite", lambda v: _chi2(sample_times=v),
        [0.1, 0.2, 0.3], (np.nan, np.inf, -0.3), 1),
    # an infinite position is histogram overflow
    "empirical_histogram.positions": ("positions", "non-NaN",
                                      lambda v: relex.empirical_histogram(v, [[-1.0, 1.0]], 4),
                                      [[0.0], [0.5]], (np.nan,), 2),
    "dirichlet_acceleration_term.h": ("h", "finite",
                                      lambda v: relex.dirichlet_acceleration_term(v, 1.0, PAIR_PI),
                                      np.zeros((8, 8)), (np.nan, np.inf), None),
    "build_gaussian_mixture.centers": ("mixture centers", "finite",
                                       lambda v: relex.build_gaussian_mixture(v, [1.0, 1.0], 0.1),
                                       [[0.0, 0.0], [1.0, 1.0]], (np.nan, np.inf), 2),
    "build_gaussian_mixture.weights": (
        "mixture weights", "finite and nonnegative",
        lambda v: relex.build_gaussian_mixture([[0.0, 0.0], [1.0, 1.0]], v, 0.1), [1.0, 1.0],
        (np.nan, np.inf, -1.0), 1),
    "check_gradient.point": ("point", "finite", lambda v: relex.check_gradient(F, v),
                             [[0.0], [0.5]], (np.nan, -np.inf), None),
}
ARRAY_CASES = [(array, bad) for array in ARRAYS for bad in ARRAYS[array][4]]


def _with_one(valid, bad):
    """``valid`` as a new float array whose last element is ``bad``."""
    array = np.array(valid, dtype=float)
    array.flat[-1] = bad
    return array


@pytest.mark.parametrize("array, bad", ARRAY_CASES, ids=[f"{a}-{b}" for a, b in ARRAY_CASES])
def test_an_array_element_that_breaks_its_rule_is_an_input_error(array, bad, monkeypatch):
    what, condition, call, valid, _, _ = ARRAYS[array]
    for draw in ("normal", "uniform", "integers"):
        monkeypatch.setattr(RngStream, draw, lambda *args: pytest.fail("noise was drawn"))
    with pytest.raises(InputError, match=f"^{re.escape(what)} must be {condition}$"):
        call(_with_one(valid, bad))


# each input with one form, with its valid array given one axis more or one less
AXES_CASES = [(array, change) for array in ARRAYS if ARRAYS[array][5] is not None
              for change in ("one-more", "one-less")]


@pytest.mark.parametrize("array, change", AXES_CASES, ids=[f"{a}-{c}" for a, c in AXES_CASES])
def test_an_array_with_another_number_of_axes_is_an_input_error(array, change, monkeypatch):
    what, _, call, valid, _, axes = ARRAYS[array]
    for draw in ("normal", "uniform", "integers"):
        monkeypatch.setattr(RngStream, draw, lambda *args: pytest.fail("noise was drawn"))
    reshaped = np.array(valid, dtype=float)
    reshaped = reshaped[None] if change == "one-more" else reshaped[0]
    noun = "axis" if axes == 1 else "axes"
    with pytest.raises(InputError, match=f"^{re.escape(what)} must have {axes} {noun}, "
                                         f"got shape {re.escape(str(reshaped.shape))}$"):
        call(reshaped)


@pytest.mark.parametrize("array", ARRAYS)
def test_the_valid_arrays_of_the_rule_table_pass_their_checks(array):
    # the table's valid arrays pass, so each bad case fails on its one element
    call, valid = ARRAYS[array][2:4]
    try:
        call(valid)
    except InputError as exc:
        # the experiments run on past their input checks; any later error is
        # about the run, not about the array under test
        assert not str(exc).startswith(ARRAYS[array][0] + " must be "), exc
