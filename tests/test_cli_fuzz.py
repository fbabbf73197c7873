"""A fuzz of the command line drawn from its own config grammar, ``cli.GRAMMAR``.

Each example runs one subcommand on a small base run with 1-3 ``--set``
overrides of grammar keys, each value drawn from its key's pool. Whatever the
values, ``main`` must return an exit code (0, 2, 3 or 4) with no exception
escaping it, no warning other than the documented clamp of the swap
probability, and on success CSVs whose config echo round-trips.
"""

import pathlib
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import relex.harness
import relex.replica
from relex.cli import GRAMMAR, _int, emit_canonical_config, main, parse_canonical_config

# Small base runs: the kernel makes at most a few thousand particle steps.
# horizon / eta_ref is 32 sub-steps and sample_times / eta is 3 steps, which
# chi2 runs for its a = 0 control and its swapping pairs in one call.
BASE = {
    "compare": ["steps=20", "ensemble=3", "stride=10"],
    "sweep": ["steps=20", "ensemble=2", "stride=10", "kappas=0.1,0.2"],
    "chi2": ["kind=double_well", "ensemble=1000", "sample_times=0.01,0.02,0.03",
             "resolution=12"],
    "discerr": ["kind=double_well", "ensemble=4", "horizon=0.04", "etas=0.04,0.02"],
    "gradcheck": [],
}
# Particle sub-steps one kernel call may make. A value that would grow a run
# past the base sizes must be rejected before the run, not run for hours.
BUDGET = 10_000
VALUES = ["0", "-1", "5e-324", "1e300", "nan", "inf", "", "x"]
POOLS = {key: VALUES + ["2.0"] * (parse is _int)
         for keys in GRAMMAR.values() for key, (_, parse) in keys.items()}
CLAMP = "swap probabilities will be clamped to 1"


@st.composite
def invocations(draw):
    """A subcommand and its 1-3 (key, value) overrides."""
    command = draw(st.sampled_from(sorted(BASE)))
    keys = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=3))
    return command, [(key, draw(st.sampled_from(POOLS[key]))) for key in keys]


def budgeted(kernel):
    def run(f, x0, temps, steps, *args, m=1, **kwargs):
        assert len(x0) * steps * m <= BUDGET, f"{len(x0)} chains x {steps} x {m} sub-steps"
        return kernel(f, x0, temps, steps, *args, m=m, **kwargs)
    return run


@settings(max_examples=600, derandomize=True, deadline=None)
@given(invocations())
@example(("chi2", [("tau1", "5e-324")]))
@example(("discerr", [("etas", "5e-324")]))
def test_any_grammar_value_exits_cleanly(invocation):
    command, overrides = invocation
    items = BASE[command] + [f"{key}={value}" for key, value in overrides]
    args = [arg for item in items for arg in ("--set", item)]
    kernel = budgeted(relex.replica.run_pair_ensemble)
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(relex.replica, "run_pair_ensemble", kernel), \
            mock.patch.object(relex.harness, "run_pair_ensemble", kernel), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, *args, "--out", out])
        assert code in (0, 2, 3, 4)
        assert [str(w.message) for w in caught if CLAMP not in str(w.message)] == []
        csvs = list(pathlib.Path(out).glob("*.csv")) if code == 0 else []
        assert csvs or code != 0 or command == "gradcheck"
        for csv in csvs:
            echo = csv.read_text().partition("\n")[0].removeprefix("# config: ")
            assert emit_canonical_config(parse_canonical_config(echo)) == echo
