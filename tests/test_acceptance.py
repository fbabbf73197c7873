"""Acceptance suite: one test per numbered criterion, and the worker pool
``run_all`` that runs them for ``relex check``.

Each criterion test prints a single pass/fail line (visible with pytest -s or
on failure) and asserts the criterion and its exact detail string, so the
figures ``relex check`` prints are pinned bit for bit. The details were taken
with numpy 2.4.6 (Python 3.11.7, x86-64); like the hashes in test_golden.py,
a mismatch under another numpy version or CPU should first be checked against
an older commit under the same versions.

Criterion 5's histogram sampler and criterion 7's sign test are checked
against the scipy functions they match, and both criteria run in a process
that cannot import scipy. The pool tests patch ``CRITERIA`` with cheap fakes,
so they take seconds.
"""

import functools
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import relex
from relex import acceptance
from relex.acceptance import CRITERIA, run_criterion
from relex.cli import main
from relex.diagnostics import gibbs_density
from relex.objective import double_well
from relex.rng import STREAM_DIRICHLET_MC, RngStream


def _run(index, detail):
    name, fn = CRITERIA[index]
    record = run_criterion(name, fn)
    status = "PASS" if record.passed else "FAIL"
    print(f"[{status}] criterion {record.name}: {record.detail} "
          f"({record.runtime:.1f}s)")
    assert record.passed, f"criterion {record.name}: {record.detail}"
    assert record.detail == detail


def test_criterion_1_swap_rate_exactness():
    # 10^4 tuples: s in (0, 1], identities, detailed balance to 1e-12 relative
    _run(0, "10^4 tuples, detailed-balance rel err 6.313e-15 <= 1e-12")


def test_criterion_2_null_coupling_bitwise():
    # a = 0 replica run equals two single chains bitwise, 10^4 steps x 5 seeds
    _run(1, "bitwise equal over 10000 steps x 5 seeds, 0 swaps")


def test_criterion_3_stationarity():
    # double-well tau = 0.5 snapshot at step 50000: TV < 0.05 on 60 bins
    _run(2, "TV to quadrature Gibbs = 0.0311 (limit 0.05)")


def test_criterion_4_chi2_decay_acceleration():
    # rate(a=5) >= rate(a=0) - 1 bootstrap sigma; a=5 curve never above
    # the a=0 curve beyond the first time, within 2 bootstrap sigma
    _run(3, "rate(a=5) = 0.815 vs rate(a=0) = 0.596 (sigma 0.131); "
            "curve dominated at all later times: True")


DETAIL_5 = "grid 0.349814 vs MC 0.349121 (rel 0.0020); symmetric f -> 0.0, a=0 -> 0.0"
DETAIL_7 = ("median final best: replica -0.11476 vs low-temp -0.07851; "
            "sign test 15/18 wins, p = 3.77e-03")


def test_criterion_5_dirichlet_acceleration_term():
    # grid quadrature vs 10^6-sample Monte Carlo within 2%; exact zeros
    _run(4, DETAIL_5)


def test_criterion_6_discretization_error_slope():
    # coupled MSE at T=1: log-log slope in [0.7, 1.3], monotone in eta
    _run(5, "slope 0.751 in [0.7, 1.3]: True; "
            "MSE [2.178e-01, 1.549e-01, 8.020e-02, 4.785e-02] monotone: True")


def test_criterion_7_benchmark_ordering():
    # mixture kappa=0.1, 20 seeds: replica exchange beats the low-temperature
    # chain on median final best-so-far; paired sign test p < 0.05
    _run(6, DETAIL_7)


def test_criterion_8_formulation_equivalence():
    # position-swap vs temperature-swap low-temperature marginals: TV < 0.05
    _run(7, "TV between formulations = 0.0188 (limit 0.05)")


def test_criterion_9_gradient_correctness():
    # analytic vs central-difference mixture gradient at 100 points, < 1e-5
    _run(8, "max relative gradient error 2.511e-11 (limit 1e-5)")


# ---------------------------------------------------------------------------
# Criteria 5 and 7 without scipy: their sampler and sign test against scipy,
# and both criteria in a process that cannot import scipy.

def _philox(seed, stream_id):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


@pytest.mark.parametrize("tau", [0.1, 1.0])
def test_histogram_sample_equals_rv_histogram_at_criterion_5s_densities(tau):
    edges = np.linspace(-3.0, 3.0, 4001)
    rho = gibbs_density(double_well(), tau, np.array([[-3.0, 3.0]]), 4000)
    density = rho.mass / (edges[1] - edges[0])
    want = stats.rv_histogram((density, edges), density=True).rvs(
        size=1_000_000, random_state=_philox(5, STREAM_DIRICHLET_MC))
    got = acceptance._histogram_sample(density, edges, 1_000_000,
                                       RngStream(5, STREAM_DIRICHLET_MC))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40).filter(lambda d: max(d) > 1e-3),
       st.floats(-50.0, 50.0), st.floats(1e-3, 10.0), st.integers(0, 2 ** 32))
def test_histogram_sample_equals_rv_histogram_on_equal_width_bins(density, lo, width, key):
    edges = np.linspace(lo, lo + width, len(density) + 1)
    want = stats.rv_histogram((np.array(density), edges), density=True).rvs(
        size=500, random_state=_philox(key, 0))
    got = acceptance._histogram_sample(np.array(density), edges, 500, RngStream(key))
    assert got.tobytes() == want.tobytes()


def test_sign_test_equals_binomtest():
    for n in range(1, 61):
        for wins in range(n + 1):
            want = stats.binomtest(wins, n, 0.5, alternative="greater").pvalue
            got = acceptance._sign_test_pvalue(wins, n)
            assert abs(got - want) <= 1e-12 * want, (wins, n)
            assert f"{got:.2e}" == f"{want:.2e}", (wins, n)


def test_criterion_7_fails_readably_when_every_seed_ties(monkeypatch):
    tie = SimpleNamespace(final_best=np.full(20, -0.1))
    monkeypatch.setattr(acceptance, "run_comparison", lambda *args, **kwargs: (tie, tie, tie))
    record = run_criterion(*CRITERIA[6])
    assert not record.passed
    assert record.detail == ("median final best: replica -0.10000 vs low-temp "
                             "-0.10000; all 20 seeds tie, sign test undefined")


BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from relex.acceptance import CRITERIA, run_criterion
for i in (4, 6):
    print(run_criterion(*CRITERIA[i]).detail)
"""


def test_criteria_5_and_7_run_where_scipy_cannot_be_imported():
    src = os.path.dirname(os.path.dirname(relex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", BLOCK_SCIPY], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.splitlines() == [DETAIL_5, DETAIL_7]


# ---------------------------------------------------------------------------
# The pool, on fake criteria. Their details carry CLOCK_MONOTONIC, which all
# processes share, so a test can tell the order the criteria started in.

def fake_pass():
    return True, f"pass at {time.monotonic()}"


def fake_fail():
    return False, f"fail at {time.monotonic()}"


def fake_raise():
    raise ValueError("no result")


def fake_exit():
    os._exit(7)


def fake_rebound():
    return True, "ran the function CRITERIA holds"


FAKES = (("1 fake pass", fake_pass), ("2 fake fail", fake_fail),
         ("3 fake raise", fake_raise), ("8 fake pass", fake_pass),
         ("7 fake fail", fake_fail))


def started(record):
    return float(record.detail.rpartition(" ")[2])


def summary(records):
    return [(r.name, r.passed, r.detail.partition(" at ")[0]) for r in records]


@pytest.fixture
def fakes(monkeypatch):
    def use(criteria):
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
    return use


def test_pool_returns_records_in_criteria_order(fakes):
    fakes(FAKES)
    records = acceptance.run_all()
    assert summary(records) == summary(run_criterion(*c) for c in FAKES)
    assert records[2].detail == "raised ValueError: no result"
    assert all(r.runtime >= 0 for r in records)


def test_pool_runs_longest_first(fakes, monkeypatch):
    fakes(FAKES)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # one worker
    records = acceptance.run_all()
    timed = [r for r in records if r.name[0] != "3"]
    by_start = [r.name.partition(" ")[0] for r in sorted(timed, key=started)]
    assert by_start == ["8", "2", "7", "1"]   # 3 raises: no time


def test_pool_honours_a_subset(fakes):
    fakes(FAKES[3:] + FAKES[:1])
    assert [r.name for r in acceptance.run_all()] == ["8 fake pass", "7 fake fail",
                                                      "1 fake pass"]
    fakes(())
    assert acceptance.run_all() == []


def test_pool_runs_a_criterion_whose_name_was_rebound(fakes, monkeypatch):
    # A tracer rebinds module names to wrappers; the function in CRITERIA
    # then no longer pickles by name, so the pool must not send it.
    fakes([("1 rebound", fake_rebound)])
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "fake_rebound", functools.wraps(fake_rebound)(
        lambda: (False, "ran the wrapper")))
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(acceptance.CRITERIA[0][1])
    [record] = acceptance.run_all()
    assert (record.passed, record.detail) == (True, "ran the function CRITERIA holds")


def test_dead_worker_fails_the_criteria_it_leaves(fakes, capsys):
    # Criteria that finished before the worker died keep their records; every
    # other one fails naming the broken pool, and check still reports them all.
    fakes([("1 fake pass", fake_pass), ("2 worker exits", fake_exit),
           ("3 fake pass", fake_pass)])
    records = acceptance.run_all()
    assert [r.name for r in records] == ["1 fake pass", "2 worker exits", "3 fake pass"]
    assert not records[1].passed and "BrokenProcessPool" in records[1].detail
    assert all(r.passed or "raised BrokenProcessPool" in r.detail for r in records)

    assert main(["check"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[3].endswith("/3 criteria passed")
    assert lines[1].startswith("[FAIL] 2 worker exits: raised BrokenProcessPool")
    for line, name in ((lines[0], "1 fake pass"), (lines[2], "3 fake pass")):
        assert (line.startswith(f"[PASS] {name}: pass at ")
                or line.startswith(f"[FAIL] {name}: raised BrokenProcessPool"))


def test_pool_broken_before_every_submit_fails_the_rest(fakes, monkeypatch, capsys):
    # Once a worker has died, every submit raises: the criteria not yet
    # submitted fail naming the broken pool, and the ones already submitted
    # are still collected.
    fakes([("1 fake pass", fake_pass), ("2 fake pass", fake_pass),
           ("8 fake pass", fake_pass)])               # submitted as 8, 2, 1
    submit, calls = ProcessPoolExecutor.submit, []

    def submit_breaks_from_second(pool, *args):
        calls.append(args)
        if len(calls) >= 2:
            raise BrokenProcessPool("a worker died")
        return submit(pool, *args)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_breaks_from_second)
    broken = "raised BrokenProcessPool: a worker died"
    records = acceptance.run_all()
    assert [(r.name, r.passed) for r in records] == [
        ("1 fake pass", False), ("2 fake pass", False), ("8 fake pass", True)]
    assert records[0].detail == records[1].detail == broken

    calls.clear()
    assert main(["check"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"[FAIL] 1 fake pass: {broken} (0.0s)",
                         f"[FAIL] 2 fake pass: {broken} (0.0s)"]
    assert lines[2].startswith("[PASS] 8 fake pass: pass at ")
    assert lines[3] == "check: 1/3 criteria passed"
