"""Golden outputs: the SHA-256 of small CLI runs' CSV files, pinned.

A refactor that claims to leave results bit for bit unchanged must leave
these hashes unchanged. Each run takes a few tenths of a second. The hashes
were taken with numpy 2.4.6 (Python 3.11.7, x86-64) on the version whose
kernel still called ``eval`` and ``grad`` separately and whose ``compare``
re-evaluated stored trajectories. Floating-point kernels may round
differently under another numpy version or CPU, so a mismatch there should
first be checked against an older commit under the same versions.
"""

import hashlib
import warnings
from pathlib import Path

import pytest

from relex.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CASES = {
    "compare": (
        ["compare", "--set", "ensemble=100", "--set", "steps=300", "--set", "stride=10"],
        {"bestsofar.csv": "a04c78c621dd40ad040aabdb4868c4db970d986bf9cc6f8a2c6346ffb6d58066",
         "summary.csv": "b418450ea8ba3a5125346c1a587c9ca2e59c74d1a22518861b1a2a8fbc387f52"},
    ),
    "compare-frequent-swaps": (
        ["compare", "--set", "ensemble=50", "--set", "steps=500",
         "--set", "intensity=50", "--set", "tau1=0.1"],
        {"bestsofar.csv": "e519290e529c5e9c9a42f4611d3893b72abc4b083314d3d8012bee5a2cb29266",
         "summary.csv": "9c31e78961b9d6127e753e5eb5c0472e0fd020025a06e0f35f6e4e30fc7ad9b6"},
    ),
    "compare-uniform-init": (
        ["compare", "--set", "ensemble=50", "--set", "steps=500",
         "--set", "init=uniform:-1,5", "--seed", "5"],
        {"bestsofar.csv": "05f72f17229187d803b01bdec997df2b42e84d6551e973c7bfc796b21b338470",
         "summary.csv": "954e0d2144f061f05d7126ac25c8f3f50b144a333e1eaa1da26bf1882a49a94e"},
    ),
    # tau2 = 25 sends the hot particle far out: about 39% of the mixture's exp
    # arguments fall below -746 and 0.5% give subnormals
    "compare-underflow": (
        ["compare", "--set", "tau2=25", "--set", "steps=2000", "--set", "ensemble=8"],
        {"bestsofar.csv": "9345c08bc979737c19023881399eacab65d7a5bde2b8ff8dc4fa12b48f29d50a",
         "summary.csv": "f6ac060f390dcc4870a22e51594246f1c83c1911ce05412c1ddc036ed8409794"},
    ),
    "sweep": (
        ["sweep", "--config", str(CONFIGS / "mixture_kappa_sweep.cfg"),
         "--set", "ensemble=20", "--set", "steps=200"],
        {"bestsofar_kappa0p05.csv": "b788ff36c407df9c9688808fdb58b7ee5e1c343600de42e50c68f96bce529c51",
         "bestsofar_kappa0p1.csv": "d5086c15b22dffec5ed59d215a0c7317e74e1d4054bc03f0906e9db37098651a",
         "bestsofar_kappa0p2.csv": "3d8c43f8c90fff36ad72e47448815a50beac8795e57120490577395137b02981",
         "bestsofar_kappa0p3.csv": "36eb8deb54081c24e025141eb6e913da87e227d99a738e15b0ad0b7eb0a6e9d0",
         "summary_kappa0p05.csv": "cc87a21ac0271710baf93369421b3578e63c1666156374b06386714773c21030",
         "summary_kappa0p1.csv": "17f6fed5a4d8fc2d42fee7b7ff94496675bc4759a2b6d6e75c535bb93d9b45b7",
         "summary_kappa0p2.csv": "0b392438aa152f831daa1b34a9a075ced1db32528da09f540ac8ed77f908f463",
         "summary_kappa0p3.csv": "fe4ccffaa1a76397a969cf6111df9f0ecdae208aa4e40a458d4c4e552a9cb3dd"},
    ),
    "chi2": (
        ["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
         "--set", "intensity=5"],
        {"chi2decay.csv": "ae14d9650909b875d3b5c081774c8d51698717103a992813b41f41d011dd693b"},
    ),
    "discerr-double-well": (
        ["discerr", "--set", "kind=double_well", "--set", "ensemble=200",
         "--set", "intensity=3"],
        {"discerr.csv": "d5f60f90b3c9695a75ef46e88ed9d4054fd1633b32afe89573bfa7cea470e9b2"},
    ),
    "discerr-mixture": (
        ["discerr", "--set", "ensemble=100", "--set", "intensity=3",
         "--set", "horizon=0.2"],
        {"discerr.csv": "a90b29194e2b994f2293497cd653ead12f7d02b830ce44109c6387436a7f828b"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_hashes(case, tmp_path):
    argv, expected = CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # intensity * eta >= 1
        assert main(argv + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert written == expected
