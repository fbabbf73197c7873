"""Golden outputs: the SHA-256 of small CLI runs' CSV files, pinned.

A refactor that claims to leave results bit for bit unchanged must leave
these hashes unchanged. Each run takes a few tenths of a second. The hashes
were taken with numpy 2.4.6 (Python 3.11.7, x86-64) on the version whose
kernel still called ``eval`` and ``grad`` separately and whose ``compare``
re-evaluated stored trajectories.

numpy's float64 ``exp`` rounds some results differently on different SIMD
paths: on an x86-64 CPU with AVX-512 it runs an AVX-512 kernel, elsewhere an
AVX2 one, and the mixture's CSVs differ between the two. So the hash tables
are keyed by ``EXP_FINGERPRINT``, the SHA-256 of ``np.exp`` over a fixed
vector, and every hash stays exact. Setting
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` makes an AVX-512
CPU take the AVX2 path. A fingerprint with no table fails every case with a
message that names it; its table should be taken from a commit whose hashes
hold on a known CPU and checked against an older commit under the same
versions.
"""

import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from relex.cli import (build_parser, emit_canonical_config, load_config, main,
                       parse_canonical_config)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EXP_FINGERPRINT = hashlib.sha256(np.exp(np.linspace(-745, 709, 4097)).tobytes()).hexdigest()

CASES = {
    "compare": ["compare", "--set", "ensemble=100", "--set", "steps=300", "--set", "stride=10"],
    "compare-frequent-swaps": ["compare", "--set", "ensemble=50", "--set", "steps=500",
                               "--set", "intensity=50", "--set", "tau1=0.1"],
    "compare-uniform-init": ["compare", "--set", "ensemble=50", "--set", "steps=500",
                             "--set", "init=uniform:-1,5", "--seed", "5"],
    # tau2 = 25 sends the hot particle far out: about 39% of the mixture's exp
    # arguments fall below -746 and 0.5% give subnormals
    "compare-underflow": ["compare", "--set", "tau2=25", "--set", "steps=2000",
                          "--set", "ensemble=8"],
    "sweep": ["sweep", "--config", str(CONFIGS / "mixture_kappa_sweep.cfg"),
              "--set", "ensemble=20", "--set", "steps=200"],
    "chi2": ["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
             "--set", "intensity=5"],
    "discerr-double-well": ["discerr", "--set", "kind=double_well", "--set", "ensemble=200",
                            "--set", "intensity=3"],
    "discerr-mixture": ["discerr", "--set", "ensemble=100", "--set", "intensity=3",
                        "--set", "horizon=0.2"],
}

# x86-64 with AVX-512, numpy's default dispatch
AVX512 = {
    "compare":
        {"bestsofar.csv": "a04c78c621dd40ad040aabdb4868c4db970d986bf9cc6f8a2c6346ffb6d58066",
         "summary.csv": "b418450ea8ba3a5125346c1a587c9ca2e59c74d1a22518861b1a2a8fbc387f52"},
    "compare-frequent-swaps":
        {"bestsofar.csv": "e519290e529c5e9c9a42f4611d3893b72abc4b083314d3d8012bee5a2cb29266",
         "summary.csv": "9c31e78961b9d6127e753e5eb5c0472e0fd020025a06e0f35f6e4e30fc7ad9b6"},
    "compare-uniform-init":
        {"bestsofar.csv": "05f72f17229187d803b01bdec997df2b42e84d6551e973c7bfc796b21b338470",
         "summary.csv": "954e0d2144f061f05d7126ac25c8f3f50b144a333e1eaa1da26bf1882a49a94e"},
    "compare-underflow":
        {"bestsofar.csv": "9345c08bc979737c19023881399eacab65d7a5bde2b8ff8dc4fa12b48f29d50a",
         "summary.csv": "f6ac060f390dcc4870a22e51594246f1c83c1911ce05412c1ddc036ed8409794"},
    "sweep":
        {"bestsofar_kappa0p05.csv": "b788ff36c407df9c9688808fdb58b7ee5e1c343600de42e50c68f96bce529c51",
         "bestsofar_kappa0p1.csv": "d5086c15b22dffec5ed59d215a0c7317e74e1d4054bc03f0906e9db37098651a",
         "bestsofar_kappa0p2.csv": "3d8c43f8c90fff36ad72e47448815a50beac8795e57120490577395137b02981",
         "bestsofar_kappa0p3.csv": "36eb8deb54081c24e025141eb6e913da87e227d99a738e15b0ad0b7eb0a6e9d0",
         "summary_kappa0p05.csv": "cc87a21ac0271710baf93369421b3578e63c1666156374b06386714773c21030",
         "summary_kappa0p1.csv": "17f6fed5a4d8fc2d42fee7b7ff94496675bc4759a2b6d6e75c535bb93d9b45b7",
         "summary_kappa0p2.csv": "0b392438aa152f831daa1b34a9a075ced1db32528da09f540ac8ed77f908f463",
         "summary_kappa0p3.csv": "fe4ccffaa1a76397a969cf6111df9f0ecdae208aa4e40a458d4c4e552a9cb3dd"},
    "chi2":
        {"chi2decay.csv": "ae14d9650909b875d3b5c081774c8d51698717103a992813b41f41d011dd693b"},
    "discerr-double-well":
        {"discerr.csv": "d5f60f90b3c9695a75ef46e88ed9d4054fd1633b32afe89573bfa7cea470e9b2"},
    "discerr-mixture":
        {"discerr.csv": "a90b29194e2b994f2293497cd653ead12f7d02b830ce44109c6387436a7f828b"},
}

# The AVX2 path, taken on the same CPU with the variable above set. Four
# cases round differently; the other four were checked to hash alike.
AVX2 = {
    **AVX512,
    "compare":
        {"bestsofar.csv": "5b48b456721eccf5888faf8cc0b3c06962b838baef99cc5093f05f1219dbbab7",
         "summary.csv": "d31e5d5c109eea6a91df4cf95023a7ff618dee4080b9f7f378e16cd1e6088d28"},
    "compare-frequent-swaps":
        {"bestsofar.csv": "c2522e2d82e733c57eecf09788daa89f8e6149c4d49ef38f1df2f94649fc0ac3",
         "summary.csv": "a5d74b5103425c0de24fd3619a1076d10b4f147a29d5368e28382b6300bcdac7"},
    "compare-uniform-init":
        {"bestsofar.csv": "ed393b6caba5f7c0935fcd20c987b019f04a873b681c1a3a0a034f78b363a6a1",
         "summary.csv": "70ebe1401ee12655f5d2ddea7ad7e9db0d5bf70e609b945eb99dfb1eadd33e72"},
    "sweep":
        {"bestsofar_kappa0p05.csv": "684b5368f9ab53802895cd0156a3f62f97dff3216e6ebd5bf389f0b77298e57a",
         "bestsofar_kappa0p1.csv": "a1647fca6901a8ea95e19ac18795f4933f646261fc37ef4533bee6ae8047feb2",
         "bestsofar_kappa0p2.csv": "af36fb92d78b71c2982f62cbc7b039deed1701dec9cd14deae73e6846dc72597",
         "bestsofar_kappa0p3.csv": "12b902b34f6a803cf88c42a5582aadd3abe3566dfc04eb57dc9476484d9b65d7",
         "summary_kappa0p05.csv": "bfa109d83116786b3b6060ef9465bf3d587342bf6219d5126932fc7470cdba22",
         "summary_kappa0p1.csv": "2bb95c362e50a896c7d7aee338b6747621431cbb90ffba0338049ed5a4a404a5",
         "summary_kappa0p2.csv": "a410d5a02d1f38b6c6a900906ecccf0144a7f090c6d07aa81c482d7c6b612fe3",
         "summary_kappa0p3.csv": "1a3f8eebf38f436169dd52c50d51420636e4ab6269e82f5049ff0cddc25f8665"},
}

HASHES = {
    "daa0daafe7e1116e39b5f31fcf3fc095e0cb574698fba2bd38a77df3baf3b329": AVX512,
    "26589e7bb3ca4c370891a9f429837f6a77231ffc2764fe8babe2e7a4a080f58a": AVX2,
}


def test_every_table_covers_every_case():
    assert all(table.keys() == CASES.keys() for table in HASHES.values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_hashes(case, tmp_path):
    if EXP_FINGERPRINT not in HASHES:
        pytest.fail(f"no golden hashes for the np.exp fingerprint {EXP_FINGERPRINT}: "
                    "this numpy and CPU round exp unlike every table here")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # intensity * eta >= 1
        assert main(CASES[case] + ["--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert written == HASHES[EXP_FINGERPRINT][case]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the sweep's intensity * eta = 1
@pytest.mark.parametrize("case", ["compare", "sweep", "chi2", "discerr-double-well"])
def test_every_file_echoes_the_config_it_ran(case, tmp_path):
    # the one output path: each file-writing subcommand writes its own files
    # and nothing else, each under the echo of the config that made it
    args = build_parser().parse_args(CASES[case])
    cfg = load_config(args.config, args.overrides, args.seed)
    assert main(CASES[case] + ["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(AVX512[case])
    for name in written:
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first.startswith("# config: ")
        echo = first[len("# config: "):]
        kappa = re.search(r"_kappa(.+)\.csv$", name)
        ran = cfg if kappa is None else {
            **cfg, "objective": {**cfg["objective"], "kappa": kappa[1].replace("p", ".")}}
        assert parse_canonical_config(echo) == ran
        assert emit_canonical_config(parse_canonical_config(echo)) == echo
