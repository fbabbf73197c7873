"""Tests for config handling and the command-line entry point."""

import string
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relex.cli import (DEFAULTS, apply_override, emit_canonical_config,
                       load_config, main, parse_canonical_config)
from relex.errors import ConfigError


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["dynamics"]["eta"] == "0.01"
        assert cfg["objective"]["kind"] == "gaussian_mixture"

    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[dynamics]\neta = 0.005\nsteps = 500\n")
        cfg = load_config(str(path))
        assert cfg["dynamics"]["eta"] == "0.005"
        assert cfg["dynamics"]["steps"] == "500"
        assert cfg["dynamics"]["tau1"] == DEFAULTS["dynamics"]["tau1"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[dynamics]\ntemperature = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[physics]\neta = 0.01\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.cfg")

    def test_seed_flag_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[dynamics]\nseed = 3\n")
        cfg = load_config(str(path), overrides=["seed=5"], seed=9)
        assert cfg["dynamics"]["seed"] == "9"


class TestOverrides:
    def test_bare_key(self):
        cfg = load_config(overrides=["eta=0.005"])
        assert cfg["dynamics"]["eta"] == "0.005"

    def test_dotted_key(self):
        cfg = load_config(overrides=["objective.kappa=0.3"])
        assert cfg["objective"]["kappa"] == "0.3"

    def test_later_override_wins(self):
        cfg = load_config(overrides=["eta=0.005", "eta=0.002"])
        assert cfg["dynamics"]["eta"] == "0.002"

    def test_bad_overrides(self):
        for item in ["eta", "nosuchkey=1", "physics.eta=1", "dynamics.bogus=1"]:
            with pytest.raises(ConfigError):
                apply_override(load_config(), item)


class TestCanonicalConfig:
    def test_round_trip(self):
        cfg = load_config(overrides=["eta=0.005"])
        line = emit_canonical_config(cfg)
        assert parse_canonical_config(line) == cfg

    def test_key_order_irrelevant(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("[dynamics]\neta = 0.005\nsteps = 500\n")
        b.write_text("[dynamics]\nsteps = 500\neta = 0.005\n")
        assert (emit_canonical_config(load_config(str(a)))
                == emit_canonical_config(load_config(str(b))))

    def test_whitespace_free_echo_is_plain(self):
        line = emit_canonical_config(load_config())
        assert '"' not in line and "dynamics.init=2,2" in line.split()

    def test_whitespace_values_round_trip(self):
        cfg = load_config(overrides=["init=2, 2", "dir=my results"])
        line = emit_canonical_config(cfg)
        assert '"dynamics.init=2, 2"' in line
        assert parse_canonical_config(line) == cfg

    @given(st.sampled_from([(s, k) for s in DEFAULTS for k in DEFAULTS[s]]),
           st.text(string.printable))
    def test_printable_values_round_trip(self, key, value):
        cfg = load_config()
        cfg[key[0]][key[1]] = value
        line = emit_canonical_config(cfg)
        assert "\n" not in line
        assert parse_canonical_config(line) == cfg

    def test_override_changes_exactly_one_token(self):
        base = emit_canonical_config(load_config()).split()
        changed = emit_canonical_config(load_config(overrides=["eta=0.005"])).split()
        diffs = [(x, y) for x, y in zip(base, changed) if x != y]
        assert diffs == [("dynamics.eta=0.01", "dynamics.eta=0.005")]


def test_shipped_configs_load_and_round_trip():
    import glob
    import os
    here = os.path.dirname(__file__)
    paths = sorted(glob.glob(os.path.join(here, "..", "configs", "*.cfg")))
    assert len(paths) == 4
    for path in paths:
        cfg = load_config(path)
        assert parse_canonical_config(emit_canonical_config(cfg)) == cfg


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["annihilate"]) == 2
        assert capsys.readouterr().err != ""

    def test_config_error_exits_2(self, capsys):
        assert main(["compare", "--set", "bogus=1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_compare_writes_csvs(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["compare", "--set", "steps=200", "--set", "ensemble=3",
                     "--set", "eta=0.005", "--out", str(out)])
        assert code == 0
        best = (out / "bestsofar.csv").read_text().splitlines()
        summ = (out / "summary.csv").read_text().splitlines()
        assert best[0].startswith("# config: ")
        assert "dynamics.eta=0.005" in best[0]
        assert summ[1] == "iteration,algorithm,median,q25,q75"

    def test_sweep_writes_per_kappa_files(self, tmp_path):
        out = tmp_path / "res"
        code = main(["sweep", "--set", "steps=100", "--set", "ensemble=2",
                     "--set", "kappas=0.1,0.2", "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["bestsofar_kappa0p1.csv", "bestsofar_kappa0p2.csv",
                         "summary_kappa0p1.csv", "summary_kappa0p2.csv"]
        line = (out / "summary_kappa0p2.csv").read_text().splitlines()[0]
        assert "objective.kappa=0.2" in line

    @pytest.mark.parametrize("kappas, message", [
        ("0.1,0.1", "kappa 0.1 is listed twice"),
        ("0.1,0.1000001", "kappas 0.1 and 0.1000001 would both write the kappa0p1 files"),
        ("0.2,0.1000001", "kappa 0.1000001 is echoed as 0.1"),
    ], ids=["duplicate", "tags-collide", "echo-inexact"])
    def test_sweep_rejects_kappas_its_files_cannot_tell_apart(self, kappas, message,
                                                              tmp_path, capsys, monkeypatch):
        # each kappa's files and echo carry its 6-digit :g form; a sweep that
        # would overwrite its own files or echo another kappa never starts
        def no_run(*args):
            raise AssertionError("the sweep started")
        monkeypatch.setattr("relex.cli.kappa_sweep", no_run)
        out = tmp_path / "res"
        code = main(["sweep", "--set", f"kappas={kappas}", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("kappas=0.1,-1", "kappa must be positive, got -1.0"),
        ("kind=double_well", "kappa sweep needs a gaussian_mixture objective, "
                             "got 'double_well'"),
    ], ids=["negative-kappa", "not-a-mixture"])
    def test_sweep_rejects_a_bad_kappa_before_any_run(self, setting, message, tmp_path,
                                                      capsys, monkeypatch):
        # the bad kappa comes last: no kappa's comparison runs before the error;
        # a sweep over an objective without a kappa never starts
        runs = []
        monkeypatch.setattr("relex.harness.run_comparison", lambda *args: runs.append(args))
        out = tmp_path / "res"
        code = main(["sweep", "--set", setting, "--out", str(out)])
        assert code == 2 and runs == []
        assert capsys.readouterr().err == f"relex: config error: {message}\n"
        assert not out.exists()

    def test_discerr_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["discerr", "--set", "kind=double_well",
                     "--set", "tau1=0.1", "--set", "tau2=1",
                     "--set", "etas=0.02,0.01", "--set", "horizon=0.2",
                     "--set", "ensemble=50", "--out", str(out)])
        assert code == 0
        lines = (out / "discerr.csv").read_text().splitlines()
        assert lines[1] == "eta,mse,stderr"
        assert "slope" in capsys.readouterr().out

    def test_chi2_writes_csv(self, tmp_path):
        out = tmp_path / "res"
        code = main(["chi2", "--set", "kind=double_well",
                     "--set", "tau1=0.1", "--set", "tau2=1",
                     "--set", "eta=0.001", "--set", "ensemble=1000",
                     "--set", "intensity=5",
                     "--set", "sample_times=0.05,0.1,0.15,0.2",
                     "--set", "resolution=12", "--set", "fit_floor=0.2",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "chi2decay.csv").read_text().splitlines()
        assert lines[1] == "time,a,chi2,bootstrap_std"
        assert len(lines) == 2 + 2 * 4   # two intensities x four times

    @pytest.mark.parametrize("item", ["intensity=nan", "intensity=inf",
                                      "eta=inf", "tau2=inf"])
    def test_non_finite_numbers_exit_2(self, item, tmp_path, capsys):
        code = main(["compare", "--set", "steps=10", "--set", "ensemble=2",
                     "--set", "stride=1", "--set", item, "--out", str(tmp_path)])
        assert code == 2
        assert "must be a finite number" in capsys.readouterr().err

    def test_chi2_rejects_nan_intensity(self, tmp_path, capsys):
        code = main(["chi2", "--set", "kind=double_well", "--set", "intensity=nan",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("times, message", [
        ("-3,-2,-1", "sample times must be positive and finite"),
        ("0.0001,0.0002,0.0003,0.0004", "sample times must be strictly increasing"),
    ])
    def test_chi2_bad_sample_times_exit_2(self, tmp_path, capsys, times, message):
        code = main(["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
                     "--set", f"sample_times={times}", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"relex: error: {message}")
        assert not (tmp_path / "chi2decay.csv").exists()

    @pytest.mark.parametrize("ensemble", ["1", "0", "-3"])
    def test_discerr_ensemble_below_two_exits_2(self, tmp_path, capsys, ensemble):
        code = main(["discerr", "--set", "kind=double_well", "--set", "etas=0.02,0.01",
                     "--set", "horizon=0.2", "--set", f"ensemble={ensemble}",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "ensemble must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "discerr.csv").exists()

    @pytest.mark.parametrize("item, message", [
        ("resolution=0", "relex: error: grid resolution must be >= 1"),
        ("resolution=-2", "relex: error: grid resolution must be >= 1"),
        ("bounds=3,-3", "relex: error: grid bounds must be finite"),
        ("bounds=1,2,3", "relex: config error: diagnostics.bounds must be two numbers"),
        ("bounds=1", "relex: config error: diagnostics.bounds must be two numbers"),
    ])
    def test_chi2_bad_grid_exits_2(self, tmp_path, capsys, item, message):
        code = main(["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
                     "--set", item, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "chi2decay.csv").exists()

    @pytest.mark.parametrize("item, message", [
        ("horizon=0", "horizon T must be positive"),
        ("horizon=-1", "horizon T must be positive"),
        ("etas=", "need at least one stepsize"),
        ("eta_ref=0", "eta_ref must be positive"),
        ("eta_ref=-0.001", "eta_ref must be positive"),
    ])
    def test_discerr_bad_horizon_or_stepsizes_exit_2(self, tmp_path, capsys, item,
                                                     message):
        code = main(["discerr", "--set", item, "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "discerr.csv").exists()

    @pytest.mark.parametrize("items, message", [
        (["kind=double_well", "horizon=1e-13"], "horizon T = 1e-13 is shorter than eta_ref"),
        (["eta_ref=1", "etas=1e10"], "T = 1.0 is not an integer number of steps of eta"),
    ])
    def test_discerr_zero_steps_is_a_config_error(self, tmp_path, capsys, items, message):
        args = [arg for item in items for arg in ("--set", item)]
        code = main(["discerr", *args, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"relex: config error: {message}")
        assert not (tmp_path / "discerr.csv").exists()

    def test_discerr_coarse_steps_do_not_warn_of_clamping(self, tmp_path):
        # a * eta = 30 * 0.04 >= 1, but every swap probability is tested on
        # the sub-step eta_ref = 0.02 / 16, where a * eta_ref = 0.0375
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["discerr", "--set", "kind=double_well", "--set", "intensity=30",
                         "--set", "etas=0.04,0.02", "--set", "horizon=0.2",
                         "--set", "ensemble=50", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("init", ["uniform:nan,1", "uniform:3,1"])
    def test_bad_uniform_init_exits_2(self, tmp_path, capsys, init):
        code = main(["compare", "--set", f"init={init}", "--set", "steps=10",
                     "--set", "ensemble=2", "--set", "stride=1", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["compare", "--set", "steps=10", "--set", "ensemble=2",
                     "--set", "stride=1", "--out", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("relex: error:")

    def test_threads_flag_is_gone(self, capsys):
        assert main(["gradcheck", "--threads", "2"]) == 2

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # clamped swap prob
    def test_divergence_exits_3(self, tmp_path, capsys):
        code = main(["compare", "--set", "kind=quadratic",
                     "--set", "eta=1000000", "--set", "steps=100",
                     "--set", "ensemble=2", "--set", "tau1=0.1",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "divergence" in err
        assert "in chain 0, slot 0; last finite position [" in err

    def test_seed_flag_changes_echo(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out, seed in ((out1, "1"), (out2, "2")):
            assert main(["compare", "--set", "steps=100",
                         "--set", "ensemble=2", "--seed", seed,
                         "--out", str(out)]) == 0
        l1 = (out1 / "summary.csv").read_text().splitlines()[0]
        l2 = (out2 / "summary.csv").read_text().splitlines()[0]
        assert "dynamics.seed=1" in l1 and "dynamics.seed=2" in l2
