"""Tests for config handling and the command-line entry point."""

import inspect
import os
import pathlib
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import relex
from relex.cli import (DEFAULTS, GRAMMAR, apply_override, emit_canonical_config, load_config,
                       main, parse_canonical_config, parse_config, start)
from relex.errors import InputError
from relex.harness import run_comparison
from relex.objective import benchmark_mixture
from relex.rng import RngStream

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def no_run(*args, **kwargs):
    raise AssertionError("an experiment started")


@pytest.fixture
def no_experiment(monkeypatch):
    """Every experiment the CLI can start fails the test if it starts. A
    comparison checks its own values, so it fails only once its kernel runs."""
    monkeypatch.setattr("relex.harness.run_pair_ensemble", no_run)
    for name in ("chi2_decay_experiment", "discretization_error_experiment",
                 "check_gradient"):
        monkeypatch.setattr(f"relex.cli.{name}", no_run)


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
        with pytest.raises(InputError):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[physics]\neta = 0.01\n")
        with pytest.raises(InputError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_config("/no/such/file.cfg")

    @pytest.mark.parametrize("text, message", [
        ("[dynamics]\ninit = 2%,2\n",
         "dynamics.init must be finite coordinates or uniform:lo,hi, got '2%,2'"),
        ("[dynamics]\nsteps = 20\nstride = %(steps)s\n",
         "dynamics.stride must be an integer, got '%(steps)s'"),
    ], ids=["stray-percent", "interpolation"])
    def test_values_are_read_literally(self, tmp_path, capsys, text, message, no_experiment):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err == f"relex: error: {message}\n"
        assert not (tmp_path / "res").exists()

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, no_experiment):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfe[dynamics]\neta = 0.005\n")
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err.startswith(f"relex: error: cannot read {path}: ")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("text", ["[DEFAULT]\nsteps = 5\n",
                                      "[DEFAULT]\nkappa = 0.3\n[dynamics]\nsteps = 5\n"],
                             ids=["alone", "beside-a-section"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser leaves [DEFAULT] out of sections() and copies its keys into each one
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(InputError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(str(path))

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
            with pytest.raises(InputError):
                apply_override(load_config(), item)


class TestGrammar:
    def test_every_default_parses(self):
        for section, keys in GRAMMAR.items():
            for key, (default, parse) in keys.items():
                parse(f"{section}.{key}", default)
        values = parse_config(load_config())
        assert values["init"] == (2.0, 2.0) and values["eta_ref"] is None

    def test_no_key_name_is_in_two_sections(self):
        # a bare --set KEY and parse_config's flat values rely on this
        names = [key for keys in GRAMMAR.values() for key in keys]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("argv, message", [
        (["gradcheck", "--set", "steps=abc"], "dynamics.steps must be an integer, got 'abc'"),
        (["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
          "--set", "kappa=oops"], "objective.kappa must be a finite number, got 'oops'"),
        (["check", "--set", "eta=x"], "dynamics.eta must be a finite number, got 'x'"),
    ], ids=["gradcheck", "chi2", "check"])
    def test_malformed_unread_key_exits_2_before_any_run(self, argv, message, tmp_path,
                                                         capsys, monkeypatch, no_experiment):
        monkeypatch.setattr("relex.acceptance.run_all", no_run)
        assert main([*argv, "--out", str(tmp_path / "res")]) == 2
        assert capsys.readouterr().err == f"relex: error: {message}\n"
        assert not (tmp_path / "res").exists()

    def test_readme_table_lists_the_grammar(self):
        head = "| section | key | default | parses to |\n|---|---|---|---|\n"
        rows = README.read_text().split(head, 1)[1].split("\n\n", 1)[0].splitlines()
        table = [tuple(cell.strip().strip("`") for cell in row.split("|")[1:4]) for row in rows]
        assert table == [(section, key, default) for section, keys in DEFAULTS.items()
                         for key, default in keys.items()]


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


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SWEPT = [f"{kind}_kappa{tag}.csv" for kind in ("bestsofar", "summary")
         for tag in ("0p05", "0p1", "0p2", "0p3")]
# Each shipped config: the subcommand it is for and the files it writes.
SHIPPED = {
    "mixture_kappa_sweep.cfg": ("sweep", SWEPT),
    "mixture_taus_0.01_0.5.cfg": ("compare", ["bestsofar.csv", "summary.csv"]),
    "mixture_taus_0.01_1.cfg": ("compare", ["bestsofar.csv", "summary.csv"]),
    "mixture_taus_0.1_1.cfg": ("compare", ["bestsofar.csv", "summary.csv"]),
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_run_without_a_warning(path, tmp_path):
    # a config file with no entry above fails here; the suite turns every
    # warning, such as a clamped swap probability, into an error
    command, files = SHIPPED[path.name]
    code = main([command, "--config", str(path), "--set", "steps=20", "--set", "ensemble=2",
                 "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


class Ran(Exception):
    """The CLI started a comparison."""


@pytest.fixture
def comparisons(monkeypatch):
    """The arguments, by name, of each comparison the CLI starts; starting
    one raises Ran."""
    calls = []

    def record(*args, **kwargs):
        calls.append(inspect.signature(run_comparison).bind(*args, **kwargs).arguments)
        raise Ran
    monkeypatch.setattr("relex.cli.run_comparison", record)
    return calls


class TestComparisonArguments:
    @pytest.mark.parametrize("kind, dimension", [
        ("gaussian_mixture", 2), ("double_well", 1), ("quadratic", 2)])
    def test_known_kinds(self, kind, dimension, comparisons):
        init = ",".join(["2"] * dimension)
        with pytest.raises(Ran):
            main(["compare", "--set", f"kind={kind}", "--set", f"init={init}"])
        assert comparisons[0]["f"].dimension == dimension

    def test_mixture_takes_kappa_and_confinement(self, comparisons):
        with pytest.raises(Ran):
            main(["compare", "--set", "kappa=0.2", "--set", "confinement=0.5"])
        point = np.array([[3.0, -1.0]])
        want = benchmark_mixture(0.2, 0.5).value_and_grad(point)
        assert all(np.array_equal(a, b) for a, b in
                   zip(comparisons[0]["f"].value_and_grad(point), want))

    def test_run_values_reach_the_comparison(self, comparisons):
        with pytest.raises(Ran):
            main(["compare", "--set", "intensity=3", "--set", "tau1=0.05", "--set", "steps=40",
                  "--set", "stride=8", "--seed", "9"])
        run = dict(comparisons[0])
        del run["f"]
        assert run == dict(tau1=0.05, tau2=1.0, a=3.0, eta=0.01, steps=40, ensemble=20,
                           seed=9, init=(2.0, 2.0), stride=8)

    def test_point(self):
        assert start(parse_config(load_config(overrides=["init=2,3"])), 2) == (2.0, 3.0)

    def test_uniform_box(self):
        init = start(parse_config(load_config(overrides=["init=uniform:-2,2",
                                                         "ensemble=1000"])), 2)
        assert init.shape == (1000, 2)
        assert init.min() >= -2.0 and init.max() <= 2.0
        assert abs(init.mean()) < 0.1

    @pytest.mark.parametrize("ensemble", ["0", "-3"])
    def test_uniform_box_of_no_seeds_exits_2(self, ensemble, tmp_path, capsys):
        code = main(["compare", "--set", "init=uniform:-2,2", "--set", f"ensemble={ensemble}",
                     "--out", str(tmp_path / "res")])
        assert code == 2
        assert capsys.readouterr().err == f"relex: error: ensemble must be >= 1, got {ensemble}\n"
        assert not (tmp_path / "res").exists()


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["annihilate"]) == 2
        assert capsys.readouterr().err != ""

    def test_config_error_exits_2(self, capsys):
        assert main(["compare", "--set", "bogus=1"]) == 2
        assert capsys.readouterr().err.startswith("relex: error: ")

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

    @pytest.mark.parametrize("out", ["res", "res/"])
    def test_compare_prints_the_paths_it_wrote(self, out, tmp_path, capsys, monkeypatch):
        # a trailing slash on --out is joined, not doubled
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--set", "steps=20", "--set", "ensemble=2", "--out", out]) == 0
        assert capsys.readouterr().out.startswith(
            "compare: wrote res/bestsofar.csv, res/summary.csv; median final best {")

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
        ("0.1,0.1000001", "kappa 0.1000001 is echoed as 0.1; give it in 6 digits"),
        ("0.2,0.1000001", "kappa 0.1000001 is echoed as 0.1"),
    ], ids=["duplicate", "tags-collide", "echo-inexact"])
    def test_sweep_rejects_kappas_its_files_cannot_tell_apart(self, kappas, message,
                                                              tmp_path, capsys, monkeypatch):
        # each kappa's files and echo carry its 6-digit :g form; a sweep that
        # would overwrite its own files or echo another kappa never starts
        monkeypatch.setattr("relex.cli.run_comparison", no_run)
        out = tmp_path / "res"
        code = main(["sweep", "--set", f"kappas={kappas}", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("kappas=0.1,-1", "kappa must be positive and finite, got -1.0"),
        ("kappas=0.1,inf", "objective.kappas must be comma-separated finite numbers, "
                           "got '0.1,inf'"),
        ("kappas=0.1,nan", "objective.kappas must be comma-separated finite numbers, "
                           "got '0.1,nan'"),
        ("kappas=", "kappa sweep needs at least one kappa"),
        ("kind=double_well", "kappa sweep needs a gaussian_mixture objective, "
                             "got 'double_well'"),
    ], ids=["negative-kappa", "infinite-kappa", "nan-kappa", "no-kappa", "not-a-mixture"])
    def test_sweep_rejects_a_bad_kappa_before_any_run(self, setting, message, tmp_path,
                                                      capsys, monkeypatch):
        # the bad kappa comes last: no kappa's comparison runs before the error;
        # a sweep over an objective without a kappa never starts
        runs = []
        monkeypatch.setattr("relex.cli.run_comparison", lambda *args: runs.append(args))
        out = tmp_path / "res"
        code = main(["sweep", "--set", setting, "--out", str(out)])
        assert code == 2 and runs == []
        assert capsys.readouterr().err == f"relex: error: {message}\n"
        assert not out.exists()

    def test_sweep_of_one_kappa_is_that_kappa_s_compare(self, tmp_path):
        argv = ["--set", "steps=100", "--set", "ensemble=3", "--set", "init=uniform:-1,5"]
        assert main(["sweep", *argv, "--set", "kappas=0.2", "--out", str(tmp_path / "s")]) == 0
        assert main(["compare", *argv, "--set", "kappa=0.2", "--out", str(tmp_path / "c")]) == 0
        for name in ("bestsofar", "summary"):
            swept = (tmp_path / "s" / f"{name}_kappa0p2.csv").read_text().splitlines()
            compared = (tmp_path / "c" / f"{name}.csv").read_text().splitlines()
            assert swept[1:] == compared[1:]

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
        assert capsys.readouterr().err.startswith("relex: error: ")

    def test_chi2_rejects_negative_intensity_before_any_run(self, tmp_path, capsys,
                                                            monkeypatch):
        for draw in ("normal", "uniform", "integers"):
            monkeypatch.setattr(RngStream, draw, no_run)
        monkeypatch.setattr("relex.diagnostics.pair_gibbs_density", no_run)
        code = main(["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
                     "--set", "intensity=-1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "relex: error: swap intensity must be nonnegative and finite, got -1.0\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("times, message", [
        ("-3,-2,-1", "sample times must be positive and finite\n"),
        ("", "need at least one sample time\n"),
        # eta = 0.01: under half a step is an error, not step 1
        ("0.0001,0.0002,0.0003,0.0004", "sample time 0.0001 rounds to step 0 of eta = 0.01; "
                                        "sample times must exceed half a step\n"),
        ("5e-324,0.5,0.6,0.7,1", "sample time 5e-324 rounds to step 0 of eta = 0.01"),
        ("0.1,0.1004", "sample times must be strictly increasing once rounded to steps of "
                       "eta = 0.01, got steps [10, 10]\n"),
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

    @pytest.mark.parametrize("command, item, message", [
        ("chi2", "ensemble=1000 eta=0", "eta must be positive and finite, got 0.0"),
        ("chi2", "ensemble=1000 tau1=1 tau2=0.1", "replica exchange requires tau1 < tau2"),
        ("discerr", "ensemble=20 intensity=-1",
         "swap intensity must be nonnegative and finite, got -1.0"),
        ("discerr", "ensemble=20 tau1=1 tau2=0.1", "replica exchange requires tau1 < tau2"),
    ])
    def test_bad_step_or_swap_intensity_exits_2(self, tmp_path, capsys, command, item,
                                                message):
        args = [arg for setting in ["kind=double_well", *item.split()]
                for arg in ("--set", setting)]
        code = main([command, *args, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"relex: error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_chi2_fit_above_every_sample_exits_2(self, tmp_path, capsys):
        code = main(["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
                     "--set", "intensity=5", "--set", "fit_floor=1e9",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "relex: error: only 0 sample times have chi2 > 1000000000.0\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("item, message", [
        ("resolution=0", "relex: error: grid resolution must be >= 1"),
        ("resolution=-2", "relex: error: grid resolution must be >= 1"),
        ("bounds=3,-3", "relex: error: grid bounds must be finite"),
        ("bounds=1,2,3", "relex: error: diagnostics.bounds must be two numbers"),
        ("bounds=1", "relex: error: diagnostics.bounds must be two numbers"),
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
        ("etas=0.02,-0.01", "relex: error: stepsizes must be positive and finite\n"),
        ("eta_ref=0", "eta_ref must be positive"),
        ("eta_ref=-0.001", "eta_ref must be positive"),
        ("etas=0.02,0.01,0.02", "stepsize 0.02 is listed twice"),
    ])
    def test_discerr_bad_horizon_or_stepsizes_exit_2(self, tmp_path, capsys, item,
                                                     message):
        code = main(["discerr", "--set", item, "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "discerr.csv").exists()

    @pytest.mark.parametrize("items, message", [
        (["kind=double_well", "horizon=1e-13"], "horizon T = 1e-13 is 3.2e-10 steps of "
         "eta_ref = 0.0003125; it must be a whole number from 1 to 2**53 - 1"),
        (["eta_ref=1", "etas=1e10"], "T = 1.0 is not an integer number of steps of eta"),
    ])
    def test_discerr_zero_steps_is_a_config_error(self, tmp_path, capsys, items, message):
        args = [arg for item in items for arg in ("--set", item)]
        code = main(["discerr", *args, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"relex: error: {message}")
        assert not (tmp_path / "discerr.csv").exists()

    def test_discerr_stepsize_whose_default_eta_ref_underflows_exits_2(self, tmp_path, capsys):
        # 5e-324 / 16 is 0.0, which the step counts then divided by
        code = main(["discerr", "--set", "etas=5e-324", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ("relex: error: default eta_ref = 4.94066e-324 / 16 "
                                           "underflows to 0\n")
        assert not list(tmp_path.iterdir())

    def test_discerr_coarse_steps_do_not_warn_of_clamping(self, tmp_path):
        # a * eta = 30 * 0.04 >= 1, but every swap probability is tested on
        # the sub-step eta_ref = 0.02 / 16, where a * eta_ref = 0.0375
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["discerr", "--set", "kind=double_well", "--set", "intensity=30",
                         "--set", "etas=0.04,0.02", "--set", "horizon=0.2",
                         "--set", "ensemble=50", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("init", ["uniform:nan,1", "uniform:3,1", "uniform:-1,inf",
                                      "uniform:-inf,1", "uniform:2,1"])
    def test_bad_uniform_init_exits_2(self, tmp_path, capsys, init, no_experiment):
        code = main(["compare", "--set", f"init={init}", "--set", "steps=10",
                     "--set", "ensemble=2", "--set", "stride=1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"relex: error: uniform init bounds must be finite with lo <= hi, "
            f"got {init!r}\n")

    @pytest.mark.parametrize("command, item, message", [
        ("compare", "kind=rosenbrock", "unknown objective kind 'rosenbrock'"),
        ("chi2", "kind=rosenbrock", "unknown objective kind 'rosenbrock'"),
        ("discerr", "kind=rosenbrock", "unknown objective kind 'rosenbrock'"),
        ("gradcheck", "kind=rosenbrock", "unknown objective kind 'rosenbrock'"),
        ("compare", "init=gaussian:0,1",
         "dynamics.init must be finite coordinates or uniform:lo,hi, got 'gaussian:0,1'"),
        ("compare", "init=uniform:oops", "bad uniform init spec 'uniform:oops'"),
        ("compare", "init=uniform:1,2,3", "bad uniform init spec 'uniform:1,2,3'"),
        ("compare", "init=1,2,3", "init point has dimension 3, expected 2"),
        ("compare", "kind=double_well", "init point has dimension 2, expected 1"),
    ])
    def test_bad_objective_or_init_exits_2_before_any_run(self, command, item, message,
                                                          tmp_path, capsys, no_experiment):
        code = main([command, "--set", item, "--out", str(tmp_path / "res")])
        assert code == 2
        assert capsys.readouterr().err == f"relex: error: {message}\n"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["compare", "gradcheck"])
    def test_mixture_kappa_that_overflows_exits_2(self, command, tmp_path, capsys,
                                                  no_experiment):
        # 1 / (2 pi 5e-324) is inf: no RuntimeWarning, no run, an error naming kappa
        code = main([command, "--set", "kappa=5e-324", "--out", str(tmp_path / "res")])
        assert code == 2
        assert capsys.readouterr().err == ("relex: error: kappa = 5e-324 overflows the "
                                           "mixture amplitude max(weights) / (2 pi kappa)\n")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command, items, message", [
        ("chi2", ["ensemble=1000", "eta=1e-300"],
         "sample time 1 is 2**53 or more steps of eta = 1e-300"),
        ("discerr", ["ensemble=8", "horizon=0.04", "eta_ref=1e-300"],
         "horizon T = 0.04 is 4e+298 steps of eta_ref = 1e-300; "
         "it must be a whole number from 1 to 2**53 - 1"),
        ("discerr", ["horizon=1e-300", "eta_ref=1e-310", "etas=1e10"],
         "stepsize 10000000000.0 is inf steps of eta_ref = 1e-310; "
         "it must be a whole number from 1 to 2**53 - 1"),
    ], ids=["chi2-sample-time", "discerr-horizon", "discerr-stepsize"])
    def test_step_count_a_float_cannot_hold_exits_2(self, command, items, message, tmp_path,
                                                    capsys, monkeypatch):
        # the kernels are stubbed: a regression fails here instead of running ~1e298 steps
        monkeypatch.setattr("relex.diagnostics.pair_snapshots", no_run)
        monkeypatch.setattr("relex.harness.run_pair_ensemble", no_run)
        args = [arg for item in ["kind=double_well", *items] for arg in ("--set", item)]
        assert main([command, *args, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"relex: error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_chi2_temperature_too_small_for_the_gibbs_grid_exits_2(self, tmp_path, capsys,
                                                                   monkeypatch):
        # rejected by the pair Gibbs grid, before any kernel run and without a warning
        monkeypatch.setattr("relex.diagnostics.pair_snapshots", no_run)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["chi2", "--set", "kind=double_well", "--set", "ensemble=1000",
                         "--set", "tau1=5e-324", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ("relex: error: (U - min U) / tau1 is not finite "
                                           "on the Gibbs grid at tau1 = 4.94066e-324\n")
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["compare", "--set", "steps=10", "--set", "ensemble=2",
                     "--set", "stride=1", "--out", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("relex: error:")

    def test_threads_flag_is_gone(self, capsys):
        assert main(["gradcheck", "--threads", "2"]) == 2

    @pytest.mark.parametrize("kind, error", [
        ("gaussian_mixture", "1.742e-11"), ("double_well", "3.569e-10"),
        ("quadratic", "8.675e-10"),
    ])
    def test_gradcheck_passes(self, capsys, kind, error):
        # the same line on numpy's AVX-512 and AVX2 exp paths
        assert main(["gradcheck", "--set", f"kind={kind}"]) == 0
        assert capsys.readouterr().out == (f"gradcheck: max relative error {error} over 100 "
                                           "points -> PASS\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # clamped swap prob
    def test_divergence_exits_3(self, tmp_path, capsys):
        code = main(["compare", "--set", "kind=quadratic",
                     "--set", "eta=1000000", "--set", "steps=100",
                     "--set", "ensemble=2", "--set", "tau1=0.1",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "divergence" in err
        assert "in chain 0, slot 0, temperature 0.1; last finite position [" in err

    def test_entry_point_sets_the_process_exit_status(self, tmp_path):
        src = os.path.dirname(os.path.dirname(relex.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))

        def entry(*argv):
            return subprocess.run([sys.executable, "-c", "from relex.cli import entry; entry()",
                                   *argv], env=env, text=True, capture_output=True)
        assert entry("gradcheck").returncode == 0
        bad = entry("compare", "--set", "bogus=1")
        assert (bad.returncode, bad.stderr) == (2, "relex: error: unknown config key bogus\n")
        diverged = entry("compare", "--set", "kind=quadratic", "--set", "eta=1000000",
                         "--set", "steps=100", "--set", "ensemble=2", "--set", "tau1=0.1",
                         "--out", str(tmp_path))
        assert diverged.returncode == 3
        # a clamped swap probability warns on stderr before the error line
        assert diverged.stderr.splitlines()[-1].startswith("relex: divergence: ")

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

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        # 2**64 would alias seed 0, and -1 seed 2**64 - 1
        code = main(["compare", "--set", "steps=100", "--set", "ensemble=2",
                     "--seed", seed, "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"relex: error: seed must lie in [0, 2**64), got {seed}\n")
        assert not list(tmp_path.iterdir())
