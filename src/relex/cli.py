"""Command-line front end.

Subcommands: compare, sweep, chi2, discerr, gradcheck, check. Configuration
comes from an INI-style file with sections [objective], [dynamics],
[diagnostics], [output]; ``--set key=value`` overrides win left to right, and
``--seed`` overrides dynamics.seed. GRAMMAR parses all of it before any
subcommand runs; every CSV echoes it canonically, so outputs describe themselves.

Exit codes: 0 success, 2 invalid input, usage or I/O error, 3 divergence,
4 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import re
import sys

import numpy as np

from .diagnostics import chi2_decay_experiment
from .errors import DivergenceError, InputError, RelexError, positive
from .harness import (discretization_error_experiment, run_comparison, write_bestsofar_csv,
                      write_chi2decay_csv, write_discerr_csv, write_summary_csv)
from .objective import benchmark_mixture, check_gradient, double_well, quadratic
from .rng import PURPOSE_INIT, derive_stream

# The objective of each kind, built from the parsed config: a gaussian_mixture
# takes objective.kappa and objective.confinement; the other kinds take no keys.
OBJECTIVES = {"gaussian_mixture": lambda v: benchmark_mixture(v["kappa"], v["confinement"]),
              "double_well": lambda v: double_well(), "quadratic": lambda v: quadratic()}


# Value parsers: each takes a key's section.key name and its raw text --------

def _floats(pieces, what: str, raw: str) -> list:
    """``pieces`` parsed as floats; InputError unless all are finite."""
    try:
        values = [float(v) for v in pieces]
    except ValueError:
        values = [math.nan]
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"{what}, got {raw!r}")
    return values


def _float(name, raw):
    return _floats([raw], f"{name} must be a finite number", raw)[0]


def _int(name, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc


def _float_list(name, raw):
    return _floats([v for v in raw.split(",") if v.strip()],
                   f"{name} must be comma-separated finite numbers", raw)


def _kind(name, raw):
    if raw not in OBJECTIVES:
        raise InputError(f"unknown objective kind {raw!r}")
    return raw


def _bounds(name, raw):
    bounds = _float_list(name, raw)
    if len(bounds) != 2:
        raise InputError(f"{name} must be two numbers lo,hi, got {raw!r}")
    return bounds


def _init(name, raw):
    """A start point, or ``slice(lo, hi)`` for starts drawn uniformly from the
    box [lo, hi]^dim."""
    if not raw.startswith("uniform:"):
        return tuple(_floats(raw.split(","), f"{name} must be finite coordinates "
                             "or uniform:lo,hi", raw))
    try:
        lo, hi = (float(v) for v in raw[len("uniform:"):].split(","))
    except ValueError as exc:
        raise InputError(f"bad uniform init spec {raw!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InputError(f"uniform init bounds must be finite with lo <= hi, got {raw!r}")
    return slice(lo, hi)


# The config grammar: section -> key -> (default text, parser). No key name
# appears in two sections, so a bare --set KEY names one key and
# parse_config's values can be keyed by bare name.
GRAMMAR = {
    "objective": {
        "kind": ("gaussian_mixture", _kind),
        "kappa": ("0.1", _float),
        "kappas": ("0.05,0.1,0.2,0.3", _float_list),
        "confinement": ("0", _float),
    },
    "dynamics": {
        "tau1": ("0.01", _float),
        "tau2": ("1", _float),
        "intensity": ("1", _float),
        "eta": ("0.01", _float),
        "steps": ("10000", _int),
        "ensemble": ("20", _int),
        "seed": ("0", _int),
        "init": ("2,2", _init),
        "stride": ("10", _int),
    },
    "diagnostics": {
        "sample_times": ("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", _float_list),
        "bounds": ("-3,3", _bounds),
        "resolution": ("24", _int),
        "fit_floor": ("0.01", _float),
        "etas": ("0.04,0.02,0.01,0.005", _float_list),
        "horizon": ("1", _float),
        "eta_ref": ("", lambda name, raw: _float(name, raw) if raw else None),
    },
    "output": {
        "dir": ("results", lambda name, raw: raw),
    },
}
DEFAULTS = {section: {key: default for key, (default, _) in keys.items()}
            for section, keys in GRAMMAR.items()}
SECTION_OF = {key: section for section, keys in GRAMMAR.items() for key in keys}


# ---------------------------------------------------------------------------
# Config loading, overrides, parsing, canonical echo.

def load_config(path: str | None = None, overrides=(), seed=None) -> dict:
    """Defaults, then the config file, then --set overrides, then --seed."""
    cfg = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        if not os.path.isfile(path):
            raise InputError(f"config file not found: {path}")
        # values are taken literally: '%' is a character, not an interpolation
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise InputError(f"cannot parse {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        if parser.defaults():   # configparser would copy its keys into every section
            raise InputError("unknown config section [DEFAULT]")
        for section in parser.sections():
            if section not in GRAMMAR:
                raise InputError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                _set(cfg, f"{section}.{key}", value)
    for item in overrides:
        apply_override(cfg, item)
    if seed is not None:
        _set(cfg, "seed", str(int(seed)))
    return cfg


def _set(cfg: dict, name: str, value: str):
    """Set the key ``name``, given as section.key or as its bare key."""
    section, dot, key = name.rpartition(".")
    if not dot:
        section = SECTION_OF.get(key)
    if key not in GRAMMAR.get(section, ()):
        raise InputError(f"unknown config key {name}")
    cfg[section][key] = value.strip()


def apply_override(cfg: dict, item: str):
    """Apply one KEY=VALUE override; KEY is section.key or a bare key."""
    if "=" not in item:
        raise InputError(f"override {item!r} is not KEY=VALUE")
    key, value = item.split("=", 1)
    _set(cfg, key.strip(), value)


def parse_config(cfg: dict) -> dict:
    """Every key of ``cfg`` parsed by its GRAMMAR row, keyed by bare key name."""
    return {key: parse(f"{section}.{key}", cfg[section][key])
            for section, keys in GRAMMAR.items() for key, (_, parse) in keys.items()}


def emit_canonical_config(cfg: dict) -> str:
    """Deterministic single-line rendering: sorted section.key=value pairs.
    A pair whose value contains whitespace is written as a JSON string."""
    pairs = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            pair = f"{section}.{key}={cfg[section][key]}"
            pairs.append(json.dumps(pair) if any(c.isspace() for c in pair) else pair)
    return " ".join(pairs)


def parse_canonical_config(line: str) -> dict:
    """Inverse of emit_canonical_config."""
    cfg: dict = {}
    for token in re.findall(r'"(?:[^"\\]|\\.)*"|\S+', line):
        if token.startswith('"'):
            token = json.loads(token)
        key, _, value = token.partition("=")
        section, _, name = key.partition(".")
        if not section or not name:
            raise InputError(f"bad canonical config token {token!r}")
        cfg.setdefault(section, {})[name] = value
    return cfg


def _take(values: dict, *keys) -> dict:
    return {key: values[key] for key in keys}


def start(values: dict, dimension: int):
    """The start of a comparison in ``dimension`` dimensions: the init point,
    or for ``uniform:lo,hi`` one start per seed drawn from the seed's init stream."""
    init = values["init"]
    if not isinstance(init, slice):
        return init
    # ensemble <= 0 draws nothing; run_comparison rejects it
    box = derive_stream(values["seed"], PURPOSE_INIT).uniform(
        (max(values["ensemble"], 0), dimension))
    return init.start + (init.stop - init.start) * box


def _comparison(values: dict, f):
    """run_comparison of the config values on the objective ``f``."""
    return run_comparison(f, a=values["intensity"], init=start(values, f.dimension), **_take(
        values, "tau1", "tau2", "eta", "steps", "ensemble", "seed", "stride"))


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _write(out, cfg, files) -> str:
    """The one output path: make the directory ``out`` and write each
    (file name, writer, data) of ``files`` into it, every file under the
    canonical echo of ``cfg``. Returns the paths written, as handlers print them."""
    os.makedirs(out, exist_ok=True)
    echo = emit_canonical_config(cfg)
    for name, writer, data in files:
        writer(os.path.join(out, name), data, echo)
    return ", ".join(f"{out}/{name}" for name, _, _ in files)


def cmd_compare(cfg, values, out) -> int:
    summaries = _comparison(values, OBJECTIVES[values["kind"]](values))
    wrote = _write(out, cfg, [("bestsofar.csv", write_bestsofar_csv, summaries),
                              ("summary.csv", write_summary_csv, summaries)])
    finals = {s.algorithm: float(np.median(s.final_best)) for s in summaries}
    print(f"compare: wrote {wrote}; median final best {finals}")
    return 0


def cmd_sweep(cfg, values, out) -> int:
    kappas = values["kappas"]
    echoed = {}   # each kappa's 6-digit echo names its files, so it must be exact and unique
    for kappa in kappas:
        text = f"{kappa:g}"
        if text in echoed:
            raise InputError(f"kappa {kappa!r} is listed twice" if echoed[text] == kappa
                             else f"kappas {echoed[text]!r} and {kappa!r} would both "
                             f"write the kappa{text.replace('.', 'p')} files")
        if float(text) != kappa:
            raise InputError(f"kappa {kappa!r} is echoed as {text}; give it in 6 digits")
        echoed[text] = kappa
    if values["kind"] != "gaussian_mixture":
        raise InputError(f"kappa sweep needs a gaussian_mixture objective, "
                         f"got {values['kind']!r}")
    if not kappas:
        raise InputError("kappa sweep needs at least one kappa")
    # each kappa runs the config its files echo; every objective is built before any run
    objectives = [OBJECTIVES["gaussian_mixture"]({**values, "kappa": kappa})
                  for kappa in echoed.values()]
    results = [_comparison(values, f) for f in objectives]
    for text, summaries in zip(echoed, results):
        tag = text.replace(".", "p")
        _write(out, {**cfg, "objective": {**cfg["objective"], "kappa": text}},
               [(f"bestsofar_kappa{tag}.csv", write_bestsofar_csv, summaries),
                (f"summary_kappa{tag}.csv", write_summary_csv, summaries)])
    print(f"sweep: wrote {2 * len(kappas)} files under {out}")
    return 0


def cmd_chi2(cfg, values, out) -> int:
    f = OBJECTIVES[values["kind"]](values)
    intensity = positive("dynamics.intensity", values["intensity"], zero=True)
    # one run without swaps, and one at the intensity unless that is 0 too
    fits = {a: chi2_decay_experiment(f, a=a, bounds=np.array([values["bounds"]]), **_take(
        values, "tau1", "tau2", "eta", "ensemble", "sample_times", "resolution", "seed",
        "fit_floor")) for a in dict.fromkeys((0.0, intensity))}
    wrote = _write(out, cfg, [("chi2decay.csv", write_chi2decay_csv, fits)])
    rates = {a: f"{fit.rate:.4g}" for a, fit in fits.items()}
    print(f"chi2: wrote {wrote}; fitted decay rates {rates}")
    return 0


def cmd_discerr(cfg, values, out) -> int:
    result = discretization_error_experiment(
        OBJECTIVES[values["kind"]](values), a=values["intensity"], T=values["horizon"],
        **_take(values, "tau1", "tau2", "etas", "ensemble", "seed", "eta_ref"))
    wrote = _write(out, cfg, [("discerr.csv", write_discerr_csv, result)])
    print(f"discerr: wrote {wrote}; log-log slope {result.slope:.4g}")
    return 0


def cmd_gradcheck(cfg, values, out) -> int:
    f = OBJECTIVES[values["kind"]](values)
    rng = derive_stream(values["seed"], PURPOSE_INIT)
    points = -1.0 + 7.0 * rng.uniform((100, f.dimension))
    worst = check_gradient(f, points)
    ok = worst < 1e-5
    print(f"gradcheck: max relative error {worst:.3e} over 100 points "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def cmd_check(cfg, values, out) -> int:
    from .acceptance import run_all
    records = run_all()
    all_pass = True
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        all_pass &= rec.passed
        print(f"[{status}] {rec.name}: {rec.detail} ({rec.runtime:.1f}s)")
    print(f"check: {sum(r.passed for r in records)}/{len(records)} criteria passed")
    return 0 if all_pass else 4


HANDLERS = {
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "chi2": cmd_chi2,
    "discerr": cmd_discerr,
    "gradcheck": cmd_gradcheck,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relex",
        description="Replica-exchange Langevin dynamics experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
    return parser


def main(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        values = parse_config(cfg)
        out = values["dir"] if args.out is None else args.out
        return HANDLERS[args.subcommand](cfg, values, out)
    except DivergenceError as exc:
        print(f"relex: divergence: {exc}", file=sys.stderr)
        return 3
    except (RelexError, OSError) as exc:
        print(f"relex: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())
