"""Command-line front end.

Subcommands: compare, sweep, chi2, discerr, gradcheck, check. Configuration
comes from an INI-style file with sections [objective], [dynamics],
[diagnostics], [output]; ``--set key=value`` overrides win left to right, and
``--seed`` overrides dynamics.seed. Every CSV carries the canonical config
echo so outputs are self-describing.

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
from .errors import DivergenceError, InputError, RelexError
from .harness import (SimConfig, discretization_error_experiment, run_comparison,
                      write_bestsofar_csv, write_chi2decay_csv, write_discerr_csv,
                      write_summary_csv)
from .objective import (ObjectiveFunction, benchmark_mixture, check_gradient,
                        double_well, quadratic)
from .rng import PURPOSE_INIT, derive_stream

DEFAULTS = {
    "objective": {
        "kind": "gaussian_mixture",
        "kappa": "0.1",
        "kappas": "0.05,0.1,0.2,0.3",
        "confinement": "0",
    },
    "dynamics": {
        "tau1": "0.01",
        "tau2": "1",
        "intensity": "1",
        "eta": "0.01",
        "steps": "10000",
        "ensemble": "20",
        "seed": "0",
        "init": "2,2",
        "stride": "10",
    },
    "diagnostics": {
        "sample_times": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        "bounds": "-3,3",
        "resolution": "24",
        "fit_floor": "0.01",
        "etas": "0.04,0.02,0.01,0.005",
        "horizon": "1",
        "eta_ref": "",
    },
    "output": {
        "dir": "results",
    },
}

# The factory of each objective kind. A gaussian_mixture takes objective.kappa
# and objective.confinement; the other kinds take no keys.
OBJECTIVES = {"gaussian_mixture": benchmark_mixture, "double_well": double_well,
              "quadratic": quadratic}


# ---------------------------------------------------------------------------
# Config loading, overrides, canonical echo.

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
        for section in parser.sections():
            if section not in cfg:
                raise InputError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in cfg[section]:
                    raise InputError(f"unknown config key {section}.{key}")
                cfg[section][key] = value.strip()
    for item in overrides:
        apply_override(cfg, item)
    if seed is not None:
        cfg["dynamics"]["seed"] = str(int(seed))
    return cfg


def apply_override(cfg: dict, item: str):
    """Apply one KEY=VALUE override; KEY is section.key or an unambiguous key."""
    if "=" not in item:
        raise InputError(f"override {item!r} is not KEY=VALUE")
    key, value = item.split("=", 1)
    key = key.strip()
    if "." in key:
        section, name = key.split(".", 1)
        if section not in cfg or name not in cfg[section]:
            raise InputError(f"unknown config key {key}")
        cfg[section][name] = value.strip()
        return
    hits = [section for section in cfg if key in cfg[section]]
    if not hits:
        raise InputError(f"unknown config key {key}")
    if len(hits) > 1:
        raise InputError(f"ambiguous config key {key} (in sections {hits})")
    cfg[hits[0]][key] = value.strip()


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


# Typed accessors -----------------------------------------------------------

def _floats(pieces, what: str, raw: str) -> list:
    """``pieces`` parsed as floats; InputError unless all are finite."""
    try:
        values = [float(v) for v in pieces]
    except ValueError:
        values = [math.nan]
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"{what}, got {raw!r}")
    return values


def _get_float(cfg, section, key):
    raw = cfg[section][key]
    return _floats([raw], f"{section}.{key} must be a finite number", raw)[0]


def _get_int(cfg, section, key):
    try:
        return int(cfg[section][key])
    except ValueError as exc:
        raise InputError(f"{section}.{key} must be an integer, got "
                         f"{cfg[section][key]!r}") from exc


def _get_floats(cfg, section, key):
    raw = cfg[section][key]
    return _floats([v for v in raw.split(",") if v.strip()],
                   f"{section}.{key} must be comma-separated finite numbers", raw)


def _get_objective(cfg) -> ObjectiveFunction:
    kind = cfg["objective"]["kind"]
    if kind not in OBJECTIVES:
        raise InputError(f"unknown objective kind {kind!r}")
    keys = ("kappa", "confinement") if kind == "gaussian_mixture" else ()
    return OBJECTIVES[kind](*(_get_float(cfg, "objective", key) for key in keys))


def _get_init(cfg, dim: int, nseeds: int, seed: int):
    """dynamics.init: a point, or ``nseeds`` starts drawn uniformly from the
    box [lo, hi]^dim by the seed's init stream."""
    raw = cfg["dynamics"]["init"]
    if not raw.startswith("uniform:"):
        return tuple(_floats(raw.split(","), "dynamics.init must be finite coordinates "
                             "or uniform:lo,hi", raw))
    try:
        lo, hi = (float(v) for v in raw[len("uniform:"):].split(","))
    except ValueError as exc:
        raise InputError(f"bad uniform init spec {raw!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InputError(f"uniform init bounds must be finite with lo <= hi, got {raw!r}")
    # a nonpositive ensemble draws nothing; SimConfig rejects it
    return lo + (hi - lo) * derive_stream(seed, PURPOSE_INIT).uniform((max(nseeds, 0), dim))


def build_sim_config(cfg: dict) -> SimConfig:
    f = _get_objective(cfg)
    ensemble = _get_int(cfg, "dynamics", "ensemble")
    seed = _get_int(cfg, "dynamics", "seed")
    return SimConfig(
        objective=f,
        tau1=_get_float(cfg, "dynamics", "tau1"),
        tau2=_get_float(cfg, "dynamics", "tau2"),
        intensity=_get_float(cfg, "dynamics", "intensity"),
        eta=_get_float(cfg, "dynamics", "eta"),
        steps=_get_int(cfg, "dynamics", "steps"),
        ensemble=ensemble,
        seed=seed,
        init=_get_init(cfg, f.dimension, ensemble, seed),
        stride=_get_int(cfg, "dynamics", "stride"),
    )


def _out_dir(cfg, out_flag):
    path = out_flag if out_flag is not None else cfg["output"]["dir"]
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommand handlers.

def cmd_compare(cfg, out_flag) -> int:
    summaries = run_comparison(build_sim_config(cfg))
    out = _out_dir(cfg, out_flag)
    echo = emit_canonical_config(cfg)
    write_bestsofar_csv(os.path.join(out, "bestsofar.csv"), summaries, echo)
    write_summary_csv(os.path.join(out, "summary.csv"), summaries, echo)
    finals = {s.algorithm: float(np.median(s.final_best)) for s in summaries}
    print(f"compare: wrote {out}/bestsofar.csv, {out}/summary.csv; "
          f"median final best {finals}")
    return 0


def cmd_sweep(cfg, out_flag) -> int:
    kappas = _get_floats(cfg, "objective", "kappas")
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
    kind = cfg["objective"]["kind"]
    if kind != "gaussian_mixture":
        raise InputError(f"kappa sweep needs a gaussian_mixture objective, got {kind!r}")
    if not kappas:
        raise InputError("kappa sweep needs at least one kappa")
    for kappa in kappas:
        if kappa <= 0:
            raise InputError(f"kappa must be positive, got {kappa}")
    # each kappa runs the config its files echo
    sweep_cfgs = [{**cfg, "objective": {**cfg["objective"], "kappa": text}} for text in echoed]
    sims = [build_sim_config(sweep_cfg) for sweep_cfg in sweep_cfgs]
    results = [run_comparison(sim) for sim in sims]
    out = _out_dir(cfg, out_flag)
    for text, sweep_cfg, summaries in zip(echoed, sweep_cfgs, results):
        echo = emit_canonical_config(sweep_cfg)
        tag = text.replace(".", "p")
        write_bestsofar_csv(os.path.join(out, f"bestsofar_kappa{tag}.csv"),
                            summaries, echo)
        write_summary_csv(os.path.join(out, f"summary_kappa{tag}.csv"),
                          summaries, echo)
    print(f"sweep: wrote {2 * len(kappas)} files under {out}")
    return 0


def cmd_chi2(cfg, out_flag) -> int:
    f = _get_objective(cfg)
    bounds = _get_floats(cfg, "diagnostics", "bounds")
    if len(bounds) != 2:
        raise InputError(f"diagnostics.bounds must be two numbers lo,hi, "
                         f"got {cfg['diagnostics']['bounds']!r}")
    times = np.asarray(_get_floats(cfg, "diagnostics", "sample_times"))
    intensity = _get_float(cfg, "dynamics", "intensity")
    if intensity < 0:
        raise InputError(f"dynamics.intensity must be nonnegative, got {intensity:g}")
    fits = {}
    for a in (0.0, intensity) if intensity > 0 else (0.0,):
        fits[a] = chi2_decay_experiment(
            f,
            tau1=_get_float(cfg, "dynamics", "tau1"),
            tau2=_get_float(cfg, "dynamics", "tau2"),
            a=a,
            eta=_get_float(cfg, "dynamics", "eta"),
            ensemble=_get_int(cfg, "dynamics", "ensemble"),
            sample_times=times,
            bounds=np.array([bounds]),
            resolution=_get_int(cfg, "diagnostics", "resolution"),
            seed=_get_int(cfg, "dynamics", "seed"),
            fit_floor=_get_float(cfg, "diagnostics", "fit_floor"),
        )
    out = _out_dir(cfg, out_flag)
    write_chi2decay_csv(os.path.join(out, "chi2decay.csv"), fits,
                        emit_canonical_config(cfg))
    rates = {a: f"{fit.rate:.4g}" for a, fit in fits.items()}
    print(f"chi2: wrote {out}/chi2decay.csv; fitted decay rates {rates}")
    return 0


def cmd_discerr(cfg, out_flag) -> int:
    f = _get_objective(cfg)
    result = discretization_error_experiment(
        f,
        tau1=_get_float(cfg, "dynamics", "tau1"),
        tau2=_get_float(cfg, "dynamics", "tau2"),
        a=_get_float(cfg, "dynamics", "intensity"),
        etas=_get_floats(cfg, "diagnostics", "etas"),
        T=_get_float(cfg, "diagnostics", "horizon"),
        ensemble=_get_int(cfg, "dynamics", "ensemble"),
        seed=_get_int(cfg, "dynamics", "seed"),
        eta_ref=(_get_float(cfg, "diagnostics", "eta_ref")
                 if cfg["diagnostics"]["eta_ref"] else None),
    )
    out = _out_dir(cfg, out_flag)
    write_discerr_csv(os.path.join(out, "discerr.csv"), result,
                      emit_canonical_config(cfg))
    print(f"discerr: wrote {out}/discerr.csv; log-log slope {result.slope:.4g}")
    return 0


def cmd_gradcheck(cfg, out_flag) -> int:
    f = _get_objective(cfg)
    rng = derive_stream(_get_int(cfg, "dynamics", "seed"), PURPOSE_INIT)
    points = -1.0 + 7.0 * rng.uniform((100, f.dimension))
    worst = check_gradient(f, points)
    ok = worst < 1e-5
    print(f"gradcheck: max relative error {worst:.3e} over 100 points "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def cmd_check(cfg, out_flag) -> int:
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
        return HANDLERS[args.subcommand](cfg, args.out)
    except DivergenceError as exc:
        print(f"relex: divergence: {exc}", file=sys.stderr)
        return 3
    except (RelexError, OSError) as exc:
        print(f"relex: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())
