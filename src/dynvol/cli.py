"""Command-line harness: simulation studies, real-data backtests, defaults.

    dynvol simulate --model cir --reps 100 --out results/
    dynvol backtest --data rates.csv --out results/
    dynvol config --dump [--model sv]

Config files are flat key=value lines (as printed by `config --dump`);
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .errors import DynvolError
from .harness import (FREQUENCY_DELTA, StudyConfig, ingest_csv, run_backtest,
                      run_simulation_study, study_preset,
                      write_backtest_outputs, write_study_outputs)
from .time_domain import EsConfig

FULL_SCALE_REPS = 600


def _dump_config(cfg: StudyConfig) -> str:
    p = cfg.params()
    lines = [
        f"model = {cfg.model}",
        f"delta = {cfg.delta!r}",
        f"series_len = {cfg.series_len}",
        f"in_sample_len = {cfg.in_sample_len}",
        f"n_reps = {cfg.n_reps}",
        f"estimators = {','.join(cfg.estimators)}",
        f"lambda = {cfg.es.lam!r}",
        f"window = {cfg.es.n}",
        f"hist_window = {cfg.hist_window}",
        f"refit_every = {cfg.state_refit_every}",
        f"alpha = {cfg.alpha!r}",
        f"seed = {cfg.seed}",
        f"trim_upper = {cfg.trim_upper!r}",
        f"semi_grid = {','.join(repr(v) for v in cfg.semi_grid)}",
        f"max_lag = {cfg.max_lag}",
        f"er_window = {cfg.er_window}",
    ]
    for k, v in vars(p).items():
        lines.append(f"param_{k} = {v!r}")
    return "\n".join(lines) + "\n"


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DynvolError(f"bad config line: {raw.rstrip()}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


# config keys with a plain conversion; config file names on the left
_SIMPLE_KEYS = {"series_len": int, "in_sample_len": int, "n_reps": int,
                "refit_every": int, "hist_window": int, "alpha": float,
                "seed": int, "trim_upper": float, "max_lag": int,
                "er_window": int, "delta": float}
_RENAME = {"refit_every": "state_refit_every"}
_KEYS = frozenset(_SIMPLE_KEYS) | {"model", "lambda", "window", "estimators",
                                   "semi_grid"}


def _convert(key: str, conv, text: str):
    try:
        return conv(text)
    except ValueError:
        raise DynvolError(f"bad value for config key {key}: {text!r}") from None


def _apply_overrides(cfg: StudyConfig, opts: dict) -> StudyConfig:
    """Apply key=value settings; an unknown key is an error, never ignored.

    `model` must name the preset in use. `param_<name>` keys set the
    model's parameters (the fields that `config --dump` lists).
    """
    unknown = sorted(k for k in opts
                     if k not in _KEYS and not k.startswith("param_"))
    if unknown:
        raise DynvolError(f"unknown config key: {', '.join(unknown)}")
    if "model" in opts and opts["model"].upper() != cfg.model:
        raise DynvolError(f"config key model = {opts['model']} does not match "
                          f"the {cfg.model} preset in use")
    es = cfg.es
    if "lambda" in opts:
        es = EsConfig(_convert("lambda", float, opts["lambda"]), es.n)
    if "window" in opts:
        es = EsConfig(es.lam, _convert("window", int, opts["window"]))
    fields = {}
    if es is not cfg.es:
        fields["es"] = es
        if "window" in opts:
            fields["hist_window"] = es.n
    for key, conv in _SIMPLE_KEYS.items():
        if key in opts:
            fields[_RENAME.get(key, key)] = _convert(key, conv, opts[key])
    if "estimators" in opts:
        fields["estimators"] = tuple(s.strip()
                                     for s in opts["estimators"].split(","))
    if "semi_grid" in opts:
        fields["semi_grid"] = tuple(_convert("semi_grid", float, s)
                                    for s in opts["semi_grid"].split(","))
    params = cfg.params()
    changed = {}
    for key in sorted(k for k in opts if k.startswith("param_")):
        name = key[len("param_"):]
        if name not in vars(params):
            raise DynvolError(f"unknown config key {key} for model {cfg.model}")
        current = getattr(params, name)
        value = _convert(key, type(current), opts[key])
        if value != current:
            changed[name] = value
    if changed:
        fields["model_params"] = replace(params, **changed)
    return replace(cfg, **fields) if fields else cfg


def _collect_cli_opts(args) -> dict:
    mapping = {"lam": "lambda", "window": "window", "reps": "n_reps",
               "seed": "seed", "alpha": "alpha", "refit_every": "refit_every",
               "trim": "trim_upper", "series_len": "series_len",
               "in_sample": "in_sample_len", "estimators": "estimators"}
    out = {}
    for attr, key in mapping.items():
        v = getattr(args, attr, None)
        if v is not None:
            out[key] = str(v)
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dynvol",
                                description="volatility estimation harness")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--model", default="cir", choices=["cir", "sv", "gbm"])
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--alpha", type=float, default=None)
    sim.add_argument("--lambda", dest="lam", type=float, default=None)
    sim.add_argument("--window", type=int, default=None)
    sim.add_argument("--refit-every", dest="refit_every", type=int,
                     default=None)
    sim.add_argument("--trim", type=float, default=None,
                     help="upper trim fraction for robust means")
    sim.add_argument("--series-len", dest="series_len", type=int, default=None)
    sim.add_argument("--in-sample", dest="in_sample", type=int, default=None)
    sim.add_argument("--estimators", default=None,
                     help="comma-separated subset of the roster")
    sim.add_argument("--config", default=None, help="key=value config file")
    sim.add_argument("--full-scale", action="store_true",
                     help=f"run {FULL_SCALE_REPS} replications")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--quiet", action="store_true")

    bt = sub.add_parser("backtest", help="out-of-sample run on a CSV of levels")
    bt.add_argument("--data", required=True, help="CSV with header date,value")
    bt.add_argument("--frequency", default="weekly",
                    choices=sorted(FREQUENCY_DELTA))
    bt.add_argument("--in-sample-end", dest="in_sample_end", default=None,
                    help="row count or ISO date for the split")
    bt.add_argument("--return-mode", dest="return_mode", default="log",
                    choices=["log", "diff"])
    bt.add_argument("--forward-fill", action="store_true")
    bt.add_argument("--alpha", type=float, default=None)
    bt.add_argument("--lambda", dest="lam", type=float, default=None)
    bt.add_argument("--window", type=int, default=None)
    bt.add_argument("--refit-every", dest="refit_every", type=int,
                    default=None)
    bt.add_argument("--estimators", default=None)
    bt.add_argument("--config", default=None)
    bt.add_argument("--out", required=True)

    cf = sub.add_parser("config", help="print resolved defaults")
    cf.add_argument("--dump", action="store_true", required=True)
    cf.add_argument("--model", default="cir", choices=["cir", "sv", "gbm"])
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "config":
            sys.stdout.write(_dump_config(study_preset(args.model)))
            return 0
        if args.command == "simulate":
            cfg = study_preset(args.model)
            if args.config:
                cfg = _apply_overrides(cfg, _read_config_file(args.config))
            if args.full_scale:
                cfg = replace(cfg, n_reps=FULL_SCALE_REPS)
            cfg = _apply_overrides(cfg, _collect_cli_opts(args))
            t0 = time.time()
            result = run_simulation_study(cfg, progress=not args.quiet)
            write_study_outputs(result, args.out)
            if not args.quiet:
                print(f"{cfg.n_reps} replications in {time.time() - t0:.1f}s; "
                      f"outputs in {args.out}")
            return 0
        if args.command == "backtest":
            split = args.in_sample_end
            if split is not None and split.isdigit():
                split = int(split)
            data = ingest_csv(args.data, frequency=args.frequency,
                              in_sample_end=split,
                              return_mode=args.return_mode,
                              forward_fill=args.forward_fill)
            cfg = study_preset("cir")
            if args.config:
                cfg = _apply_overrides(cfg, _read_config_file(args.config))
            cfg = _apply_overrides(cfg, _collect_cli_opts(args))
            if cfg.model_params is not None:
                raise DynvolError("param_* keys set simulation model "
                                  "parameters, which a backtest does not use")
            result = run_backtest(data, cfg)
            write_backtest_outputs(result, args.out)
            print(f"backtest of {data.name}: outputs in {args.out}")
            return 0
    except (DynvolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
