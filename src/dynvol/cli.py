"""Command-line harness: simulation studies, real-data backtests, defaults.

    dynvol simulate --model cir --reps 100 --out results/
    dynvol backtest --data rates.csv --out results/
    dynvol config --dump [--model sv]

Config files are flat key=value lines (as printed by `config --dump`);
command-line flags override file values. Progress and summaries go to
standard output through the "dynvol" logger, at INFO level unless --quiet;
an error is one `error:` line on standard error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from collections import namedtuple
from dataclasses import replace
from operator import attrgetter

from .errors import DynvolError

# One BLAS thread, unless the user set another count, before numpy loads: a
# study forks its walks only from a process with one thread, and BLAS
# threads gain nothing on this package's small matrices. A host that loaded
# numpy first keeps its threads, and its studies walk on one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .harness import (_PRESETS, StudyConfig, run_backtest,  # noqa: E402
                      run_simulation_study, study_preset,
                      write_backtest_outputs, write_study_outputs)
from .ingest import FREQUENCY_DELTA, RETURN_MODES, ingest_csv  # noqa: E402

FULL_SCALE_REPS = 600

log = logging.getLogger("dynvol")


# A config key, the StudyConfig attribute it sets ("es.lam" is cfg.es.lam),
# its command-line flag or None, and whether a backtest reads it
_Key = namedtuple("_Key", "key attr flag backtest")
_MODEL = _Key("model", "model", None, False)
_WINDOW = _Key("window", "es.n", "--window", True)
_HIST_WINDOW = _Key("hist_window", "hist_window", None, True)
# in the order `config --dump` prints them
_SETTINGS = (
    _MODEL,
    _Key("delta", "delta", None, False),
    _Key("series_len", "series_len", "--series-len", False),
    _Key("in_sample_len", "in_sample_len", "--in-sample", False),
    _Key("n_reps", "n_reps", "--reps", False),
    _Key("estimators", "estimators", "--estimators", True),
    _Key("lambda", "es.lam", "--lambda", True),
    _WINDOW,
    _HIST_WINDOW,
    _Key("refit_every", "state_refit_every", "--refit-every", True),
    _Key("alpha", "alpha", "--alpha", True),
    _Key("seed", "seed", "--seed", False),
    _Key("trim_upper", "trim_upper", "--trim", False),
    _Key("semi_grid", "semi_grid", None, True),
    _Key("max_lag", "max_lag", None, True),
    _Key("er_window", "er_window", None, True),
)
_ATTRS = {k.key: k.attr for k in _SETTINGS}
_BACKTEST_READS = frozenset(k.key for k in _SETTINGS if k.backtest)
_PARAM = "param_"


def _values(cfg: StudyConfig) -> dict:
    """Every config key's value in cfg; `param_<name>` keys hold the
    model's parameters."""
    out = {k.key: attrgetter(k.attr)(cfg) for k in _SETTINGS}
    out.update((_PARAM + name, v) for name, v in vars(cfg.model_params).items())
    return out


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_format, value))
    return value if isinstance(value, str) else repr(value)


def _parse(key: str, text: str, current):
    """text as the type of the key's current value; a tuple's items are
    comma-separated and take the type of its first item."""
    try:
        if isinstance(current, tuple):
            return tuple(type(current[0])(s.strip()) for s in text.split(","))
        return type(current)(text)
    except ValueError:
        raise DynvolError(f"bad value for config key {key}: {text!r}") from None


def _dump_config(cfg: StudyConfig) -> str:
    return "".join(f"{key} = {_format(v)}\n"
                   for key, v in _values(cfg).items())


def _read_config_file(path: str) -> dict:
    out, lines = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DynvolError(f"bad config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in lines:
                raise DynvolError(f"config key {key} is set twice, on lines "
                                  f"{lines[key]} and {lineno} of {path}")
            out[key], lines[key] = value, lineno
    return out


def _apply_overrides(cfg: StudyConfig, opts: dict) -> StudyConfig:
    """Apply key=value settings; an unknown key is an error, never ignored.
    The model key must name the preset in use; the window key also sets
    hist_window unless that is given too."""
    model = opts.get(_MODEL.key, cfg.model)
    if model.upper() != cfg.model:
        raise DynvolError(f"config key {_MODEL.key} = {model} does not match "
                          f"the {cfg.model} preset in use")
    current = _values(cfg)
    unknown = sorted(k for k in opts if k not in current)
    if unknown:
        raise DynvolError(f"unknown config key for the {cfg.model} preset: "
                          f"{', '.join(unknown)}")
    vals = {k: _parse(k, text, current[k]) for k, text in opts.items()
            if k != _MODEL.key}
    if _WINDOW.key in vals:
        vals.setdefault(_HIST_WINDOW.key, vals[_WINDOW.key])
    fields = {"model_params": replace(
        cfg.model_params, **{k[len(_PARAM):]: vals.pop(k) for k in list(vals)
                             if k.startswith(_PARAM)})}
    for key, value in vals.items():
        owner, _, name = _ATTRS[key].partition(".")
        if name:
            value = replace(fields.get(owner, getattr(cfg, owner)),
                            **{name: value})
        fields[owner] = value
    return replace(cfg, **fields)


def _resolve(preset: StudyConfig, args) -> StudyConfig:
    """The preset, then the --config file, then --full-scale, then flags."""
    cfg = preset
    if args.config:
        cfg = _apply_overrides(cfg, _read_config_file(args.config))
    if getattr(args, "full_scale", False):
        cfg = replace(cfg, n_reps=FULL_SCALE_REPS)
    given = vars(args)
    return _apply_overrides(cfg, {k.key: given[k.key] for k in _SETTINGS
                                  if k.flag and given.get(k.key) is not None})


def _reject_unread(cfg: StudyConfig) -> None:
    """A backtest reads only some keys; every other key must keep its
    preset value, or the setting would be silently ignored."""
    base = _values(study_preset(cfg.model))
    for key, value in _values(cfg).items():
        if key not in _BACKTEST_READS and value != base[key]:
            raise DynvolError(f"a backtest does not use config key {key}; "
                              f"leave it at {_format(base[key])}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dynvol",
                                description="volatility estimation harness")
    sub = p.add_subparsers(dest="command", required=True)
    models = [m.lower() for m in _PRESETS]

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--model", default="cir", choices=models)
    sim.add_argument("--full-scale", action="store_true",
                     help=f"run {FULL_SCALE_REPS} replications")

    bt = sub.add_parser("backtest", help="out-of-sample run on a CSV of levels")
    bt.add_argument("--data", required=True, help="CSV with header date,value")
    bt.add_argument("--frequency", default="weekly",
                    choices=sorted(FREQUENCY_DELTA))
    bt.add_argument("--in-sample-end", dest="in_sample_end", default=None,
                    help="row count or ISO date for the split")
    bt.add_argument("--return-mode", dest="return_mode", default="log",
                    choices=RETURN_MODES)
    bt.add_argument("--forward-fill", action="store_true")

    for run in (sim, bt):
        for k in _SETTINGS:
            if k.flag and (run is sim or k.backtest):
                run.add_argument(k.flag, dest=k.key, help=f"config key {k.key}")
        run.add_argument("--config", default=None, help="key=value config file")
        run.add_argument("--out", required=True, help="output directory")
        run.add_argument("--quiet", action="store_true")

    cf = sub.add_parser("config", help="print resolved defaults")
    cf.add_argument("--dump", action="store_true", required=True)
    cf.add_argument("--model", default="cir", choices=models)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # progress and summaries are INFO records of the "dynvol" logger
    handler = logging.StreamHandler(sys.stdout)
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING if getattr(args, "quiet", False)
                 else logging.INFO)
    try:
        if args.command == "config":
            sys.stdout.write(_dump_config(study_preset(args.model)))
            return 0
        if args.command == "simulate":
            cfg = _resolve(study_preset(args.model), args)
            t0 = time.perf_counter()
            result = run_simulation_study(cfg)
            write_study_outputs(result, args.out)
            n = result.processes
            log.info("%d replications, %d failed, walked on %d process%s in "
                     "%.1fs; outputs in %s", cfg.n_reps,
                     len(result.failed_reps), n, "" if n == 1 else "es",
                     time.perf_counter() - t0, args.out)
            return 0
        if args.command == "backtest":
            cfg = _resolve(study_preset("cir"), args)
            _reject_unread(cfg)
            data = ingest_csv(args.data, frequency=args.frequency,
                              in_sample_end=args.in_sample_end,
                              return_mode=args.return_mode,
                              forward_fill=args.forward_fill)
            result = run_backtest(data, cfg)
            write_backtest_outputs(result, args.out)
            log.info("backtest of %s: outputs in %s", data.name, args.out)
            return 0
    except (DynvolError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
