"""Command-line entry points, config files, output files."""

import datetime as dt
import logging
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from dynvol.cli import (_BACKTEST_READS, _MODEL, _SETTINGS, _apply_overrides,
                        _build_parser, _dump_config, _read_config_file,
                        _reject_unread, _resolve, _values, main)
from dynvol import _fanout, harness
from dynvol.errors import DynvolError
from dynvol.harness import run_backtest, study_preset, write_backtest_outputs
from dynvol.ingest import ingest_csv
from dynvol.sde import RngStream, simulate_gbm

# a value for every config key but model that differs from the CIR preset
CHANGED = {"delta": "0.01", "series_len": "1500", "in_sample_len": "400",
           "n_reps": "7", "estimators": "RiskM,Integ", "lambda": "0.97",
           "window": "30", "hist_window": "40", "refit_every": "4",
           "alpha": "0.1", "seed": "3", "trim_upper": "0.2",
           "semi_grid": "0.9,0.95", "max_lag": "20", "er_window": "60",
           "param_kappa": "0.3", "param_theta": "0.1", "param_sigma": "0.05"}

SIM_ARGS = ["simulate", "--model", "cir", "--reps", "2", "--series-len", "300",
            "--in-sample", "260", "--seed", "777", "--quiet"]


def test_config_dump_is_parseable(tmp_path, capsys):
    assert main(["config", "--dump", "--model", "sv"]) == 0
    out = capsys.readouterr().out
    assert "lambda = 0.94" in out
    assert "window = 12" in out
    assert "param_kappa = 3.0" in out
    cfg_file = tmp_path / "sv.cfg"
    cfg_file.write_text(out)
    parsed = _read_config_file(cfg_file)
    base = study_preset("sv")
    rebuilt = _apply_overrides(base, parsed)
    assert rebuilt == base  # dump of the defaults is a fixed point


def test_config_file_overrides_and_comments(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("lambda = 0.97  # decay\nwindow = 26\n\nrefit_every = 4\n"
                 "estimators = RiskM,Integ\n")
    cfg = _apply_overrides(study_preset("cir"), _read_config_file(f))
    assert cfg.es.lam == 0.97
    assert cfg.es.n == 26
    assert cfg.hist_window == 26  # window override keeps both in sync
    assert cfg.state_refit_every == 4
    assert cfg.estimators == ("RiskM", "Integ")
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(Exception):
        _read_config_file(bad)


def test_changed_values_cover_every_key():
    keys = set(_values(study_preset("cir"))) - {_MODEL.key}
    assert set(CHANGED) == keys
    cfg = _apply_overrides(study_preset("cir"), CHANGED)
    preset = _values(study_preset("cir"))
    for key, value in _values(cfg).items():
        assert key == _MODEL.key or value != preset[key], key


@pytest.mark.parametrize("model", ["cir", "sv", "gbm", "changed"])
def test_config_dump_round_trips(tmp_path, model):
    # dump, read the file back, apply it to the preset: the same config
    if model == "changed":
        preset = study_preset("cir")
        cfg = _apply_overrides(preset, CHANGED)
    else:
        preset = cfg = study_preset(model)
    f = tmp_path / "c.cfg"
    f.write_text(_dump_config(cfg))
    assert _apply_overrides(preset, _read_config_file(f)) == cfg


@pytest.mark.parametrize("key", [k.key for k in _SETTINGS if k.flag])
def test_flag_and_config_key_resolve_alike(tmp_path, key):
    flag = next(k.flag for k in _SETTINGS if k.key == key)
    f = tmp_path / "c.cfg"
    f.write_text(f"{key} = {CHANGED[key]}\n")
    parse = _build_parser().parse_args
    base = ["simulate", "--out", str(tmp_path / "r")]
    by_flag = _resolve(study_preset("cir"),
                       parse(base + [flag, CHANGED[key]]))
    by_file = _resolve(study_preset("cir"), parse(base + ["--config", str(f)]))
    assert by_flag == by_file != study_preset("cir")


def test_bad_flag_value_is_one_error_line_naming_the_key(tmp_path, capsys):
    rc = main(["simulate", "--reps", "ten", "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "n_reps" in err[0]
    assert not (tmp_path / "r").exists()


def test_config_file_rejects_duplicate_keys(tmp_path):
    f = tmp_path / "dup.cfg"
    f.write_text("lambda = 0.9\nwindow = 26\n\nlambda = 0.97\n")
    with pytest.raises(DynvolError, match="lambda .*lines 1 and 4"):
        _read_config_file(f)


def test_dump_config_covers_model_params():
    text = _dump_config(study_preset("gbm"))
    assert "param_mu = 0.03" in text
    assert "param_sigma = 0.26" in text


def _with(obj, attr, value):
    """obj with the (dotted) attribute attr replaced by value."""
    head, _, rest = attr.partition(".")
    return replace(obj, **{head: _with(getattr(obj, head), rest, value)
                           if rest else value})


@pytest.mark.parametrize("model, attr", [
    *(("cir", name) for name in ("series_len", "in_sample_len", "n_reps",
                                 "hist_window", "state_refit_every", "seed",
                                 "max_lag", "er_window", "es.n")),
    ("sv", "model_params.substeps")])
def test_a_count_must_be_an_integer_and_is_kept_as_an_int(model, attr):
    # a float count fails where it is set, not in a range() later; a numpy
    # integer is kept as the int it equals, so the dump replays
    cfg = study_preset(model)
    value = attrgetter(attr)(cfg)
    name = attr.rpartition(".")[2]
    for bad in (float(value), np.float64(value), str(value)):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got "):
            _with(cfg, attr, bad)
    got = _with(cfg, attr, np.int64(value))
    assert type(attrgetter(attr)(got)) is int
    assert _dump_config(got) == _dump_config(cfg)


def test_simulate_end_to_end(tmp_path):
    out = tmp_path / "res"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    for name in ("report.csv", "report.txt", "per_rep.csv", "fig2_curve.csv"):
        assert (out / name).is_file()
    per = (out / "per_rep.csv").read_text().strip().splitlines()
    assert len(per) == 1 + 2 * 5  # 2 reps x 5 estimators


def test_sv_step_that_would_need_a_floor_is_one_error_line(tmp_path, capsys):
    # (2 kappa + alpha2) delta / substeps = (10 + 4) / 12 >= 1
    assert main(["config", "--dump", "--model", "sv"]) == 0
    cfg = tmp_path / "sv.cfg"
    cfg.write_text(capsys.readouterr().out
                   .replace("param_kappa = 3.0", "param_kappa = 5")
                   .replace("param_substeps = 30", "param_substeps = 1"))
    out = tmp_path / "res"
    assert main(["simulate", "--model", "sv", "--config", str(cfg),
                 "--reps", "1", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "substeps" in err[0]
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("key", ["delta", "param_kappa"])
def test_a_cir_step_past_theta_is_one_error_line(tmp_path, capsys, key):
    # kappa delta >= 1: the drift step overshoots theta, and the walk on the
    # overflowed path printed RuntimeWarnings before its error line
    assert main(["config", "--dump", "--model", "cir"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = 1e300",
                          capsys.readouterr().out))
    out = tmp_path / "res"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--model", "cir", "--config", str(cfg),
                     "--reps", "2", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: the CIR step needs kappa delta below 1")
    assert not out.exists()


def test_a_cir_sigma_whose_square_underflows_is_one_error_line(
        tmp_path, capsys):
    # sigma^2 underflows to 0: simulate_cir divided by it in a traceback
    assert main(["config", "--dump", "--model", "cir"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(r"(?m)^param_sigma = .*$", "param_sigma = 1e-300",
                          capsys.readouterr().out))
    out = tmp_path / "res"
    assert main(["simulate", "--model", "cir", "--config", str(cfg),
                 "--reps", "1", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sigma = 1e-300 is too small: the stationary shape "
                   "2*kappa*theta/sigma^2 must be finite"]
    assert not out.exists()


def test_a_gbm_sigma_whose_square_overflows_is_one_error_line(
        tmp_path, capsys):
    # sigma^2 overflows: simulate_gbm raised OverflowError in a traceback
    assert main(["config", "--dump", "--model", "gbm"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(r"(?m)^param_sigma = .*$", "param_sigma = 1e200",
                          capsys.readouterr().out))
    out = tmp_path / "res"
    assert main(["simulate", "--model", "gbm", "--config", str(cfg),
                 "--reps", "2", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sigma = 1e+200 is too large: sigma^2 must be "
                   "finite"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("param_mu", "1e300"), ("param_mu", "1e10"), ("delta", "1e6")])
def test_a_gbm_drift_past_the_float_range_is_one_error_line(
        tmp_path, capsys, monkeypatch, key, value):
    # |mu - sigma^2/2| delta (series_len - 1) beyond log(float max): the
    # levels overflowed, or underflowed to 0, and numpy warned before the
    # error line; the config is now rejected before anything is simulated
    monkeypatch.setattr(harness, "simulate_series",
                        lambda *args: pytest.fail("the study simulated"))
    assert main(["config", "--dump", "--model", "gbm"]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}",
                          capsys.readouterr().out))
    out = tmp_path / "res"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--model", "gbm", "--config", str(cfg),
                     "--reps", "2", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{key.removeprefix('param_')} = {float(value)!r}" in err[0]
    assert "outside the float range" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("model, key, value", [
    ("sv", "param_theta", "inf"), ("sv", "param_alpha2", "nan"),
    ("cir", "param_kappa", "inf"), ("cir", "delta", "inf"),
    ("gbm", "param_mu", "-inf")])
def test_a_non_finite_value_is_one_error_line(tmp_path, capsys, monkeypatch,
                                             model, key, value):
    # an infinite SV theta would reach the start-variance draw as a
    # ZeroDivisionError traceback, and an infinite CIR kappa or delta would
    # run until the bandwidth search; the config names the key first
    monkeypatch.setattr(harness, "simulate_series",
                        lambda *args: pytest.fail("the study simulated"))
    assert main(["config", "--dump", "--model", model]) == 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}",
                          capsys.readouterr().out))
    out = tmp_path / "res"
    assert main(["simulate", "--model", model, "--config", str(cfg),
                 "--reps", "1", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    name = key.removeprefix("param_")
    assert len(err) == 1
    assert re.match(rf"error: {name} must be (positive and )?finite, got ",
                    err[0])
    assert not out.exists()


def test_config_file_rejects_a_decay_listed_twice(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("semi_grid = 0.9,0.9\n")
    out = tmp_path / "res"
    assert main(["simulate", "--model", "cir", "--config", str(cfg),
                 "--reps", "1", "--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: semi_grid lists [0.9] more than once"]
    assert not out.exists()


def test_simulate_estimator_subset_and_trim(tmp_path):
    out = tmp_path / "res"
    rc = main(SIM_ARGS + ["--estimators", "Hist,RiskM,Integ", "--trim", "0.05",
                          "--out", str(out)])
    assert rc == 0
    report = (out / "report.csv").read_text()
    assert "SemiProxy" not in report
    assert "trimmed_mean" in report


def test_simulate_cli_flags_override_config_file(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("seed = 1\nn_reps = 5\n")
    out = tmp_path / "res"
    rc = main(SIM_ARGS + ["--config", str(f), "--out", str(out)])
    assert rc == 0
    per = (out / "per_rep.csv").read_text().strip().splitlines()
    # --reps 2 from the command line wins over n_reps in the file
    assert len(per) == 1 + 2 * 5


def test_simulate_rejects_unknown_estimator(tmp_path, capsys):
    rc = main(SIM_ARGS + ["--estimators", "Hist,Nope", "--out",
                          str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--out", str(b)]) == 0
    for name in ("report.csv", "per_rep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture(scope="module")
def levels_csv(tmp_path_factory):
    path = simulate_gbm(study_preset("gbm").model_params, 1.0 / 52.0, 340,
                        RngStream(7, 1))
    d0 = dt.date(2016, 1, 8)
    rows = ["date,value"]
    for i, v in enumerate(path.values):
        rows.append(f"{(d0 + dt.timedelta(days=7 * i)).isoformat()},{float(v)!r}")
    p = tmp_path_factory.mktemp("cli_bt") / "levels.csv"
    p.write_text("\n".join(rows) + "\n")
    return p


def test_backtest_end_to_end(tmp_path, levels_csv, capsys):
    f = tmp_path / "bt.cfg"
    f.write_text("er_window = 60\n")
    out = tmp_path / "res"
    rc = main(["backtest", "--data", str(levels_csv), "--frequency", "weekly",
               "--in-sample-end", "220", "--config", str(f),
               "--out", str(out)])
    assert rc == 0
    for name in ("report.csv", "report.txt", "per_rep.csv"):
        assert (out / name).is_file()
    assert "outputs in" in capsys.readouterr().out


def test_progress_and_summaries_are_logged_unless_quiet(tmp_path, levels_csv,
                                                        capsys, monkeypatch):
    # the summary names the failed replications and the processes that
    # walked them
    monkeypatch.setattr(_fanout, "_cpus", lambda: 2)
    loud = [a for a in SIM_ARGS if a != "--quiet"]
    out = tmp_path / "s"
    assert main(loud + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["rep 1/2 done", "rep 2/2 done"]
    assert re.fullmatch(r"2 replications, 0 failed, walked on 2 processes in "
                        rf"\d+\.\ds; outputs in {re.escape(str(out))}",
                        lines[2])
    monkeypatch.setattr(_fanout, "_cpus", lambda: 1)
    main(loud + ["--out", str(out)])
    assert "2 replications, 0 failed, walked on 1 process in" in (
        capsys.readouterr().out)
    f = tmp_path / "bt.cfg"
    f.write_text("er_window = 60\n")
    assert main(["backtest", "--data", str(levels_csv), "--in-sample-end",
                 "220", "--config", str(f), "--out", str(tmp_path / "b"),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "b" / "report.csv").is_file()
    # main leaves the library's logger as it found it
    assert not logging.getLogger("dynvol").handlers


def test_backtest_config_dump_replays_the_run(tmp_path, levels_csv):
    # the config a backtest ran with, every key it reads changed, dumped
    # and passed back as --config, writes the same bytes again
    cfg = _apply_overrides(study_preset("cir"),
                           {k: CHANGED[k] for k in _BACKTEST_READS})
    res = run_backtest(ingest_csv(levels_csv, in_sample_end=220), cfg)
    write_backtest_outputs(res, tmp_path / "lib")
    f = tmp_path / "run.cfg"
    f.write_text(_dump_config(res.cfg))
    assert main(["backtest", "--data", str(levels_csv), "--in-sample-end",
                 "220", "--config", str(f), "--out", str(tmp_path / "cli"),
                 "--quiet"]) == 0
    for name in ("report.csv", "per_rep.csv"):
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "lib" / name).read_bytes())


def test_backtest_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(["backtest", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("split", ["foo", "99999", "2016-13-01"])
def test_backtest_names_a_bad_split_flag(tmp_path, levels_csv, capsys, split):
    # the flag's text goes to ingest_csv as given; the one error line names
    # the key and the value
    rc = main(["backtest", "--data", str(levels_csv), "--in-sample-end",
               split, "--out", str(tmp_path / "res")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: in_sample_end")
    assert split in err[0]
    assert not (tmp_path / "res").exists()


def test_backtest_date_split(tmp_path, levels_csv):
    f = tmp_path / "bt.cfg"
    f.write_text("er_window = 60\n")
    out = tmp_path / "res"
    split_date = (dt.date(2016, 1, 8) + dt.timedelta(days=7 * 219)).isoformat()
    rc = main(["backtest", "--data", str(levels_csv), "--in-sample-end",
               split_date, "--config", str(f), "--out", str(out)])
    assert rc == 0


def test_backtest_rejects_short_er_window_before_running(tmp_path, levels_csv,
                                                        capsys, monkeypatch):
    import dynvol.cli as cli
    monkeypatch.setattr(cli, "run_backtest",
                        lambda *a: pytest.fail("backtest ran"))
    f = tmp_path / "bt.cfg"
    f.write_text("er_window = 10\n")
    rc = main(["backtest", "--data", str(levels_csv), "--in-sample-end", "220",
               "--config", str(f), "--out", str(tmp_path / "res")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "er_window" in err
    assert not (tmp_path / "res").exists()


def test_backtest_cli_names_infinite_row(tmp_path, capsys):
    d0 = dt.date(2010, 1, 4)
    rng = np.random.default_rng(3)
    rows = [f"{(d0 + dt.timedelta(days=i)).isoformat()},"
            f"{5.0 + 0.01 * float(v)!r}"
            for i, v in enumerate(rng.standard_normal(400).cumsum())]
    rows[250] = rows[250].split(",")[0] + ",inf"
    p = tmp_path / "levels.csv"
    p.write_text("date,value\n" + "\n".join(rows) + "\n")
    rc = main(["backtest", "--data", str(p), "--frequency", "daily",
               "--return-mode", "diff", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "non-finite values at rows: [252]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_backtest_cli_names_the_row_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "levels.csv"
    p.write_bytes(b"date,value\n2010-01-04,5.0\n2010-01-05,5.1\xe9\n")
    rc = main(["backtest", "--data", str(p), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: row 3 is not UTF-8: byte 0xe9\n"
    assert not (tmp_path / "out").exists()


def test_config_file_rejects_unknown_keys_by_name(tmp_path, capsys):
    f = tmp_path / "typo.cfg"
    f.write_text("lamda = 0.5\nparam_kappa = 99\n")
    rc = main(SIM_ARGS + ["--config", str(f), "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lamda" in err
    assert not (tmp_path / "r").exists()
    with pytest.raises(DynvolError, match="param_kapa"):
        _apply_overrides(study_preset("cir"), {"param_kapa": "0.3"})
    with pytest.raises(DynvolError, match="window"):
        _apply_overrides(study_preset("cir"), {"window": "ten"})


def test_config_model_key_must_match_the_preset(tmp_path, capsys):
    assert main(["config", "--dump", "--model", "sv"]) == 0
    f = tmp_path / "sv.cfg"
    f.write_text(capsys.readouterr().out)
    rc = main(SIM_ARGS + ["--config", str(f), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "model = SV" in capsys.readouterr().err


def test_config_param_keys_take_effect(tmp_path):
    base = study_preset("cir")
    cfg = _apply_overrides(base, {"param_kappa": "0.5", "param_sigma":
                                  repr(base.model_params.sigma)})
    assert cfg.model_params == replace(base.model_params, kappa=0.5)
    sv = _apply_overrides(study_preset("sv"), {"param_substeps": "10"})
    assert sv.model_params.substeps == 10
    f = tmp_path / "k.cfg"
    f.write_text("param_kappa = 0.5\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--config", str(f), "--out", str(b)]) == 0
    assert (a / "per_rep.csv").read_bytes() != (b / "per_rep.csv").read_bytes()


def test_backtest_rejects_changed_model_params(tmp_path, levels_csv, capsys):
    assert main(["config", "--dump", "--model", "cir"]) == 0
    dump = capsys.readouterr().out.replace("er_window = 250",
                                           "er_window = 60")
    args = ["backtest", "--data", str(levels_csv), "--in-sample-end", "220",
            "--config"]
    same = tmp_path / "same.cfg"
    same.write_text(dump)
    assert main(args + [str(same), "--out", str(tmp_path / "a")]) == 0
    changed = tmp_path / "changed.cfg"
    changed.write_text(dump.replace("param_kappa = ", "param_kappa = 1"))
    capsys.readouterr()
    assert main(args + [str(changed), "--out", str(tmp_path / "b")]) == 1
    assert "backtest does not use" in capsys.readouterr().err


@pytest.mark.parametrize("key", sorted(set(CHANGED) - _BACKTEST_READS))
def test_backtest_rejects_keys_it_would_ignore(tmp_path, levels_csv, capsys,
                                               monkeypatch, key):
    import dynvol.cli as cli
    monkeypatch.setattr(cli, "run_backtest",
                        lambda *a: pytest.fail("backtest ran"))
    f = tmp_path / "bt.cfg"
    f.write_text(f"er_window = 60\n{key} = {CHANGED[key]}\n")
    rc = main(["backtest", "--data", str(levels_csv), "--in-sample-end", "220",
               "--config", str(f), "--out", str(tmp_path / "res")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not (tmp_path / "res").exists()


def test_backtest_accepts_every_key_it_reads():
    preset = study_preset("cir")
    read = {k: v for k, v in CHANGED.items() if k in _BACKTEST_READS}
    assert read
    _reject_unread(_apply_overrides(preset, read))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

# every name dynvol exported when its imports were eager
EXPORTS = ("DegenerateCaseWarning", "DegenerateSeriesError", "DynvolError",
           "IngestionError", "InsufficientHistoryError", "NoCoverageError",
           "SingularDesignError", "TooFewPointsError", "StudyConfig",
           "run_backtest", "run_simulation_study", "study_preset",
           "write_backtest_outputs", "write_study_outputs", "ingest_csv",
           "combine_estimates", "GbmParams", "RngStream", "simulate_gbm",
           "select_bandwidth", "xi_weights", "EsConfig", "autocorr_sq",
           "es_variance", "exp_smooth", "__version__")

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _python(*args: str, **env: str) -> str:
    """Standard output of a fresh interpreter run with args, dynvol imported
    from this checkout, the BLAS thread variables unset and env set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["dynvol"].__file__)))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**base, **env},
                          check=True, capture_output=True, text=True).stdout


def test_package_import_loads_no_scipy():
    # scipy is a test dependency only; the package must not pull it in
    code = ("import sys, dynvol, dynvol.cli, dynvol.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python("-c", code).strip() == "[]"


def test_package_import_loads_no_numpy_and_sets_no_variable():
    # a library leaves its host's environment alone; each name loads its
    # module on first use
    code = ("import os, sys; before = dict(os.environ); import dynvol; "
            "assert 'numpy' not in sys.modules; "
            f"from dynvol import {', '.join(EXPORTS)}; "
            "assert dict(os.environ) == before; assert 'numpy' in sys.modules; "
            "print(sorted(set(dynvol.__all__) | {'__version__'}))")
    assert _python("-W", "error", "-c", code).strip() == str(sorted(EXPORTS))


def test_the_cli_pins_blas_unless_the_user_set_a_count():
    code = ("import os, sys, dynvol.cli; "
            f"print(*(os.environ[v] for v in {BLAS_THREAD_VARS}))")
    assert _python("-c", code).split() == ["1", "1", "1"]
    assert _python("-c", code, OMP_NUM_THREADS="2").split() == ["1", "2", "1"]


@pytest.mark.skipif(CPUS < 2, reason="one CPU: a study walks alone")
def test_a_default_cli_study_walks_on_every_cpu(tmp_path):
    # -W error: on 3.12, a fork from a process with a BLAS thread warns
    out = _python("-W", "error", "-m", "dynvol.cli", "simulate", "--model",
                  "cir", "--reps", "4", "--out", str(tmp_path / "s"))
    assert f"walked on {min(CPUS, 4)} processes in " in out


def test_a_host_that_loaded_numpy_first_walks_alone(tmp_path):
    # numpy's BLAS started its threads before the CLI could pin it
    code = ("import sys, numpy; from dynvol.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    out = _python("-W", "error", "-c", code, "simulate", "--model", "cir",
                  "--reps", "4", "--out", str(tmp_path / "s"))
    assert "walked on 1 process in " in out
