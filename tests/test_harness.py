"""Rolling forecaster, simulation studies, ingestion, backtests."""

import math
import os

import numpy as np
import pytest

from dynvol.errors import (DynvolError, IngestionError,
                           InsufficientHistoryError)
from dynvol.harness import (DEFAULT_SEMI_GRID, ESTIMATORS, BacktestDataset,
                            StudyConfig, _new_counters, _rolling,
                            _SemiSelector, cir_study, gbm_study, ingest_csv,
                            rolling_forecast, run_backtest,
                            run_simulation_study, semi_proxy, simulate_series,
                            study_preset, sv_study, write_backtest_outputs,
                            write_study_outputs)
from dynvol.sde import RngStream, simulate_gbm
from dynvol.time_domain import EsConfig, exp_smooth, moving_average

SMALL = cir_study(series_len=300, in_sample_len=260, n_reps=3, seed=777)


@pytest.fixture(scope="module")
def small_result():
    return run_simulation_study(SMALL)


def test_presets_shapes():
    c = cir_study()
    assert (c.series_len, c.in_sample_len, c.es.n) == (1200, 900, 52)
    s = sv_study()
    assert (s.series_len, s.in_sample_len, s.es.n) == (1000, 750, 12)
    assert s.delta == pytest.approx(1.0 / 12.0)
    assert s.state_refit_every == 2
    g = gbm_study()
    assert (g.series_len, g.in_sample_len) == (1000, 667)
    assert study_preset("sv", n_reps=5).n_reps == 5
    with pytest.raises(ValueError):
        study_preset("heston")


def test_config_validation():
    with pytest.raises(ValueError):
        cir_study(in_sample_len=1200)
    with pytest.raises(ValueError):
        cir_study(estimators=("Hist", "Bogus"))
    with pytest.raises(ValueError):
        cir_study(trim_upper=1.0)


def test_simulate_series_truth_definitions():
    cfg = cir_study(series_len=200, in_sample_len=150)
    sim = simulate_series(cfg, 0)
    p = cfg.params()
    assert np.allclose(sim.true_var, p.sigma**2 * sim.levels[:-1], rtol=1e-14)
    assert np.allclose(np.diff(sim.levels) / math.sqrt(cfg.delta),
                       sim.returns.y, atol=1e-12)

    gcfg = gbm_study(series_len=200, in_sample_len=150)
    gsim = simulate_series(gcfg, 0)
    gp = gcfg.params()
    assert np.allclose(gsim.true_var, gp.sigma**2 * gsim.levels[:-1] ** 2,
                       rtol=1e-14)

    scfg = sv_study(series_len=200, in_sample_len=150)
    ssim = simulate_series(scfg, 0)
    # state variable for this model is the accumulated series, starting at 0
    assert ssim.levels[0] == 0.0
    assert np.allclose(np.diff(ssim.levels) / math.sqrt(scfg.delta),
                       ssim.returns.y, atol=1e-12)
    assert np.all(ssim.true_var > 0)
    assert ssim.true_var.size == len(ssim.returns)


def test_simulate_series_stream_determinism():
    cfg = cir_study(series_len=120, in_sample_len=100)
    a = simulate_series(cfg, 2)
    b = simulate_series(cfg, 2)
    c = simulate_series(cfg, 3)
    assert np.array_equal(a.levels, b.levels)
    assert not np.array_equal(a.levels, c.levels)


def test_semi_selector_matches_reference_loop():
    rng = np.random.default_rng(55)
    y = rng.standard_normal(400) * 0.02
    n = 52
    sel = _SemiSelector(y, n, DEFAULT_SEMI_GRID, n)
    counters = _new_counters()
    for t in range(2 * n, 2 * n + 60):
        # vectorized and looped routes differ only by summation order
        assert sel.value(t, counters) == pytest.approx(
            semi_proxy(y, t, n), rel=1e-11)
    assert counters["semi_fallback"] == 0


def test_semi_proxy_needs_two_windows():
    with pytest.raises(InsufficientHistoryError):
        semi_proxy(np.ones(200), 103, 52)


def test_tracks_do_not_depend_on_roster():
    # each estimator's forecasts are identical whether it runs alone or
    # alongside the others
    sim = simulate_series(SMALL, 0)
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    tracks, _ = _rolling(sim.levels, sim.returns.y, SMALL, first, m)
    for e in ESTIMATORS:
        solo = rolling_forecast(sim, SMALL, e)
        assert np.array_equal(tracks[e], solo.sigma2, equal_nan=True)


def test_rolling_matches_direct_estimator_calls():
    sim = simulate_series(SMALL, 1)
    y = sim.returns.y
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    tracks, counters = _rolling(sim.levels, y, SMALL, first, m)
    for step in range(m):
        i = first + step
        assert tracks["Hist"][step] == moving_average(y, i, SMALL.hist_window)
        assert tracks["RiskM"][step] == exp_smooth(y, i, SMALL.es)
        assert tracks["SemiProxy"][step] == pytest.approx(
            semi_proxy(y, i, SMALL.es.n, SMALL.semi_grid), rel=1e-11)
    assert counters["nan_steps"] == 0
    # blends stay inside the convex hull of their ingredients is not
    # guaranteed stepwise for Integ (weights vary), but values are finite
    assert np.all(np.isfinite(tracks["NonBay"]))
    assert np.all(np.isfinite(tracks["Integ"]))


def test_no_lookahead_in_forecasts():
    # corrupting the series strictly after level index k must not change
    # forecasts at origins <= k
    sim = simulate_series(SMALL, 2)
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    k = first + 15
    tracks, _ = _rolling(sim.levels, sim.returns.y, SMALL, first, m)

    levels2 = sim.levels.copy()
    levels2[k + 1:] *= 1.5
    y2 = np.diff(levels2) / math.sqrt(SMALL.delta)
    tracks2, _ = _rolling(levels2, y2, SMALL, first, m)

    cut = k - first + 1
    for e in ESTIMATORS:
        assert np.array_equal(tracks[e][:cut], tracks2[e][:cut])
    # sanity: the corruption did reach the later forecasts
    assert not np.array_equal(tracks["RiskM"][cut:], tracks2["RiskM"][cut:])


def test_out_of_range_state_falls_back_to_smoother():
    # out-sample levels far outside the fitted state range: the blends must
    # degrade to the pure smoother and flag every step
    rng = np.random.default_rng(10)
    n_steps = 30
    levels = np.empty(300)
    levels[:262] = np.cumsum(rng.standard_normal(262) * 0.01)
    levels[262:] = 100.0 + np.cumsum(rng.standard_normal(38) * 0.01)
    y = np.diff(levels) / math.sqrt(1.0 / 52.0)
    cfg = StudyConfig(model="External", series_len=300, in_sample_len=262,
                      estimators=("RiskM", "NonBay", "Integ"))
    tracks, counters = _rolling(levels, y, cfg, 261, n_steps)
    assert counters["nonbay_es_only"] == n_steps
    assert counters["integ_time_only"] == n_steps
    assert np.array_equal(tracks["NonBay"], tracks["RiskM"])
    assert np.array_equal(tracks["Integ"], tracks["RiskM"])


def test_insufficient_history_is_rejected_up_front():
    cfg = cir_study(series_len=120, in_sample_len=100)  # 99 < 2n for SemiProxy
    sim = simulate_series(cfg, 0)
    with pytest.raises(InsufficientHistoryError):
        rolling_forecast(sim, cfg, "SemiProxy")
    with pytest.raises(DynvolError):
        run_simulation_study(cfg)


def test_study_end_to_end_small(small_result):
    res = small_result
    m = SMALL.series_len - SMALL.in_sample_len
    assert res.report.n_reps == 3
    assert res.failed_reps == ()
    for k in ("imade", "made", "pe", "rade", "er"):
        assert res.per_rep[k].shape == (3, 5)
        assert np.all(np.isfinite(res.per_rep[k]))
    assert np.all((res.per_rep["er"] >= 0) & (res.per_rep["er"] <= 1))
    assert res.curve.shape == (m, 5)
    assert np.all(np.isfinite(res.curve))
    assert res.diagnostics["excluded_per_rep"] == (0, 0, 0)
    # report means equal column means of the replication matrix
    j = SMALL.estimators.index("Hist")
    assert res.report.get("Hist", "imade", "mean") == pytest.approx(
        float(res.per_rep["imade"][:, j].mean()), rel=1e-15)


def test_study_measures_recompute_from_tracks(small_result):
    # with no excluded steps the per-rep imade is a plain mean over the track
    from dynvol.evaluation import imade
    rep, est = 1, "Integ"
    j = SMALL.estimators.index(est)
    sim = simulate_series(SMALL, rep)
    track = rolling_forecast(sim, SMALL, est)
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    truth = sim.true_var[first:first + m]
    got = small_result.per_rep["imade"][rep, j]
    assert got == pytest.approx(imade(truth, track), rel=1e-15)
    # curve for a single rep and step is |forecast - truth| averaged over reps
    other = [np.abs(rolling_forecast(simulate_series(SMALL, r), SMALL,
                                     est).sigma2 - simulate_series(
                                         SMALL, r).true_var[first:first + m])
             for r in range(3)]
    assert np.allclose(small_result.curve[:, j],
                       np.mean(other, axis=0), rtol=1e-13)


def test_study_is_deterministic(small_result):
    again = run_simulation_study(SMALL)
    for k in small_result.per_rep:
        assert np.array_equal(small_result.per_rep[k], again.per_rep[k])
    assert np.array_equal(small_result.curve, again.curve, equal_nan=True)


def test_nan_step_exclusion_is_shared(monkeypatch):
    # force one estimator to fail at a single origin; that step must drop
    # out of every estimator's measures
    import dynvol.harness as hz
    cfg = cir_study(series_len=300, in_sample_len=260, n_reps=1, seed=777,
                    estimators=("Hist", "RiskM"))
    first = cfg.in_sample_len - 1
    bad_origin = first + 7
    real = moving_average

    def patched(y, t, n):
        if t == bad_origin:
            return float("nan")
        return real(y, t, n)

    monkeypatch.setattr(hz, "moving_average", patched)
    res = run_simulation_study(cfg)
    assert res.report.excluded_steps == 1
    assert res.diagnostics["excluded_per_rep"] == (1,)
    monkeypatch.undo()

    sim = simulate_series(cfg, 0)
    track = rolling_forecast(sim, cfg, "RiskM")
    m = cfg.series_len - cfg.in_sample_len
    mask = np.ones(m, dtype=bool)
    mask[7] = False
    truth = sim.true_var[first:first + m]
    expect = float(np.mean(np.abs(track.sigma2[mask] - truth[mask])))
    j = cfg.estimators.index("RiskM")
    assert res.per_rep["imade"][0, j] == pytest.approx(expect, rel=1e-14)


def test_write_study_outputs(tmp_path, small_result):
    write_study_outputs(small_result, tmp_path)
    for name in ("report.csv", "report.txt", "per_rep.csv", "fig2_curve.csv"):
        assert (tmp_path / name).is_file()
    per = (tmp_path / "per_rep.csv").read_text().strip().splitlines()
    assert per[0] == "rep,estimator,imade,made,pe,rade,er,excluded_steps"
    assert len(per) == 1 + 3 * 5
    curve = (tmp_path / "fig2_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "step," + ",".join(SMALL.estimators)
    assert len(curve) == 1 + (SMALL.series_len - SMALL.in_sample_len)
    # full-precision floats round trip
    v = float(per[1].split(",")[2])
    assert v == small_result.per_rep["imade"][0, 0]


def test_output_bytes_are_deterministic(tmp_path):
    cfg = cir_study(series_len=280, in_sample_len=258, n_reps=2, seed=31)
    a, b = tmp_path / "a", tmp_path / "b"
    write_study_outputs(run_simulation_study(cfg), a)
    write_study_outputs(run_simulation_study(cfg), b)
    for name in ("report.csv", "per_rep.csv", "fig2_curve.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# ingestion

def _write_csv(tmp_path, rows, name="series.csv"):
    p = tmp_path / name
    p.write_text("date,value\n" + "\n".join(rows) + "\n")
    return p


def test_ingest_happy_path(tmp_path):
    p = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,1.1",
                              "2020-01-17,1.2", "2020-01-24,1.15",
                              "2020-01-31,1.3"])
    d = ingest_csv(p, frequency="weekly")
    assert d.name == "series"
    assert d.values.tolist() == [1.0, 1.1, 1.2, 1.15, 1.3]
    assert d.in_sample_end == 3  # default split at two thirds
    assert d.delta == pytest.approx(1.0 / 52.0)
    assert d.dates[0] == "2020-01-03"
    assert d.filled_rows == ()


def test_ingest_rejects_bad_rows_with_numbers(tmp_path):
    p = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,oops",
                              "2020-01-17,1.2", "2020-01-24,1.3"])
    with pytest.raises(IngestionError, match=r"\[3\]"):
        ingest_csv(p)


def test_ingest_rejects_unordered_dates(tmp_path):
    p = _write_csv(tmp_path, ["2020-01-10,1.0", "2020-01-03,1.1",
                              "2020-01-17,1.2"])
    with pytest.raises(IngestionError, match="increasing"):
        ingest_csv(p)


@pytest.mark.parametrize("forward_fill", [False, True])
def test_ingest_rejects_infinite_values_with_rows(tmp_path, forward_fill):
    p = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,inf",
                              "2020-01-17,1.2", "2020-01-24,-Infinity",
                              "2020-01-31,1.3"])
    with pytest.raises(IngestionError, match=r"non-finite.*\[3, 5\]"):
        ingest_csv(p, forward_fill=forward_fill)


def test_ingest_forward_fill(tmp_path):
    p = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,", "2020-01-17,1.2",
                              "2020-01-24,1.25"])
    d = ingest_csv(p, forward_fill=True)
    assert d.values.tolist() == [1.0, 1.0, 1.2, 1.25]
    assert d.filled_rows == (3,)
    # a leading gap has nothing to fill from
    p2 = _write_csv(tmp_path, ["2020-01-03,", "2020-01-10,1.0",
                               "2020-01-17,1.1"], name="lead.csv")
    with pytest.raises(IngestionError):
        ingest_csv(p2, forward_fill=True)


def test_ingest_date_split_and_header_check(tmp_path):
    p = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,1.1",
                              "2020-01-17,1.2", "2020-01-24,1.3"])
    d = ingest_csv(p, in_sample_end="2020-01-10")
    assert d.in_sample_end == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("time,price\n2020-01-03,1.0\n")
    with pytest.raises(IngestionError, match="header"):
        ingest_csv(bad)
    short = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,1.1"],
                       name="short.csv")
    with pytest.raises(IngestionError, match="at least 3"):
        ingest_csv(short)


def test_ingest_delta_resolution(tmp_path):
    p = _write_csv(tmp_path, ["2020-01-31,1.0", "2020-02-28,1.1",
                              "2020-03-31,1.2", "2020-04-30,1.3"])
    assert ingest_csv(p, frequency="monthly").delta == pytest.approx(1.0 / 12.0)
    assert ingest_csv(p, frequency="biweekly", delta=1.0 / 26.0).delta == \
        pytest.approx(1.0 / 26.0)
    with pytest.raises(IngestionError, match="frequency"):
        ingest_csv(p, frequency="biweekly")


def test_dataset_validation():
    with pytest.raises(ValueError):
        BacktestDataset("x", np.arange(4.0) + 1.0, None, 1 / 52, 4)
    with pytest.raises(ValueError):
        BacktestDataset("x", np.arange(4.0) + 1.0, None, 1 / 52, 2,
                        return_mode="pct")


# ---------------------------------------------------------------------------
# backtest

@pytest.fixture(scope="module")
def gbm_csv(tmp_path_factory):
    import datetime as dt
    path = simulate_gbm(gbm_study().params(), 1.0 / 52.0, 360, RngStream(99, 0))
    d0 = dt.date(2015, 1, 2)
    rows = ["date,value"]
    for i, v in enumerate(path.values):
        rows.append(f"{(d0 + dt.timedelta(days=7 * i)).isoformat()},{float(v)!r}")
    p = tmp_path_factory.mktemp("bt") / "gbm.csv"
    p.write_text("\n".join(rows) + "\n")
    return p


def test_backtest_smoke(gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=220)
    cfg = gbm_study(er_window=60)
    res = run_backtest(data, cfg)
    assert res.report.n_reps == 1
    for e in ESTIMATORS:
        assert "imade" not in res.report.stats[e]
        for k in ("made", "pe", "rade", "er"):
            assert np.isfinite(res.per_est[e][k])
        assert res.quantiles[e] < 0.0  # lower-tail quantile
        assert 0.0 <= res.per_est[e]["er"] <= 1.0
    assert res.report.excluded_steps == 0
    # no randomness anywhere: a second run is identical
    res2 = run_backtest(data, cfg)
    assert res2.per_est == res.per_est


def test_backtest_outputs_and_lengths(tmp_path, gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=220)
    cfg = gbm_study(er_window=60, estimators=("RiskM", "Integ"))
    res = run_backtest(data, cfg)
    write_backtest_outputs(res, tmp_path)
    per = (tmp_path / "per_rep.csv").read_text().strip().splitlines()
    assert len(per) == 1 + 2
    # imade column is empty in real-data mode
    assert per[1].split(",")[2] == ""
    assert (tmp_path / "report.txt").read_text().strip() != ""


def test_backtest_needs_warmup_history(gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=120)
    cfg = gbm_study(er_window=250)  # 250 warmup steps will not fit
    with pytest.raises(InsufficientHistoryError):
        run_backtest(data, cfg)
