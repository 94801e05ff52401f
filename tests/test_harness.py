"""Rolling forecaster, simulation studies, ingestion, backtests."""

import csv
import math
import os
from contextlib import nullcontext
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dynvol.errors import (DegenerateSeriesError, DynvolError, IngestionError,
                           InsufficientHistoryError)
from dynvol import harness
from dynvol.harness import (DEFAULT_SEMI_GRID, ESTIMATORS, MIN_STATE_PAIRS,
                            SEMI_FALLBACK_LAM, BacktestDataset, StudyConfig,
                            _eval_state, build_state_pairs,
                            _fit_state, _new_counters, _rolling,
                            _SemiSelector, _StateFit,
                            ingest_csv, rolling_forecast, run_backtest,
                            run_simulation_study, simulate_series,
                            study_preset, write_backtest_outputs,
                            write_study_outputs)
from dynvol.integration import MATCHED_SHAPE, bayes_es, combine_estimates
from dynvol.sde import RngStream, simulate_gbm
from dynvol.state_domain import (DriftFit, StatePairs, _epanechnikov,
                                 _intercepts_at_data)
from dynvol.time_domain import (EsConfig, es_variance, exp_smooth,
                                moving_average)
from oracles import ORACLE_TOL, acf_direct

SMALL = study_preset("cir", series_len=300, in_sample_len=260, n_reps=3,
                     seed=777)


def semi_proxy(y, t: int, n: int,
               lambda_grid: tuple[float, ...] = DEFAULT_SEMI_GRID,
               counters: dict | None = None) -> float:
    """Reference loop for _SemiSelector with window n: score each candidate
    decay by the squared error of its one-step forecasts of y[s]^2 over the
    last n origins, and smooth with the best one; with no finite loss, or
    all of several candidates tied, smooth with SEMI_FALLBACK_LAM and count
    it in counters["semi_fallback"] when counters is given."""
    if t - 2 * n < 0:
        raise InsufficientHistoryError(
            f"need {2 * n} observations before origin {t}")
    losses = []
    for lam in lambda_grid:
        cfg = EsConfig(lam, n)
        loss = 0.0
        for s in range(t - n, t):
            err = y[s] ** 2 - exp_smooth(y, s, cfg)
            loss += err * err
        losses.append(loss)
    losses = np.asarray(losses)
    finite = np.isfinite(losses)
    if (not finite.any()) or (losses[finite].max() == losses[finite].min()
                              and len(lambda_grid) > 1):
        lam = SEMI_FALLBACK_LAM
        if counters is not None:
            counters["semi_fallback"] += 1
    else:
        lam = lambda_grid[int(np.argmin(np.where(finite, losses, np.inf)))]
    return exp_smooth(y, t, EsConfig(lam, n))


@pytest.fixture(scope="module")
def small_result():
    return run_simulation_study(SMALL)


def test_presets_shapes():
    c = study_preset("cir")
    assert (c.series_len, c.in_sample_len, c.es.n) == (1200, 900, 52)
    s = study_preset("sv")
    assert (s.series_len, s.in_sample_len, s.es.n) == (1000, 750, 12)
    assert s.delta == pytest.approx(1.0 / 12.0)
    assert s.state_refit_every == 2
    g = study_preset("gbm")
    assert (g.series_len, g.in_sample_len) == (1000, 667)
    assert study_preset("sv", n_reps=5).n_reps == 5
    with pytest.raises(ValueError):
        study_preset("heston")


def test_config_validation():
    with pytest.raises(ValueError):
        study_preset("cir", in_sample_len=1200)
    with pytest.raises(ValueError):
        study_preset("cir", estimators=("Hist", "Bogus"))
    with pytest.raises(ValueError):
        study_preset("cir", trim_upper=1.0)


@pytest.mark.parametrize("field, value", [
    ("estimators", ()),
    ("estimators", ("RiskM", "RiskM")),
    ("semi_grid", ()),
    ("semi_grid", (1.5,)),
    ("max_lag", 0),
    ("hist_window", 0),
    ("delta", 0.0),
    ("delta", -1.0 / 52.0),
    ("er_window", 49),
])
def test_config_rejects_values_that_would_fail_late(field, value):
    # a run would fail inside its first replication, ignore the setting, or
    # write every report row twice; the config names the field up front
    with pytest.raises(ValueError, match=field):
        study_preset("cir", **{field: value})

def test_simulate_series_truth_definitions():
    cfg = study_preset("cir", series_len=200, in_sample_len=150)
    sim = simulate_series(cfg, 0)
    p = cfg.params()
    assert np.allclose(sim.true_var, p.sigma**2 * sim.levels[:-1], rtol=1e-14)
    assert np.allclose(np.diff(sim.levels) / math.sqrt(cfg.delta),
                       sim.returns.y, atol=1e-12)

    gcfg = study_preset("gbm", series_len=200, in_sample_len=150)
    gsim = simulate_series(gcfg, 0)
    gp = gcfg.params()
    assert np.allclose(gsim.true_var, gp.sigma**2 * gsim.levels[:-1] ** 2,
                       rtol=1e-14)

    scfg = study_preset("sv", series_len=200, in_sample_len=150)
    ssim = simulate_series(scfg, 0)
    # state variable for this model is the accumulated series, starting at 0
    assert ssim.levels[0] == 0.0
    assert np.allclose(np.diff(ssim.levels) / math.sqrt(scfg.delta),
                       ssim.returns.y, atol=1e-12)
    assert np.all(ssim.true_var > 0)
    assert ssim.true_var.size == len(ssim.returns)


def test_simulate_series_stream_determinism():
    cfg = study_preset("cir", series_len=120, in_sample_len=100)
    a = simulate_series(cfg, 2)
    b = simulate_series(cfg, 2)
    c = simulate_series(cfg, 3)
    assert np.array_equal(a.levels, b.levels)
    assert not np.array_equal(a.levels, c.levels)


def test_semi_selector_matches_reference_loop():
    rng = np.random.default_rng(55)
    y = rng.standard_normal(400) * 0.02
    n = 52
    sel = _SemiSelector(y, n, DEFAULT_SEMI_GRID)
    counters = _new_counters()
    for t in range(2 * n, 2 * n + 60):
        # vectorized and looped routes differ only by summation order
        assert sel.value(t, counters) == pytest.approx(
            semi_proxy(y, t, n), rel=1e-11)
    assert counters["semi_fallback"] == 0


def test_semi_proxy_needs_two_windows():
    sel = _SemiSelector(np.ones(200), 52, DEFAULT_SEMI_GRID)
    with pytest.raises(InsufficientHistoryError):
        sel.value(103, _new_counters())
    assert sel.value(104, _new_counters()) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("grid", [DEFAULT_SEMI_GRID, (0.90, 0.96)],
                         ids=["fallback-in-grid", "fallback-off-grid"])
def test_semi_selector_falls_back_on_tied_losses(grid):
    # squared returns vanish over every scored forecast window and all but
    # the last target, so each candidate decay has the same loss exactly
    n, t = 12, 40
    y = np.random.default_rng(8).standard_normal(60)
    y[t - 2 * n:t - 1] = 0.0
    sel = _SemiSelector(y, n, grid)
    counters = _new_counters()
    got = sel.value(t, counters)
    assert counters["semi_fallback"] == 1
    assert got > 0.0
    assert got == pytest.approx(
        exp_smooth(y, t, EsConfig(SEMI_FALLBACK_LAM, n)), rel=1e-15)
    assert got == pytest.approx(semi_proxy(y, t, n, grid), rel=1e-15)
    # an untied window leaves the counter alone
    sel.value(t + 1, counters)
    assert counters["semi_fallback"] == 1


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
    # every estimator and counter of the loop, step by step, against direct
    # calls: Integ from the autocorrelation by its definition (acf_direct)
    sim = simulate_series(SMALL, 1)
    levels, y = sim.levels, sim.returns.y
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    tracks, counters = _rolling(levels, y, SMALL, first, m)
    direct = _new_counters()
    # the shift of the loop's autocorrelation table
    shift = float((y[:first] ** 2).mean())
    eps = np.finfo(float).eps
    fit = None
    for step in range(m):
        i = first + step
        assert tracks["Hist"][step] == moving_average(y, i, SMALL.hist_window)
        es_val = exp_smooth(y, i, SMALL.es)
        assert tracks["RiskM"][step] == es_val
        assert tracks["SemiProxy"][step] == pytest.approx(
            semi_proxy(y, i, SMALL.es.n, SMALL.semi_grid, direct), rel=1e-11)
        if step % SMALL.state_refit_every == 0:
            fit = _fit_state(levels, y, i, SMALL, fit, direct)
        sve = None if fit is None else _eval_state(fit, levels[i], direct)
        if sve is None:
            direct["nonbay_es_only"] += 1
            assert tracks["NonBay"][step] == es_val
        else:
            assert tracks["NonBay"][step] == bayes_es(
                es_val, sve.sigma2_hat, SMALL.es.lam, SMALL.es.n,
                MATCHED_SHAPE)
        try:
            rho, tol = acf_direct(y, i, SMALL.max_lag, shift)
        except DegenerateSeriesError:
            direct["nan_steps"] += 1
            assert np.isnan(tracks["Integ"][step])
            continue
        tve = es_variance(es_val, SMALL.es, rho)
        direct["c_clamped"] += tve.clamped
        if sve is None:
            direct["integ_time_only"] += 1
            assert tracks["Integ"][step] == es_val
            continue
        blend = combine_estimates(tve, sve)
        # the coefficients of rho in c_t are nonnegative and sum to at most
        # 1, so rho within tol moves c_t by at most tol, and the weight by at
        # most w (1 - w) times c_t's relative move
        w = blend.w_time
        move = 2.0 * tol / tve.c_t + 8.0 * eps
        bound = (abs(es_val - sve.sigma2_hat) * w * (1.0 - w) * move
                 + 4.0 * eps * blend.sigma2_hat)
        assert abs(tracks["Integ"][step] - blend.sigma2_hat) <= bound
    assert counters == direct
    assert counters["nonbay_es_only"] < m


# A grown drift fit and a fit from scratch on the same pairs are each
# within the engine's bound of the exact fit, so within twice it of each
# other.
GROWN_TOL = 2.0 * ORACLE_TOL


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(st.integers(-2, 2), min_size=30, max_size=140),
       spacing=st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
       offset=st.sampled_from([0.0, -7.5, 1e4]),
       jump=st.sampled_from([0, -40, 40]),
       jump_at=st.floats(0.0, 1.0),
       hmul=st.sampled_from([None, 0.5, 1.0, 1.5, 3.0, 7.3]),
       every=st.integers(1, 8))
def test_drift_refit_walk_forward_matches_a_fit_from_scratch(
        steps, spacing, offset, jump, jump_at, hmul, every):
    # lattice levels: ties, constant stretches with zero returns, and a jump
    # that takes later levels below or above every level before it; the
    # bandwidth is the loop's own choice or a multiple of the lattice
    # spacing, which puts neighbours on the edge of the kernel's support
    k = np.cumsum(steps)
    k[int(jump_at * k.size):] += jump
    levels = offset + spacing * k.astype(float)
    y = np.diff(levels)
    cfg = StudyConfig(model="External", series_len=levels.size,
                      in_sample_len=levels.size - 1, es=EsConfig(0.94, 4),
                      state_refit_every=every)
    first = cfg.es.n + MIN_STATE_PAIRS
    if hmul is None:
        assume(np.ptp(levels[:MIN_STATE_PAIRS]) > 0.0)
        frozen = nullcontext()
    else:
        h = hmul * spacing
        frozen = mock.patch.object(
            harness, "select_bandwidth",
            lambda x, yy: (DriftFit.from_scratch(x, yy, h), h))
    fit = None
    counters = _new_counters()
    for origin in range(first, y.size + 1, cfg.state_refit_every):
        before = counters["drift_fallback"]
        with frozen:
            fit = _fit_state(levels, y, origin, cfg, fit, counters=counters)
        x, yy = build_state_pairs(levels, y, origin, cfg.es.n)
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], yy[order]
        want = _intercepts_at_data(xs, ys, fit.h1, loo=False)
        got = fit.drift.drift
        bad = ~np.isfinite(want)
        assert np.array_equal(fit.pairs.x, xs)
        assert np.array_equal(~np.isfinite(got), bad)
        assert counters["drift_fallback"] - before == np.count_nonzero(bad)
        v0, v1, v2 = fit.drift.moments[:3]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(v2 > 0.0, v0 * v0 / (v0 * v2 - v1 * v1), 1.0)
        tol = GROWN_TOL * np.abs(ys).max() * np.maximum(cond, 1.0)
        assert np.all(np.abs(got - want)[~bad] <= tol[~bad])
        # resp = (y - drift)^2 moves by at most (2|y - drift| + tol) tol
        r = ys - np.where(bad, 0.0, want)
        move = np.where(bad, 0.0, (2.0 * np.abs(r) + tol) * tol)
        assert np.all(np.abs(fit.pairs.resp - r * r) <= move)
    assert fit is not None


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


def test_singular_state_design_falls_back_to_kernel_weighted_mean():
    # the design of test_singular_design_raises: the window at 0.6 holds
    # the tied pair at 0.5 and, at weight zero, the point at 1.5
    x = np.array([0.5, 0.5, 1.5])
    resp = np.array([1.0, 2.0, 9.0])
    h = 0.5001
    fit = _StateFit(StatePairs(x, resp), h, h, 0.0)
    counters = _new_counters()
    sve = _eval_state(fit, 0.6, counters=counters)
    assert counters["state_singular"] == 1
    assert sum(counters.values()) == 1
    w = _epanechnikov((x - 0.6) / h)
    assert w[2] == 0.0
    assert sve.sigma2_hat == pytest.approx(float(w @ resp / w.sum()),
                                           rel=1e-15)
    assert sve.sigma2_hat == pytest.approx(1.5, rel=1e-15)


def test_insufficient_history_is_rejected_up_front():
    # 99 < 2n for SemiProxy
    cfg = study_preset("cir", series_len=120, in_sample_len=100)
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


def test_study_er_uses_the_normal_quantile(small_result):
    # per-rep er is the share of out-of-sample returns below
    # z_alpha * sigma_hat, with z_alpha the standard normal quantile
    z = NormalDist().inv_cdf(SMALL.alpha)
    first = SMALL.in_sample_len - 1
    for rep in range(SMALL.n_reps):
        sim = simulate_series(SMALL, rep)
        y_out = sim.returns.y[first:]
        for j, e in enumerate(SMALL.estimators):
            track = rolling_forecast(sim, SMALL, e)
            assert small_result.per_rep["er"][rep, j] == float(
                np.mean(y_out < z * np.sqrt(track.sigma2)))


def test_failed_replications_keep_their_reason(monkeypatch):
    # rep 1 raises while simulating; rep 2 leaves no finite step
    import dynvol.harness as hz
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=4,
                       seed=777, estimators=("Hist", "RiskM"))
    real_sim, real_rolling = hz.simulate_series, hz._rolling
    current = []

    def sim(cfg, rep):
        current.append(rep)
        if rep == 1:
            raise DegenerateSeriesError("boom")
        return real_sim(cfg, rep)

    def rolling(*args):
        tracks, counters = real_rolling(*args)
        if current[-1] == 2:
            tracks["Hist"][:] = np.nan
        return tracks, counters

    monkeypatch.setattr(hz, "simulate_series", sim)
    monkeypatch.setattr(hz, "_rolling", rolling)
    res = run_simulation_study(cfg)
    assert res.failed_reps == (1, 2)
    assert res.diagnostics["failed_reasons"] == {
        1: "DegenerateSeriesError: boom",
        2: "DynvolError: no usable out-of-sample steps"}
    assert res.report.failed_reps == 2
    assert res.per_rep["made"].shape == (2, 2)
    # a failed rep adds no excluded steps, so rows stay aligned
    assert res.diagnostics["excluded_per_rep"] == (0, 0)
    assert res.report.excluded_steps == 0


def test_per_rep_rows_carry_the_replication_id(monkeypatch, tmp_path):
    # with rep 1 of 3 failing, the rows of reps 0 and 2 keep their ids
    import dynvol.harness as hz
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=3,
                       seed=777, estimators=("Hist", "RiskM"))
    real_sim = hz.simulate_series

    def sim(cfg, rep):
        if rep == 1:
            raise DegenerateSeriesError("boom")
        return real_sim(cfg, rep)

    monkeypatch.setattr(hz, "simulate_series", sim)
    res = run_simulation_study(cfg)
    assert res.failed_reps == (1,)
    write_study_outputs(res, tmp_path)
    with open(tmp_path / "per_rep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["rep"], r["estimator"]) for r in rows] == [
        ("0", "Hist"), ("0", "RiskM"), ("2", "Hist"), ("2", "RiskM")]
    # each row carries the measures of its own replication
    assert float(rows[2]["made"]) == res.per_rep["made"][1, 0]


def test_study_is_deterministic(small_result):
    again = run_simulation_study(SMALL)
    for k in small_result.per_rep:
        assert np.array_equal(small_result.per_rep[k], again.per_rep[k])
    assert np.array_equal(small_result.curve, again.curve, equal_nan=True)


def test_nan_step_exclusion_is_shared(monkeypatch):
    # force one estimator to fail at a single origin; that step must drop
    # out of every estimator's measures
    import dynvol.harness as hz
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=1,
                       seed=777, estimators=("Hist", "RiskM"))
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
    cfg = study_preset("cir", series_len=280, in_sample_len=258, n_reps=2,
                       seed=31)
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


@pytest.mark.parametrize("value, prefix", [
    ("oops", "invalid rows"),
    ("inf", "non-finite values at rows"),
])
def test_ingest_cuts_long_row_lists(tmp_path, value, prefix):
    import datetime as dt
    d0 = dt.date(2000, 1, 3)
    rows = [f"{(d0 + dt.timedelta(days=i)).isoformat()},{value}"
            for i in range(1600)]
    with pytest.raises(IngestionError) as info:
        ingest_csv(_write_csv(tmp_path, rows))
    assert str(info.value) == (f"{prefix}: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, "
                               "...] (1600 rows)")


def test_ingest_cuts_long_unordered_row_list(tmp_path):
    import datetime as dt
    d0 = dt.date(2000, 1, 3)
    rows = [f"{(d0 - dt.timedelta(days=i)).isoformat()},1.0"
            for i in range(1200)]
    with pytest.raises(IngestionError) as info:
        ingest_csv(_write_csv(tmp_path, rows))
    assert str(info.value) == ("dates not strictly increasing at rows: "
                               "[3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...] "
                               "(1199 rows)")


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
    path = simulate_gbm(study_preset("gbm").params(), 1.0 / 52.0, 360,
                                     RngStream(99, 0))
    d0 = dt.date(2015, 1, 2)
    rows = ["date,value"]
    for i, v in enumerate(path.values):
        rows.append(f"{(d0 + dt.timedelta(days=7 * i)).isoformat()},{float(v)!r}")
    p = tmp_path_factory.mktemp("bt") / "gbm.csv"
    p.write_text("\n".join(rows) + "\n")
    return p


def test_backtest_smoke(gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=220)
    cfg = study_preset("gbm", er_window=60)
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


def test_backtest_er_uses_empirical_residual_quantiles(gbm_csv, monkeypatch):
    # each estimator's quantile is the ceil(alpha * er_window)-th smallest of
    # its standardized in-sample residuals, and er is the share of
    # out-of-sample returns below quantile * sigma_hat
    import dynvol.harness as hz
    seen = []
    real = hz._rolling

    def rolling(*args):
        out = real(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(hz, "_rolling", rolling)
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=220)
    cfg = study_preset("gbm", er_window=60)
    res = run_backtest(data, cfg)
    (tracks,) = seen
    y = np.diff(np.log(data.values)) / math.sqrt(data.delta)
    split, qwin = data.in_sample_end - 1, cfg.er_window
    k = math.ceil(cfg.alpha * qwin) - 1
    for e in ESTIMATORS:
        resid = y[split - qwin:split] / np.sqrt(tracks[e][:qwin])
        assert res.quantiles[e] == np.sort(resid)[k]
        assert res.per_est[e]["er"] == float(np.mean(
            y[split:] < res.quantiles[e] * np.sqrt(tracks[e][qwin:])))


def test_backtest_outputs_and_lengths(tmp_path, gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=220)
    cfg = study_preset("gbm", er_window=60, estimators=("RiskM", "Integ"))
    res = run_backtest(data, cfg)
    write_backtest_outputs(res, tmp_path)
    per = (tmp_path / "per_rep.csv").read_text().strip().splitlines()
    assert len(per) == 1 + 2
    # imade column is empty in real-data mode
    assert per[1].split(",")[2] == ""
    assert (tmp_path / "report.txt").read_text().strip() != ""


def test_backtest_needs_warmup_history(gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=120)
    cfg = study_preset("gbm", er_window=250)  # 250 warmup steps will not fit
    with pytest.raises(InsufficientHistoryError):
        run_backtest(data, cfg)
