"""Rolling forecaster, simulation studies, ingestion, backtests."""

import csv
import datetime as dt
import errno
import itertools
import logging
import math
import multiprocessing
import os
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import replace
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, event, example, given,
                        settings)
from hypothesis import strategies as st

from dynvol.errors import (DegenerateSeriesError, DynvolError,
                           IngestionError, InsufficientHistoryError,
                           NoCoverageError)
from dynvol import _fanout, harness
from dynvol.evaluation import exceedance_ratio, imade, made, pe, rade
from dynvol.harness import (DEFAULT_SEMI_GRID, ESTIMATORS, MIN_STATE_PAIRS,
                            SEMI_FALLBACK_LAM, BacktestDataset,
                            SimulatedGroup, StudyConfig,
                            _eval_state, _fit_state, _new_counters, _rolling,
                            _SemiSelector, _StateFit, run_backtest,
                            run_simulation_study, simulate_series,
                            study_preset, write_backtest_outputs,
                            write_study_outputs)
from dynvol.ingest import ingest_csv
from dynvol.integration import (MATCHED_SHAPE, bayes_es, combine_estimates,
                                dynamic_weight)
from dynvol.sde import RngStream, SvParams, simulate_gbm
from dynvol.state_domain import DriftFit, _design, _epanechnikov, _levels
from dynvol.time_domain import (EsConfig, es_variance, exp_smooth,
                                moving_average)
from oracles import (ORACLE_TOL, SEGMENT, acf_direct, dense_xi,
                     segmented_series)

SMALL = study_preset("cir", series_len=300, in_sample_len=260, n_reps=3,
                     seed=777)


def one_series(cfg: StudyConfig, rep: int) -> SimulatedGroup:
    """Replication rep simulated alone: its levels, y and truth as 1-d
    arrays."""
    return SimulatedGroup(*(a[0] for a in simulate_series(cfg, [rep])))


def rolling_forecast(sim, cfg: StudyConfig, estimator_id: str) -> np.ndarray:
    """One estimator's forecasts over the out-of-sample stretch
    [in_sample_len - 1, series_len - 2], from the loop run with it alone."""
    first = cfg.in_sample_len - 1
    tracks, _ = _rolling(sim.levels, sim.y,
                         replace(cfg, estimators=(estimator_id,)), first,
                         cfg.series_len - cfg.in_sample_len)
    return tracks[estimator_id]


def semi_decay(y, t: int, n: int,
               lambda_grid: tuple[float, ...] = DEFAULT_SEMI_GRID,
               counters: dict | None = None) -> float:
    """Reference loop for _SemiSelector's choice with window n: score each
    candidate decay by the squared error of its one-step forecasts of y[s]^2
    over the last n origins, summed by np.add.reduce as the engine does, and
    return the first best one; with no finite loss, or all of several
    candidates tied, return SEMI_FALLBACK_LAM and count it in
    counters["semi_fallback"] when counters is given."""
    if t - 2 * n < 0:
        raise InsufficientHistoryError(
            f"need {2 * n} observations before origin {t}")
    losses = []
    for lam in lambda_grid:
        cfg = EsConfig(lam, n)
        err = np.array([y[s] * y[s] - exp_smooth(y, s, cfg)
                        for s in range(t - n, t)])
        losses.append(np.add.reduce(err * err))
    losses = np.asarray(losses)
    finite = np.isfinite(losses)
    if (not finite.any()) or (losses[finite].max() == losses[finite].min()
                              and len(lambda_grid) > 1):
        if counters is not None:
            counters["semi_fallback"] += 1
        return SEMI_FALLBACK_LAM
    return lambda_grid[int(np.argmin(np.where(finite, losses, np.inf)))]


def semi_proxy(y, t: int, n: int,
               lambda_grid: tuple[float, ...] = DEFAULT_SEMI_GRID,
               counters: dict | None = None) -> float:
    """SemiProxy at origin t: smooth with semi_decay's choice."""
    lam = semi_decay(y, t, n, lambda_grid, counters)
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
    # a model with no preset has no simulator, and a backtest runs under
    # the cir preset, so there is no external model to name
    with pytest.raises(ValueError, match="unknown model 'External'"):
        StudyConfig(model="External")


@pytest.mark.parametrize("field, value", [
    ("estimators", ()),
    ("estimators", ("RiskM", "RiskM")),
    ("semi_grid", ()),
    ("semi_grid", (1.5,)),
    ("max_lag", 0),
    ("hist_window", 0),
    ("semi_grid", (0.9, 0.95, 0.9)),
    ("delta", 0.0),
    ("delta", -1.0 / 52.0),
    ("delta", math.inf),
    ("delta", -math.inf),
    ("delta", math.nan),
    ("er_window", 49),
    ("seed", -1),
    ("in_sample_len", 1),
    ("n_reps", 0),
    ("state_refit_every", 0),
])
def test_config_rejects_values_that_would_fail_late(field, value):
    # a run would fail inside its first replication, ignore the setting, or
    # write every report row twice; the config names the field up front
    with pytest.raises(ValueError, match=field):
        study_preset("cir", **{field: value})


def test_config_rejects_a_decay_listed_twice():
    # a repeated decay ties itself at every origin, so SemiProxy would fall
    # back to SEMI_FALLBACK_LAM throughout instead of forecasting with it
    with pytest.raises(ValueError,
                       match=r"^semi_grid lists \[0.9\] more than once$"):
        study_preset("cir", semi_grid=(0.9, 0.9))


def test_config_rejects_parameters_of_another_model():
    # a run would fail late, with an AttributeError no replication catches
    cir, sv = study_preset("cir").model_params, study_preset("sv").model_params
    with pytest.raises(ValueError, match="SvParams"):
        StudyConfig(model="SV", model_params=cir)
    with pytest.raises(ValueError, match="CirParams"):
        study_preset("cir", model_params=sv)
    assert StudyConfig(model="SV", model_params=sv).model_params is sv


def test_a_config_has_one_form():
    # model_params left None is the preset's, so the two spellings of the
    # default study are one config, and overriding a parameter with its own
    # value changes nothing
    cir = study_preset("cir")
    assert StudyConfig() == cir
    assert StudyConfig().model_params is cir.model_params
    same = replace(cir, model_params=replace(cir.model_params))
    assert same == cir and hash(same) == hash(cir)


def test_simulate_series_truth_definitions():
    cfg = study_preset("cir", series_len=200, in_sample_len=150)
    sim = one_series(cfg, 0)
    p = cfg.model_params
    assert np.allclose(sim.truth, p.sigma**2 * sim.levels[:-1], rtol=1e-14)
    assert np.allclose(np.diff(sim.levels) / math.sqrt(cfg.delta),
                       sim.y, atol=1e-12)

    gcfg = study_preset("gbm", series_len=200, in_sample_len=150)
    gsim = one_series(gcfg, 0)
    gp = gcfg.model_params
    assert np.allclose(gsim.truth, gp.sigma**2 * gsim.levels[:-1] ** 2,
                       rtol=1e-14)

    scfg = study_preset("sv", series_len=200, in_sample_len=150)
    ssim = one_series(scfg, 0)
    # state variable for this model is the accumulated series, starting at 0
    assert ssim.levels[0] == 0.0
    assert np.allclose(np.diff(ssim.levels) / math.sqrt(scfg.delta),
                       ssim.y, atol=1e-12)
    assert np.all(ssim.truth > 0)
    assert ssim.truth.size == ssim.y.size


def test_simulate_series_stream_determinism():
    cfg = study_preset("cir", series_len=120, in_sample_len=100)
    a = one_series(cfg, 2)
    b = one_series(cfg, 2)
    c = one_series(cfg, 3)
    assert np.array_equal(a.levels, b.levels)
    assert not np.array_equal(a.levels, c.levels)


def _rows_have_their_own_bytes(cfg: StudyConfig, lo: int, size: int) -> None:
    """Row i of the group of replications lo .. lo + size - 1 has the
    levels, y and truth of replication lo + i simulated alone, bit for
    bit."""
    group = simulate_series(cfg, range(lo, lo + size))
    assert [a.shape for a in group] == [(size, cfg.series_len),
                                        (size, cfg.series_len - 1),
                                        (size, cfg.series_len - 1)]
    for i, rep in enumerate(range(lo, lo + size)):
        alone = simulate_series(cfg, [rep])
        for got, want in zip(group, alone):
            assert got[i].tobytes() == want[0].tobytes()


@settings(max_examples=25, deadline=None)
@given(lo=st.integers(0, 80), size=st.integers(1, 20),
       series_len=st.integers(3, 120), substeps=st.sampled_from([3, 9]),
       seed=st.integers(0, 2**31))
@example(lo=0, size=3, series_len=120, substeps=9, seed=1)
def test_sv_group_gives_each_replication_its_own_bytes(lo, size, series_len,
                                                       substeps, seed):
    # replications run in lockstep have the bytes they have alone, at any
    # group offset and size and any length, whole blocks of
    # sde.SV_BLOCK (48) observations or not, up to two block boundaries;
    # vbar sums 9 substeps pairwise, as numpy sums 8 or more contiguous
    # terms
    cfg = study_preset("sv", series_len=series_len, in_sample_len=2, seed=seed,
                       model_params=SvParams(3.0, 0.009, 4.0,
                                             substeps=substeps))
    _rows_have_their_own_bytes(cfg, lo, size)


@pytest.mark.parametrize("model", ["cir", "gbm"])
@settings(max_examples=15, deadline=None)
@given(lo=st.integers(0, 80), size=st.integers(1, 20),
       series_len=st.integers(3, 400), seed=st.integers(0, 2**31))
@example(lo=0, size=3, series_len=1200, seed=12345)
def test_cir_and_gbm_groups_give_each_replication_its_own_bytes(
        model, lo, size, series_len, seed):
    # the group stacks the paths and takes the returns and the truth of
    # the 2-d array at once; each row has the bits of its path alone
    cfg = study_preset(model, series_len=series_len, in_sample_len=2,
                       seed=seed)
    _rows_have_their_own_bytes(cfg, lo, size)


def test_semi_selector_matches_reference_loop():
    rng = np.random.default_rng(55)
    y = rng.standard_normal(400) * 0.02
    n = 52
    sel = _SemiSelector(y, n, DEFAULT_SEMI_GRID)
    counters = _new_counters()
    for t in range(2 * n, 2 * n + 60):
        # the same sums in the same order: the chosen decay and the value
        # are exact, and no other candidate's value equals the chosen one
        lam = semi_decay(y, t, n)
        values = {g: exp_smooth(y, t, EsConfig(g, n))
                  for g in DEFAULT_SEMI_GRID}
        assert [g for g, v in values.items() if v == values[lam]] == [lam]
        assert sel.value(t, counters) == values[lam]
    assert counters["semi_fallback"] == 0


def test_semi_proxy_needs_two_windows():
    sel = _SemiSelector(np.ones(200), 52, DEFAULT_SEMI_GRID)
    with pytest.raises(InsufficientHistoryError):
        sel.value(103, _new_counters())
    assert sel.value(104, _new_counters()) == pytest.approx(1.0, rel=1e-14)


def test_semi_selector_takes_the_first_of_tied_decays(monkeypatch):
    # the squared returns are 1 and each decay forecasts a constant: 0.90
    # misses by -0.5 and 0.92 by +0.5, so their summed squared errors are
    # equal to the last bit while their forecasts differ; 0.94 misses by 2,
    # so not every candidate ties and there is no fallback
    forecast = {0.90: 1.5, 0.92: 0.5, 0.94: 3.0}
    monkeypatch.setattr(harness, "exp_smooth", lambda y, t, cfg: np.full(
        np.shape(y)[:-1] + np.shape(t), forecast[cfg.lam]))
    sel = _SemiSelector(np.ones(40), 5, (0.90, 0.92, 0.94))
    counters = _new_counters()
    assert sel.value(20, counters) == 1.5
    assert sel.value(np.arange(10, 40), counters).tolist() == [1.5] * 30
    assert counters["semi_fallback"] == 0


@pytest.mark.parametrize("forecast, want, fallbacks", [
    ({0.90: np.nan, 0.92: 0.5, 0.96: 3.0}, 0.5, 0),
    ({0.90: 3.0, 0.92: np.nan, 0.96: 0.5}, 0.5, 0),
    ({0.90: 0.5, 0.92: 3.0, 0.96: np.nan}, 0.5, 0),
    ({0.90: np.nan, 0.92: np.nan}, 7.0, 1),
    ({0.90: np.nan}, 7.0, 1),
    ({0.90: np.nan, 0.92: 0.5}, 7.0, 1),
], ids=["nan-first", "nan-middle", "nan-last", "all-nan", "one-nan-decay",
        "one-finite-of-two"])
def test_semi_selector_never_picks_a_non_finite_loss(monkeypatch, forecast,
                                                     want, fallbacks):
    # the squared returns are 1 and each decay forecasts a constant, so a
    # NaN forecast has a NaN loss; the fallback decay forecasts 7. Of two
    # distinct finite losses the lower wins wherever a NaN one sits in the
    # grid. With no finite loss, or a lone finite one among several decays
    # (every finite loss the same), the search falls back
    grid = tuple(forecast)
    forecast = {**forecast, SEMI_FALLBACK_LAM: 7.0}
    monkeypatch.setattr(harness, "exp_smooth", lambda y, t, cfg: np.full(
        np.shape(y)[:-1] + np.shape(t), forecast[cfg.lam]))
    counters = _new_counters()
    assert _SemiSelector(np.ones(40), 5, grid).value(20, counters) == want
    assert counters["semi_fallback"] == fallbacks
    per_row = np.zeros(2, dtype=int)
    got = _SemiSelector(np.ones((2, 40)), 5, grid).value(
        np.arange(10, 40), counters, per_row=per_row)
    assert got.tolist() == [[want] * 30] * 2
    assert counters["semi_fallback"] == 61 * fallbacks
    assert per_row.tolist() == [30 * fallbacks] * 2


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
    assert got == exp_smooth(y, t, EsConfig(SEMI_FALLBACK_LAM, n))
    assert got == semi_proxy(y, t, n, grid)
    # an untied window leaves the counter alone
    sel.value(t + 1, counters)
    assert counters["semi_fallback"] == 1


_SEMI_GRIDS = st.sampled_from([DEFAULT_SEMI_GRID, (0.90, 0.96), (0.94,)])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       n=st.integers(1, 12), grid=_SEMI_GRIDS,
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_semi_selector_over_origins_matches_int_form(segments, n, grid, seed,
                                                     data):
    # zero segments make every candidate's loss vanish: exact ties
    y = segmented_series(segments, seed)
    assume(y.size >= 2 * n)
    origins = np.array(data.draw(st.lists(
        st.integers(2 * n, y.size), min_size=1, max_size=12)))
    sel = _SemiSelector(y, n, grid)
    table, per_origin, oracle = _new_counters(), _new_counters(), _new_counters()
    got = sel.value(origins, table)
    event(f"fallback: {table['semi_fallback'] > 0}")
    assert np.array_equal(got, np.array(
        [sel.value(t, per_origin) for t in origins.tolist()]))
    assert np.array_equal(got, np.array(
        [semi_proxy(y, t, n, grid, oracle) for t in origins.tolist()]))
    assert table == per_origin == oracle


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       n=st.integers(1, 12), grid=_SEMI_GRIDS,
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_semi_selector_over_origins_reads_no_later_returns(segments, n, grid,
                                                           seed, data):
    y = segmented_series(segments, seed)
    assume(y.size >= 2 * n)
    origins = np.array(data.draw(st.lists(
        st.integers(2 * n, y.size), min_size=1, max_size=12)))
    cut = data.draw(st.sampled_from(origins.tolist()))
    altered = y.copy()
    altered[cut:] = 7.0 * altered[cut:] + 3.0
    before = origins <= cut
    got = _SemiSelector(y, n, grid).value(origins, _new_counters())
    alt = _SemiSelector(altered, n, grid).value(origins, _new_counters())
    assert np.array_equal(got[before], alt[before])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=2, max_size=8),
       n=st.integers(1, 12), grid=_SEMI_GRIDS,
       seed=st.integers(0, 2**32 - 1))
def test_semi_proxy_fallback_is_riskm_at_the_fallback_decay(segments, n, grid,
                                                           seed):
    # with RiskM at SEMI_FALLBACK_LAM on the same window, SemiProxy is RiskM
    # bit for bit wherever it falls back
    y = segmented_series(segments, seed)
    first = 2 * n
    assume(y.size > first)
    z = y[:first] ** 2
    assume(z.max() > z.min())
    cfg = replace(SMALL, estimators=("RiskM", "SemiProxy"), semi_grid=grid,
                  es=EsConfig(SEMI_FALLBACK_LAM, n))
    tracks, counters = _rolling(y, y, cfg, first, y.size - first)
    sel = _SemiSelector(y, n, grid)
    fell_back = []
    for t in range(first, y.size):
        c = _new_counters()
        sel.value(t, c)
        fell_back.append(c["semi_fallback"] == 1)
    fell_back = np.array(fell_back)
    event(f"fallback: {fell_back.any()}")
    assert counters["semi_fallback"] == fell_back.sum()
    fallback_es = exp_smooth(y, np.arange(first, y.size),
                             EsConfig(SEMI_FALLBACK_LAM, n))
    assert np.array_equal(tracks["SemiProxy"][fell_back],
                          fallback_es[fell_back])
    assert np.array_equal(tracks["SemiProxy"][fell_back],
                          tracks["RiskM"][fell_back])


def test_tracks_do_not_depend_on_roster():
    # each estimator's forecasts are identical whether it runs alone or
    # alongside the others
    sim = one_series(SMALL, 0)
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    tracks, _ = _rolling(sim.levels, sim.y, SMALL, first, m)
    for e in ESTIMATORS:
        solo = rolling_forecast(sim, SMALL, e)
        assert np.array_equal(tracks[e], solo, equal_nan=True)


# The walk below evaluates the kernel at every pair and sums over the whole
# design, _rolling over each window with np.add.reduceat, so the state
# estimate and its sum of squared weights agree within the engine's
# tolerance, ORACLE_TOL relative. NonBay is a convex combination of the
# smoother and the state estimate, and Integ one whose weight moves with
# the state estimate squared times its sum of squared weights: each moves
# by at most four times that relative, TRACK_RTOL.
TRACK_RTOL = 4.0 * ORACLE_TOL


def test_rolling_matches_direct_estimator_calls():
    # the differential oracle of the refit-block loop: every estimator and
    # counter of _rolling against a walk over the origins one at a time,
    # with the dense equivalent weights dense_xi, the state estimate's
    # sampling variance 2 s^2 sum(xi^2) computed here, the float forms of
    # es_variance, dynamic_weight, combine_estimates and bayes_es, and
    # Integ's autocorrelations by their definition (acf_direct); the 39
    # steps are not a multiple of 3 or 8, so the last refit block is short
    for every in (1, 3, 8):
        _walk_matches_rolling(every)


def _walk_matches_rolling(every: int) -> None:
    cfg = replace(SMALL, state_refit_every=every)
    sim = one_series(cfg, 1)
    levels, y = sim.levels, sim.y
    first = cfg.in_sample_len - 1
    m = cfg.series_len - cfg.in_sample_len - 1
    tracks, counters = _rolling(levels, y, cfg, first, m)
    direct = _new_counters()
    # the shift of the loop's autocorrelation table
    shift = float((y[:first] ** 2).mean())
    eps = np.finfo(float).eps
    fit = None
    for step in range(m):
        i = first + step
        assert tracks["Hist"][step] == moving_average(y, i, cfg.hist_window)
        es_val = exp_smooth(y, i, cfg.es)
        assert tracks["RiskM"][step] == es_val
        assert tracks["SemiProxy"][step] == semi_proxy(
            y, i, cfg.es.n, cfg.semi_grid, direct)
        if step % every == 0:
            fit = _fit_state(levels, y, i, cfg, fit, direct)
        sig2 = None
        try:
            xi, _, singular = dense_xi(fit.pairs.x, levels[i], fit.h)
        except NoCoverageError:
            direct["state_nocov"] += 1
        else:
            direct["state_singular"] += singular
            sig2 = float(xi @ fit.pairs.resid2)
            eps_var = 1e-12 * float(np.var(fit.pairs.resid2))
            if sig2 < eps_var:
                direct["state_floor"] += 1
                sig2 = eps_var
            var_state = 2.0 * sig2**2 * float(xi @ xi)
        if sig2 is None:
            assert tracks["NonBay"][step] == es_val
        else:
            want = bayes_es(es_val, sig2, cfg.es.lam, cfg.es.n,
                            MATCHED_SHAPE)
            assert abs(tracks["NonBay"][step] - want) <= TRACK_RTOL * want
        try:
            rho, tol = acf_direct(y, i, cfg.max_lag, shift)
        except DegenerateSeriesError:
            direct["nan_steps"] += 1
            assert np.isnan(tracks["Integ"][step])
            continue
        tve = es_variance(es_val, cfg.es, rho)
        direct["c_clamped"] += tve.clamped
        if sig2 is None:
            direct["integ_time_only"] += 1
            assert tracks["Integ"][step] == es_val
            continue
        blend = combine_estimates(es_val, tve.var_hat, sig2, var_state)
        # the coefficients of rho in c_t are nonnegative and sum to at most
        # 1, so rho within tol moves c_t by at most tol, and the weight by at
        # most w (1 - w) times c_t's relative move
        w = dynamic_weight(tve.var_hat, var_state)
        move = 2.0 * tol / tve.c_t + 8.0 * eps
        bound = (abs(es_val - sig2) * w * (1.0 - w) * move
                 + TRACK_RTOL * blend)
        assert abs(tracks["Integ"][step] - blend) <= bound
    assert counters == direct
    assert counters["state_nocov"] < m


def _hand_fit(x, resp, h):
    # a fit whose squared residuals are resp: the rows of DriftFit's table
    # are x, y, five moments, drift, resid2 and other, and the query reads
    # x and resid2 only, its floor 1e-12 times the variance of resid2; every
    # drift is 0, so no pair is unfit
    order = np.argsort(x, kind="stable")
    table = np.zeros((10, x.size))
    table[0], table[8] = x[order], resp[order]
    return _StateFit(DriftFit(h, table, 0), h)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(levels=st.lists(st.integers(0, 40), min_size=1, max_size=60),
       spacing=st.sampled_from([1e-3, 0.3, 1.0, 40.0]),
       offset=st.sampled_from([0.0, -7.5, 1e4]),
       hmul=st.sampled_from([0.4, 0.5001, 1.0, 2.5, 30.0]),
       picks=st.lists(st.tuples(
           st.sampled_from(["point", "edge", "between", "outside"]),
           st.integers(0, 59), st.floats(0.0, 1.0)), min_size=1, max_size=20),
       every=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_eval_state_block_rows_are_single_queries(levels, spacing, offset,
                                                  hmul, picks, every, seed):
    # every row of a refit block's _eval_state has the bytes of the same
    # query evaluated alone, and the block's counters are the sum of the
    # single queries': a query's sums read its own window only. The
    # queries mix design points (zero-spread windows on sparse lattices),
    # points one bandwidth from a design point (singular windows of one
    # weighted level), points between and outside the design (no
    # coverage); blocks of 1-8 queries, the last one short
    x = offset + spacing * np.asarray(levels, dtype=float)
    h = hmul * spacing
    resp = np.random.default_rng(seed).exponential(size=x.size)
    fit = _hand_fit(x, resp, h)
    xs = fit.pairs.x
    q = np.array([{"point": xs[k % xs.size],
                   "edge": xs[k % xs.size] + (h if f < 0.5 else -h),
                   "between": xs[0] + f * (xs[-1] - xs[0]),
                   "outside": xs[-1] + h * (1.0 + f)}[kind]
                  for kind, k, f in picks])
    for start in range(0, q.size, every):
        block = q[start:start + every]
        counters = _new_counters()
        sig2, xi_sq = _eval_state(fit, block, counters=counters)
        alone = _new_counters()
        for j in range(block.size):
            one = _eval_state(fit, block[j:j + 1], counters=alone)
            assert sig2[j:j + 1].tobytes() == one[0].tobytes()
            assert xi_sq[j:j + 1].tobytes() == one[1].tobytes()
        assert counters == alone
        for key in ("state_nocov", "state_singular", "state_floor"):
            event(f"{key} > 0: {counters[key] > 0}")


def test_eval_state_block_mixes_every_kind_of_query():
    # one block with an uncovered query (a gap wider than the kernel), a
    # zero-spread window, a singular window and ordinary ones, each row
    # equal to the query alone
    x = np.array([0.0, 0.0, 0.5, 0.5, 1.5, 5.0, 5.2, 5.5, 6.0, 20.0])
    fit = _hand_fit(x, np.linspace(1.0, 2.0, x.size), 0.5001)
    q = np.array([12.0, 20.0, 0.6, 5.3, 5.6, 0.0])
    counters = _new_counters()
    sig2, xi_sq = _eval_state(fit, q, counters=counters)
    assert counters["state_nocov"] == 1 and np.isnan(sig2[0])
    assert counters["state_singular"] == 1
    for j in range(q.size):
        one = _eval_state(fit, q[j:j + 1], counters=_new_counters())
        assert sig2[j:j + 1].tobytes() == one[0].tobytes()
        assert xi_sq[j:j + 1].tobytes() == one[1].tobytes()
    # the zero-spread window at 20.0 is its one point
    assert (sig2[1], xi_sq[1]) == (2.0, 1.0)


def _drift_fit(x, y, h):
    """The h drift fit of the pairs from scratch, on one design of the
    prefix-sum engine, as select_bandwidth fits h1."""
    order = np.argsort(x, kind="stable")
    return DriftFit.from_design(_design(_levels(x[order]), h), y[order])


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
    cfg = StudyConfig(series_len=levels.size,
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
            lambda x, yy: (_drift_fit(x, yy, h), h))
    fit = None
    counters = _new_counters()
    for origin in range(first, y.size + 1, cfg.state_refit_every):
        before = counters["drift_fallback"]
        with frozen:
            fit = _fit_state(levels, y, origin, cfg, fit, counters=counters)
        x, yy = levels[:origin - cfg.es.n], y[:origin - cfg.es.n]
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], yy[order]
        want = _drift_fit(xs, ys, fit.pairs.h).drift
        got = fit.pairs.drift
        bad = ~np.isfinite(want)
        assert np.array_equal(fit.pairs.x, xs)
        assert np.array_equal(~np.isfinite(got), bad)
        assert counters["drift_fallback"] - before == np.count_nonzero(bad)
        v0, v1, v2 = fit.pairs.moments[:3]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(v2 > 0.0, v0 * v0 / (v0 * v2 - v1 * v1), 1.0)
        tol = GROWN_TOL * np.abs(ys).max() * np.maximum(cond, 1.0)
        assert np.all(np.abs(got - want)[~bad] <= tol[~bad])
        # resp = (y - drift)^2 moves by at most (2|y - drift| + tol) tol
        r = ys - np.where(bad, 0.0, want)
        move = np.where(bad, 0.0, (2.0 * np.abs(r) + tol) * tol)
        assert np.all(np.abs(fit.pairs.resid2 - r * r) <= move)
    assert fit is not None


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(st.integers(-1, 1), min_size=30, max_size=140),
       stretches=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(2, 12)),
                          max_size=3),
       outliers=st.lists(st.tuples(st.floats(0.0, 1.0),
                                   st.sampled_from([-60, 60, 61, 300])),
                         max_size=6),
       spacing=st.sampled_from([1e-3, 0.3, 1.0]),
       offset=st.sampled_from([0.0, -7.5, 1e4]),
       hmul=st.sampled_from([None, 0.5, 1.0, 2.0]),
       every=st.integers(1, 8))
# refits that both add unfit pairs and fit pairs that were unfit
@example(steps=[1, 1, -1, 1, -1, 0, 0, -1, -1, 1, 0, 1, -1, -1, 1, -1, 0, 1,
                1, 1, -1, -1, 1, 1, 0, 1, -1, 0, 0, -1, 0, 0, -1, -1, 1, -1],
         stretches=[], outliers=[(0.541, -60), (0.284, 300)], spacing=1e-3,
         offset=-7.5, hmul=1.0, every=1)
def test_drift_fit_counts_its_unfit_pairs(steps, stretches, outliers,
                                          spacing, offset, hmul, every):
    # the drift fit's unfit count is its number of non-finite drifts after
    # the first fit and after every refit, and the refit adds it to the
    # drift_fallback counter. Lattice levels give ties; runs of zero steps
    # give constant stretches; single levels 60 or 300 steps away, or two
    # a step apart, are isolated, with no other level or only each other in
    # their windows; a bandwidth of one lattice step off the origin puts
    # neighbours a few ulps inside the kernel's support, where the design
    # has no fit
    steps = list(steps)
    for at, n in stretches:
        i = int(at * len(steps))
        steps[i:i] = [0] * n
    k = np.cumsum(steps)
    for at, jump in outliers:
        k[int(at * (k.size - 1))] += jump
    levels = offset + spacing * k.astype(float)
    y = np.diff(levels)
    cfg = StudyConfig(series_len=levels.size,
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
            lambda x, yy: (_drift_fit(x, yy, h), h))
    fit = None
    counters = _new_counters()
    seen = [0]
    for origin in range(first, y.size + 1, cfg.state_refit_every):
        before = counters["drift_fallback"]
        with frozen:
            fit = _fit_state(levels, y, origin, cfg, fit, counters=counters)
        unfit = np.count_nonzero(~np.isfinite(fit.pairs.drift))
        assert fit.pairs.unfit == unfit
        assert counters["drift_fallback"] - before == unfit
        seen.append(unfit)
    event(f"some pair unfit: {max(seen) > 0}")
    event(f"a refit fits a pair that was unfit: "
          f"{any(b < a for a, b in zip(seen[1:], seen[2:]))}")


def test_no_lookahead_in_forecasts():
    # corrupting the series strictly after level index k must not change
    # forecasts at origins <= k
    sim = one_series(SMALL, 2)
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    k = first + 15
    tracks, _ = _rolling(sim.levels, sim.y, SMALL, first, m)

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
    cfg = StudyConfig(series_len=300, in_sample_len=262,
                      estimators=("RiskM", "NonBay", "Integ"))
    tracks, counters = _rolling(levels, y, cfg, 261, n_steps)
    assert counters["state_nocov"] == n_steps
    assert counters["integ_time_only"] == n_steps
    assert np.array_equal(tracks["NonBay"], tracks["RiskM"])
    assert np.array_equal(tracks["Integ"], tracks["RiskM"])


def test_singular_state_design_falls_back_to_kernel_weighted_mean():
    # the design of test_singular_design_raises: the window at 0.6 holds
    # the tied pair at 0.5 and, at weight zero, the point at 1.5
    x = np.array([0.5, 0.5, 1.5])
    resp = np.array([1.0, 2.0, 9.0])
    h = 0.5001
    fit = _hand_fit(x, resp, h)
    counters = _new_counters()
    sig2, xi_sq = _eval_state(fit, np.array([0.6]), counters=counters)
    assert counters["state_singular"] == 1
    assert sum(counters.values()) == 1
    w = _epanechnikov((x - 0.6) / h)
    assert w[2] == 0.0
    assert sig2[0] == pytest.approx(float(w @ resp / w.sum()), rel=1e-15)
    assert sig2[0] == pytest.approx(1.5, rel=1e-15)
    # the two tied points weigh one half each
    assert xi_sq[0] == pytest.approx(0.5, rel=1e-15)


def test_insufficient_history_is_rejected_up_front(monkeypatch):
    # 99 < 2n for SemiProxy
    cfg = study_preset("cir", series_len=120, in_sample_len=100)
    sim = one_series(cfg, 0)
    with pytest.raises(InsufficientHistoryError):
        rolling_forecast(sim, cfg, "SemiProxy")
    # the study stops before it simulates a single replication
    calls = []
    monkeypatch.setattr(harness, "simulate_series",
                        lambda *a: calls.append(a))
    with pytest.raises(InsufficientHistoryError,
                       match="first origin 99 < required history 104"):
        run_simulation_study(cfg)
    assert calls == []


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
    rep, est = 1, "Integ"
    j = SMALL.estimators.index(est)
    sim = one_series(SMALL, rep)
    track = rolling_forecast(sim, SMALL, est)
    first = SMALL.in_sample_len - 1
    m = SMALL.series_len - SMALL.in_sample_len
    truth = sim.truth[first:first + m]
    got = small_result.per_rep["imade"][rep, j]
    assert got == pytest.approx(imade(truth, track), rel=1e-15)
    # curve for a single rep and step is |forecast - truth| averaged over reps
    other = [np.abs(rolling_forecast(s, SMALL, est)
                    - s.truth[first:first + m])
             for s in (one_series(SMALL, r) for r in range(3))]
    assert np.allclose(small_result.curve[:, j],
                       np.mean(other, axis=0), rtol=1e-13)


def test_study_er_uses_the_normal_quantile(small_result):
    # per-rep er is the share of out-of-sample returns below
    # z_alpha * sigma_hat, with z_alpha the standard normal quantile
    z = NormalDist().inv_cdf(SMALL.alpha)
    first = SMALL.in_sample_len - 1
    for rep in range(SMALL.n_reps):
        sim = one_series(SMALL, rep)
        y_out = sim.y[first:]
        for j, e in enumerate(SMALL.estimators):
            track = rolling_forecast(sim, SMALL, e)
            assert small_result.per_rep["er"][rep, j] == float(
                np.mean(y_out < z * np.sqrt(track)))


def patch_rolling(monkeypatch, cfg, edit):
    """Make the study's _rolling call edit(rep, tracks) after the real walk,
    rep being the id of the replication whose series it walks; edit may
    raise, as a replication's walk-forward can."""
    series = list(simulate_series(cfg, range(cfg.n_reps)).levels)
    real = harness._rolling

    def rolling(levels, *args, **kwargs):
        tracks, counters = real(levels, *args, **kwargs)
        [rep] = [r for r, s in enumerate(series) if np.array_equal(s, levels)]
        edit(rep, tracks)
        return tracks, counters

    monkeypatch.setattr(harness, "_rolling", rolling)


def boom_at(failing):
    def edit(rep, tracks):
        if rep == failing:
            raise DegenerateSeriesError("boom")
    return edit


def test_failed_replications_keep_their_reason(monkeypatch):
    # rep 1 raises in its walk-forward; rep 2 leaves no finite step
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=4,
                       seed=777, estimators=("Hist", "RiskM"))

    def edit(rep, tracks):
        if rep == 1:
            raise DegenerateSeriesError("boom")
        if rep == 2:
            tracks["Hist"][:] = np.nan

    patch_rolling(monkeypatch, cfg, edit)
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


def test_a_study_whose_every_replication_fails_names_the_first(monkeypatch):
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=3,
                       seed=777, estimators=("Hist", "RiskM"))

    def edit(rep, tracks):
        raise DegenerateSeriesError(f"boom {rep}")

    patch_rolling(monkeypatch, cfg, edit)
    with pytest.raises(DynvolError, match=r"^every replication failed "
                       r"\(rep 0: DegenerateSeriesError: boom 0\)$"):
        run_simulation_study(cfg)


def test_failed_sv_replication_is_charged_alone(monkeypatch):
    # SV replications are simulated as a group; when one of them fails in
    # its walk-forward, only that replication is skipped
    cfg = study_preset("sv", series_len=120, in_sample_len=100, n_reps=5,
                       seed=3, estimators=("Hist", "RiskM"),
                       model_params=SvParams(3.0, 0.009, 4.0, substeps=3))
    clean = run_simulation_study(cfg)
    patch_rolling(monkeypatch, cfg, boom_at(2))
    res = run_simulation_study(cfg)
    assert res.failed_reps == (2,)
    assert res.diagnostics["failed_reasons"] == {
        2: "DegenerateSeriesError: boom"}
    # the others keep the measures they have in the unpatched study
    for k in res.per_rep:
        assert np.array_equal(res.per_rep[k], clean.per_rep[k][[0, 1, 3, 4]])


@pytest.mark.parametrize("group", [1, 3, 64])
def test_a_group_scores_each_replication_as_it_would_alone(monkeypatch,
                                                           group):
    # a group of 8 holding a replication with non-finite steps (rep 1), one
    # whose walk raises (rep 3), one with no usable step (rep 4), one whose
    # Integ track is not finite at its last step (rep 6) and one whose
    # Integ track is -inf at the steps where rep 1's Hist is NaN (rep 7),
    # which shares rep 1's step mask and, in a group of 64, its scoring
    # call: each walked replication's per_rep row has the bits of the 1-d
    # measures over its own step mask, and the failures keep their reasons.
    # The rows of other masks, scored and thrown away with each mask's
    # call, raise no warning: sqrt(-inf) would
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=8,
                       seed=777)
    first, m = cfg.in_sample_len - 1, cfg.series_len - cfg.in_sample_len
    walked = {}

    def edit(rep, tracks):
        if rep == 1:
            tracks["Hist"][2::9] = np.nan
        if rep == 3:
            raise DegenerateSeriesError("boom")
        if rep == 4:
            tracks["RiskM"][:] = np.inf
        if rep == 6:
            tracks["Integ"][-1] = np.nan
        if rep == 7:
            tracks["Integ"][2::9] = -np.inf
        walked[rep] = {e: t.copy() for e, t in tracks.items()}

    patch_rolling(monkeypatch, cfg, edit)
    monkeypatch.setattr(_fanout, "_cpus", lambda: 1)
    monkeypatch.setattr(harness, "SIM_GROUP", group)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_simulation_study(cfg)
    assert res.failed_reps == (3, 4)
    assert res.diagnostics["failed_reasons"] == {
        3: "DegenerateSeriesError: boom",
        4: "DynvolError: no usable out-of-sample steps"}
    assert res.diagnostics["excluded_per_rep"] == (0, 5, 0, 0, 1, 5)
    z = NormalDist().inv_cdf(cfg.alpha)
    for row, rep in enumerate((0, 1, 2, 5, 6, 7)):
        sim = one_series(cfg, rep)
        mask = np.all([np.isfinite(t) for t in walked[rep].values()], axis=0)
        y = sim.y[first:first + m][mask]
        truth = sim.truth[first:first + m][mask]
        for j, e in enumerate(cfg.estimators):
            t = walked[rep][e][mask]
            want = {"imade": imade(truth, t), "made": made(y, t),
                    "pe": pe(y, t), "rade": rade(y, t),
                    "er": exceedance_ratio(y, t, z)}
            for k, v in want.items():
                assert res.per_rep[k][row, j] == v, (k, rep, e)


def _check_group_size(monkeypatch, tmp_path, group, model, **design):
    # 7 reps on 1, 2 or 3 processes, each of which simulates its span in
    # groups of one, of 3 or of 64, and computes each group's time-domain
    # tracks in one call and scores it in one call per measure, against
    # one serial group. In groups of 3, one process simulates reps 0-2, 3-5
    # and 6, and the child of two processes 3-5 and 6; with TIME_ONLY_SPAN
    # patched to 2, a time-only roster walks spans of at least 2 reps. The
    # roster of design, the full one by default, with rep 1 failing or not,
    # on the preset's window and on a window of one return, where every
    # decay of the grid forecasts the same square, so that every SemiProxy
    # origin ties and falls back: a failed replication's fallbacks are not
    # counted
    m = 20
    for tied, failing in itertools.product((False, True), (None, 1)):
        cfg = study_preset(model, series_len=design["in_sample_len"] + m,
                           n_reps=7, seed=5, **design)
        if tied:
            cfg = replace(cfg, es=EsConfig(cfg.es.lam, 1))
        out = tmp_path / f"{tied}-{failing}"
        with monkeypatch.context() as mp:
            if failing is not None:
                patch_rolling(mp, cfg, boom_at(failing))
            mp.setattr(_fanout, "_cpus", lambda: 1)
            ref = run_simulation_study(cfg)
            write_study_outputs(ref, out / "ref")
            mp.setattr(harness, "SIM_GROUP", group)
            mp.setattr(harness, "TIME_ONLY_SPAN", 2)
            span = 1 if harness._walks_state(cfg.estimators) else 2
            for cpus in (1, 2, 3):
                mp.setattr(_fanout, "_cpus", lambda: cpus)
                got = run_simulation_study(cfg)
                assert got.processes == min(cpus, cfg.n_reps // span)
                write_study_outputs(got, out / f"got{cpus}")
                for name in ("report.csv", "per_rep.csv", "fig2_curve.csv"):
                    assert ((out / f"got{cpus}" / name).read_bytes()
                            == (out / "ref" / name).read_bytes())
                # every counter, excluded_per_rep and failed_reasons
                assert got.diagnostics == ref.diagnostics
                assert got.failed_reps == ((failing,) if failing else ())
        if tied:
            assert got.diagnostics["semi_fallback"] == m * (
                cfg.n_reps - len(got.failed_reps))


@pytest.mark.parametrize("group", [1, 3, 64])
def test_sv_study_bytes_do_not_depend_on_the_group_size(monkeypatch, tmp_path,
                                                        group):
    _check_group_size(monkeypatch, tmp_path, group, "sv", in_sample_len=100,
                      model_params=SvParams(3.0, 0.009, 4.0, substeps=3))


@pytest.mark.parametrize("group", [1, 3, 64])
def test_time_only_study_bytes_do_not_depend_on_the_group_size(
        monkeypatch, tmp_path, group):
    _check_group_size(monkeypatch, tmp_path, group, "sv", in_sample_len=100,
                      model_params=SvParams(3.0, 0.009, 4.0, substeps=3),
                      estimators=("Hist", "RiskM", "SemiProxy"))


@pytest.mark.parametrize("group", [1, 3, 64])
@pytest.mark.parametrize("model", ["cir", "gbm"])
def test_cir_and_gbm_study_bytes_do_not_depend_on_the_group_size(
        monkeypatch, tmp_path, model, group):
    # the roster's first origin needs es.n + MIN_STATE_PAIRS = 104 returns
    _check_group_size(monkeypatch, tmp_path, group, model, in_sample_len=105)


@pytest.mark.parametrize("roster, processes", [
    (("Hist", "RiskM", "SemiProxy"), {1: 1, 63: 1, 64: 1, 127: 1, 128: 2,
                                      191: 2, 192: 3, 300: 3}),
    (("RiskM", "NonBay"), {1: 1, 2: 2, 3: 3, 4: 3})])
def test_a_study_forks_by_its_work(monkeypatch, roster, processes):
    # on 3 CPUs a roster without NonBay or Integ walks spans of at least
    # TIME_ONLY_SPAN (64) replications, on at most one process per CPU;
    # any other roster walks on one process per replication up to the CPUs
    assert harness.TIME_ONLY_SPAN == 64
    monkeypatch.setattr(_fanout, "_cpus", lambda: 3)
    asked = []
    fan_out = _fanout.fan_out

    def recorded(work, n, n_proc):
        asked.append(n_proc)
        return fan_out(work, n, n_proc)

    monkeypatch.setattr(_fanout, "fan_out", recorded)
    for n_reps, want in processes.items():
        cfg = study_preset("sv", series_len=106, in_sample_len=105,
                           n_reps=n_reps, seed=3, estimators=roster,
                           model_params=SvParams(3.0, 0.009, 4.0,
                                                 substeps=3))
        assert run_simulation_study(cfg).processes == want, n_reps
        assert asked.pop() == want
    assert_no_child_left()


def _walk_breaks_at(monkeypatch, failing, exc_or_status):
    """Study of 4 replications on 2 processes, the parent walking reps 0-1
    and a child reps 2-3, whose walk of rep failing raises exc_or_status or,
    an int, ends its process with that status."""
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=4,
                       seed=777)
    parent = os.getpid()

    def edit(rep, tracks):
        if rep != failing:
            return
        if isinstance(exc_or_status, int):
            assert os.getpid() != parent
            os._exit(exc_or_status)
        raise exc_or_status

    monkeypatch.setattr(_fanout, "_cpus", lambda: 2)
    patch_rolling(monkeypatch, cfg, edit)
    return cfg


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", [3, 0])
def test_a_walk_that_raises_stops_the_study_in_any_process(monkeypatch,
                                                           failing):
    # rep 3 raises in the child, rep 0 in the parent while the child walks
    cfg = _walk_breaks_at(monkeypatch, failing, ValueError("walk broke"))
    with pytest.raises(ValueError, match="^walk broke$") as info:
        run_simulation_study(cfg)
    if failing == 3:  # the child's traceback comes along as the cause
        cause = str(info.value.__cause__)
        assert "Traceback" in cause and "in edit" in cause
    assert_no_child_left()


class TwoArgError(Exception):
    """Pickled fine, but not rebuilt: unpickling calls it with one arg."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("local", [True, False])
def test_a_walk_error_that_cannot_be_pickled_keeps_its_name(monkeypatch,
                                                            local):
    class LocalError(Exception):
        pass

    exc = LocalError("walk broke") if local else TwoArgError("walk", "broke")
    cfg = _walk_breaks_at(monkeypatch, 3, exc)
    text = ("LocalError: walk broke" if local
            else "TwoArgError: walk at broke")
    with pytest.raises(RuntimeError, match=f"^the walk of replications 2-3 "
                       f"raised {text}, which cannot be pickled$") as info:
        run_simulation_study(cfg)
    assert "in edit" in str(info.value.__cause__)
    assert_no_child_left()


def test_warnings_of_forked_walks_reach_the_caller_in_order(monkeypatch):
    # 4 reps on 2 processes, each walk warning once: every warning in
    # replication order where each is shown, and the first alone where a
    # place's warning is shown once, as in a serial walk
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=4,
                       seed=777, estimators=("Hist", "RiskM", "NonBay"))
    shown = {"always": ["rep 0", "rep 1", "rep 2", "rep 3"],
             "default": ["a walk warned"]}

    def edit(rep, tracks):
        warnings.warn(f"rep {rep}" if action == "always" else "a walk warned")

    patch_rolling(monkeypatch, cfg, edit)
    for cpus, action in itertools.product((1, 2), shown):
        monkeypatch.setattr(_fanout, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            run_simulation_study(cfg)
        assert [str(w.message) for w in caught
                if w.filename == __file__] == shown[action]
    assert_no_child_left()


def test_a_process_with_another_thread_walks_alone():
    # a fork from a threaded process could inherit a lock held for good
    before = _fanout._threads()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _fanout._threads() == before + 1
        assert _fanout._cpus() == 1
    finally:
        stop.set()
        other.join()


def test_the_cpus_are_counted_once_per_study_before_it_simulates(
        monkeypatch):
    # 7 replications on 2 processes: one count, before the parent simulates
    # its span of 3, one group of SIM_GROUP 3; the child's calls are its own
    calls = []
    simulate = harness.simulate_series

    def cpus():
        calls.append("cpus")
        return 2

    def simulated(cfg, reps):
        calls.append("simulate")
        return simulate(cfg, reps)

    monkeypatch.setattr(_fanout, "_cpus", cpus)
    monkeypatch.setattr(harness, "simulate_series", simulated)
    monkeypatch.setattr(harness, "SIM_GROUP", 3)
    cfg = study_preset("sv", series_len=120, in_sample_len=100, n_reps=7,
                       model_params=SvParams(3.0, 0.009, 4.0, substeps=3))
    assert run_simulation_study(cfg).processes == 2
    assert calls == ["cpus", "simulate"]


def test_a_study_forks_once_however_many_groups_it_simulates(monkeypatch):
    # 7 replications in groups of 3 on 2 CPUs: one child, for reps 3-6
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(_fanout, "_cpus", lambda: 2)
    monkeypatch.setattr(harness, "SIM_GROUP", 3)
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=7,
                       seed=777)
    assert run_simulation_study(cfg).processes == 2
    assert forks == [os.getpid()]
    assert_no_child_left()


def test_no_child_is_left_when_the_fold_raises(monkeypatch):
    # the first replication's progress line raises while the child runs
    def broken(*args):
        raise RuntimeError("fold broke")

    monkeypatch.setattr(_fanout, "_cpus", lambda: 2)
    monkeypatch.setattr(harness.log, "info", broken)
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=4,
                       seed=777)
    # info keeps the study's frame alive, and with it the frame's locals
    with pytest.raises(RuntimeError, match="^fold broke$") as info:
        run_simulation_study(cfg)
    assert_no_child_left()
    assert info.value.__traceback__ is not None


def test_a_daemonic_process_walks_alone(monkeypatch):
    # a multiprocessing pool's worker may not start processes
    monkeypatch.setattr(_fanout, "_threads", lambda: 1)
    assert _fanout._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert _fanout._cpus() == 1


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.parametrize("mask, parent, n, want", [
    ({0, 1}, 1, 1, [0]),
    ({2, 5, 7}, 5, 2, [2, 7]),
    # more children than other CPUs: round robin, never the parent's
    ({0, 1, 2}, 1, 5, [0, 2, 0, 2, 0]),
    ({3}, 3, 2, []),
    # the parent on a CPU outside the mask
    ({0, 1}, 4, 3, [0, 1, 0])])
def test_children_get_the_cpus_but_their_parents_round_robin(mask, parent, n,
                                                             want):
    assert _fanout._spread(mask, parent, n) == want


@pytest.mark.skipif(CPUS < 2, reason="one CPU")
def test_a_forked_span_runs_on_another_cpu(monkeypatch):
    # the child runs on a CPU other than the one fan_out read before it
    # forked, the CPU it places the child away from. The parent's mask is
    # the full set, so the scheduler may move the parent itself onto the
    # child's CPU after the fork: its later reads are not compared. The
    # child, given back the full mask before it starts, may be moved too,
    # and on a busy host it was, onto the parent's CPU once the parent's
    # short span had left that CPU idle. So, as in a study, the parent
    # keeps busy while the child reads its CPU, for up to a second, until
    # one read is off the CPU fan_out read
    read = _fanout._parent_cpu
    reads = []
    parent = os.getpid()
    off = multiprocessing.RawValue("b", 0)  # shared with the forked child

    def recorded():
        reads.append(read())
        return reads[-1]

    def work(span):
        cpus = [read()]
        deadline = time.monotonic() + 1.0
        while not off.value and time.monotonic() < deadline:
            if os.getpid() != parent and cpus[-1] != reads[0]:
                off.value = 1
            else:
                cpus.append(read())
        return [(os.getpid(), cpus) for _ in span]

    monkeypatch.setattr(_fanout, "_parent_cpu", recorded)
    (pid, _), (child_pid, child_cpus) = _fanout.fan_out(work, 2, 2)
    assert pid == parent != child_pid
    [here] = reads
    assert off.value and child_cpus[-1] != here
    assert {here, *child_cpus} <= os.sched_getaffinity(0)
    assert_no_child_left()


def placements(caplog) -> list[str]:
    """The DEBUG lines that say where each forked child was placed."""
    return [m for m in caplog.messages if m.startswith("forked ")]


def test_each_forked_span_logs_its_cpu_or_why_it_has_none(monkeypatch,
                                                         caplog):
    # this process moves each child right after forking it: to its CPU,
    # then back to the mask it inherited. The first child's second move
    # fails, which leaves that child alone unplaced
    asked = []

    def setaffinity(pid, cpus):
        asked.append(sorted(cpus))
        if len(asked) == 2:
            raise OSError(f"asked for {asked}")

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    caplog.set_level(logging.DEBUG, logger="dynvol")
    for here, logged in [
            (1, ["forked replications 1-2, unplaced: OSError: asked for "
                 "[[0], [0, 1, 2]]",
                 "forked replications 3-4 onto CPU 2"]),
            (None, ["forked replications 1-2, unplaced: the CPU this "
                    "process runs on cannot be read",
                    "forked replications 3-4, unplaced: the CPU this "
                    "process runs on cannot be read"])]:
        monkeypatch.setattr(_fanout, "_parent_cpu", lambda: here)
        caplog.clear()
        assert list(_fanout.fan_out(lambda span: list(span), 5, 3)) == [
            0, 1, 2, 3, 4]
        assert placements(caplog) == logged
    assert asked == [[0], [0, 1, 2], [2], [0, 1, 2]]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    monkeypatch.setattr(_fanout, "_parent_cpu", lambda: 1)
    caplog.clear()
    assert list(_fanout.fan_out(lambda span: list(span), 2, 2)) == [0, 1]
    assert placements(caplog) == [
        "forked replication 1, unplaced: the affinity mask holds only CPU 1"]
    assert len(asked) == 4
    assert_no_child_left()


def test_no_span_starts_before_its_child_is_placed(monkeypatch, tmp_path):
    # each move takes 50 ms; the moves and the start of each child's work
    # are written to one file, in the order they happen
    events = tmp_path / "events"
    parent = os.getpid()

    def note(line):
        with open(events, "a") as fh:
            fh.write(line + "\n")

    def setaffinity(pid, cpus):
        time.sleep(0.05)
        note(f"placed {pid}")

    def work(span):
        if os.getpid() != parent:
            note(f"work {os.getpid()}")
        return list(span)

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_fanout, "_parent_cpu", lambda: 1)
    assert list(_fanout.fan_out(work, 5, 3)) == [0, 1, 2, 3, 4]
    lines = events.read_text().splitlines()
    children = [line.split()[1] for line in lines if line.startswith("work")]
    assert len(set(children)) == 2
    for pid in children:
        assert lines.count(f"placed {pid}") == 2
        last_move = max(i for i, line in enumerate(lines)
                        if line == f"placed {pid}")
        assert lines.index(f"work {pid}") > last_move
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_each_reaped_child_logs_its_cpu_seconds(monkeypatch, caplog, cpus):
    monkeypatch.setattr(_fanout, "_cpus", lambda: cpus)
    caplog.set_level(logging.DEBUG, logger="dynvol")
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=4,
                       seed=777)
    assert run_simulation_study(cfg).processes == cpus
    spans = {2: ["replications 2-3"], 3: ["replication 1", "replications 2-3"]}
    reaped = [m for m in caplog.messages if m.startswith("reaped ")]
    assert [m.split(": ")[0] for m in reaped] == [
        f"reaped the process that walked {span}" for span in spans[cpus]]
    for m in reaped:
        cpu, faults = m.split(": ")[1].split(", ")
        seconds, unit = cpu.split(" ", 1)
        assert unit == "s of CPU" and float(seconds) >= 0.0
        count, unit = faults.split(" ", 1)
        # a forked child faults in at least the pages it writes
        assert unit == "minor page faults" and int(count) > 0
    assert_no_child_left()


def test_only_forked_children_are_moved(monkeypatch):
    # every move names the pid of a child that walked a span, never 0 and
    # never this process; a move asked for in a child ends that child
    parent = os.getpid()
    asked = []

    def setaffinity(pid, cpus):
        if os.getpid() != parent:
            os._exit(3)
        asked.append((pid, sorted(cpus)))

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_fanout, "_parent_cpu", lambda: 1)
    pids = list(_fanout.fan_out(lambda span: [os.getpid() for _ in span],
                                5, 3))
    assert pids[0] == parent
    children = [pids[1], pids[3]]
    assert pids[1:] == [children[0]] * 2 + [children[1]] * 2
    assert asked == [(children[0], [0]), (children[0], [0, 1, 2]),
                     (children[1], [2]), (children[1], [0, 1, 2])]
    assert not {pid for pid, _ in asked} & {0, parent}
    assert_no_child_left()


def test_a_child_gone_before_its_move_still_sends_its_walk(monkeypatch,
                                                           caplog):
    def gone(pid, cpus):
        raise ProcessLookupError(errno.ESRCH, "No such process")

    monkeypatch.setattr(os, "sched_setaffinity", gone)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(_fanout, "_parent_cpu", lambda: 1)
    caplog.set_level(logging.DEBUG, logger="dynvol")
    assert list(_fanout.fan_out(lambda span: list(span), 5, 3)) == [
        0, 1, 2, 3, 4]
    assert placements(caplog) == [
        f"forked replications {span}, unplaced: ProcessLookupError: "
        f"[Errno 3] No such process" for span in ("1-2", "3-4")]
    assert_no_child_left()


def test_a_study_that_cannot_place_its_processes_keeps_its_bytes(
        monkeypatch, tmp_path, caplog):
    def refuse(pid, cpus):
        raise OSError(errno.EINVAL, "Invalid argument")

    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=7,
                       seed=777)
    monkeypatch.setattr(_fanout, "_cpus", lambda: 1)
    write_study_outputs(run_simulation_study(cfg), tmp_path / "one")
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    caplog.set_level(logging.DEBUG, logger="dynvol")
    for cpus in (2, 3):
        monkeypatch.setattr(_fanout, "_cpus", lambda: cpus)
        caplog.clear()
        got = run_simulation_study(cfg)
        assert got.processes == cpus
        write_study_outputs(got, tmp_path / str(cpus))
        for name in ("report.csv", "per_rep.csv", "fig2_curve.csv",
                     "report.txt"):
            assert ((tmp_path / str(cpus) / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes())
        if CPUS > 1:
            assert len([m for m in caplog.messages if m.endswith(
                ", unplaced: OSError: [Errno 22] Invalid argument")]
                ) == cpus - 1
    assert_no_child_left()


def test_a_child_that_dies_is_named_with_its_replications(monkeypatch):
    cfg = _walk_breaks_at(monkeypatch, 3, 3)
    with pytest.raises(DynvolError, match="^the process walking replications "
                       "2-3 exited with status 3 before it sent the results$"):
        run_simulation_study(cfg)
    assert_no_child_left()


def test_simulate_reports_a_dead_child_on_one_error_line(monkeypatch,
                                                         tmp_path, capsys):
    from dynvol.cli import main
    _walk_breaks_at(monkeypatch, 3, 3)
    assert main(["simulate", "--reps", "4", "--series-len", "300",
                 "--in-sample", "260", "--seed", "777", "--quiet",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the process walking replications 2-3 exited with "
                   "status 3 before it sent the results"]
    assert_no_child_left()


def test_per_rep_rows_carry_the_replication_id(monkeypatch, tmp_path):
    # with rep 1 of 3 failing, the rows of reps 0 and 2 keep their ids
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=3,
                       seed=777, estimators=("Hist", "RiskM"))
    patch_rolling(monkeypatch, cfg, boom_at(1))
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
        # the study asks for every origin of a group of series at once, one
        # row per series; NaN at bad_origin only
        out = real(y, t, n)
        out[..., np.asarray(t) == bad_origin] = np.nan
        return out

    monkeypatch.setattr(hz, "moving_average", patched)
    res = run_simulation_study(cfg)
    assert res.report.excluded_steps == 1
    assert res.diagnostics["excluded_per_rep"] == (1,)
    monkeypatch.undo()

    sim = one_series(cfg, 0)
    track = rolling_forecast(sim, cfg, "RiskM")
    m = cfg.series_len - cfg.in_sample_len
    mask = np.ones(m, dtype=bool)
    mask[7] = False
    truth = sim.truth[first:first + m]
    expect = float(np.mean(np.abs(track[mask] - truth[mask])))
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


def test_ingest_reads_a_header_after_a_utf8_bom(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte order mark
    rows = ["2020-01-03,1.0", "2020-01-10,1.1", "2020-01-17,1.2"]
    plain = _write_csv(tmp_path, rows)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = ingest_csv(bom), ingest_csv(plain)
    assert got.values.tolist() == want.values.tolist() == [1.0, 1.1, 1.2]
    assert got.dates == want.dates


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"],
                         ids=["lf", "crlf", "cr"])
def test_ingest_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, bom, eol):
    # a Latin-1 export: the third line ends in 0xe9; the error is an
    # IngestionError naming that row, as for any other bad row
    p = tmp_path / "latin1.csv"
    p.write_bytes(bom + eol.join([b"date,value", b"2020-01-03,1.0",
                                  b"2020-01-10,1.1 caf\xe9",
                                  b"2020-01-17,1.2", b""]))
    with pytest.raises(IngestionError,
                       match=r"^row 3 is not UTF-8: byte 0xe9$"):
        ingest_csv(p)


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
    with pytest.raises(IngestionError, match="frequency 'biweekly'"):
        ingest_csv(p, frequency="biweekly")


def test_dataset_validation():
    with pytest.raises(ValueError):
        BacktestDataset("x", np.arange(4.0) + 1.0, None, 1 / 52, 4)
    with pytest.raises(ValueError):
        BacktestDataset("x", np.arange(4.0) + 1.0, None, 1 / 52, 2,
                        return_mode="pct")
    with pytest.raises(ValueError, match="1-d"):
        BacktestDataset("x", np.ones((2, 3)), None, 1 / 52, 1)
    with pytest.raises(ValueError, match="^delta must be positive and "
                       "finite, got inf$"):
        BacktestDataset("x", np.arange(4.0) + 1.0, None, math.inf, 2)


def _weekly_csv(tmp_path, n, name="weekly.csv"):
    d0 = dt.date(2020, 1, 3)
    return _write_csv(tmp_path, [
        f"{(d0 + dt.timedelta(days=7 * i)).isoformat()},{1.0 + 0.01 * i!r}"
        for i in range(n)], name=name)


def test_ingest_reads_a_row_count_as_int_or_digits(tmp_path):
    p = _weekly_csv(tmp_path, 400)
    a, b = ingest_csv(p, in_sample_end=300), ingest_csv(p, in_sample_end="300")
    assert a.in_sample_end == b.in_sample_end == 300
    assert a.dates == b.dates
    assert a.values.tobytes() == b.values.tobytes()
    assert a.levels.tobytes() == b.levels.tobytes()


def test_ingest_reads_an_integer_row_count_and_rejects_a_float(tmp_path):
    p = _weekly_csv(tmp_path, 400)
    for split in (300, np.int64(300), "300"):
        assert ingest_csv(p, in_sample_end=split).in_sample_end == 300
    # a float is neither truncated nor rounded to a row count
    for split in (300.5, 2.9, 300.0, np.float64(300.0)):
        with pytest.raises(IngestionError) as info:
            ingest_csv(p, in_sample_end=split)
        assert str(info.value) == (f"in_sample_end {split!r} is neither a "
                                   "row count nor an ISO date")


def test_ingest_splits_after_an_iso_date(tmp_path):
    # 2020-01-20 falls between the rows of 2020-01-17 and 2020-01-24
    d = ingest_csv(_weekly_csv(tmp_path, 10), in_sample_end="2020-01-20")
    assert d.in_sample_end == 3
    assert d.dates[2] == "2020-01-17" and d.dates[3] == "2020-01-24"


@pytest.mark.parametrize("split, detail", [
    ("foo", "is neither a row count nor an ISO date"),
    ("-5", "is neither a row count nor an ISO date"),
    ("300.5", "is neither a row count nor an ISO date"),
    ("2020-13-01", "is neither a row count nor an ISO date"),
    ("400", "leaves 400 of 400 rows in sample; it must leave 2 to 399"),
    (99999, "leaves 99999 of 400 rows in sample; it must leave 2 to 399"),
    (-5, "leaves -5 of 400 rows in sample; it must leave 2 to 399"),
    ("1", "leaves 1 of 400 rows in sample; it must leave 2 to 399"),
    ("2020-01-05", "leaves 1 of 400 rows in sample; it must leave 2 to 399"),
    ("2030-01-01", "leaves 400 of 400 rows in sample; it must leave 2 to 399"),
], ids=["word", "minus", "decimal", "bad-date", "count-at-end", "count-past-end",
        "negative-count", "count-1", "early-date", "late-date"])
def test_ingest_rejects_a_split_naming_in_sample_end(tmp_path, split, detail):
    with pytest.raises(IngestionError) as info:
        ingest_csv(_weekly_csv(tmp_path, 400), in_sample_end=split)
    shown = repr(split) if "neither" in detail else split
    assert str(info.value) == f"in_sample_end {shown} {detail}"


def test_log_mode_levels_have_the_bits_of_math_log():
    # numpy's log kernel is picked by CPU and rounds some levels one ulp
    # apart under AVX-512; math.log is the same on every host
    # about 4 in 1,000 such levels round apart there
    values = np.random.default_rng(5).uniform(0.5, 2.0, 10_000)
    d = BacktestDataset("x", values, None, 1 / 252, 6000)
    want = np.array([math.log(v) for v in values.tolist()])
    assert d.levels.tobytes() == want.tobytes()


def test_dataset_rejects_a_zero_level_in_log_mode():
    # at construction, before any backtest runs
    values = np.array([1.0, 2.0, 0.0, 3.0, 4.0])
    with pytest.raises(IngestionError, match="strictly positive"):
        BacktestDataset("x", values, None, 1 / 52, 3)
    d = BacktestDataset("x", values, None, 1 / 52, 3, return_mode="diff")
    assert d.levels.tolist() == values.tolist()
    assert d.levels is not d.values
    ok = BacktestDataset("x", values + 1.0, None, 1 / 52, 3)
    assert ok.levels.tobytes() == np.log(values + 1.0).tobytes()


def test_ingest_reports_invalid_rows_before_other_row_errors(tmp_path):
    # row 3 is invalid, row 4 infinite and row 5 out of order: only the
    # first kind of error, invalid rows, is reported
    p = _write_csv(tmp_path, ["2020-01-03,1.0", "2020-01-10,oops",
                              "2020-01-17,inf", "2020-01-01,1.2",
                              "2020-01-24,1.3"])
    with pytest.raises(IngestionError) as info:
        ingest_csv(p)
    assert str(info.value) == "invalid rows: [3]"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_levels_that_are_not_finite(bad):
    # built directly, not through ingest_csv; the run would otherwise fail
    # late inside the state fit
    values = np.arange(6.0) + 1.0
    values[3] = bad
    with pytest.raises(ValueError, match=r"values\[3\]"):
        BacktestDataset("x", values, None, 1 / 52, 4)


# ---------------------------------------------------------------------------
# backtest

@pytest.fixture(scope="module")
def gbm_csv(tmp_path_factory):
    import datetime as dt
    path = simulate_gbm(study_preset("gbm").model_params, 1.0 / 52.0, 360,
                                     RngStream(99, 0))
    d0 = dt.date(2015, 1, 2)
    rows = ["date,value"]
    for i, v in enumerate(path):
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
        assert res.quantiles[e] < 0.0  # lower-tail quantile
    assert set(res.per_rep) == {"made", "pe", "rade", "er"}
    for v in res.per_rep.values():
        assert v.shape == (1, len(ESTIMATORS)) and np.all(np.isfinite(v))
    assert np.all((0.0 <= res.per_rep["er"]) & (res.per_rep["er"] <= 1.0))
    assert res.report.excluded_steps == 0
    # no randomness anywhere: a second run is identical
    res2 = run_backtest(data, cfg)
    assert all(np.array_equal(res2.per_rep[k], v)
               for k, v in res.per_rep.items())


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
    for j, e in enumerate(ESTIMATORS):
        resid = y[split - qwin:split] / np.sqrt(tracks[e][:qwin])
        assert res.quantiles[e] == np.sort(resid)[k]
        assert res.per_rep["er"][0, j] == float(np.mean(
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


def test_backtest_rejects_constant_in_sample_squared_returns():
    # diff-mode levels that step by +-0.5 in turn: every squared return is
    # the same
    values = 5.0 + 0.5 * (np.arange(300) % 2)
    data = BacktestDataset("x", values, None, 1 / 52, 220, return_mode="diff")
    with pytest.raises(DegenerateSeriesError,
                       match="^constant in-sample squared returns$"):
        run_backtest(data, study_preset("gbm", er_window=60))


@pytest.mark.parametrize("steps, message", [
    # one warmup step, and every out-of-sample step, of the er_window = 60
    # warmup forecasts ahead of them
    (slice(3, 4), "non-finite warmup forecasts for RiskM"),
    (slice(60, None), "no usable out-of-sample steps")])
def test_backtest_rejects_non_finite_forecasts_by_name(gbm_csv, monkeypatch,
                                                       steps, message):
    real = harness._rolling

    def rolling(*args):
        tracks, counters = real(*args)
        tracks["RiskM"][steps] = np.nan
        return tracks, counters

    monkeypatch.setattr(harness, "_rolling", rolling)
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=220)
    with pytest.raises(DynvolError, match=f"^{message}$"):
        run_backtest(data, study_preset("gbm", er_window=60))


def test_backtest_needs_warmup_history(gbm_csv):
    data = ingest_csv(gbm_csv, frequency="weekly", in_sample_end=120)
    cfg = study_preset("gbm", er_window=250)  # 250 warmup steps will not fit
    with pytest.raises(InsufficientHistoryError):
        run_backtest(data, cfg)
