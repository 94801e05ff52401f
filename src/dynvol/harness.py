"""Rolling one-step-ahead forecasting harness and study runners.

Five estimators are tracked side by side:

  Hist       moving average of squared returns over the last year of steps
  RiskM      exponential smoothing with the standard decay
  SemiProxy  exponential smoothing with the decay re-selected from a small
             grid by trailing one-step prediction error
  NonBay     moment-matched Bayes shrinkage of the smoother toward the
             state-domain (level-conditional) estimate
  Integ      variance-weighted blend, weights recomputed every step

Forecasts at origin i use returns y[0:i] and levels r[0:i+1] only; the
state-domain fit additionally excludes the n most recent returns and is
refreshed on a fixed schedule while the query point moves every step.

The walk-forward runs by refit block: each block of state_refit_every
origins makes one state-domain fit and one windowed query of all its
origins' levels. Everything else takes the whole series at once: the
time-domain tracks and autocorrelations, Integ's time-domain variance, the
dynamic blend and NonBay's shrinkage, each one call on arrays with one
entry per origin, and so do the fallback counters. A study computes the
time-domain tracks (Hist, the smoother, SemiProxy) of each simulated group
at once, one row per series, and each row has the bits of its series
alone. It runs its replications on up to one process per CPU,
forked once per study (dynvol._fanout), and folds the results in
replication order.

Studies and backtests score through one path: steps where any estimator's
forecast is not finite are dropped for every estimator, and the exceedance
ratio uses the normal alpha-quantile in studies and, in backtests, the
empirical alpha-quantile of each estimator's own standardized in-sample
residuals over the last er_window (>= 50) steps before the split. The first
estimator is the reference for relative losses unless Integ is present.
"""

from __future__ import annotations

import csv
import logging
import os
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from . import _fanout
from .errors import (DegenerateSeriesError, DynvolError,
                     InsufficientHistoryError, check_finite, store_ints)
from .evaluation import (MeasureReport, build_report, empirical_quantile,
                         exceedance_ratio, imade, made, pe, rade,
                         report_to_csv, report_to_text)
from .ingest import BacktestDataset
from .integration import MATCHED_SHAPE, bayes_es, combine_estimates
from .sde import (LOG_MAX, CirParams, GbmParams, RngStream, SvParams,
                  levels_from_returns, simulate_cir, simulate_gbm,
                  simulate_sv, to_returns)
from .state_domain import (MIN_STATE_PAIRS, DriftFit, _window_estimates,
                           select_bandwidth)
from .time_domain import (EsConfig, _per_origin, autocorr_sq, es_variance,
                          exp_smooth, moving_average)

log = logging.getLogger("dynvol")


class _Role(NamedTuple):
    """What an estimator needs: the returns before its first origin, and
    whether it reads the smoothed estimate and the state-domain fit."""

    history: Callable[[StudyConfig], int]
    smoother: bool
    state: bool


_ROSTER = {
    "Hist": _Role(lambda c: c.hist_window, False, False),
    "RiskM": _Role(lambda c: c.es.n, True, False),
    "SemiProxy": _Role(lambda c: 2 * c.es.n, False, False),
    "NonBay": _Role(lambda c: c.es.n + MIN_STATE_PAIRS, True, True),
    "Integ": _Role(lambda c: max(c.es.n + MIN_STATE_PAIRS, c.max_lag + 2),
                   True, True),
}
ESTIMATORS = tuple(_ROSTER)


def _walks_state(ests: Sequence[str]) -> bool:
    """Whether a roster needs the per-step state-domain walk."""
    return any(_ROSTER[e].state for e in ests)


DEFAULT_SEMI_GRID = (0.90, 0.92, 0.94, 0.96, 0.98)
SEMI_FALLBACK_LAM = 0.94


# least values of StudyConfig's int fields (series_len: above in_sample_len)
_INT_MIN = {"in_sample_len": 2, "n_reps": 1, "seed": 0, "state_refit_every": 1,
            "hist_window": 1, "max_lag": 1, "er_window": 50}


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce a simulation study run; model_params
    left None takes the model's preset parameters."""

    model: str = "CIR"
    model_params: CirParams | SvParams | GbmParams | None = None
    delta: float = 1.0 / 52.0
    series_len: int = 1200
    in_sample_len: int = 900
    n_reps: int = 100
    estimators: tuple[str, ...] = ESTIMATORS
    es: EsConfig = field(default_factory=EsConfig)
    hist_window: int = 52
    state_refit_every: int = 8
    alpha: float = 0.05
    seed: int = 12345
    trim_upper: float = 0.0
    semi_grid: tuple[float, ...] = DEFAULT_SEMI_GRID
    max_lag: int = 30
    er_window: int = 250

    def __post_init__(self):
        store_ints(self, "series_len", *_INT_MIN)
        if self.model not in _PRESETS:
            raise ValueError(f"unknown model {self.model!r}")
        preset = _PRESETS[self.model]["model_params"]
        if self.model_params is None:
            object.__setattr__(self, "model_params", preset)
        if not isinstance(self.model_params, type(preset)):
            raise ValueError(f"model_params must be {type(preset).__name__}, "
                             f"not {type(self.model_params).__name__}")
        if self.in_sample_len >= self.series_len:
            raise ValueError("in_sample_len must be < series_len")
        for name, least in _INT_MIN.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.0 <= self.trim_upper < 1.0):
            raise ValueError("trim_upper must lie in [0, 1)")
        check_finite(self, "delta", positive=True)
        if self.model == "GBM":
            p = self.model_params
            drift = (abs(p.mu - 0.5 * p.sigma**2) * self.delta
                     * (self.series_len - 1))
            if not drift <= LOG_MAX:
                raise ValueError(
                    f"mu = {p.mu!r}, sigma = {p.sigma!r} and delta = "
                    f"{self.delta!r} drift the GBM log path by {drift:.3g} "
                    f"over series_len = {self.series_len}, past "
                    f"+-{LOG_MAX:.1f}, outside the float range")
        if not self.estimators:
            raise ValueError("estimators must name at least one estimator")
        bad = [e for e in self.estimators if e not in ESTIMATORS]
        if bad:
            raise ValueError(f"unknown estimators {bad}")
        if not self.semi_grid:
            raise ValueError("semi_grid must hold at least one decay")
        if not all(0.0 < lam <= 1.0 for lam in self.semi_grid):
            raise ValueError("semi_grid decays must lie in (0, 1]")
        for name in ("estimators", "semi_grid"):
            items = getattr(self, name)
            dup = sorted({x for x in items if items.count(x) > 1})
            if dup:
                raise ValueError(f"{name} lists {dup} more than once")


# Each preset's model parameters and the fields that differ from the
# StudyConfig defaults, which are the weekly square-root rate study: 1200
# observations, first 900 in-sample. SV is monthly with three quarters
# in-sample, GBM weekly with two thirds.
_PRESETS = {
    "CIR": dict(model_params=CirParams(kappa=0.21459, theta=0.08571,
                                       sigma=0.07830)),
    "SV": dict(model_params=SvParams(kappa=3.0, theta=0.009, alpha2=4.0,
                                     substeps=30),
               delta=1.0 / 12.0, series_len=1000, in_sample_len=750,
               es=EsConfig(0.94, 12), hist_window=12, state_refit_every=2),
    "GBM": dict(model_params=GbmParams(mu=0.03, sigma=0.26),
                series_len=1000, in_sample_len=667),
}


def study_preset(model: str, **overrides) -> StudyConfig:
    """The study design of model ("cir", "sv" or "gbm", any case), with the
    given StudyConfig fields overridden."""
    key = model.upper()
    if key not in _PRESETS:
        raise ValueError(f"no preset for model {model!r}")
    return StudyConfig(**{"model": key, **_PRESETS[key], **overrides})


class SimulatedGroup(NamedTuple):
    """Simulated replications, one row each: the levels, the scaled returns
    y and the true conditional variance of each return."""

    levels: np.ndarray
    y: np.ndarray
    truth: np.ndarray


def simulate_series(cfg: StudyConfig, reps: Sequence[int]) -> SimulatedGroup:
    """One replication of the configured model per rep in reps, row i on
    stream reps[i]. SV replications run in lockstep; a replication has the
    same bits in any group. The simulators raise only ValueError, which
    stops a study, and so does a series whose returns' fourth powers sum
    past the float range: the SemiProxy search, the bandwidth CV, the
    autocorrelation and the scores square the squared returns."""
    p = cfg.model_params
    rngs = [RngStream(cfg.seed, rep) for rep in reps]
    if cfg.model == "SV":
        y, truth = simulate_sv(p, cfg.delta, cfg.series_len - 1, rngs)
    else:
        sim = simulate_cir if cfg.model == "CIR" else simulate_gbm
        levels = np.stack([sim(p, cfg.delta, cfg.series_len, rng)
                           for rng in rngs])
        y = to_returns(levels, cfg.delta)
    with np.errstate(over="ignore"):
        # sum y^4 as a dot of the squares: y ** 4 took 30 times as long
        if not all(np.isfinite(np.dot(y2, y2)) for y2 in y * y):
            named = ", ".join(f"{k} = {v!r}" for k, v in vars(p).items())
            raise ValueError(f"{named} and delta = {cfg.delta!r} drew "
                             f"returns whose fourth powers sum past the "
                             f"float range")
    if cfg.model == "SV":
        return SimulatedGroup(levels_from_returns(y, cfg.delta), y, truth)
    # the step variance is sigma^2 r^power: r for CIR, r^2 for GBM
    power = 1 if cfg.model == "CIR" else 2
    return SimulatedGroup(levels, y, p.sigma**2 * levels[:, :-1] ** power)


# ---------------------------------------------------------------------------
# estimator plumbing

class _SemiSelector:
    """Smoothed estimate with the decay picked by trailing prediction error.

    For each candidate decay, one-step forecasts of the squared return are
    scored over the last n origins; the candidate with the smallest total
    squared error wins, the first of them on a tie. Needs 2n of history. A
    degenerate search (no finite losses, or all of several candidates tied)
    falls back to SEMI_FALLBACK_LAM and counts it in
    counters["semi_fallback"].

    value takes an int origin or a 1-d int array of origins, and y is one
    series or a 2-d array of them, one per row, as exp_smooth takes them.
    Each candidate's forecasts over every scored window come from one
    exp_smooth call, the smoother RiskM reads, and each loss is
    np.add.reduce of its window of squared errors, so an origin's value
    does not depend on the other origins or rows. The winner is the argmin
    of the stacked losses, each non-finite one set to +inf so it never wins.
    """

    def __init__(self, y: np.ndarray, n: int, grid: tuple[float, ...]):
        self.y = y
        self.n = n
        self.grid = grid

    def value(self, t, counters: dict, per_row: np.ndarray | None = None):
        """SemiProxy at origin(s) t, shaped as exp_smooth(self.y, t, ...).
        The fallbacks are added to counters["semi_fallback"] and, for a 2-d
        y, row by row to per_row when it is given."""
        n, o = self.n, np.atleast_1d(t)
        lo = o.min() - n
        pred, loss = map(np.stack, zip(*(self._scored(lam, lo, o - lo)
                                         for lam in self.grid)))
        finite = np.isfinite(loss)
        loss[~finite] = np.inf
        out = np.take_along_axis(pred, loss.argmin(axis=0)[None], axis=0)[0]
        # several decays fall back when every finite loss is the same, and so
        # when none is finite; a single decay when its loss is not finite
        fallback = ((loss == loss.min(axis=0)).all(axis=0, where=finite)
                    if len(self.grid) > 1 else ~finite[0])
        if fallback.any():
            counters["semi_fallback"] += int(fallback.sum())
            if per_row is not None:
                per_row += np.count_nonzero(fallback, axis=-1)
            out[fallback] = exp_smooth(self.y, o, EsConfig(
                SEMI_FALLBACK_LAM, n))[fallback]
        return _per_origin(t, out)

    def _scored(self, lam: float, lo: int, at: np.ndarray):
        """Decay lam's forecasts at the origins lo + at, and the squared
        errors of its one-step forecasts of the squared returns over the n
        origins before each, summed; lo is the first origin scored."""
        n, hi = self.n, lo + at.max()
        pred = exp_smooth(self.y, np.arange(lo, hi + 1), EsConfig(lam, n))
        err = self.y[..., lo:hi] ** 2 - pred[..., :-1]
        err *= err
        # window j holds the errors at origins lo + j .. lo + j + n - 1
        windows = np.lib.stride_tricks.sliding_window_view(err, n, axis=-1)
        return pred[..., at], np.add.reduce(windows, axis=-1)[..., at - n]


class _TimeTracks(NamedTuple):
    """One series' time-domain tracks over the origins of its walk-forward,
    None where the roster reads none: Hist, the smoother that RiskM, NonBay
    and Integ read, and SemiProxy with its fallback count."""

    hist: np.ndarray | None
    smooth: np.ndarray | None
    semi: np.ndarray | None
    semi_fallback: int


def _time_tracks(ys: np.ndarray, cfg: StudyConfig, origins: np.ndarray
                 ) -> list[_TimeTracks]:
    """The time-domain tracks of each series of ys, one per row, at origins:
    one exp_smooth or moving_average call per track and one SemiProxy
    search for all rows. Each row has the bits of a one-row call."""
    ests = cfg.estimators
    hist = smooth = semi = None
    # each replication takes its own row's fallback count, so that a failed
    # one adds none to the study's total
    fallback = np.zeros(len(ys), dtype=int)
    if "SemiProxy" in ests:
        semi = _SemiSelector(ys, cfg.es.n, cfg.semi_grid).value(
            origins, _new_counters(), per_row=fallback)
    if "Hist" in ests:
        hist = moving_average(ys, origins, cfg.hist_window)
    if any(_ROSTER[e].smoother for e in ests):
        smooth = exp_smooth(ys, origins, cfg.es)
    return [_TimeTracks(*(None if a is None else a[i]
                          for a in (hist, smooth, semi)), int(fallback[i]))
            for i in range(len(ys))]


class _StateFit(NamedTuple):
    """The state-domain fit between refits: the h1 drift fit, whose sorted x
    and resid2 the variance bandwidth h queries and the next refit extends,
    and the floor eps_var of the state estimate."""

    pairs: DriftFit
    h: float
    eps_var: float


def _fit_state(levels, y, origin, cfg: StudyConfig, prev: _StateFit | None,
               counters) -> _StateFit:
    """State-domain fit at `origin` on the pairs before the time-domain
    window, that is all but the cfg.es.n most recent returns. With prev None
    the bandwidths are selected and the drift fitted from scratch; otherwise
    prev is the fit at an earlier origin of the same series, whose
    bandwidths stay and whose drift fit takes in the pairs added since."""
    x, yy = levels[:origin - cfg.es.n], y[:origin - cfg.es.n]
    if prev is None:
        drift, h = select_bandwidth(x, yy)
    else:
        h = prev.h
        done = prev.pairs.count
        drift = prev.pairs.extend(x[done:], yy[done:])
    counters["drift_fallback"] += int(
        np.count_nonzero(~np.isfinite(drift.drift)))
    eps_var = 1e-12 * float(np.var(drift.resid2))
    return _StateFit(drift, h, eps_var)


def _eval_state(fit: _StateFit, x0: np.ndarray, counters):
    """State estimate and sum of squared equivalent weights at each query
    level of x0 (the origins of one refit block), NaN where there is no
    coverage. A singular design falls back to the locally constant fit, and
    an estimate below the fit's floor eps_var takes the floor."""
    sig2, xi_sq, singular = _window_estimates(fit.pairs.x, fit.pairs.resid2,
                                              x0, fit.h)
    floor = sig2 < fit.eps_var
    sig2[floor] = fit.eps_var
    counters["state_nocov"] += int(np.isnan(sig2).sum())
    counters["state_singular"] += int(singular.sum())
    counters["state_floor"] += int(floor.sum())
    return sig2, xi_sq


def _new_counters() -> dict:
    return {"state_nocov": 0, "state_singular": 0, "state_floor": 0,
            "drift_fallback": 0, "semi_fallback": 0, "c_clamped": 0,
            "integ_time_only": 0, "nan_steps": 0}


def _check_history(cfg: StudyConfig, first: int) -> None:
    need = max(_ROSTER[e].history(cfg) for e in cfg.estimators)
    if first < need:
        raise InsufficientHistoryError(
            f"first origin {first} < required history {need}")


def _rolling(levels: np.ndarray, y: np.ndarray, cfg: StudyConfig,
             first: int, n_steps: int, time: _TimeTracks | None = None
             ) -> tuple[dict, dict]:
    """Run all configured estimators over origins [first, first + n_steps).
    time holds the series' time-domain tracks over those origins when its
    study's replication group computed them already; a backtest passes
    none, and they are computed here, as a group of one."""
    _check_history(cfg, first)
    if first + n_steps > y.size:
        raise InsufficientHistoryError("evaluation stretch exceeds data")
    z = y[:first] ** 2
    if z.size and z.max() == z.min():
        raise DegenerateSeriesError("constant in-sample squared returns")

    ests = cfg.estimators
    need_state = _walks_state(ests)
    counters = _new_counters()
    tracks = {e: np.full(n_steps, np.nan) for e in ests}
    # _check_history and the stretch check above keep every window in range
    origins = np.arange(first, first + n_steps)
    if time is None:
        [time] = _time_tracks(y[None], cfg, origins)
    es_track = time.smooth
    if "Hist" in ests:
        tracks["Hist"] = time.hist
    if "RiskM" in ests:
        tracks["RiskM"] = es_track
    if "SemiProxy" in ests:
        tracks["SemiProxy"] = time.semi
        counters["semi_fallback"] += time.semi_fallback
    if not need_state:
        return tracks, counters

    # the state estimate and its sum of squared weights at every origin, NaN
    # where there is none: one fit and one windowed query per refit block.
    # counters goes by keyword to _fit_state and _eval_state: the count
    # hooks of perfbench/tracer.py look it up by name
    sig2 = np.full(n_steps, np.nan)
    xi_sq = np.full(n_steps, np.nan)
    fit = None
    for start in range(0, n_steps, cfg.state_refit_every):
        block = slice(start, start + cfg.state_refit_every)
        fit = _fit_state(levels, y, first + start, cfg, fit, counters=counters)
        sig2[block], xi_sq[block] = _eval_state(
            fit, levels[origins[block]], counters=counters)
    covered = ~np.isnan(sig2)
    if "NonBay" in ests:
        tracks["NonBay"] = es_track.copy()
        tracks["NonBay"][covered] = bayes_es(es_track[covered], sig2[covered],
                                             cfg.es.lam, cfg.es.n,
                                             MATCHED_SHAPE)
    if "Integ" in ests:
        # autocorr_sq's degenerate rows have no time-domain variance
        acf = autocorr_sq(y, origins, cfg.max_lag)
        ok = np.flatnonzero(~np.isnan(acf[:, 0]))
        counters["nan_steps"] += n_steps - ok.size
        tve = es_variance(es_track[ok], cfg.es, acf[ok])
        counters["c_clamped"] += tve.clamped
        # Integ is the smoother alone where there is no state estimate
        tracks["Integ"][ok] = es_track[ok]
        both = covered[ok]
        counters["integ_time_only"] += int(ok.size - both.sum())
        rows = ok[both]
        s2 = sig2[rows]
        tracks["Integ"][rows] = combine_estimates(
            tve.sigma2_hat[both], tve.var_hat[both], s2,
            2.0 * s2**2 * xi_sq[rows])
    return tracks, counters


# ---------------------------------------------------------------------------
# simulation study

# most replications one simulate_series call runs, and one _time_tracks
# call tracks: SV in lockstep, which pays off from 2, as each column past
# the first adds about an eighth of what one column alone costs, and CIR
# and GBM path by path.
SIM_GROUP = 64

# per-replication measures, in per_rep.csv column order
_MEASURES = ("imade", "made", "pe", "rade", "er")


@dataclass
class StudyResult:
    cfg: StudyConfig
    report: MeasureReport
    per_rep: dict[str, np.ndarray]
    curve: np.ndarray
    diagnostics: dict
    failed_reps: tuple[int, ...] = ()
    # processes that ran the replications, this one included
    processes: int = 1


def _score(tracks: np.ndarray, y_out: np.ndarray,
           quantile: float | np.ndarray, truth: np.ndarray | None = None
           ) -> dict[str, np.ndarray]:
    """Measure -> one value per estimator of each replication, one call per
    measure: tracks is (replications x) estimators x steps, every forecast
    finite and C-contiguous, y_out and truth (replications x) steps, and
    quantile the exceedance quantile, or one per estimator as estimators x
    1. imade is computed only when the true variance is given."""
    y = y_out[..., None, :]
    vals = {} if truth is None else {"imade": imade(truth[..., None, :],
                                                    tracks)}
    for k, measure in (("made", made), ("pe", pe), ("rade", rade)):
        vals[k] = measure(y, tracks)
    vals["er"] = exceedance_ratio(y, tracks, quantile)
    return vals


def _score_alone(tracks: np.ndarray, y_out: np.ndarray,
                 quantile: float | np.ndarray, truth: np.ndarray | None = None
                 ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The step mask of one series' tracks (estimators x steps), the steps
    where every forecast is finite, and _score over those steps."""
    mask = np.isfinite(tracks).all(axis=0)
    if not mask.any():
        raise DynvolError("no usable out-of-sample steps")
    # compress, not tracks[:, mask], which is F-ordered: its row means
    # differ from the 1-d means in the last bit
    return mask, _score(tracks.compress(mask, axis=-1), y_out[mask],
                        quantile, None if truth is None else truth[mask])


def _report(per_rep: dict[str, np.ndarray], ests: tuple[str, ...],
            trim_upper: float, excluded: int, failed: int) -> MeasureReport:
    """The report of per_rep (measure -> reps x estimators) against Integ,
    or the first estimator without it; pe is not reported."""
    ref = "Integ" if "Integ" in ests else ests[0]
    return build_report({k: v for k, v in per_rep.items() if k != "pe"},
                        ests, ref, trim_upper, excluded, failed)


def _replications(cfg: StudyConfig, origins: np.ndarray, walk, span: range):
    """The results of each replication of span, in order: the span is
    simulated SIM_GROUP replications at a time, each group is tracked in
    one _time_tracks call, and walk(group, times) gives the result of each
    of its replications from their time-domain tracks at origins. Each
    replication has the bits it has alone, so the results do not depend on
    how the study's replications are cut into spans or groups."""
    for lo in range(span.start, span.stop, SIM_GROUP):
        group = simulate_series(cfg, range(lo, min(lo + SIM_GROUP, span.stop)))
        yield from walk(group, _time_tracks(group.y, cfg, origins))


def run_simulation_study(cfg: StudyConfig) -> StudyResult:
    """Monte Carlo study: per-replication measures, scores, and the per-step
    mean absolute error curve. Each finished replication is logged at INFO
    level on the "dynvol" logger.

    Steps where any estimator's forecast is not finite are excluded from
    every estimator's measures, keeping the comparison fair; the count is
    reported. The exceedance ratio uses the normal alpha-quantile. An
    in-sample stretch too short for the roster raises
    InsufficientHistoryError before anything is simulated. A replication
    whose walk-forward raises DynvolError, or has no usable step, is
    skipped; diagnostics["failed_reasons"] maps it to
    "<ExceptionClass>: <message>". The replications are cut into one
    contiguous span per process, forked once before anything is simulated,
    and each process runs its span through _replications. Every result is
    folded in replication order, so the outputs do not depend on the
    process count.
    """
    ests = cfg.estimators
    first = cfg.in_sample_len - 1
    _check_history(cfg, first)
    m = cfg.series_len - cfg.in_sample_len
    z = NormalDist().inv_cdf(cfg.alpha)
    rows: dict[str, list] = {k: [] for k in _MEASURES}
    curve_sum = np.zeros((len(ests), m))
    curve_cnt = np.zeros(m)
    totals = _new_counters()
    failed: dict[int, str] = {}
    excluded_per_rep: list[int] = []

    def walk(group: SimulatedGroup, times: list[_TimeTracks]):
        """Each replication's counters, step mask, measures and |forecast -
        truth| per estimator and step, or why it failed. The group's tracks
        are stacked as replications x estimators x steps; the replications
        whose forecasts are all finite are scored in one _score call, and
        any other alone, over its own step mask."""
        outs: list = []
        block = np.full((len(times), len(ests), m), np.nan)
        for levels, y, time, row in zip(group.levels, group.y, times, block):
            try:
                tracks, counters = _rolling(levels, y, cfg, first, m, time)
            except DynvolError as exc:
                outs.append(f"{type(exc).__name__}: {exc}")
                continue
            row[:] = [tracks[e] for e in ests]
            outs.append(counters)
        y_out = group.y[:, first:first + m]
        truth = group.truth[:, first:first + m]
        err = np.abs(block - truth[:, None])
        walked = [i for i, out in enumerate(outs) if isinstance(out, dict)]
        finite = np.isfinite(block).all(axis=(1, 2))
        whole = [i for i in walked if finite[i]]
        if whole:
            vals = _score(block[whole], y_out[whole], z, truth[whole])
            every = np.ones(m, dtype=bool)
            for k, i in enumerate(whole):
                outs[i] = (outs[i], every, {key: v[k] for key, v in
                                            vals.items()}, err[i])
        for i in walked:
            if finite[i]:
                continue
            try:
                mask, one = _score_alone(block[i], y_out[i], z, truth[i])
            except DynvolError as exc:
                outs[i] = f"{type(exc).__name__}: {exc}"
                continue
            outs[i] = (outs[i], mask, one, err[i])
        return outs

    # a roster without a state-domain estimator stays on this process: its
    # walks only score tracks, and forking them, each process simulating
    # and tracking its own span, cost the 40-rep SV time-only study 52% more
    # CPU time per op on 2 CPUs for 17% less wall time (medians of 10
    # alternating pairs, each group scored as one block)
    processes = (min(_fanout._cpus(), cfg.n_reps) if _walks_state(ests)
                 else 1)
    work = partial(_replications, cfg, np.arange(first, first + m), walk)
    with closing(_fanout.fan_out(work, cfg.n_reps, processes)) as outs:
        for rep, out in enumerate(outs):
            if isinstance(out, str):
                failed[rep] = out
                continue
            counters, mask, vals, err = out
            for k, v in counters.items():
                totals[k] += v
            excluded_per_rep.append(int(m - mask.sum()))
            for k in rows:
                rows[k].append(vals[k])
            np.add(curve_sum, err, out=curve_sum, where=mask)
            curve_cnt += mask
            log.info("rep %d/%d done", rep + 1, cfg.n_reps)

    if not rows["made"]:
        rep, reason = next(iter(failed.items()))
        raise DynvolError(f"every replication failed (rep {rep}: {reason})")
    per_rep = {k: np.asarray(v) for k, v in rows.items()}
    report = _report(per_rep, ests, cfg.trim_upper, sum(excluded_per_rep),
                     len(failed))
    with np.errstate(invalid="ignore"):
        curve = np.where(curve_cnt > 0,
                         curve_sum / np.maximum(curve_cnt, 1.0), np.nan).T
    totals["excluded_per_rep"] = tuple(excluded_per_rep)
    totals["failed_reasons"] = failed
    return StudyResult(cfg, report, per_rep, curve, totals, tuple(failed),
                       processes)


# ---------------------------------------------------------------------------
# real-data backtest

@dataclass
class BacktestResult:
    cfg: StudyConfig
    data: BacktestDataset
    report: MeasureReport
    per_rep: dict[str, np.ndarray]
    quantiles: dict[str, float]
    diagnostics: dict


def run_backtest(data: BacktestDataset, cfg: StudyConfig) -> BacktestResult:
    """Out-of-sample backtest on ingested levels.

    Returns are the scaled differences of the dataset's levels, which are
    also the state variable. The exceedance quantile is the empirical
    lower alpha-quantile of each estimator's own standardized in-sample
    residuals over the trailing er_window steps before the split. The true
    variance is unknown, so no imade is computed. The result's cfg is cfg
    as given, so its `config --dump` replays the run.
    """
    y = to_returns(data.levels, data.delta)
    in_len = data.in_sample_end
    qwin = cfg.er_window
    first_warm = in_len - 1 - qwin
    if first_warm < 0:
        raise InsufficientHistoryError(
            f"need {qwin} in-sample residual steps before the split")
    m = y.size - (in_len - 1)
    tracks, counters = _rolling(data.levels, y, cfg, first_warm, qwin + m)
    ests = cfg.estimators

    quantiles = {}
    for e in ests:
        warm = tracks[e][:qwin]
        if not np.all(np.isfinite(warm)):
            raise DynvolError(f"non-finite warmup forecasts for {e}")
        res = y[first_warm:first_warm + qwin] / np.sqrt(warm)
        quantiles[e] = empirical_quantile(res, cfg.alpha, qwin)

    # a backtest is scored as a group of one
    mask, vals = _score_alone(
        np.stack([tracks[e][qwin:] for e in ests]), y[in_len - 1:],
        np.array([quantiles[e] for e in ests])[:, None])
    per_rep = {k: v[None] for k, v in vals.items()}
    report = _report(per_rep, ests, 0.0, int(m - mask.sum()), 0)
    return BacktestResult(cfg, data, report, per_rep, quantiles, counters)


# ---------------------------------------------------------------------------
# file outputs

def _write_reports(outdir, report: MeasureReport,
                   per_rep: dict[str, np.ndarray], reps) -> None:
    """Write report.csv, report.txt and per_rep.csv; per_rep.csv has one row
    per replication and estimator, blank where a measure is absent.

    reps holds (replication id, excluded steps) for each row of per_rep.
    """
    os.makedirs(outdir, exist_ok=True)
    join = os.path.join
    report_to_csv(report, join(outdir, "report.csv"))
    with open(join(outdir, "report.txt"), "w") as fh:
        fh.write(report_to_text(report))
    # csv writes a float as its repr, at full precision
    cols = [per_rep[k].tolist() if k in per_rep else None for k in _MEASURES]
    with open(join(outdir, "per_rep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rep", "estimator", *_MEASURES, "excluded_steps"])
        for i, (rep, n_bad) in enumerate(reps):
            for j, e in enumerate(report.estimators):
                w.writerow([rep, e, *("" if c is None else c[i][j]
                                      for c in cols), n_bad])


def write_study_outputs(result: StudyResult, outdir) -> None:
    """Write report.csv, report.txt, per_rep.csv, fig2_curve.csv."""
    # per_rep rows are the replications that did not fail, in order
    ok = [r for r in range(result.cfg.n_reps) if r not in result.failed_reps]
    _write_reports(outdir, result.report, result.per_rep,
                   zip(ok, result.diagnostics["excluded_per_rep"]))
    with open(os.path.join(outdir, "fig2_curve.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + list(result.cfg.estimators))
        for s, row in enumerate(result.curve.tolist()):
            w.writerow([s, *row])


def write_backtest_outputs(result: BacktestResult, outdir) -> None:
    """Write report.csv, report.txt, per_rep.csv (single replication)."""
    _write_reports(outdir, result.report, result.per_rep,
                   [(0, result.report.excluded_steps)])
