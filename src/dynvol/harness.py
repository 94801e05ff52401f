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

Studies and backtests score through one path: steps where any estimator's
forecast is not finite are dropped for every estimator, and the exceedance
ratio uses the normal alpha-quantile in studies and, in backtests, the
empirical alpha-quantile of each estimator's own standardized in-sample
residuals over the last er_window (>= 50) steps before the split. The first
estimator is the reference for relative losses unless Integ is present.
"""

from __future__ import annotations

import csv
import datetime as _dt
import logging
import math
import os
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DegenerateSeriesError, DynvolError, IngestionError,
                     InsufficientHistoryError, NoCoverageError)
from .evaluation import (ForecastTrack, MeasureReport, build_report,
                         empirical_quantile, exceedance_ratio, imade, made, pe,
                         rade, report_to_csv, report_to_text)
from .integration import MATCHED_SHAPE, bayes_es, combine_estimates
from .sde import (CirParams, GbmParams, ReturnSeries, RngStream, SvParams,
                  levels_from_returns, simulate_cir, simulate_gbm, simulate_sv,
                  to_returns)
from .state_domain import (DriftFit, StatePairs, _window_xi, select_bandwidth,
                           state_variance)
from .time_domain import (EsConfig, autocorr_sq, es_variance, es_weights,
                          exp_smooth, moving_average)

log = logging.getLogger("dynvol")

# fewest pairs the state-domain fit is made from
MIN_STATE_PAIRS = 20


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

DEFAULT_CIR = CirParams(kappa=0.21459, theta=0.08571, sigma=0.07830)
DEFAULT_SV = SvParams(kappa=3.0, theta=0.009, alpha2=4.0, substeps=30)
DEFAULT_GBM = GbmParams(mu=0.03, sigma=0.26)

DEFAULT_SEMI_GRID = (0.90, 0.92, 0.94, 0.96, 0.98)
SEMI_FALLBACK_LAM = 0.94


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce a simulation study run."""

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
        if self.model not in ("CIR", "SV", "GBM", "External"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.in_sample_len >= self.series_len:
            raise ValueError("in_sample_len must be < series_len")
        if self.in_sample_len < 2:
            raise ValueError("in_sample_len must be >= 2")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if self.state_refit_every < 1:
            raise ValueError("state_refit_every must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.0 <= self.trim_upper < 1.0):
            raise ValueError("trim_upper must lie in [0, 1)")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not self.estimators:
            raise ValueError("estimators must name at least one estimator")
        bad = [e for e in self.estimators if e not in ESTIMATORS]
        if bad:
            raise ValueError(f"unknown estimators {bad}")
        dup = sorted({e for e in self.estimators
                      if self.estimators.count(e) > 1})
        if dup:
            raise ValueError(f"estimators lists {dup} more than once")
        if not self.semi_grid:
            raise ValueError("semi_grid must hold at least one decay")
        if not all(0.0 < lam <= 1.0 for lam in self.semi_grid):
            raise ValueError("semi_grid decays must lie in (0, 1]")
        if self.hist_window < 1:
            raise ValueError("hist_window must be >= 1")
        if self.max_lag < 1:
            raise ValueError("max_lag must be >= 1")
        if self.er_window < 50:
            raise ValueError("er_window must be >= 50")

    def params(self) -> CirParams | SvParams | GbmParams:
        if self.model_params is not None:
            return self.model_params
        return {"CIR": DEFAULT_CIR, "SV": DEFAULT_SV, "GBM": DEFAULT_GBM}[self.model]


# Each preset's fields that differ from the StudyConfig defaults, which are
# the weekly square-root rate study: 1200 observations, first 900 in-sample.
# SV is monthly with three quarters in-sample, GBM weekly with two thirds.
_PRESETS = {
    "CIR": {},
    "SV": dict(delta=1.0 / 12.0, series_len=1000, in_sample_len=750,
               es=EsConfig(0.94, 12), hist_window=12, state_refit_every=2),
    "GBM": dict(series_len=1000, in_sample_len=667),
}


def study_preset(model: str, **overrides) -> StudyConfig:
    """The study design of model ("cir", "sv" or "gbm", any case), with the
    given StudyConfig fields overridden."""
    key = model.upper()
    if key not in _PRESETS:
        raise ValueError(f"no preset for model {model!r}")
    return StudyConfig(**{"model": key, **_PRESETS[key], **overrides})


@dataclass(frozen=True)
class SimulatedSeries:
    """Levels, scaled returns, and the true per-step conditional variance."""

    levels: np.ndarray
    returns: ReturnSeries
    true_var: np.ndarray

    def __post_init__(self):
        if self.true_var.size != len(self.returns):
            raise ValueError("true_var must align with returns")


def simulate_series(cfg: StudyConfig, rep: int) -> SimulatedSeries:
    """One replication of the configured model on stream `rep`."""
    rng = RngStream(cfg.seed, rep)
    p = cfg.params()
    if cfg.model == "CIR":
        path = simulate_cir(p, cfg.delta, cfg.series_len, rng)
        rs = to_returns(path)
        true_var = p.sigma**2 * path.values[:-1]
        return SimulatedSeries(path.values, rs, true_var)
    if cfg.model == "SV":
        rs, vbar = simulate_sv(p, cfg.delta, cfg.series_len - 1, rng)
        return SimulatedSeries(levels_from_returns(rs), rs, vbar)
    if cfg.model == "GBM":
        path = simulate_gbm(p, cfg.delta, cfg.series_len, rng)
        rs = to_returns(path)
        true_var = p.sigma**2 * path.values[:-1] ** 2
        return SimulatedSeries(path.values, rs, true_var)
    raise ValueError(f"cannot simulate model {cfg.model!r}")


# ---------------------------------------------------------------------------
# estimator plumbing

class _SemiSelector:
    """Smoothed estimate with the decay picked by trailing prediction error.

    For each candidate decay, one-step forecasts of the squared return are
    scored over the last n origins; the candidate with the smallest total
    squared error wins. Needs 2n of history. A degenerate search (no finite
    losses, or all of several candidates tied) falls back to
    SEMI_FALLBACK_LAM and counts it in counters["semi_fallback"].

    Every candidate's forecasts (and the fallback's) are computed once per
    series, one matrix-vector product over all windows, so a step only
    slices them and scores the slices.
    """

    def __init__(self, y: np.ndarray, n: int, grid: tuple[float, ...]):
        self.n = n
        self.y2 = y * y
        # rows[j] = y2[j:j+n]; preds[j] is the forecast at origin j + n
        rows = np.lib.stride_tricks.sliding_window_view(self.y2, n)
        self.preds = [rows @ es_weights(lam, n)[::-1] for lam in grid]
        self.fallback = rows @ es_weights(SEMI_FALLBACK_LAM, n)[::-1]

    def value(self, t: int, counters: dict) -> float:
        n = self.n
        if t - 2 * n < 0:
            raise InsufficientHistoryError(
                f"need {2 * n} observations before origin {t}")
        target = self.y2[t - n:t]
        losses = []
        for preds in self.preds:
            diff = target - preds[t - 2 * n:t - n]
            losses.append(float(np.dot(diff, diff)))
        finite = [loss for loss in losses if math.isfinite(loss)]
        if not finite or (len(losses) > 1 and max(finite) == min(finite)):
            counters["semi_fallback"] += 1
            return float(self.fallback[t - n])
        # the first candidate with the smallest finite loss
        return float(self.preds[losses.index(min(finite))][t - n])


class _StateFit(NamedTuple):
    """Frozen state-domain dataset, sorted by level, and bandwidths between
    refits; drift is the h1 drift fit the next refit extends (None for a
    dataset made by hand)."""

    pairs: StatePairs
    h1: float
    h: float
    eps_var: float
    drift: DriftFit | None = None


def build_state_pairs(levels: np.ndarray, y: np.ndarray, origin: int,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """History for the state fit at `origin`, excluding the n most recent
    returns (those belong to the time-domain window)."""
    keep = origin - n
    if keep < 1:
        raise InsufficientHistoryError("no pairs left after exclusion")
    return levels[:keep], y[:keep]


def _fit_state(levels, y, origin, cfg: StudyConfig, prev: _StateFit | None,
               counters) -> _StateFit | None:
    """State-domain fit at `origin`. With prev None the bandwidths are
    selected and the drift fitted from scratch; otherwise prev is the fit at
    an earlier origin of the same series, whose bandwidths stay and whose
    drift fit takes in the pairs added since."""
    x, yy = build_state_pairs(levels, y, origin, cfg.es.n)
    if x.size < MIN_STATE_PAIRS:
        return None
    if prev is None:
        drift, h = select_bandwidth(x, yy)
    else:
        h = prev.h
        done = prev.pairs.count
        drift = prev.drift.extend(x[done:], yy[done:])
    counters["drift_fallback"] += int(
        np.count_nonzero(~np.isfinite(drift.drift)))
    eps_var = 1e-12 * float(np.var(drift.resid2))
    return _StateFit(StatePairs(drift.x, drift.resid2), drift.h, h, eps_var,
                     drift)


def _eval_state(fit: _StateFit, x0: float, counters):
    """State estimate at the query level, or None when there is no coverage.
    A singular design falls back to the locally constant fit."""
    try:
        lo, xi, singular = _window_xi(fit.pairs.x, x0, fit.h)
    except NoCoverageError:
        counters["state_nocov"] += 1
        return None
    if singular:
        counters["state_singular"] += 1
    # the fitted intercept is the xi-weighted sum of the window's responses
    sig2 = float(xi @ fit.pairs.resp[lo:lo + xi.size])
    if sig2 < fit.eps_var:
        counters["state_floor"] += 1
        sig2 = fit.eps_var
    return state_variance(sig2, xi, bandwidth=fit.h)


def _new_counters() -> dict:
    return {"state_nocov": 0, "state_singular": 0, "state_floor": 0,
            "drift_fallback": 0, "semi_fallback": 0, "c_clamped": 0,
            "nonbay_es_only": 0, "integ_time_only": 0, "nan_steps": 0}


def _check_history(cfg: StudyConfig, first: int) -> None:
    need = max(_ROSTER[e].history(cfg) for e in cfg.estimators)
    if first < need:
        raise InsufficientHistoryError(
            f"first origin {first} < required history {need}")


def _rolling(levels: np.ndarray, y: np.ndarray, cfg: StudyConfig,
             first: int, n_steps: int) -> tuple[dict, dict]:
    """Run all configured estimators over origins [first, first + n_steps)."""
    _check_history(cfg, first)
    if first + n_steps > y.size:
        raise InsufficientHistoryError("evaluation stretch exceeds data")
    z = y[:first] ** 2
    if z.size and z.max() == z.min():
        raise DegenerateSeriesError("constant in-sample squared returns")

    ests = cfg.estimators
    need_state = any(_ROSTER[e].state for e in ests)
    need_es = any(_ROSTER[e].smoother for e in ests)
    counters = _new_counters()
    tracks = {e: np.full(n_steps, np.nan) for e in ests}
    semi = (_SemiSelector(y, cfg.es.n, cfg.semi_grid)
            if "SemiProxy" in ests else None)
    # Integ's autocorrelations at every origin, one table per series
    acf = (autocorr_sq(y, np.arange(first, first + n_steps), cfg.max_lag)
           if "Integ" in ests else None)
    fit = None
    lam, n = cfg.es.lam, cfg.es.n

    for step in range(n_steps):
        i = first + step
        # counters goes by keyword to _fit_state and _eval_state: the count
        # hooks of perfbench/tracer.py look it up by name
        if need_state and step % cfg.state_refit_every == 0:
            fit = _fit_state(levels, y, i, cfg, fit, counters=counters)
        # _check_history and the stretch check above keep every window
        # below in range
        if "Hist" in ests:
            tracks["Hist"][step] = moving_average(y, i, cfg.hist_window)
        es_val = exp_smooth(y, i, cfg.es) if need_es else None
        if "RiskM" in ests:
            tracks["RiskM"][step] = es_val
        if semi is not None:
            tracks["SemiProxy"][step] = semi.value(i, counters)
        sve = None
        if need_state and fit is not None:
            sve = _eval_state(fit, levels[i], counters=counters)
        if "NonBay" in ests:
            if sve is None:
                counters["nonbay_es_only"] += 1
                tracks["NonBay"][step] = es_val
            else:
                tracks["NonBay"][step] = bayes_es(
                    es_val, sve.sigma2_hat, lam, n, MATCHED_SHAPE)
        if acf is not None and math.isnan(acf[step, 0]):
            # autocorr_sq's degenerate row: no time-domain variance
            counters["nan_steps"] += 1
        elif acf is not None:
            tve = es_variance(es_val, cfg.es, acf[step])
            if tve.clamped:
                counters["c_clamped"] += 1
            if sve is None:
                counters["integ_time_only"] += 1
                tracks["Integ"][step] = es_val
            else:
                tracks["Integ"][step] = combine_estimates(tve, sve).sigma2_hat
    return tracks, counters


def rolling_forecast(sim: SimulatedSeries | tuple, cfg: StudyConfig,
                     estimator_id: str) -> ForecastTrack:
    """One-step-ahead variance forecasts for one estimator over the
    out-of-sample stretch [in_sample_len - 1, series_len - 2]."""
    levels, y = _unpack_series(sim)
    if estimator_id not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator_id!r}")
    sub = replace(cfg, estimators=(estimator_id,))
    first = cfg.in_sample_len - 1
    n_steps = y.size - first
    tracks, _ = _rolling(levels, y, sub, first, n_steps)
    return ForecastTrack(estimator_id, tracks[estimator_id])


def _unpack_series(sim) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(sim, SimulatedSeries):
        return sim.levels, sim.returns.y
    levels, rs = sim
    y = rs.y if isinstance(rs, ReturnSeries) else np.asarray(rs, dtype=float)
    return np.asarray(levels, dtype=float), y


# ---------------------------------------------------------------------------
# simulation study

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


def _score(tracks: dict[str, np.ndarray], y_out: np.ndarray,
           quantiles: dict[str, float], truth: np.ndarray | None = None
           ) -> tuple[np.ndarray, dict[str, dict[str, float]]]:
    """Measures of every estimator over the steps where all forecasts are
    finite: the step mask and estimator -> measure -> value. imade is
    computed only when the true variance is given."""
    mask = np.ones(y_out.size, dtype=bool)
    for track in tracks.values():
        mask &= np.isfinite(track)
    if not mask.any():
        raise DynvolError("no usable out-of-sample steps")
    y_m = y_out[mask]
    vals = {}
    for e, track in tracks.items():
        tr = ForecastTrack(e, track[mask])
        v = {} if truth is None else {"imade": imade(truth[mask], tr)}
        v.update(made=made(y_m, tr), pe=pe(y_m, tr), rade=rade(y_m, tr),
                 er=exceedance_ratio(y_m, tr, quantiles[e]))
        vals[e] = v
    return mask, vals


def run_simulation_study(cfg: StudyConfig) -> StudyResult:
    """Monte Carlo study: per-replication measures, scores, and the per-step
    mean absolute error curve. Each finished replication is logged at INFO
    level on the "dynvol" logger.

    Steps where any estimator's forecast is not finite are excluded from
    every estimator's measures, keeping the comparison fair; the count is
    reported. The exceedance ratio uses the normal alpha-quantile. A
    replication that fails outright, or has no usable step, is skipped;
    diagnostics["failed_reasons"] maps it to "<ExceptionClass>: <message>".
    """
    ests = cfg.estimators
    first = cfg.in_sample_len - 1
    m = cfg.series_len - cfg.in_sample_len
    quantiles = dict.fromkeys(ests, NormalDist().inv_cdf(cfg.alpha))
    rows: dict[str, list] = {k: [] for k in _MEASURES}
    curve_sum = np.zeros((m, len(ests)))
    curve_cnt = np.zeros(m)
    totals = _new_counters()
    excluded = 0
    failed: dict[int, str] = {}
    excluded_per_rep: list[int] = []

    for rep in range(cfg.n_reps):
        try:
            sim = simulate_series(cfg, rep)
            tracks, counters = _rolling(sim.levels, sim.returns.y, cfg, first, m)
            truth = sim.true_var[first:first + m]
            mask, vals = _score(tracks, sim.returns.y[first:first + m],
                                quantiles, truth)
        except DynvolError as exc:
            failed[rep] = f"{type(exc).__name__}: {exc}"
            continue
        for k, v in counters.items():
            totals[k] += v
        n_bad = int(m - mask.sum())
        excluded += n_bad
        excluded_per_rep.append(n_bad)
        for k in rows:
            rows[k].append([vals[e][k] for e in ests])
        err = np.abs(np.column_stack([tracks[e] for e in ests]) - truth[:, None])
        curve_sum[mask] += err[mask]
        curve_cnt[mask] += 1.0
        log.info("rep %d/%d done", rep + 1, cfg.n_reps)

    if not rows["made"]:
        rep, reason = next(iter(failed.items()))
        raise DynvolError(f"every replication failed (rep {rep}: {reason})")
    per_rep = {k: np.asarray(v) for k, v in rows.items()}
    ref = "Integ" if "Integ" in ests else ests[0]
    report = build_report({k: per_rep[k] for k in ("imade", "made", "rade", "er")},
                          ests, ref, cfg.trim_upper, excluded, len(failed))
    with np.errstate(invalid="ignore"):
        curve = np.where(curve_cnt[:, None] > 0,
                         curve_sum / np.maximum(curve_cnt, 1.0)[:, None], np.nan)
    totals["excluded_per_rep"] = tuple(excluded_per_rep)
    totals["failed_reasons"] = failed
    return StudyResult(cfg, report, per_rep, curve, totals, tuple(failed))


# ---------------------------------------------------------------------------
# real-data backtest

FREQUENCY_DELTA = {"daily": 1.0 / 252.0, "weekly": 1.0 / 52.0,
                   "monthly": 1.0 / 12.0}


@dataclass(frozen=True)
class BacktestDataset:
    """Ingested level series with a declared in-sample split."""

    name: str
    values: np.ndarray
    dates: tuple[str, ...] | None
    delta: float
    in_sample_end: int
    frequency: str = "weekly"
    return_mode: str = "log"
    filled_rows: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.return_mode not in ("log", "diff"):
            raise ValueError("return_mode must be 'log' or 'diff'")
        if not 2 <= self.in_sample_end < self.values.size:
            raise ValueError("in_sample_end must split the series")
        if not self.delta > 0:
            raise ValueError("delta must be positive")


def ingest_csv(path, name: str | None = None, frequency: str = "weekly",
               in_sample_end: int | str | None = None,
               return_mode: str = "log", forward_fill: bool = False,
               delta: float | None = None) -> BacktestDataset:
    """Read a `date,value` CSV (ISO dates, strictly increasing).

    Empty or unparsable values are rejected with their row numbers unless
    forward_fill is set, in which case they take the previous value and the
    rows are recorded on the dataset. Infinite values are always rejected
    with their row numbers. in_sample_end may be a row count or an ISO date
    (split after that date).
    """
    with open(path, "r", newline="") as fh:
        rowiter = list(csv.reader(fh))
    if not rowiter or [c.strip().lower() for c in rowiter[0][:2]] != ["date", "value"]:
        raise IngestionError("expected header 'date,value'")
    dates: list[_dt.date] = []
    values: list[float] = []
    bad_rows: list[int] = []
    filled: list[int] = []
    order_bad: list[int] = []
    infinite: list[int] = []
    for num, row in enumerate(rowiter[1:], start=2):
        if len(row) < 2:
            bad_rows.append(num)
            continue
        try:
            d = _dt.date.fromisoformat(row[0].strip())
        except ValueError:
            bad_rows.append(num)
            continue
        raw = row[1].strip()
        if raw == "":
            v = math.nan
        else:
            try:
                v = float(raw)
            except ValueError:
                v = math.nan
        if math.isinf(v):
            infinite.append(num)
        elif math.isnan(v):
            if forward_fill and values:
                v = values[-1]
                filled.append(num)
            else:
                bad_rows.append(num)
                continue
        if dates and d <= dates[-1]:
            order_bad.append(num)
        dates.append(d)
        values.append(v)
    if bad_rows:
        raise IngestionError(f"invalid rows: {_row_list(bad_rows)}")
    if infinite:
        raise IngestionError(f"non-finite values at rows: {_row_list(infinite)}")
    if order_bad:
        raise IngestionError("dates not strictly increasing at rows: "
                             f"{_row_list(order_bad)}")
    if len(values) < 3:
        raise IngestionError("need at least 3 observations")
    if in_sample_end is None:
        split = int(round(len(values) * 2 / 3))
    elif isinstance(in_sample_end, str):
        cutoff = _dt.date.fromisoformat(in_sample_end)
        split = sum(1 for d in dates if d <= cutoff)
        if split < 2:
            raise IngestionError(f"in-sample split {in_sample_end} too early")
    else:
        split = int(in_sample_end)
    if delta is None:
        if frequency not in FREQUENCY_DELTA:
            raise IngestionError(f"unknown frequency {frequency!r}; "
                                 "pass delta explicitly")
        delta = FREQUENCY_DELTA[frequency]
    return BacktestDataset(
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
        values=np.asarray(values), dates=tuple(d.isoformat() for d in dates),
        delta=delta, in_sample_end=split, frequency=frequency,
        return_mode=return_mode, filled_rows=tuple(filled))


def _row_list(rows: list[int]) -> str:
    """Row numbers for an error message; past ten, the first ten and the
    total count."""
    if len(rows) <= 10:
        return str(rows)
    head = ", ".join(str(r) for r in rows[:10])
    return f"[{head}, ...] ({len(rows)} rows)"


@dataclass
class BacktestResult:
    cfg: StudyConfig
    data: BacktestDataset
    report: MeasureReport
    per_est: dict[str, dict[str, float]]
    quantiles: dict[str, float]
    diagnostics: dict


def run_backtest(data: BacktestDataset, cfg: StudyConfig) -> BacktestResult:
    """Out-of-sample backtest on ingested levels.

    Returns are log or scaled plain differences of the levels per the
    dataset's return_mode, and the state variable is the series those
    differences are taken from. The exceedance quantile is the empirical
    lower alpha-quantile of each estimator's own standardized in-sample
    residuals over the trailing er_window steps before the split. The true
    variance is unknown, so no imade is computed.
    """
    if data.return_mode == "log":
        if np.any(data.values <= 0):
            raise IngestionError("log returns need strictly positive levels")
        levels = np.log(data.values)
    else:
        levels = data.values.copy()
    y = np.diff(levels) / math.sqrt(data.delta)
    in_len = data.in_sample_end
    qwin = cfg.er_window
    first_warm = in_len - 1 - qwin
    if first_warm < 0:
        raise InsufficientHistoryError(
            f"need {qwin} in-sample residual steps before the split")
    m = y.size - (in_len - 1)
    bcfg = replace(cfg, model="External", series_len=levels.size,
                   in_sample_len=in_len)
    tracks, counters = _rolling(levels, y, bcfg, first_warm, qwin + m)
    ests = bcfg.estimators

    quantiles = {}
    for e in ests:
        warm = tracks[e][:qwin]
        if not np.all(np.isfinite(warm)):
            raise DynvolError(f"non-finite warmup forecasts for {e}")
        res = y[first_warm:first_warm + qwin] / np.sqrt(warm)
        quantiles[e] = empirical_quantile(res, bcfg.alpha, qwin)

    mask, per_est = _score({e: tracks[e][qwin:] for e in ests},
                           y[in_len - 1:], quantiles)
    ref = "Integ" if "Integ" in ests else ests[0]
    report = build_report({k: np.asarray([[per_est[e][k] for e in ests]])
                           for k in ("made", "rade", "er")},
                          ests, ref, 0.0, int(m - mask.sum()), 0)
    return BacktestResult(bcfg, data, report, per_est, quantiles, counters)


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
    with open(join(outdir, "per_rep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rep", "estimator", *_MEASURES, "excluded_steps"])
        for i, (rep, n_bad) in enumerate(reps):
            for j, e in enumerate(report.estimators):
                w.writerow([rep, e]
                           + [repr(float(per_rep[k][i, j]))
                              if k in per_rep else "" for k in _MEASURES]
                           + [n_bad])


def write_study_outputs(result: StudyResult, outdir) -> None:
    """Write report.csv, report.txt, per_rep.csv, fig2_curve.csv."""
    # per_rep rows are the replications that did not fail, in order
    ok = [r for r in range(result.cfg.n_reps) if r not in result.failed_reps]
    _write_reports(outdir, result.report, result.per_rep,
                   zip(ok, result.diagnostics["excluded_per_rep"]))
    with open(os.path.join(outdir, "fig2_curve.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + list(result.cfg.estimators))
        for s in range(result.curve.shape[0]):
            w.writerow([s] + [repr(float(v)) for v in result.curve[s]])


def write_backtest_outputs(result: BacktestResult, outdir) -> None:
    """Write report.csv, report.txt, per_rep.csv (single replication)."""
    ests = result.cfg.estimators
    per_rep = {k: np.asarray([[result.per_est[e][k] for e in ests]])
               for k in ("made", "pe", "rade", "er")}
    _write_reports(outdir, result.report, per_rep,
                   [(0, result.report.excluded_steps)])
