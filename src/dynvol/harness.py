"""Rolling one-step-ahead forecasting harness and study runners.

Five estimators are tracked side by side:

  Hist       moving average of squared returns over the last year of steps
  RiskM      exponential smoothing with the standard decay
  SemiProxy  exponential smoothing with the decay re-selected from a small
             grid by trailing one-step prediction error
  NonBay     static-weight blend of the smoother with the state-domain
             (level-conditional) estimate
  Integ      variance-weighted blend, weights recomputed every step

Forecasts at origin i use returns y[0:i] and levels r[0:i+1] only; the
state-domain fit additionally excludes the n most recent returns and is
refreshed on a fixed schedule while the query point moves every step.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateSeriesError, DynvolError, IngestionError,
                     InsufficientHistoryError, NoCoverageError,
                     SingularDesignError)
from .evaluation import (ForecastTrack, MeasureReport, QuantileSource,
                         build_report, empirical_quantile, exceedance_ratio,
                         imade, made, pe, rade, report_to_csv, report_to_text,
                         resolve_quantile)
from .integration import combine_estimates, nonbayes_static
from .sde import (CirParams, GbmParams, ReturnSeries, RngStream, SamplePath,
                  SvParams, levels_from_returns, simulate_cir, simulate_gbm,
                  simulate_sv, to_returns)
from .state_domain import (CV_GRID, KernelSpec, StatePairs,
                           _intercepts_at_data, locally_constant_weights,
                           residual_squares, select_bandwidth, state_variance,
                           xi_weights)
from .time_domain import (EsConfig, autocorr_sq, es_variance, exp_smooth,
                          moving_average)

ESTIMATORS = ("Hist", "RiskM", "SemiProxy", "NonBay", "Integ")

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
    cv_grid: tuple[float, ...] = CV_GRID
    use_squared_returns: bool = False
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
        bad = [e for e in self.estimators if e not in ESTIMATORS]
        if bad:
            raise ValueError(f"unknown estimators {bad}")

    def params(self) -> CirParams | SvParams | GbmParams:
        if self.model_params is not None:
            return self.model_params
        return {"CIR": DEFAULT_CIR, "SV": DEFAULT_SV, "GBM": DEFAULT_GBM}[self.model]


def cir_study(**overrides) -> StudyConfig:
    """Weekly square-root rate study: 1200 observations, first 900 in-sample."""
    base = dict(model="CIR", delta=1.0 / 52.0, series_len=1200,
                in_sample_len=900, es=EsConfig(0.94, 52), hist_window=52,
                state_refit_every=8)
    base.update(overrides)
    return StudyConfig(**base)


def sv_study(**overrides) -> StudyConfig:
    """Monthly stochastic-variance study: 1000 observations, first three
    quarters in-sample."""
    base = dict(model="SV", delta=1.0 / 12.0, series_len=1000,
                in_sample_len=750, es=EsConfig(0.94, 12), hist_window=12,
                state_refit_every=2)
    base.update(overrides)
    return StudyConfig(**base)


def gbm_study(**overrides) -> StudyConfig:
    """Weekly geometric-Brownian study: 1000 observations, first two thirds
    in-sample."""
    base = dict(model="GBM", delta=1.0 / 52.0, series_len=1000,
                in_sample_len=667, es=EsConfig(0.94, 52), hist_window=52,
                state_refit_every=8)
    base.update(overrides)
    return StudyConfig(**base)


def study_preset(model: str, **overrides) -> StudyConfig:
    factory = {"CIR": cir_study, "SV": sv_study, "GBM": gbm_study}
    if model.upper() not in factory:
        raise ValueError(f"no preset for model {model!r}")
    return factory[model.upper()](**overrides)


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

def semi_proxy(y, t: int, n: int,
               lambda_grid: tuple[float, ...] = DEFAULT_SEMI_GRID,
               window: int | None = None) -> float:
    """Smoothed estimate with the decay picked by trailing prediction error.

    For each candidate decay, one-step forecasts of the squared return are
    scored over the last `window` (default n) origins; the candidate with
    the smallest total squared error wins. Needs 2n of history when
    window = n. A degenerate search (no finite losses, or all candidates
    tied) falls back to 0.94.
    """
    est, _, _ = _semi_proxy_detail(y, t, n, lambda_grid, window)
    return est


def _semi_proxy_detail(y, t, n, lambda_grid, window=None):
    arr = y.y if hasattr(y, "y") else np.asarray(y, dtype=float)
    w = n if window is None else window
    if w < 1 or t - w - n < 0:
        raise InsufficientHistoryError(
            f"need {w + n} observations before origin {t}")
    losses = []
    for lam in lambda_grid:
        cfg = EsConfig(lam, n)
        loss = 0.0
        for s in range(t - w, t):
            err = arr[s] ** 2 - exp_smooth(arr, s, cfg)
            loss += err * err
        losses.append(loss)
    losses = np.asarray(losses)
    finite = np.isfinite(losses)
    degenerate = (not finite.any()) or (losses[finite].max() == losses[finite].min()
                                        and len(lambda_grid) > 1)
    if degenerate:
        lam = SEMI_FALLBACK_LAM
    else:
        lam = lambda_grid[int(np.argmin(np.where(finite, losses, np.inf)))]
    return exp_smooth(arr, t, EsConfig(lam, n)), lam, degenerate


class _SemiSelector:
    """Vectorized trailing-window decay selection over a fixed return array."""

    def __init__(self, y: np.ndarray, n: int, grid: tuple[float, ...],
                 window: int):
        self.n = n
        self.grid = grid
        self.window = window
        self.y2 = y * y
        # rows[j] = y2[j:j+n]; origin t reads row t-n
        self.rows = np.lib.stride_tricks.sliding_window_view(self.y2, n)
        from .time_domain import es_weights
        self.wrev = [es_weights(lam, n)[::-1] for lam in grid]

    def value(self, t: int, counters: dict) -> float:
        w, n = self.window, self.n
        if t - w - n < 0:
            raise InsufficientHistoryError(
                f"need {w + n} observations before origin {t}")
        target = self.y2[t - w:t]
        losses = np.empty(len(self.grid))
        for g, wr in enumerate(self.wrev):
            preds = self.rows[t - w - n:t - n] @ wr
            diff = target - preds
            losses[g] = float(np.dot(diff, diff))
        finite = np.isfinite(losses)
        if (not finite.any()) or (losses[finite].max() == losses[finite].min()
                                  and len(self.grid) > 1):
            counters["semi_fallback"] += 1
            lam = SEMI_FALLBACK_LAM
            wr = None
            for g, cand in enumerate(self.grid):
                if cand == lam:
                    wr = self.wrev[g]
            if wr is None:
                from .time_domain import es_weights
                wr = es_weights(lam, n)[::-1]
        else:
            wr = self.wrev[int(np.argmin(np.where(finite, losses, np.inf)))]
        return float(self.rows[t - n] @ wr)


class _StateFit:
    """Frozen state-domain dataset and bandwidths between refits."""

    def __init__(self, pairs: StatePairs, h1: float, h: float, eps_var: float):
        self.pairs = pairs
        self.h1 = h1
        self.h = h
        self.eps_var = eps_var


def build_state_pairs(levels: np.ndarray, y: np.ndarray, origin: int,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """History for the state fit at `origin`, excluding the n most recent
    returns (those belong to the time-domain window)."""
    keep = origin - n
    if keep < 1:
        raise InsufficientHistoryError("no pairs left after exclusion")
    return levels[:keep], y[:keep]


def _fit_state(levels, y, origin, cfg: StudyConfig, kernel: KernelSpec,
               bandwidths, counters) -> _StateFit | None:
    x, yy = build_state_pairs(levels, y, origin, cfg.es.n)
    if x.size < 20:
        return None
    if bandwidths is None:
        h1, h = select_bandwidth(x, yy, kernel, cfg.cv_grid)
    else:
        h1, h = bandwidths
    if cfg.use_squared_returns:
        resp = yy * yy
    else:
        drift = _intercepts_at_data(x, yy, h1, kernel, loo=False)
        nbad = int(np.count_nonzero(~np.isfinite(drift)))
        if nbad:
            counters["drift_fallback"] += nbad
            drift = np.where(np.isfinite(drift), drift, 0.0)
        resp = residual_squares(yy, drift)
    eps_var = 1e-12 * float(np.var(resp))
    return _StateFit(StatePairs(x, resp), h1, h, eps_var)


def _eval_state(fit: _StateFit, x0: float, kernel: KernelSpec, counters):
    """State estimate at the query level, or None when there is no coverage."""
    try:
        xi = xi_weights(fit.pairs, x0, fit.h, kernel)
    except NoCoverageError:
        counters["state_nocov"] += 1
        return None
    except SingularDesignError:
        counters["state_singular"] += 1
        try:
            xi = locally_constant_weights(fit.pairs, x0, fit.h, kernel)
        except NoCoverageError:
            counters["state_nocov"] += 1
            return None
    # the fitted intercept is the xi-weighted sum of the responses
    sig2 = float(xi @ fit.pairs.resp)
    if sig2 < fit.eps_var:
        counters["state_floor"] += 1
        sig2 = fit.eps_var
    return state_variance(sig2, xi, bandwidth=fit.h)


def _new_counters() -> dict:
    return {"state_nocov": 0, "state_singular": 0, "state_floor": 0,
            "drift_fallback": 0, "semi_fallback": 0, "c_clamped": 0,
            "nonbay_es_only": 0, "integ_time_only": 0, "nan_steps": 0}


def _check_history(cfg: StudyConfig, first: int) -> None:
    need = []
    if "Hist" in cfg.estimators:
        need.append(cfg.hist_window)
    if {"RiskM", "NonBay", "Integ"} & set(cfg.estimators):
        need.append(cfg.es.n)
    if "SemiProxy" in cfg.estimators:
        need.append(2 * cfg.es.n)
    if "Integ" in cfg.estimators:
        need.append(cfg.max_lag + 2)
    if {"NonBay", "Integ"} & set(cfg.estimators):
        need.append(cfg.es.n + 20)
    if need and first < max(need):
        raise InsufficientHistoryError(
            f"first origin {first} < required history {max(need)}")


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
    kernel = KernelSpec()
    need_state = bool({"NonBay", "Integ"} & set(ests))
    need_es = bool({"RiskM", "NonBay", "Integ"} & set(ests))
    counters = _new_counters()
    tracks = {e: np.full(n_steps, np.nan) for e in ests}
    semi = (_SemiSelector(y, cfg.es.n, cfg.semi_grid, cfg.es.n)
            if "SemiProxy" in ests else None)
    fit = None
    bandwidths = None
    lam, n = cfg.es.lam, cfg.es.n

    for step in range(n_steps):
        i = first + step
        if need_state and step % cfg.state_refit_every == 0:
            fit = _fit_state(levels, y, i, cfg, kernel, bandwidths, counters)
            if fit is not None:
                bandwidths = (fit.h1, fit.h)
        if "Hist" in ests:
            try:
                tracks["Hist"][step] = moving_average(y, i, cfg.hist_window)
            except DynvolError:
                counters["nan_steps"] += 1
        es_val = None
        if need_es:
            try:
                es_val = exp_smooth(y, i, cfg.es)
            except DynvolError:
                counters["nan_steps"] += 1
        if "RiskM" in ests and es_val is not None:
            tracks["RiskM"][step] = es_val
        if semi is not None:
            try:
                tracks["SemiProxy"][step] = semi.value(i, counters)
            except DynvolError:
                counters["nan_steps"] += 1
        sve = None
        if need_state and fit is not None:
            sve = _eval_state(fit, levels[i], kernel, counters)
        if "NonBay" in ests and es_val is not None:
            if sve is None:
                counters["nonbay_es_only"] += 1
                tracks["NonBay"][step] = es_val
            else:
                tracks["NonBay"][step] = nonbayes_static(
                    es_val, sve.sigma2_hat, lam, n)
        if "Integ" in ests and es_val is not None:
            try:
                rho = autocorr_sq(y, i, cfg.max_lag)
                tve = es_variance(es_val, cfg.es, rho)
                if tve.clamped:
                    counters["c_clamped"] += 1
                if sve is None:
                    counters["integ_time_only"] += 1
                    tracks["Integ"][step] = es_val
                else:
                    tracks["Integ"][step] = combine_estimates(tve, sve).sigma2_hat
            except DynvolError:
                counters["nan_steps"] += 1
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

@dataclass
class StudyResult:
    cfg: StudyConfig
    report: MeasureReport
    per_rep: dict[str, np.ndarray]
    curve: np.ndarray
    diagnostics: dict
    failed_reps: tuple[int, ...] = ()


def run_simulation_study(cfg: StudyConfig, progress: bool = False) -> StudyResult:
    """Monte Carlo study: per-replication measures, scores, and the per-step
    mean absolute error curve.

    Steps where any estimator's forecast is not finite are excluded from
    every estimator's measures, keeping the comparison fair; the count is
    reported. A replication that fails outright is recorded and skipped.
    """
    ests = cfg.estimators
    first = cfg.in_sample_len - 1
    m = cfg.series_len - cfg.in_sample_len
    q = QuantileSource("true_error", cfg.alpha)
    rows: dict[str, list] = {k: [] for k in ("imade", "made", "pe", "rade", "er")}
    curve_sum = np.zeros((m, len(ests)))
    curve_cnt = np.zeros((m, len(ests)))
    totals = _new_counters()
    excluded = 0
    failed: list[int] = []
    excluded_per_rep: list[int] = []

    for rep in range(cfg.n_reps):
        try:
            sim = simulate_series(cfg, rep)
            tracks, counters = _rolling(sim.levels, sim.returns.y, cfg, first, m)
        except DynvolError:
            failed.append(rep)
            continue
        for k, v in counters.items():
            totals[k] += v
        mask = np.ones(m, dtype=bool)
        for e in ests:
            mask &= np.isfinite(tracks[e])
        n_bad = int(m - mask.sum())
        excluded += n_bad
        excluded_per_rep.append(n_bad)
        if mask.sum() == 0:
            failed.append(rep)
            continue
        y_out = sim.returns.y[first:first + m][mask]
        t_out = sim.true_var[first:first + m][mask]
        meas = {k: [] for k in rows}
        for j, e in enumerate(ests):
            tr = ForecastTrack(e, tracks[e][mask])
            meas["imade"].append(imade(t_out, tr))
            meas["made"].append(made(y_out, tr))
            meas["pe"].append(pe(y_out, tr))
            meas["rade"].append(rade(y_out, tr))
            meas["er"].append(exceedance_ratio(y_out, tr, q))
            err = np.abs(tracks[e] - sim.true_var[first:first + m])
            curve_sum[mask, j] += err[mask]
            curve_cnt[mask, j] += 1.0
        for k in rows:
            rows[k].append(meas[k])
        if progress:
            print(f"rep {rep + 1}/{cfg.n_reps} done")

    if not rows["made"]:
        raise DynvolError("every replication failed")
    per_rep = {k: np.asarray(v) for k, v in rows.items()}
    ref = "Integ" if "Integ" in ests else ests[0]
    report = build_report({k: per_rep[k] for k in ("imade", "made", "rade", "er")},
                          ests, ref, cfg.trim_upper, excluded, len(failed))
    with np.errstate(invalid="ignore"):
        curve = np.where(curve_cnt > 0, curve_sum / np.maximum(curve_cnt, 1.0),
                         np.nan)
    totals["excluded_per_rep"] = tuple(excluded_per_rep)
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
        raise IngestionError(f"invalid rows: {bad_rows}")
    if infinite:
        raise IngestionError(f"non-finite values at rows: {infinite}")
    if order_bad:
        raise IngestionError(f"dates not strictly increasing at rows: {order_bad}")
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
    residuals = {}
    for e in ests:
        warm = tracks[e][:qwin]
        if not np.all(np.isfinite(warm)):
            raise DynvolError(f"non-finite warmup forecasts for {e}")
        res = y[first_warm:first_warm + qwin] / np.sqrt(warm)
        residuals[e] = res
        quantiles[e] = empirical_quantile(res, bcfg.alpha, qwin)

    mask = np.ones(m, dtype=bool)
    for e in ests:
        mask &= np.isfinite(tracks[e][qwin:])
    if mask.sum() == 0:
        raise DynvolError("no usable out-of-sample steps")
    excluded = int(m - mask.sum())
    y_out = y[in_len - 1:][mask]
    per_est: dict[str, dict[str, float]] = {}
    mats = {k: [] for k in ("made", "rade", "er")}
    q = QuantileSource("empirical_residual", bcfg.alpha, qwin)
    for e in ests:
        tr = ForecastTrack(e, tracks[e][qwin:][mask])
        vals = {"made": made(y_out, tr), "pe": pe(y_out, tr),
                "rade": rade(y_out, tr),
                "er": exceedance_ratio(y_out, tr, q, residuals[e])}
        per_est[e] = vals
        for k in mats:
            mats[k].append(vals[k])
    ref = "Integ" if "Integ" in ests else ests[0]
    report = build_report({k: np.asarray(v)[None, :] for k, v in mats.items()},
                          ests, ref, 0.0, excluded, 0)
    return BacktestResult(bcfg, data, report, per_est, quantiles, counters)


# ---------------------------------------------------------------------------
# file outputs

def _write_per_rep(per_rep: dict[str, np.ndarray], estimators, excluded_per_rep,
                   file) -> None:
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", newline="") if own else file
    try:
        w = csv.writer(fh)
        w.writerow(["rep", "estimator", "imade", "made", "pe", "rade", "er",
                    "excluded_steps"])
        n_reps = next(iter(per_rep.values())).shape[0]
        for rep in range(n_reps):
            for j, e in enumerate(estimators):
                row = [rep, e]
                for k in ("imade", "made", "pe", "rade", "er"):
                    row.append(repr(float(per_rep[k][rep, j]))
                               if k in per_rep else "")
                row.append(excluded_per_rep[rep] if excluded_per_rep else 0)
                w.writerow(row)
    finally:
        if own:
            fh.close()


def write_study_outputs(result: StudyResult, outdir) -> None:
    """Write report.csv, report.txt, per_rep.csv, fig2_curve.csv."""
    os.makedirs(outdir, exist_ok=True)
    join = os.path.join
    report_to_csv(result.report, join(outdir, "report.csv"))
    with open(join(outdir, "report.txt"), "w") as fh:
        fh.write(report_to_text(result.report))
    _write_per_rep(result.per_rep, result.cfg.estimators,
                   result.diagnostics.get("excluded_per_rep"),
                   join(outdir, "per_rep.csv"))
    with open(join(outdir, "fig2_curve.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step"] + list(result.cfg.estimators))
        for s in range(result.curve.shape[0]):
            w.writerow([s] + [repr(float(v)) for v in result.curve[s]])


def write_backtest_outputs(result: BacktestResult, outdir) -> None:
    """Write report.csv, report.txt, per_rep.csv (single replication)."""
    os.makedirs(outdir, exist_ok=True)
    join = os.path.join
    report_to_csv(result.report, join(outdir, "report.csv"))
    with open(join(outdir, "report.txt"), "w") as fh:
        fh.write(report_to_text(result.report))
    ests = result.cfg.estimators
    per_rep = {k: np.asarray([[result.per_est[e][k] for e in ests]])
               for k in ("made", "pe", "rade", "er")}
    _write_per_rep(per_rep, ests, [result.report.excluded_steps],
                   join(outdir, "per_rep.csv"))
