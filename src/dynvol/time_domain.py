"""Time-domain variance estimators built from a rolling window of returns.

The moving-average estimator weights the last n squared returns equally; the
exponential-smoothing estimator decays them geometrically with factor lam and
renormalizes the truncated weights to sum to one. As lam -> 1 the smoother
reduces to the moving average, and the code routes that case through the
identical summation so the reduction is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InsufficientHistoryError


@dataclass(frozen=True)
class EsConfig:
    """Exponential smoothing parameters: decay lam in (0, 1], window n >= 1."""

    lam: float = 0.94
    n: int = 52

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lam must lie in (0, 1]")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class TimeVarianceEstimate:
    """Smoothed variance plus its own sampling-variance estimate.

    var_hat = 2 * sigma2_hat^2 * c_t, where c_t collapses the smoothing
    weights and the autocorrelation of squared returns into one factor.
    `clamped` flags that a wild autocorrelation estimate pushed c_t below
    the floor and the iid value was substituted.
    """

    sigma2_hat: float
    var_hat: float
    c_t: float
    clamped: bool = False

    def __post_init__(self):
        if self.sigma2_hat < 0 or self.var_hat < 0 or self.c_t < 0:
            raise ValueError("estimates must be nonnegative")


def _values(y) -> np.ndarray:
    arr = y.y if hasattr(y, "y") else y
    return np.asarray(arr, dtype=float)


def moving_average(y, t: int, n: int) -> float:
    """Mean of the n squared returns before index t: uses y[t-n:t]."""
    arr = _values(y)
    if n < 1:
        raise ValueError("n must be >= 1")
    if t - n < 0 or t > arr.size:
        raise InsufficientHistoryError(f"window [{t - n}, {t}) out of range")
    w = arr[t - n:t]
    # the sum and division np.mean performs, without its wrapper
    return float(np.add.reduce(w * w) / n)


def es_weights(lam: float, n: int) -> np.ndarray:
    """Smoothing weights on y[t-1], y[t-2], ..., y[t-n]; positive, sum to 1."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if lam == 1.0:
        return np.full(n, 1.0 / n)
    w = (1.0 - lam) * lam ** np.arange(n)
    return w / w.sum()


@functools.lru_cache(maxsize=64)
def _es_weights_rev(lam: float, n: int) -> np.ndarray:
    """Read-only es_weights(lam, n) in window order: entry k weights y[t-n+k].

    A negative-stride view, not a contiguous copy: np.dot may route the two
    layouts to different summation loops (numpy's own or BLAS), and the view
    is the layout the smoothed values were defined with. Cached per (lam, n)
    and read-only, so no caller can change another's weights.
    """
    w = es_weights(lam, n)
    w.flags.writeable = False
    return w[::-1]


def exp_smooth(y, t: int, cfg: EsConfig) -> float:
    """Exponentially weighted mean of squared returns before index t.

    Weight on y[t-i]^2 is lam^(i-1)(1-lam)/(1-lam^n) for i = 1..n. At
    lam = 1 this dispatches to moving_average so the limit is exact.
    """
    if cfg.lam == 1.0:
        return moving_average(y, t, cfg.n)
    arr = _values(y)
    n = cfg.n
    if t - n < 0 or t > arr.size:
        raise InsufficientHistoryError(f"window [{t - n}, {t}) out of range")
    window = arr[t - n:t]
    return float(np.dot(_es_weights_rev(cfg.lam, n), window * window))


def autocorr_sq(y, upto_t: int, max_lag: int = 30) -> np.ndarray:
    """Sample autocorrelation of squared returns y[0:upto_t]**2, lags 1..max_lag.

    Autocovariances use the biased (full-sample) denominator so every value
    lies in [-1, 1].

    Raises
    ------
    InsufficientHistoryError
        If fewer than max_lag + 2 observations are available.
    DegenerateSeriesError
        If the squared series is constant.
    """
    arr = _values(y)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    if upto_t > arr.size or upto_t < max_lag + 2:
        raise InsufficientHistoryError(
            f"need at least {max_lag + 2} observations, have {min(upto_t, arr.size)}")
    z = arr[:upto_t] ** 2
    zc = z - z.mean()
    denom = float(np.dot(zc, zc))
    if denom <= 0.0:
        raise DegenerateSeriesError("squared returns are constant")
    rho = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        rho[k - 1] = float(np.dot(zc[:-k], zc[k:])) / denom
    return rho


def _c_factor(lam: float, n: int, rho: np.ndarray | None) -> float:
    """Weighted autocovariance sum c_t entering var_hat = 2 sigma^4 c_t.

    Equals sum_{i,j} w_i w_j rho(|i-j|) for the normalized smoothing weights,
    with rho truncated to the supplied lags (zero beyond). The lam = 1 case
    is the algebraic limit with equal weights 1/n.
    """
    kmax = 0 if rho is None else min(n - 1, len(rho))
    if lam == 1.0:
        s = sum((n - k) * float(rho[k - 1]) for k in range(1, kmax + 1))
        return (n + 2.0 * s) / (n * n)
    one_m_l2 = 1.0 - lam * lam
    diag = (1.0 - lam ** (2 * n)) / one_m_l2
    s = 0.0
    for k in range(1, kmax + 1):
        s += float(rho[k - 1]) * lam**k * (1.0 - lam ** (2 * (n - k))) / one_m_l2
    return ((1.0 - lam) ** 2 / (1.0 - lam**n) ** 2) * (diag + 2.0 * s)


def es_variance(sigma2_hat: float, cfg: EsConfig,
                rho: np.ndarray | None = None) -> TimeVarianceEstimate:
    """Sampling variance of the smoothed estimator given squared-return
    autocorrelations.

    Parameters
    ----------
    sigma2_hat : float
        The smoothed variance estimate (plugged in as sigma^4).
    cfg : EsConfig
    rho : array or None
        Autocorrelations at lags 1, 2, ...; lags beyond the array are
        treated as zero. None means iid.

    Notes
    -----
    A noisy rho can drive the factor c_t negative or nearly so; values below
    1e-2 times the iid factor are replaced by the iid factor and flagged.
    """
    if sigma2_hat < 0:
        raise ValueError("sigma2_hat must be nonnegative")
    c = _c_factor(cfg.lam, cfg.n, rho)
    c_iid = _c_factor(cfg.lam, cfg.n, None)
    clamped = False
    if c < 1e-2 * c_iid:
        c = c_iid
        clamped = True
    var_hat = 2.0 * sigma2_hat**2 * c
    return TimeVarianceEstimate(sigma2_hat, var_hat, c, clamped)


def s1_squared(sigma2: float, c: float) -> float:
    """Asymptotic variance factor c*sigma^4*(e^c + 1)/(e^c - 1) for the
    smoother with n(1 - lam) -> c; the c -> 0 limit is 2*sigma^4."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if c < 0:
        raise ValueError("c must be nonnegative")
    s4 = sigma2 * sigma2
    if c < 1e-10:
        return 2.0 * s4
    # (e^c+1)/(e^c-1) written via exp(-c) to stay finite for large c
    return c * s4 * (1.0 + math.exp(-c)) / (-math.expm1(-c))
