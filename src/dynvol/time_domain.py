"""Time-domain variance estimators built from a rolling window of returns.

The moving-average estimator weights the last n squared returns equally; the
exponential-smoothing estimator decays them geometrically with factor lam and
renormalizes the truncated weights to sum to one. As lam -> 1 the smoother
reduces to the moving average, and the code routes that case through the
identical summation so the reduction is exact.

Both window estimators, like autocorr_sq, take one origin or a 1-d int array
of origins, and the array form gives each origin the bits of the int form:
a whole series of forecasts is one call. The window estimators also take a
2-d array of series, one per row, and give one row of values per series:
the replications of a study run in lockstep, and each row has the bits of
the call on that series alone. Their order of addition is fixed by numpy's
elementwise ops on views of the squared series, not by a BLAS kernel or
the number of rows. es_variance likewise takes one estimate or an array of
them, with one row of autocorrelations per origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSeriesError, InsufficientHistoryError,
                     store_ints)


@dataclass(frozen=True)
class EsConfig:
    """Exponential smoothing parameters: decay lam in (0, 1], window n >= 1."""

    lam: float = 0.94
    n: int = 52

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lam must lie in (0, 1]")
        store_ints(self, "n")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class TimeVarianceEstimate:
    """Smoothed variance plus its own sampling-variance estimate, as floats
    for one origin or as arrays with one entry per origin.

    var_hat = 2 * sigma2_hat^2 * c_t, where c_t collapses the smoothing
    weights and the autocorrelation of squared returns into one factor.
    `clamped` counts the origins where a wild autocorrelation estimate
    pushed c_t below the floor and the iid value was substituted: 0 or 1
    for one origin.
    """

    sigma2_hat: float | np.ndarray
    var_hat: float | np.ndarray
    c_t: float | np.ndarray
    clamped: int = 0

    def __post_init__(self):
        if not all(np.all(v >= 0)
                   for v in (self.sigma2_hat, self.var_hat, self.c_t)):
            raise ValueError("estimates must be nonnegative")


def _origins(t, name: str) -> np.ndarray:
    """The origins t as a 1-d intp array; a ValueError names t as name."""
    o = np.atleast_1d(t)
    if o.ndim != 1 or o.size == 0 or o.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an int or a non-empty 1-d int array")
    return o.astype(np.intp)


def _squares(y, t, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(z2, j): the squared returns that the n-windows before the origins t
    read, y[..., min(t)-n:max(t)]**2, and the index into the windows of z2
    of each origin, t - min(t), as a 1-d array. y is one series or a 2-d
    array of them, one per row."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("y must be a series or a 2-d array of series")
    if n < 1:
        raise ValueError("n must be >= 1")
    o = _origins(t, "t")
    bad = o[(o < n) | (o > arr.shape[-1])]
    if bad.size:
        raise InsufficientHistoryError(
            f"window [{bad[0] - n}, {bad[0]}) out of range")
    return arr[..., o.min() - n:o.max()] ** 2, o - o.min()


def _per_origin(t, vals: np.ndarray):
    """vals, one entry per origin along the last axis, shaped as t: a float
    for one series and an int origin, one entry per series for several."""
    vals = vals.reshape(vals.shape[:-1] + np.shape(t))
    return float(vals) if vals.ndim == 0 else vals


def moving_average(y, t, n: int):
    """Mean of the n squared returns before origin t: uses y[t-n:t].

    t is an int, or a 1-d int array of origins for one value per origin;
    y is one series, or a 2-d array with one series per row for one row of
    values per series. Every form runs the same summation, numpy's pairwise
    sum of each window, on a view of the squared series: no window is
    copied."""
    z2, j = _squares(y, t, n)
    windows = np.lib.stride_tricks.sliding_window_view(z2, n, axis=-1)
    return _per_origin(t, np.add.reduce(windows, axis=-1)[..., j] / n)


def _powers(lam: float, k: np.ndarray) -> np.ndarray:
    """lam ** k per int of k by Python float power: numpy picks its array
    power kernel by CPU, and its AVX-512 kernel rounds some one ulp apart."""
    return np.fromiter((lam**e for e in k.tolist()), float, k.size)


def es_weights(lam: float, n: int) -> np.ndarray:
    """Smoothing weights on y[t-1], y[t-2], ..., y[t-n]; positive, sum to 1."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if lam == 1.0:
        return np.full(n, 1.0 / n)
    w = (1.0 - lam) * _powers(lam, np.arange(n))
    return w / w.sum()


def exp_smooth(y, t, cfg: EsConfig):
    """Exponentially weighted mean of squared returns before origin t.

    Weight on y[t-i]^2 is lam^(i-1)(1-lam)/(1-lam^n) for i = 1..n. The value
    is the sum over k of w[k] * y[t-n+k]^2, w = es_weights(lam, n)[::-1],
    added one term at a time in window order (oldest first), so it does not
    depend on a BLAS kernel's order of addition. t and y take the forms
    moving_average takes, and every form runs the same sum: n multiply-adds
    of the squared series shifted by one step each, over the origins from
    min(t) to max(t). At lam = 1 this dispatches to moving_average so the
    limit is exact.
    """
    if cfg.lam == 1.0:
        return moving_average(y, t, cfg.n)
    n = cfg.n
    z2, j = _squares(y, t, n)
    w = es_weights(cfg.lam, n)[::-1]
    width = z2.shape[-1] - n + 1
    acc = z2[..., :width] * w[0]
    term = np.empty_like(acc)
    for k in range(1, n):
        acc += np.multiply(z2[..., k:k + width], w[k], out=term)
    return _per_origin(t, acc[..., j])


def autocorr_sq(y, upto_t, max_lag: int = 30) -> np.ndarray:
    """Sample autocorrelation of squared returns y[0:t]**2, lags 1..max_lag,
    at the origin t = upto_t; for a 1-d int array of origins, one row per
    origin, NaN where the squares before it are constant.

    The biased (full-sample) denominator keeps values in [-1, 1]. All rows
    come from sequential prefix sums of z = y**2 - c, c the mean square
    before the earliest origin: with S(t) = sum_{j<t} z_j, m = S(t)/t and
    P_k(t) = sum_{j<t-k} z_j z_{j+k}, the centred autocovariance at lag k
    is P_k(t) - m (S(t-k) + S(t) - S(k)) + (t - k) m^2 (Chan, Golub &
    LeVeque 1983). That is O(T max_lag) for the latest origin T, and row t
    reads y[:t] only. Values agree with the direct mean-centred sums within
    16 t u kappa_t, the recursive-summation bound, where u = 2**-53 and
    kappa_t = sum z_j^2 / sum (z_j - m)^2 over j < t is at most 1 + t/t0
    for the earliest origin t0. A centred sum of squares that rounds to
    zero counts as constant squares.

    Raises
    ------
    InsufficientHistoryError
        If an origin has fewer than max_lag + 2 observations before it or
        lies beyond the data.
    DegenerateSeriesError
        For an int origin, if the squared series is constant.
    """
    arr = np.asarray(y, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    t = _origins(upto_t, "upto_t")
    short = t[(t < max_lag + 2) | (t > arr.size)]
    if short.size:
        raise InsufficientHistoryError(
            f"need at least {max_lag + 2} observations, "
            f"have {min(int(short[0]), arr.size)}")
    z2 = arr[:t.max()] ** 2
    z = z2 - z2[:t.min()].mean()
    s = np.concatenate(([0.0], np.cumsum(z)))
    st = s[t]
    m = st / t
    # column k: P_k(t) from the prefix sums of the lag-k products
    cov = np.empty((t.size, max_lag + 1))
    for k in range(max_lag + 1):
        p = np.cumsum(z[:z.size - k] * z[k:])[t - k - 1]
        cov[:, k] = p - m * (s[t - k] + st - s[k]) + (t - k) * m * m
    degenerate = ((np.maximum.accumulate(z2)[t - 1]
                   == np.minimum.accumulate(z2)[t - 1]) | (cov[:, 0] <= 0.0))
    cov[degenerate] = np.nan
    cov[:, 1:] /= cov[:, :1]
    rho = cov[:, 1:]
    if np.ndim(upto_t) == 0:
        if degenerate[0]:
            raise DegenerateSeriesError("squared returns are constant")
        return rho[0]
    return rho


def _c_coef(lam: float, n: int, kmax: int) -> tuple[float, np.ndarray]:
    """(c_iid, coef): c_t = sum_{i,j} w_i w_j rho(|i-j|) = c_iid + coef @ rho
    for the normalized smoothing weights and rho at lags 1..kmax (zero
    beyond). lam = 1 is the algebraic limit with equal weights 1/n."""
    k = np.arange(1, kmax + 1)
    if lam == 1.0:
        c_iid, coef = 1.0 / n, 2.0 * (n - k) / (n * n)
    else:
        scale = (1.0 - lam) ** 2 / ((1.0 - lam**n) ** 2 * (1.0 - lam * lam))
        c_iid = scale * (1.0 - lam ** (2 * n))
        coef = (2.0 * scale * _powers(lam, k)
                * (1.0 - _powers(lam, 2 * (n - k))))
    return c_iid, coef


def es_variance(sigma2_hat, cfg: EsConfig,
                rho: np.ndarray | None = None) -> TimeVarianceEstimate:
    """Sampling variance of the smoothed estimator given squared-return
    autocorrelations.

    Parameters
    ----------
    sigma2_hat : float or 1-d array
        The smoothed variance estimate (plugged in as sigma^4), or one per
        origin.
    cfg : EsConfig
    rho : array or None
        Autocorrelations at lags 1, 2, ...; lags beyond the array are
        treated as zero. None means iid. With an array sigma2_hat, one row
        per origin, as autocorr_sq gives them. A lag that is used and not
        finite raises ValueError.

    The array form returns arrays, and each entry has the bits of the float
    form at that origin: c_t adds coef * rho with np.add.reduce along each
    row, whatever the number of rows.

    Notes
    -----
    A noisy rho can drive the factor c_t negative or nearly so; values below
    1e-2 times the iid factor are replaced by the iid factor and counted in
    `clamped`.
    """
    s = np.atleast_1d(np.asarray(sigma2_hat, dtype=float))
    if not np.all(s >= 0):
        raise ValueError("sigma2_hat must be nonnegative")
    kmax = 0 if rho is None else min(cfg.n - 1, np.shape(rho)[-1])
    c_iid, coef = _c_coef(cfg.lam, cfg.n, kmax)
    if rho is None:
        c = np.full(s.shape, c_iid)
    else:
        rows = np.atleast_2d(rho)[:, :kmax]
        if rows.shape[0] != s.size:
            raise ValueError("rho must have one row per estimate")
        if not np.all(np.isfinite(rows)):
            raise ValueError("rho must be finite at the lags used")
        c = c_iid + np.add.reduce(rows * coef, axis=1)
    low = c < 1e-2 * c_iid
    c[low] = c_iid
    var_hat = 2.0 * s**2 * c
    return TimeVarianceEstimate(
        *(_per_origin(sigma2_hat, v) for v in (s, var_hat, c)),
        int(np.count_nonzero(low)))
