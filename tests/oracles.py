"""Direct definitions and asymptotic laws that dynvol is checked against."""

import math

import numpy as np

from dynvol.errors import DegenerateSeriesError, InsufficientHistoryError
from dynvol.state_domain import NU0, _epanechnikov, rule_of_thumb_bandwidth

# unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53


def acf_direct(y, t: int, max_lag: int, shift: float):
    """Autocorrelation of y[:t]**2 at lags 1..max_lag by its definition:
    the squares centred on their mean, one lagged dot product per lag, over
    the biased denominator.

    Also returns the tolerance autocorr_sq states for a table built on the
    squares minus `shift`: 16 t u kappa with kappa = sum (z - shift)^2 /
    sum (z - mean)^2.
    """
    if t > y.size or t < max_lag + 2:
        raise InsufficientHistoryError(
            f"need at least {max_lag + 2} observations, have {min(t, y.size)}")
    z = y[:t] ** 2
    if z.max() == z.min():
        raise DegenerateSeriesError("squared returns are constant")
    zc = z - z.mean()
    denom = float(np.dot(zc, zc))
    rho = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        rho[k - 1] = float(np.dot(zc[:-k], zc[k:])) / denom
    zs = z - shift
    kappa = float(np.dot(zs, zs)) / denom
    return rho, 16.0 * t * UNIT_ROUNDOFF * kappa


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


def s2_squared(sigma2: float, density_at_x: float) -> float:
    """Asymptotic variance factor 2 nu0 sigma^4 / p(x) for the kernel fit."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not density_at_x > 0:
        raise ValueError("density_at_x must be positive")
    return 2.0 * NU0 * sigma2 * sigma2 / density_at_x


def kernel_density(x: np.ndarray, x0: float, h: float | None = None) -> float:
    """Kernel density estimate at x0; bandwidth defaults to the rule of thumb."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = rule_of_thumb_bandwidth(x)
    return float(_epanechnikov((x - x0) / h).sum() / (x.size * h))
