"""Combining time-domain and state-domain variance estimates.

Two routes are provided. The dynamic route weights the two estimators by
their estimated sampling variances, so the weight adapts every step. The
Bayesian route treats the state-domain estimate as the mean of an
inverse-gamma prior on the variance and shrinks the window estimate toward
it; with moment-matched hyperparameters the posterior-mean weights become a
fixed function of the smoothing parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import DegenerateCaseWarning

# shape of the moment-matched inverse-gamma prior: matching its mean and
# variance to s and 2 s^2 gives a = 2.5; the NonBay estimator is bayes_es
# at this shape
MATCHED_SHAPE = 2.5


@dataclass(frozen=True)
class IntegratedEstimate:
    """Convex combination of the two estimators; w_time is the weight on the
    time-domain component."""

    sigma2_hat: float
    w_time: float
    var_time: float = float("nan")
    var_state: float = float("nan")

    def __post_init__(self):
        if not (0.0 <= self.w_time <= 1.0):
            raise ValueError("w_time must lie in [0, 1]")
        if self.sigma2_hat < 0:
            raise ValueError("sigma2_hat must be nonnegative")


def dynamic_weight(var_time: float, var_state: float) -> float:
    """Weight on the time-domain estimator: var_state/(var_time + var_state).

    Both variances zero is a degenerate tie; 0.5 is returned with a warning.
    """
    if var_time < 0 or var_state < 0:
        raise ValueError("variances must be nonnegative")
    total = var_time + var_state
    if total == 0.0:
        warnings.warn("both variance estimates are zero; weight set to 0.5",
                      DegenerateCaseWarning, stacklevel=2)
        return 0.5
    return min(max(var_state / total, 0.0), 1.0)


def integrate(time_est: float, state_est: float, w: float,
              var_time: float = float("nan"),
              var_state: float = float("nan")) -> IntegratedEstimate:
    """Combine two variance estimates with weight w on the time-domain one."""
    if not (0.0 <= w <= 1.0):
        raise ValueError("w must lie in [0, 1]")
    if time_est < 0 or state_est < 0:
        raise ValueError("estimates must be nonnegative")
    sigma2 = w * time_est + (1.0 - w) * state_est
    return IntegratedEstimate(sigma2, w, var_time, var_state)


def combine_estimates(tve, sve) -> IntegratedEstimate:
    """Variance-weighted combination of a TimeVarianceEstimate and a
    StateVarianceEstimate."""
    w = dynamic_weight(tve.var_hat, sve.var_hat)
    return integrate(tve.sigma2_hat, sve.sigma2_hat, w,
                     var_time=tve.var_hat, var_state=sve.var_hat)


def _window_mass(lam: float, n: int) -> tuple[float, float]:
    """(u, v) with the smoother's equivalent window size u/v: (1 - lam^n,
    1 - lam), or (n, 1) at lam = 1."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if lam == 1.0:
        return float(n), 1.0
    return 1.0 - lam**n, 1.0 - lam


def bayes_es(es_est: float, prior_mean: float, lam: float, n: int,
             a: float) -> float:
    """Posterior-mean shrinkage of the smoothed estimator toward the prior
    mean, with the smoother's equivalent window size m = (1 - lam^n) /
    (1 - lam) in place of n: (m ES + k S)/(m + k), k = 2(a-1). Multiplied through by 1 - lam,

        (1-lam^n) ES + k (1-lam) S
        --------------------------
          (1-lam^n) + k (1-lam)

    and lam = 1 takes m = n, the moving-average case; the value is
    continuous in lam up to 1. With the moment-matched prior (a = MATCHED_SHAPE, k = 3)
    this is the NonBay estimator.
    """
    u, v = _window_mass(lam, n)
    if a <= 1.0:
        raise ValueError("a must exceed 1")
    if es_est < 0 or prior_mean < 0:
        raise ValueError("estimates must be nonnegative")
    kv = 2.0 * (a - 1.0) * v
    return (u * es_est + kv * prior_mean) / (u + kv)
