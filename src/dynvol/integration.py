"""Combining time-domain and state-domain variance estimates.

Two routes are provided. The dynamic route weights the two estimators by
their estimated sampling variances, so the weight adapts every step. The
Bayesian route treats the state-domain estimate as the mean of an
inverse-gamma prior on the variance and shrinks the window estimate toward
it; with moment-matched hyperparameters the posterior-mean weights become a
fixed function of the smoothing parameters.

Every function takes floats for one origin or equal-length arrays for one
value per origin; the float form is the one-entry case of the same numpy
code, so each entry of an array result has the bits of the float call.
Validation rejects a bad value anywhere in an array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCaseWarning

# shape of the moment-matched inverse-gamma prior: matching its mean and
# variance to s and 2 s^2 gives a = 2.5; the NonBay estimator is bayes_es
# at this shape
MATCHED_SHAPE = 2.5


def _per_origin(vals: np.ndarray):
    """A 0-d result as a float, an array as itself."""
    return float(vals) if vals.ndim == 0 else vals


def _in_unit_interval(w) -> bool:
    # NaN is outside, as in a chained comparison
    return bool(np.all((0.0 <= w) & (w <= 1.0)))


@dataclass(frozen=True)
class IntegratedEstimate:
    """Convex combination of the two estimators; w_time is the weight on the
    time-domain component. Floats, or arrays with one entry per origin."""

    sigma2_hat: float | np.ndarray
    w_time: float | np.ndarray
    var_time: float | np.ndarray = float("nan")
    var_state: float | np.ndarray = float("nan")

    def __post_init__(self):
        if not _in_unit_interval(self.w_time):
            raise ValueError("w_time must lie in [0, 1]")
        if np.any(self.sigma2_hat < 0):
            raise ValueError("sigma2_hat must be nonnegative")


def dynamic_weight(var_time, var_state):
    """Weight on the time-domain estimator: var_state/(var_time + var_state).

    Both variances zero is a degenerate tie; 0.5 is returned there, with one
    warning per call however many entries tie.
    """
    vt = np.asarray(var_time, dtype=float)
    vs = np.asarray(var_state, dtype=float)
    if np.any(vt < 0) or np.any(vs < 0):
        raise ValueError("variances must be nonnegative")
    total = vt + vs
    tie = total == 0.0
    if np.any(tie):
        warnings.warn("both variance estimates are zero; weight set to 0.5",
                      DegenerateCaseWarning, stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(tie, 0.5, np.clip(vs / total, 0.0, 1.0))
    return _per_origin(w)


def integrate(time_est, state_est, w, var_time=float("nan"),
              var_state=float("nan")) -> IntegratedEstimate:
    """Combine two variance estimates with weight w on the time-domain one."""
    w = np.asarray(w, dtype=float)
    if not _in_unit_interval(w):
        raise ValueError("w must lie in [0, 1]")
    te = np.asarray(time_est, dtype=float)
    se = np.asarray(state_est, dtype=float)
    if np.any(te < 0) or np.any(se < 0):
        raise ValueError("estimates must be nonnegative")
    sigma2 = w * te + (1.0 - w) * se
    return IntegratedEstimate(_per_origin(sigma2), _per_origin(w), var_time,
                              var_state)


def combine_estimates(tve, sve) -> IntegratedEstimate:
    """Variance-weighted combination of a TimeVarianceEstimate and a
    StateVarianceEstimate, at one origin or at each of several."""
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


def bayes_es(es_est, prior_mean, lam: float, n: int, a: float):
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
    es = np.asarray(es_est, dtype=float)
    prior = np.asarray(prior_mean, dtype=float)
    if np.any(es < 0) or np.any(prior < 0):
        raise ValueError("estimates must be nonnegative")
    kv = 2.0 * (a - 1.0) * v
    return _per_origin((u * es + kv * prior) / (u + kv))
