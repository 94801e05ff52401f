"""Combining time-domain and state-domain variance estimates.

Two routes are provided. The dynamic route (Integ) weights the time-domain
estimate by w = var_state / (var_time + var_state), so the weight adapts
every step. The Bayesian route (NonBay) treats the state-domain estimate as
the mean of an inverse-gamma prior on the variance and shrinks the window
estimate toward it; with moment-matched hyperparameters the posterior-mean
weights become a fixed function of the smoothing parameters.

Every function takes floats for one origin or equal-length arrays for one
value per origin; the float form is the one-entry case of the same numpy
code, so each entry of an array result has the bits of the float call.
Validation rejects a bad value anywhere in an array.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateCaseWarning

# shape of the moment-matched inverse-gamma prior: matching its mean and
# variance to s and 2 s^2 gives a = 2.5; the NonBay estimator is bayes_es
# at this shape
MATCHED_SHAPE = 2.5


def _per_origin(vals: np.ndarray):
    """A 0-d result as a float, an array as itself."""
    return float(vals) if vals.ndim == 0 else vals


def dynamic_weight(var_time, var_state):
    """Weight on the time-domain estimator: var_state/(var_time + var_state).

    Both variances zero is a degenerate tie; 0.5 is returned there, with one
    warning per call however many entries tie.
    """
    vt = np.asarray(var_time, dtype=float)
    vs = np.asarray(var_state, dtype=float)
    total = vt + vs
    tie = total == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(tie, 0.5, np.clip(vs / total, 0.0, 1.0))
    # w is NaN where a variance is NaN or both are infinite
    if np.any(vt < 0) or np.any(vs < 0) or np.any(np.isnan(w)):
        raise ValueError("variances must be nonnegative and not both infinite")
    if np.any(tie):
        warnings.warn("both variance estimates are zero; weight set to 0.5",
                      DegenerateCaseWarning, stacklevel=2)
    return _per_origin(w)


def combine_estimates(time_est, var_time, state_est, var_state):
    """Integ's blend w time_est + (1 - w) state_est, with the dynamic weight
    w = dynamic_weight(var_time, var_state) on the time-domain estimate."""
    w = dynamic_weight(var_time, var_state)
    te = np.asarray(time_est, dtype=float)
    se = np.asarray(state_est, dtype=float)
    if not (np.all(te >= 0) and np.all(se >= 0)):
        raise ValueError("estimates must be nonnegative")
    return _per_origin(w * te + (1.0 - w) * se)


def bayes_es(es_est, prior_mean, lam: float, n: int, a: float):
    """Posterior-mean shrinkage of the smoothed estimator toward the prior
    mean, with the smoother's equivalent window size m = (1 - lam^n) /
    (1 - lam) in place of n: (m ES + k S)/(m + k), k = 2(a-1). Multiplied through by 1 - lam,

        (1-lam^n) ES + k (1-lam) S
        --------------------------
          (1-lam^n) + k (1-lam)

    and lam = 1 takes m = n, the moving-average case; the value is
    continuous in lam up to 1. With the moment-matched prior (a = MATCHED_SHAPE, k = 3)
    this is the NonBay estimator. The value is clamped into [min(ES, S),
    max(ES, S)], which rounding can leave when (1-lam^n) ES is subnormal.
    """
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if a <= 1.0:
        raise ValueError("a must exceed 1")
    es = np.asarray(es_est, dtype=float)
    prior = np.asarray(prior_mean, dtype=float)
    if not (np.all(es >= 0) and np.all(prior >= 0)):
        raise ValueError("estimates must be nonnegative")
    u, v = (float(n), 1.0) if lam == 1.0 else (1.0 - lam**n, 1.0 - lam)
    kv = 2.0 * (a - 1.0) * v
    return _per_origin(np.clip((u * es + kv * prior) / (u + kv),
                               np.minimum(es, prior), np.maximum(es, prior)))
