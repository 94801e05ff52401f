"""Property tests of the invariants the estimators rest on: convex weights,
the equivalent-weight identities and the lam = 1 reductions."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynvol.errors import NoCoverageError, SingularDesignError
from dynvol.integration import (MATCHED_SHAPE, bayes_es, combine_estimates,
                                dynamic_weight)
from dynvol.state_domain import _epanechnikov, xi_weights
from dynvol.time_domain import EsConfig, exp_smooth, moving_average
from oracles import bayes_ma

EPS = np.finfo(float).eps

_nonneg = st.floats(0.0, 1e6, allow_subnormal=False)
_decay = st.floats(1e-3, 1.0, exclude_min=False)


def _between(v, a, b, ulps=4):
    """a <= v <= b up to a few units of rounding in the largest input."""
    slack = ulps * EPS * max(abs(a), abs(b))
    return min(a, b) - slack <= v <= max(a, b) + slack


@given(_nonneg, _nonneg)
def test_dynamic_weight_lies_in_unit_interval(var_time, var_state):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 0/0 tie warns and returns 0.5
        w = dynamic_weight(var_time, var_state)
    assert 0.0 <= w <= 1.0


@given(_nonneg, _nonneg, _nonneg, _nonneg)
def test_combine_estimates_lies_between_its_inputs(s_time, v_time, s_state,
                                                   v_state):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = dynamic_weight(v_time, v_state)
        est = combine_estimates(s_time, v_time, s_state, v_state)
    assert 0.0 <= w <= 1.0
    assert _between(est, s_time, s_state)


@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=60),
       st.floats(0.0, 1.0), st.floats(0.02, 1.0))
def test_xi_weight_identities_hold(xs, where, h):
    x = np.asarray(xs)
    x0 = float(x.min() + where * (x.max() - x.min()))
    try:
        xi = xi_weights(x, x0, h)
    except (NoCoverageError, SingularDesignError):
        assume(False)
    d = x - x0
    w = _epanechnikov(d / h)
    v0, v1, v2 = w.sum(), (w * d).sum(), (w * d * d).sum()
    # rounding is amplified by the design's condition, as in any WLS solve
    cond = 1.0 if v2 == 0.0 else (v0 * v2 + v1 * v1) / (v0 * v2 - v1 * v1)
    tol = 64 * x.size * EPS * cond
    assert abs(xi.sum() - 1.0) <= tol
    assert abs(xi @ (d / h)) <= tol


@settings(max_examples=200)
@given(_nonneg, _nonneg, _decay, st.integers(1, 500),
       st.floats(1.01, 50.0))
# (1 - lam) est is subnormal, and the unclamped formula left the interval
@example(4.689911422602379e-308, 4.689911422602379e-308, 0.9921875, 1, 2.0)
def test_bayes_es_lies_between_estimate_and_prior_mean(est, prior, lam, n, a):
    got = bayes_es(est, prior, lam, n, a)
    assert _between(got, est, prior)


@given(_nonneg, _nonneg, st.integers(1, 500), st.floats(1.01, 50.0))
# the formula rounds to 3.0000000000000004; bayes_es clamps it to 3.0
@example(3.0, 3.0, 1, 1.18)
def test_bayes_es_at_lam_one_is_bayes_ma_bitwise(est, prior, n, a):
    want = min(max(bayes_ma(est, prior, n, a), min(est, prior)),
               max(est, prior))
    assert bayes_es(est, prior, 1.0, n, a) == want


@given(_nonneg, _nonneg, st.integers(1, 500))
def test_nonbay_is_continuous_at_lam_one(est, prior, n):
    at_one = bayes_es(est, prior, 1.0, n, MATCHED_SHAPE)
    near = bayes_es(est, prior, 1.0 - 1e-9, n, MATCHED_SHAPE)
    assert near == pytest.approx(at_one, rel=1e-5, abs=1e-300)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=80),
       st.integers(1, 80))
def test_exp_smooth_at_lam_one_is_moving_average_bitwise(ys, n):
    y = np.asarray(ys)
    assume(n <= y.size)
    t = y.size
    assert exp_smooth(y, t, EsConfig(1.0, n)) == moving_average(y, t, n)

