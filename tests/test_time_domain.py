"""Window and smoothed variance estimators plus their variance factors."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dynvol.errors import DegenerateSeriesError, InsufficientHistoryError
from dynvol.time_domain import (EsConfig, TimeVarianceEstimate, autocorr_sq,
                                es_variance, es_weights, exp_smooth,
                                moving_average)
from oracles import SEGMENT, acf_direct, s1_squared, segmented_series


def test_moving_average_hand_value():
    y = np.array([0.1, -0.2, 0.3, 0.1])
    # mean of squares of last 3 before t=4: (0.04+0.09+0.01)/3
    assert moving_average(y, 4, 3) == pytest.approx(0.04666666666666667, abs=1e-15)


def test_moving_average_needs_history():
    with pytest.raises(InsufficientHistoryError):
        moving_average(np.array([0.1, 0.2]), 2, 3)


def test_es_weights_normalized_and_geometric():
    w = es_weights(0.94, 52)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[1] / w[0] == pytest.approx(0.94, abs=1e-12)
    assert len(w) == 52
    # lam = 1 degenerates to the flat window
    flat = es_weights(1.0, 10)
    assert np.allclose(flat, 0.1, atol=1e-15)


# numpy picks its array power kernel by CPU, and its AVX-512 kernel rounds
# some powers one ulp apart from its others; Python float powers are the
# same on every host, so the smoother tracks and Integ's variance are too
@pytest.mark.parametrize("lam", [0.90, 0.94, 0.98])
@pytest.mark.parametrize("n", [12, 52])
def test_weights_and_c_t_have_the_bits_of_python_float_powers(lam, n):
    w = np.array([(1.0 - lam) * lam**i for i in range(n)])
    assert es_weights(lam, n).tobytes() == (w / w.sum()).tobytes()
    kmax = n - 1
    scale = (1.0 - lam) ** 2 / ((1.0 - lam**n) ** 2 * (1.0 - lam * lam))
    c_iid = scale * (1.0 - lam ** (2 * n))
    coef = np.array([2.0 * scale * lam**k * (1.0 - lam ** (2 * (n - k)))
                     for k in range(1, kmax + 1)])
    # non-negative autocorrelations keep c_t above its floor
    rho = np.random.default_rng(n).uniform(0.0, 0.3, (5, kmax))
    c_t = es_variance(np.full(5, 1e-4), EsConfig(lam, n), rho).c_t
    assert c_t.tobytes() == (c_iid + np.add.reduce(rho * coef,
                                                   axis=1)).tobytes()


def test_exp_smooth_hand_value():
    # lam=0.5, n=2: weights (0.5/0.75, 0.25/0.75) on (y_{t-1}^2, y_{t-2}^2)
    y = np.array([0.3, 0.1, 0.2])
    got = exp_smooth(y, 3, EsConfig(lam=0.5, n=2))
    expect = (2.0 / 3.0) * 0.04 + (1.0 / 3.0) * 0.01
    assert got == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.03, abs=1e-15)


def test_exp_smooth_lam_one_is_moving_average_bitwise():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(100) * 0.02
    a = exp_smooth(y, 80, EsConfig(lam=1.0, n=52))
    b = moving_average(y, 80, 52)
    assert a == b  # exact dispatch, no float drift


def test_cached_smoothing_weights_cannot_leak():
    y = np.random.default_rng(4).standard_normal(120)
    cfg = EsConfig(0.94, 52)
    before = exp_smooth(y, 100, cfg)
    # es_weights hands out a fresh array; writing into it changes nothing
    w = es_weights(0.94, 52)
    w[:] = 0.0
    assert exp_smooth(y, 100, cfg) == before
    assert es_weights(0.94, 52)[0] > 0.0


def test_autocorr_hand_value():
    # y^2 = [1,2,3,4]: centered z = [-1.5,-0.5,0.5,1.5], var*n = 5
    y = np.sqrt(np.array([1.0, 2.0, 3.0, 4.0]))
    rho = autocorr_sq(y, 4, max_lag=2)
    assert rho[0] == pytest.approx(0.25, abs=1e-12)
    assert rho[1] == pytest.approx(-0.3, abs=1e-12)


def test_autocorr_rejects_constant_squares():
    with pytest.raises(DegenerateSeriesError):
        autocorr_sq(np.ones(40), 40, max_lag=5)


def test_autocorr_needs_enough_points():
    with pytest.raises(InsufficientHistoryError):
        autocorr_sq(np.arange(10.0), 10, max_lag=30)


def test_autocorr_table_rejects_short_origins_and_bad_arguments():
    y = np.random.default_rng(1).standard_normal(50)
    with pytest.raises(InsufficientHistoryError, match="have 6"):
        autocorr_sq(y, np.array([20, 6, 40]), max_lag=5)
    with pytest.raises(InsufficientHistoryError, match="have 50"):
        autocorr_sq(y, np.array([20, 51]), max_lag=5)
    for bad in (np.array([], dtype=int), np.array([20.0]), np.ones((2, 2), int)):
        with pytest.raises(ValueError):
            autocorr_sq(y, bad, max_lag=5)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       max_lag=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_autocorr_table_matches_direct_definition(segments, max_lag, seed,
                                                  data):
    y = segmented_series(segments, seed)
    assume(y.size >= max_lag + 2)
    origins = np.array(data.draw(st.lists(
        st.integers(max_lag + 2, y.size), min_size=1, max_size=12)))
    table = autocorr_sq(y, origins, max_lag)
    assert table.shape == (origins.size, max_lag)
    shift = float((y[:origins.min()] ** 2).mean())
    for t, row in zip(origins.tolist(), table):
        try:
            want, tol = acf_direct(y, t, max_lag, shift)
        except DegenerateSeriesError:
            assert np.all(np.isnan(row))
            with pytest.raises(DegenerateSeriesError):
                autocorr_sq(y, t, max_lag)
            continue
        assert np.all(np.abs(row - want) <= tol)
        # the int form is the one-row table, shifted by its own mean
        _, own_tol = acf_direct(y, t, max_lag, float((y[:t] ** 2).mean()))
        assert np.all(np.abs(autocorr_sq(y, t, max_lag) - want) <= own_tol)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       max_lag=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_autocorr_table_row_reads_no_later_returns(segments, max_lag, seed,
                                                   data):
    y = segmented_series(segments, seed)
    assume(y.size >= max_lag + 3)
    origins = np.array(data.draw(st.lists(
        st.integers(max_lag + 2, y.size), min_size=1, max_size=12)))
    cut = data.draw(st.sampled_from(origins.tolist()))
    altered = y.copy()
    altered[cut:] = 7.0 * altered[cut:] + 3.0
    before = origins <= cut
    assert np.array_equal(autocorr_sq(y, origins, max_lag)[before],
                          autocorr_sq(altered, origins, max_lag)[before],
                          equal_nan=True)


def _window_order_sum(y, t, lam, n):
    """exp_smooth's definition: w[k] * y[t-n+k]^2 added oldest first."""
    w = es_weights(lam, n)[::-1]
    acc = 0.0
    for k in range(n):
        acc += float(w[k]) * float(y[t - n + k] * y[t - n + k])
    return acc


_WINDOW_DECAYS = st.sampled_from([0.5, 0.9, 0.94, 0.97, 1.0])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       n=st.integers(1, 60), lam=_WINDOW_DECAYS,
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_estimators_over_origins_match_int_form(segments, n, lam,
                                                      seed, data):
    y = segmented_series(segments, seed)
    assume(y.size >= n)
    origins = np.array(data.draw(st.lists(
        st.integers(n, y.size), min_size=1, max_size=12)))
    cfg = EsConfig(lam, n)
    ma, es = moving_average(y, origins, n), exp_smooth(y, origins, cfg)
    assert ma.shape == es.shape == origins.shape
    # bit for bit, row by row
    assert np.array_equal(
        ma, np.array([moving_average(y, t, n) for t in origins.tolist()]))
    assert np.array_equal(
        es, np.array([exp_smooth(y, t, cfg) for t in origins.tolist()]))
    if lam < 1.0:
        assert np.array_equal(es, np.array(
            [_window_order_sum(y, t, lam, n) for t in origins.tolist()]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       n=st.integers(1, 60), lam=_WINDOW_DECAYS,
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_estimators_over_origins_read_no_later_returns(segments, n,
                                                             lam, seed,
                                                             data):
    y = segmented_series(segments, seed)
    assume(y.size >= n)
    origins = np.array(data.draw(st.lists(
        st.integers(n, y.size), min_size=1, max_size=12)))
    cut = data.draw(st.sampled_from(origins.tolist()))
    altered = y.copy()
    altered[cut:] = 7.0 * altered[cut:] + 3.0
    before = origins <= cut
    cfg = EsConfig(lam, n)
    assert np.array_equal(moving_average(y, origins, n)[before],
                          moving_average(altered, origins, n)[before])
    assert np.array_equal(exp_smooth(y, origins, cfg)[before],
                          exp_smooth(altered, origins, cfg)[before])


def test_window_estimators_reject_short_origins_and_bad_arguments():
    y = np.random.default_rng(6).standard_normal(50)
    cfg = EsConfig(0.94, 12)
    for f in (lambda t: moving_average(y, t, 12),
              lambda t: exp_smooth(y, t, cfg)):
        for t in (np.array([20, 11, 40]), np.array([20, 51]), 11, 51):
            with pytest.raises(InsufficientHistoryError):
                f(t)
        for bad in (np.array([], dtype=int), np.array([20.0]),
                    np.ones((2, 2), int)):
            with pytest.raises(ValueError):
                f(bad)


def _c_brute(lam, n, rho):
    # independent double sum over the weight grid
    w = es_weights(lam, n)
    c = 0.0
    for i in range(n):
        for j in range(n):
            lag = abs(i - j)
            r = 1.0 if lag == 0 else (rho[lag - 1] if lag - 1 < len(rho) else 0.0)
            c += w[i] * w[j] * r
    return c


def test_es_variance_matches_brute_force_double_sum():
    rng = np.random.default_rng(8)
    for lam, n in ((0.94, 52), (0.9, 10), (0.97, 12), (1.0, 7)):
        rho = rng.uniform(-0.05, 0.3, size=30)
        got = es_variance(1.0, EsConfig(lam=lam, n=n), rho=rho)
        assert not got.clamped
        assert got.c_t == pytest.approx(_c_brute(lam, n, rho), rel=1e-12)
        assert got.var_hat == pytest.approx(2.0 * got.c_t, rel=1e-12)


def test_es_variance_iid_closed_form():
    # rho = 0: c = (1-lam)(1+lam^n) / ((1+lam)(1-lam^n))
    lam, n = 0.94, 52
    got = es_variance(2.0, EsConfig(lam=lam, n=n), rho=None)
    expect_c = (1.0 - lam) * (1.0 + lam**n) / ((1.0 + lam) * (1.0 - lam**n))
    assert got.c_t == pytest.approx(expect_c, rel=1e-14)
    assert got.var_hat == pytest.approx(2.0 * 4.0 * expect_c, rel=1e-14)
    # sanity: sum of squared weights equals the same quantity
    w = es_weights(lam, n)
    assert float(w @ w) == pytest.approx(expect_c, rel=1e-12)
    assert float(w @ w) == pytest.approx(0.0335088, abs=5e-7)


def test_es_variance_flat_window_iid():
    got = es_variance(1.0, EsConfig(lam=1.0, n=20), rho=None)
    assert got.c_t == pytest.approx(1.0 / 20.0, rel=1e-14)


def test_es_variance_clamp_floor():
    # a pathological negative rho can drive the double sum toward zero;
    # the factor is then floored at the iid value and flagged
    cfg = EsConfig(lam=0.9, n=2)
    low = es_variance(1.0, cfg, rho=np.array([-1.0]))
    assert low.clamped
    iid = es_variance(1.0, cfg, rho=None)
    assert low.c_t == pytest.approx(iid.c_t, rel=1e-14)
    ok = es_variance(1.0, cfg, rho=np.array([-0.99]))
    assert not ok.clamped
    assert ok.c_t < iid.c_t


def test_es_variance_array_form_is_the_scalar_form_per_origin():
    # each entry of the array form has the bits of the float call with that
    # row of rho, and clamped counts the rows the float calls flag
    rng = np.random.default_rng(21)
    for lam, n, lags in ((0.94, 52, 30), (0.9, 2, 5), (1.0, 7, 30)):
        cfg = EsConfig(lam, n)
        sig = rng.uniform(0.0, 3.0, size=9)
        sig[2] = 0.0
        rho = rng.uniform(-1.0, 0.6, size=(9, lags))
        rho[0] = -1.0  # drives c_t below the floor
        got = es_variance(sig, cfg, rho)
        one = [es_variance(float(s), cfg, r) for s, r in zip(sig, rho)]
        for field in ("sigma2_hat", "var_hat", "c_t"):
            want = np.array([getattr(e, field) for e in one])
            assert getattr(got, field).tobytes() == want.tobytes()
        assert got.clamped == sum(e.clamped for e in one)
        assert got.clamped >= 1
        iid = es_variance(sig, cfg)
        assert iid.var_hat.tobytes() == np.array(
            [es_variance(float(s), cfg).var_hat for s in sig]).tobytes()


def test_es_variance_array_form_validates_every_entry():
    cfg = EsConfig(0.94, 52)
    with pytest.raises(ValueError):
        es_variance(np.array([0.1, -1e-300, 0.2]), cfg)
    with pytest.raises(ValueError):
        es_variance(np.array([0.1, 0.2]), cfg, np.zeros((3, 30)))


def test_es_variance_rejects_a_rho_that_is_not_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            es_variance(1.0, EsConfig(0.94, 52), rho=np.array([bad, 0.1]))
        rows = np.zeros((2, 30))
        rows[1, 29] = bad
        with pytest.raises(ValueError, match="finite"):
            es_variance(np.array([0.1, 0.2]), EsConfig(0.94, 52), rows)
        # a lag past the window (n - 1 = 2 lags used) is never read
        got = es_variance(1.0, EsConfig(0.94, 3), np.array([0.1, 0.1, bad]))
        assert got.var_hat == es_variance(1.0, EsConfig(0.94, 3),
                                          np.array([0.1, 0.1])).var_hat
    with pytest.raises(ValueError, match="nonnegative"):
        TimeVarianceEstimate(1.0, np.nan, 1.0)


def test_s1_squared_limits_and_value():
    # c -> 0 gives the iid asymptotic factor 2 sigma^4
    assert s1_squared(1.0, 1e-14) == pytest.approx(2.0, rel=1e-9)
    c = 0.5
    expect = c * (math.exp(c) + 1.0) / (math.exp(c) - 1.0)
    assert s1_squared(1.0, c) == pytest.approx(expect, rel=1e-13)
    assert s1_squared(2.0, c) == pytest.approx(4.0 * expect, rel=1e-13)


def test_config_validation():
    with pytest.raises(ValueError):
        EsConfig(lam=0.0, n=52)
    with pytest.raises(ValueError):
        EsConfig(lam=1.2, n=52)
    with pytest.raises(ValueError):
        EsConfig(lam=0.94, n=0)
