"""Combined estimators: dynamic weighting and conjugate-prior shrinkage."""

import warnings

import numpy as np
import pytest

from dynvol.errors import DegenerateCaseWarning
from dynvol.integration import (MATCHED_SHAPE, bayes_es, combine_estimates,
                                dynamic_weight)
from dynvol.time_domain import EsConfig, es_variance
from oracles import (IgPrior, bayes_ma, effective_n, efficiency_ratios,
                     ig_posterior, match_hyperparams)


def test_dynamic_weight_hand_value():
    # weight on the smoothed-window route is var_state/(var_time+var_state)
    assert dynamic_weight(2.0, 6.0) == pytest.approx(0.75, abs=1e-15)
    assert dynamic_weight(6.0, 2.0) == pytest.approx(0.25, abs=1e-15)
    assert dynamic_weight(0.0, 5.0) == 1.0
    assert dynamic_weight(5.0, 0.0) == 0.0


def test_dynamic_weight_degenerate_pair_warns():
    with pytest.warns(DegenerateCaseWarning):
        w = dynamic_weight(0.0, 0.0)
    assert w == 0.5


def test_integrate_convex_combination():
    # variances 3 and 1 put the weight 1/4 on the time-domain estimate
    est = combine_estimates(2.0, 3.0, 4.0, 1.0)
    assert est == pytest.approx(0.25 * 2.0 + 0.75 * 4.0, abs=1e-15)
    assert dynamic_weight(3.0, 1.0) == 0.25
    with pytest.raises(ValueError):
        combine_estimates(1.0, 1.0, -1.0, 1.0)


def test_combine_estimates_wires_the_variances():
    tve = es_variance(1.0, EsConfig(lam=0.94, n=52), rho=None)
    # the state estimate 1.5 from weights (0.6, 0.4): 2 s^2 sum(xi^2)
    var_state = 2.0 * 1.5**2 * (0.6**2 + 0.4**2)
    got = combine_estimates(tve.sigma2_hat, tve.var_hat, 1.5, var_state)
    expect_w = var_state / (tve.var_hat + var_state)
    assert dynamic_weight(tve.var_hat, var_state) == pytest.approx(
        expect_w, rel=1e-13)
    assert got == pytest.approx(
        expect_w * 1.0 + (1.0 - expect_w) * 1.5, rel=1e-13)


def _array_case():
    rng = np.random.default_rng(31)
    var_time = rng.uniform(0.0, 2.0, size=12)
    var_state = rng.uniform(0.0, 2.0, size=12)
    var_time[3], var_state[5] = 0.0, 0.0
    var_time[7] = var_state[7] = 0.0  # the degenerate tie
    return var_time, var_state, rng.uniform(0.0, 4.0, (2, 12))


def test_blend_array_forms_are_the_scalar_forms_per_origin():
    # each entry of an array call has the bits of the float call
    var_time, var_state, (t_est, s_est) = _array_case()
    with pytest.warns(DegenerateCaseWarning):
        w = dynamic_weight(var_time, var_state)
    with pytest.warns(DegenerateCaseWarning):
        one = [dynamic_weight(a, b) for a, b in zip(var_time, var_state)]
    assert w.tobytes() == np.array(one).tobytes()
    with pytest.warns(DegenerateCaseWarning):
        est = combine_estimates(t_est, var_time, s_est, var_state)
    with pytest.warns(DegenerateCaseWarning):
        for j in range(w.size):
            e = combine_estimates(t_est[j], var_time[j], s_est[j],
                                  var_state[j])
            assert isinstance(e, float)
            assert est[j] == e
    nb = bayes_es(t_est, s_est, 0.94, 52, MATCHED_SHAPE)
    assert nb.tobytes() == np.array(
        [bayes_es(a, b, 0.94, 52, MATCHED_SHAPE)
         for a, b in zip(t_est, s_est)]).tobytes()


def test_combine_estimates_array_form_matches_scalar_calls():
    cfg = EsConfig(0.94, 52)
    rng = np.random.default_rng(32)
    t_est, s_est = rng.uniform(0.1, 2.0, (2, 6))
    rho = rng.uniform(-0.1, 0.3, (6, 30))
    xi_sq = rng.uniform(0.01, 0.5, 6)
    tve = es_variance(t_est, cfg, rho)
    var_state = 2.0 * s_est**2 * xi_sq
    got = combine_estimates(tve.sigma2_hat, tve.var_hat, s_est, var_state)
    w = dynamic_weight(tve.var_hat, var_state)
    for j in range(6):
        tve_j = es_variance(float(t_est[j]), cfg, rho[j])
        one = combine_estimates(tve_j.sigma2_hat, tve_j.var_hat,
                                float(s_est[j]), float(var_state[j]))
        assert got[j] == one
        assert w[j] == dynamic_weight(tve_j.var_hat, float(var_state[j]))


def test_degenerate_tie_warns_once_per_call():
    var_time, var_state, _ = _array_case()
    var_time[:4] = var_state[:4] = 0.0
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        w = dynamic_weight(var_time, var_state)
    assert [x.category for x in seen] == [DegenerateCaseWarning]
    assert np.all(w[:4] == 0.5)


def test_blend_array_forms_reject_a_bad_entry_anywhere():
    good = np.array([0.1, 0.2, 0.3])
    bad = np.array([0.1, -1e-300, 0.3])
    with pytest.raises(ValueError):
        dynamic_weight(good, bad)
    with pytest.raises(ValueError):
        dynamic_weight(bad, good)
    with pytest.raises(ValueError):
        combine_estimates(good, good, bad, good)
    with pytest.raises(ValueError):
        combine_estimates(bad, good, good, good)
    with pytest.raises(ValueError):
        combine_estimates(good, bad, good, good)
    with pytest.raises(ValueError):
        combine_estimates(good, good, good, np.array([0.1, np.nan, 0.2]))
    with pytest.raises(ValueError):
        combine_estimates(good, np.full(3, np.inf), good, np.full(3, np.inf))
    with pytest.raises(ValueError):
        bayes_es(good, bad, 0.94, 52, MATCHED_SHAPE)
    with pytest.raises(ValueError):
        bayes_es(bad, good, 0.94, 52, MATCHED_SHAPE)


@pytest.mark.parametrize("nan", [np.nan, np.array([0.1, np.nan, 0.3])],
                         ids=["float", "array"])
def test_blend_inputs_reject_a_nan_estimate(nan):
    # "must be nonnegative" is tested as >= 0, which NaN fails, as
    # dynamic_weight already rejects a NaN variance
    one = np.ones(np.shape(nan))
    with pytest.raises(ValueError, match="nonnegative"):
        combine_estimates(nan, one, one, one)
    with pytest.raises(ValueError, match="nonnegative"):
        combine_estimates(one, one, nan, one)
    with pytest.raises(ValueError, match="nonnegative"):
        bayes_es(nan, one, 0.94, 52, MATCHED_SHAPE)
    with pytest.raises(ValueError, match="nonnegative"):
        bayes_es(one, nan, 0.94, 52, MATCHED_SHAPE)
    with pytest.raises(ValueError, match="nonnegative"):
        es_variance(nan, EsConfig(lam=0.94, n=52))


def test_ig_prior_validation_and_moments():
    p = IgPrior(2.5, 0.015)
    assert p.mean == pytest.approx(0.01, rel=1e-13)
    assert p.variance == pytest.approx(0.015**2 / (1.5**2 * 0.5), rel=1e-13)
    with pytest.raises(ValueError):
        IgPrior(2.0, 0.1)  # needs a > 2 for finite variance
    with pytest.raises(ValueError):
        IgPrior(3.0, -0.1)


def test_ig_posterior_hand_value():
    y = np.array([0.1, -0.1, 0.1, -0.1])
    post = ig_posterior(IgPrior(2.5, 0.015), y)
    # a + n/2 = 4.5, b + sum(y^2)/2 = 0.015 + 0.02 = 0.035
    assert post.a == pytest.approx(4.5, abs=1e-15)
    assert post.b == pytest.approx(0.035, abs=1e-15)


def test_bayes_ma_hand_value():
    # (n*ma + 2(a-1)*prior)/(n + 2(a-1)) with a=2.5: (3*2 + 3*4)/6 = 3
    got = bayes_ma(2.0, 4.0, 3, 2.5)
    assert got == pytest.approx(3.0, abs=1e-14)


def test_effective_n_values():
    # m = (1 - lam^n)/(1 - lam)
    assert effective_n(0.5, 3) == pytest.approx(1.75, abs=1e-15)
    assert effective_n(1.0, 5) == 5.0  # exact integer limit, no division


def test_bayes_es_lam_one_equals_bayes_ma_bitwise():
    # bayes_es clamps into [min(ES, S), max(ES, S)]; so does the reference
    for est in (0.004, 1.3, 2.0):
        want = min(max(bayes_ma(est, 0.01, 52, 2.5), min(est, 0.01)),
                   max(est, 0.01))
        assert bayes_es(est, 0.01, 1.0, 52, 2.5) == want


def test_bayes_es_shrinks_toward_prior_mean():
    got = bayes_es(0.01, 0.02, 0.94, 52, 2.5)
    assert 0.01 < got < 0.02
    m = effective_n(0.94, 52)
    expect = (m * 0.01 + 3.0 * 0.02) / (m + 3.0)
    assert got == pytest.approx(expect, rel=1e-14)


def test_match_hyperparams():
    p = match_hyperparams(0.02)
    assert p.a == 2.5
    assert p.b == pytest.approx(0.03, rel=1e-15)
    assert p.mean == pytest.approx(0.02, rel=1e-13)
    # moment match: prior variance must equal twice the squared mean
    assert p.variance == pytest.approx(2.0 * p.mean**2, rel=1e-12)
    with pytest.warns(DegenerateCaseWarning):
        z = match_hyperparams(0.0)
    assert z.b == 0.0


# The NonBay estimator is bayes_es at the moment-matched shape a = 2.5.

def test_nonbayes_static_hand_value():
    # lam=0.5, n=1: weight (1-lam^n)=0.5 on smoothed, 3(1-lam)=1.5 on state
    got = bayes_es(4.0, 0.0, 0.5, 1, MATCHED_SHAPE)
    assert got == pytest.approx(0.5 * 4.0 / 2.0, abs=1e-14)
    assert got == pytest.approx(1.0, abs=1e-14)


def test_nonbay_lam_one_is_the_bayes_ma_limit():
    # (n ES + 3 S)/(n + 3), reached continuously and without a warning
    limit = (10 * 4.0 + 3.0 * 9.0) / 13.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_one = bayes_es(4.0, 9.0, 1.0, 10, MATCHED_SHAPE)
        near_one = bayes_es(4.0, 9.0, 1.0 - 1e-12, 10, MATCHED_SHAPE)
    assert at_one == bayes_ma(4.0, 9.0, 10, MATCHED_SHAPE)
    assert at_one == pytest.approx(limit, rel=1e-15)
    # 1 - lam^n loses about four digits to cancellation at lam = 1 - 1e-12
    assert near_one == pytest.approx(limit, rel=1e-4)


def test_nonbayes_static_weights_at_defaults():
    a = 1.0 - 0.94**52
    b = 3.0 * 0.06
    got = bayes_es(1.0, 2.0, 0.94, 52, MATCHED_SHAPE)
    assert got == pytest.approx((a + 2.0 * b) / (a + b), rel=1e-13)


def test_nonbayes_static_agrees_with_shrinkage_route():
    # the static combination is the posterior mean under the moment-matched
    # prior, with the effective window size in place of n
    es_est, state_est = 0.012, 0.02
    prior = match_hyperparams(state_est)
    m = effective_n(0.94, 52)
    k = 2.0 * (prior.a - 1.0)
    via_prior = (m * es_est + k * prior.mean) / (m + k)
    direct = bayes_es(es_est, state_est, 0.94, 52, MATCHED_SHAPE)
    assert direct == pytest.approx(via_prior, rel=1e-13)


def test_efficiency_ratios_hand_value():
    r_time, r_state = efficiency_ratios(0.5, 2.0, 16.0)
    assert r_time == pytest.approx(5.0, abs=1e-13)
    assert r_state == pytest.approx(1.25, abs=1e-13)
    # the excess parts are reciprocal by construction
    assert (r_time - 1.0) * (r_state - 1.0) == pytest.approx(1.0, rel=1e-12)


def test_no_unexpected_warnings_on_clean_paths():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dynamic_weight(1.0, 2.0)
        bayes_es(0.01, 0.02, 0.94, 52, 2.5)
        bayes_es(1.0, 1.0, 1.0, 52, MATCHED_SHAPE)
