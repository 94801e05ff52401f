"""Kernel regression machinery: weights, fits, bandwidths, densities."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import integrate as spi

from dynvol.errors import (NoCoverageError, SingularDesignError,
                           TooFewPointsError)
from dynvol.harness import build_state_pairs, cir_study, simulate_series
from dynvol.state_domain import (CV_GRID, DET_RTOL, KernelSpec, StatePairs,
                                 _intercepts_at_data, estimate_drift,
                                 kernel_density,
                                 local_linear_fit, locally_constant_fit,
                                 residual_squares, rule_of_thumb_bandwidth,
                                 s2_squared, select_bandwidth, state_variance,
                                 xi_weights)

EPA = KernelSpec("epanechnikov")


def test_kernel_shape_and_nu0():
    w = EPA.weights(np.array([0.0, 0.5, 1.0, 1.5, -2.0]))
    assert w[0] == pytest.approx(0.75, abs=1e-15)
    assert w[1] == pytest.approx(0.75 * 0.75, abs=1e-15)
    assert w[2] == 0.0 and w[3] == 0.0 and w[4] == 0.0
    # integral of W^2 over [-1, 1]
    num, _ = spi.quad(lambda u: (0.75 * (1.0 - u * u)) ** 2, -1.0, 1.0)
    assert EPA.nu0 == pytest.approx(num, rel=1e-12)
    assert EPA.nu0 == pytest.approx(0.6, abs=1e-15)
    # unit mass
    mass, _ = spi.quad(lambda u: 0.75 * (1.0 - u * u), -1.0, 1.0)
    assert mass == pytest.approx(1.0, rel=1e-12)


def _xi_brute(x, x0, h):
    # solve the weighted least squares normal equations directly and read
    # off the linear functional that yields the fitted intercept
    w = EPA.weights((x - x0) / h)
    d = x - x0
    X = np.column_stack([np.ones_like(d), d])
    A = X.T @ (w[:, None] * X)
    # intercept = e1' A^{-1} X' diag(w) resp  ->  xi' = e1' A^{-1} X' diag(w)
    sol = np.linalg.solve(A, X.T * w)
    return sol[0]


def test_xi_weights_match_brute_force_wls():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(8, 60))
        x = rng.uniform(0.0, 1.0, size=m)
        x0 = float(rng.uniform(x.min(), x.max()))
        h = float(rng.uniform(0.08, 0.5))
        try:
            xi = xi_weights(StatePairs(x, np.zeros(m)), x0, h, EPA)
        except (NoCoverageError, SingularDesignError):
            continue
        brute = _xi_brute(x, x0, h)
        assert np.allclose(xi, brute, rtol=1e-10, atol=1e-14)
        checked += 1
    assert checked >= 150


def test_xi_weight_identities():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 2.0, size=80)
    xi = xi_weights(StatePairs(x, np.zeros(80)), 1.0, 0.4, EPA)
    assert xi.sum() == pytest.approx(1.0, abs=1e-10)
    assert float(xi @ (x - 1.0)) == pytest.approx(0.0, abs=1e-10)


def test_local_linear_recovers_linear_function_exactly():
    x = np.linspace(0.0, 1.0, 41)
    resp = 2.0 + 3.0 * x
    a, b = local_linear_fit(StatePairs(x, resp), 0.5, 0.3, EPA)
    assert a == pytest.approx(3.5, abs=1e-10)
    assert b == pytest.approx(3.0, abs=1e-10)


def test_zero_spread_cluster_falls_back_to_plain_average():
    # all covered points share one x: slope is unidentifiable, intercept
    # becomes the kernel-weighted (here plain) mean
    x = np.full(5, 0.7)
    resp = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    a, b = local_linear_fit(StatePairs(x, resp), 0.7, 0.1, EPA)
    assert a == pytest.approx(3.0, abs=1e-12)
    assert b == 0.0
    xi = xi_weights(StatePairs(x, resp), 0.7, 0.1, EPA)
    assert np.allclose(xi, 0.2, atol=1e-12)


def test_no_coverage_raises():
    x = np.linspace(0.0, 1.0, 30)
    with pytest.raises(NoCoverageError):
        local_linear_fit(StatePairs(x, x), 5.0, 0.2, EPA)


def test_singular_design_raises():
    # two clusters, query window covering only points at distinct x but with
    # one effective point after weighting cannot happen for epanechnikov with
    # two distinct covered x; force singularity with two identical x values
    # plus one at the boundary where the kernel weight is exactly zero
    x = np.array([0.5, 0.5, 1.5])
    resp = np.array([1.0, 2.0, 9.0])
    # h=1.0 puts x=1.5 exactly at |u|=1 -> weight 0; covered set is a cluster
    # at 0.5 but x0=0.6 != 0.5 so the design matrix is rank one and det ~ 0
    with pytest.raises(SingularDesignError):
        local_linear_fit(StatePairs(x, resp), 0.6, 0.5001, EPA)


def test_locally_constant_fallback_value():
    x = np.array([0.4, 0.5, 0.6])
    resp = np.array([2.0, 4.0, 6.0])
    got = locally_constant_fit(StatePairs(x, resp), 0.5, 0.15, EPA)
    w = EPA.weights((x - 0.5) / 0.15)
    assert got == pytest.approx(float(w @ resp / w.sum()), rel=1e-13)


def test_drift_then_residual_pipeline():
    rng = np.random.default_rng(30)
    x = rng.uniform(0.0, 1.0, 200)
    y = 1.0 + 2.0 * x + rng.standard_normal(200) * 0.01
    drift = estimate_drift(StatePairs(x, y), 0.5, 0.25, EPA)
    assert drift == pytest.approx(2.0, abs=0.02)
    r2 = residual_squares(np.array([2.5, 1.5]), np.array([2.0, 2.0]))
    assert np.allclose(r2, [0.25, 0.25], atol=1e-15)


def test_state_variance_hand_value():
    xi = np.array([0.5, 0.3, 0.2])
    est = state_variance(1.0, xi)
    assert est.xi_sq_sum == pytest.approx(0.38, abs=1e-15)
    assert est.var_hat == pytest.approx(0.76, abs=1e-15)
    assert est.effective_n == pytest.approx(1.0 / 0.38, rel=1e-12)


def test_s2_squared_hand_value():
    # 2 * nu0 * sigma^4 / p = 2 * 0.6 * 4 / 0.5
    assert s2_squared(2.0, 0.5, EPA) == pytest.approx(9.6, rel=1e-13)
    with pytest.raises(ValueError):
        s2_squared(1.0, 0.0, EPA)


def test_kernel_density_integrates_to_one_and_tracks_height():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4000)
    h = rule_of_thumb_bandwidth(x)
    grid = np.linspace(-4.0, 4.0, 801)
    dens = np.array([kernel_density(x, g, EPA, h=h) for g in grid])
    total = np.trapezoid(dens, grid)
    assert total == pytest.approx(1.0, abs=0.01)
    assert kernel_density(x, 0.0, EPA, h=h) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=0.1)


def test_rule_of_thumb_value():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    expect = 1.06 * x.std() * 500 ** (-0.2)
    assert rule_of_thumb_bandwidth(x) == pytest.approx(expect, rel=1e-13)


def test_select_bandwidth_prefers_smooth_scale():
    # smooth quadratic signal: cross validation should not pick the smallest
    # candidate, and both bandwidths come from the multiplicative grid
    rng = np.random.default_rng(44)
    x = rng.uniform(0.0, 1.0, 400)
    y = 0.5 + (x - 0.5) ** 2 + rng.standard_normal(400) * 0.05
    h1, h = select_bandwidth(x, y, EPA, CV_GRID)
    rot = rule_of_thumb_bandwidth(x)
    ratios = [h1 / rot, h / rot]
    for r in ratios:
        assert any(math.isclose(r, g, rel_tol=1e-9) for g in CV_GRID)
    assert h1 > 0.5 * rot * 0.999


def test_select_bandwidth_needs_points():
    with pytest.raises(TooFewPointsError):
        select_bandwidth(np.arange(10.0), np.arange(10.0), EPA, CV_GRID)


def test_cv_improves_over_worst_candidate_on_rough_signal():
    # high-curvature signal: the chosen drift bandwidth should beat the
    # largest candidate in leave-one-out squared error
    rng = np.random.default_rng(91)
    x = rng.uniform(0.0, 1.0, 300)
    y = np.sin(12.0 * x) + rng.standard_normal(300) * 0.1

    def loo_sse(h):
        sse = 0.0
        for i in range(len(x)):
            xs = np.delete(x, i)
            ys = np.delete(y, i)
            try:
                a, _ = local_linear_fit(StatePairs(xs, ys), float(x[i]), h, EPA)
            except (NoCoverageError, SingularDesignError):
                continue
            sse += (y[i] - a) ** 2
        return sse

    h1, _ = select_bandwidth(x, y, EPA, CV_GRID)
    rot = rule_of_thumb_bandwidth(x)
    assert loo_sse(h1) <= loo_sse(rot * 2.0) + 1e-9


# ---------------------------------------------------------------------------
# prefix-sum engine against the dense oracle

def _dense_intercepts(x, resp, h, kernel, loo, chunk=1024):
    """Direct O(N^2) local-linear intercepts at the design points: the full
    kernel matrix, one chunk of query columns at a time. Also returns each
    valid design's condition h^2 V0^2 / det (at most 1 / DET_RTOL)."""
    n = x.size
    out = np.full(n, np.nan)
    cond = np.full(n, np.nan)
    tol_scale = DET_RTOL * h * h
    for start in range(0, n, chunk):
        xe = x[start:start + chunk]
        d = x[:, None] - xe[None, :]
        w = kernel.weights(d / h)
        if loo:
            idx = np.arange(start, min(start + chunk, n))
            w[idx, np.arange(idx.size)] = 0.0
        v0 = w.sum(axis=0)
        wd = w * d
        v1 = wd.sum(axis=0)
        v2 = (wd * d).sum(axis=0)
        b0 = resp @ w
        b1 = resp @ wd
        det = v0 * v2 - v1 * v1
        ok = (v0 > 0) & (det >= tol_scale * v0 * v0) & (v2 > 0)
        col = np.full(xe.size, np.nan)
        col[ok] = (v2[ok] * b0[ok] - v1[ok] * b1[ok]) / det[ok]
        flat = (v0 > 0) & (v2 == 0.0)
        col[flat] = b0[flat] / v0[flat]
        out[start:start + chunk] = col
        kap = np.ones(xe.size)
        kap[ok] = h * h * v0[ok] ** 2 / det[ok]
        cond[start:start + chunk] = kap
    return out, cond


# The prefix-sum engine gives the oracle's NaN pattern exactly, and its
# values within ORACLE_TOL * max|resp| * max(1, cond), cond being the
# design's condition h^2 V0^2 / det. The deviation is rounding amplified by
# the conditioning, which the oracle suffers as much: on these cases and on
# 5000 more random ones the worst seen is 2.4e-13 of that bound; on 20 rate
# paths it is 3.9e-11 of max|resp|, 1.1e-8 relative on intercepts near zero.
ORACLE_TOL = 1e-11


def _assert_matches_oracle(x, resp, h, loo):
    got = _intercepts_at_data(x, resp, h, EPA, loo)
    want, cond = _dense_intercepts(x, resp, h, EPA, loo)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    scale = max(float(np.abs(resp).max(initial=0.0)), np.finfo(float).tiny)
    bound = ORACLE_TOL * scale * np.maximum(cond[ok], 1.0)
    assert np.all(np.abs(got[ok] - want[ok]) <= bound)
    return got


@pytest.mark.parametrize("factor", CV_GRID)
def test_prefix_engine_matches_oracle_on_rate_paths(factor):
    cfg = cir_study()
    for rep in range(2):
        sim = simulate_series(cfg, rep)
        x, y = build_state_pairs(sim.levels, sim.returns.y, 1150, 52)
        h = rule_of_thumb_bandwidth(x) * factor
        for loo in (True, False):
            _assert_matches_oracle(x, y, h, loo)
            _assert_matches_oracle(x, y * y, h, loo)


def test_prefix_engine_matches_oracle_on_tied_levels():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(2, 120))
        x = rng.integers(0, 9, size=m) * 0.25 + 3.0
        resp = rng.standard_normal(m)
        for h in (0.2, 0.25, 0.3, 0.6, 5.0):
            for loo in (True, False):
                _assert_matches_oracle(x, resp, h, loo)


@pytest.mark.parametrize("loo", [True, False])
def test_prefix_engine_lone_points_at_both_ends(loo):
    x = np.concatenate(([0.0], np.linspace(5.0, 6.0, 21), [11.0]))
    resp = np.arange(x.size, dtype=float)
    got = _assert_matches_oracle(x, resp, 1.0, loo)
    if loo:
        # nothing but the point itself is within reach: empty window
        assert np.isnan(got[0]) and np.isnan(got[-1])
    else:
        # the point alone is a window of its own level only
        assert got[0] == resp[0] and got[-1] == resp[-1]
    assert np.all(np.isfinite(got[1:-1]))


@pytest.mark.parametrize("loo", [True, False])
def test_prefix_engine_window_of_own_level_is_locally_constant(loo):
    x = np.array([0.0, 0.0, 0.0, 5.0, 5.4, 5.8, 6.3])
    resp = np.array([1.0, 2.0, 6.0, 0.0, 1.0, 2.0, 3.0])
    got = _assert_matches_oracle(x, resp, 1.0, loo)
    own = resp[:3]
    want = ([(own.sum() - r) / 2.0 for r in own] if loo
            else [own.mean()] * 3)
    assert np.allclose(got[:3], want, rtol=1e-14, atol=0.0)


def test_prefix_engine_single_other_level_is_singular():
    # under leave-one-out, the point at 0 sees only the tied pair at 0.5
    x = np.array([0.0, 0.5, 0.5, 10.0, 10.5, 11.0])
    resp = np.array([3.0, 1.0, 2.0, 0.0, 1.0, 2.0])
    got = _assert_matches_oracle(x, resp, 1.0, True)
    assert np.isnan(got[0])
    full = _assert_matches_oracle(x, resp, 1.0, False)
    assert np.isfinite(full[0])


def test_prefix_engine_keeps_weights_of_a_few_ulps_at_the_edge():
    # with h equal to the lattice spacing, a neighbour gets weight 0 or a
    # few ulps depending on how x_j - x_i rounds; under leave-one-out such
    # weights alone make the design, as in the direct evaluation
    rng = np.random.default_rng(8)
    for spacing in (0.05, 0.1, 0.3, 0.7, 1.1, 2.9):
        x = spacing * np.concatenate((np.arange(40.0), [7.0, 7.0, 21.0]))
        resp = rng.standard_normal(x.size)
        for loo in (True, False):
            _assert_matches_oracle(x, resp, spacing, loo)


_levels = st.lists(st.integers(0, 40), min_size=1, max_size=60)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(levels=_levels,
       spacing=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 40.0]),
       offset=st.sampled_from([0.0, -7.5, 2.0, 1e4]),
       hmul=st.sampled_from([0.4, 0.5, 0.75, 1.0, 1.3, 2.5, 6.0, 30.0]),
       seed=st.integers(0, 2**32 - 1),
       presort=st.booleans(),
       loo=st.booleans())
def test_prefix_engine_matches_oracle_property(levels, spacing, offset, hmul,
                                               seed, presort, loo):
    x = offset + spacing * np.asarray(levels, dtype=float)
    if presort:
        x = np.sort(x)
    resp = np.random.default_rng(seed).standard_normal(x.size)
    _assert_matches_oracle(x, resp, hmul * spacing, loo)


def test_prefix_engine_rejects_non_finite_levels():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([0.1, bad, 0.3, 0.2])
        with pytest.raises(ValueError, match="finite"):
            _intercepts_at_data(x, np.ones(4), 0.2, EPA, True)
