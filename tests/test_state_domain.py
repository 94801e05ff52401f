"""Kernel regression machinery: weights, fits, bandwidths, densities."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import integrate as spi

from dynvol.errors import (DegenerateSeriesError, NoCoverageError,
                           SingularDesignError, TooFewPointsError)
from dynvol.harness import simulate_series, study_preset
from dynvol.state_domain import (CV_GRID, DET_RTOL, EDGE_BAND, DriftFit,
                                 _design, _epanechnikov, _kernel, _levels,
                                 _moments, _solve_intercepts, _window_weights,
                                 rule_of_thumb_bandwidth, select_bandwidth,
                                 xi_weights)
from oracles import NU0, ORACLE_TOL, dense_xi, kernel_density, s2_squared


def _intercept(x, resp, x0, h):
    return float(xi_weights(x, x0, h) @ resp)


def _intercepts(x, resp, h, loo):
    """The prefix-sum engine's intercept at every design point, one design
    of bandwidth h built on the sorted levels, as bandwidth CV builds it."""
    order = np.argsort(x, kind="stable")
    out = np.empty(x.size)
    out[order] = _solve_intercepts(*_moments(_design(_levels(x[order]), h),
                                             resp[order], loo))
    return out


def test_kernel_shape_and_nu0():
    w = _epanechnikov(np.array([0.0, 0.5, 1.0, 1.5, -2.0]))
    assert w[0] == pytest.approx(0.75, abs=1e-15)
    assert w[1] == pytest.approx(0.75 * 0.75, abs=1e-15)
    assert w[2] == 0.0 and w[3] == 0.0 and w[4] == 0.0
    # integral of W^2 over [-1, 1]
    num, _ = spi.quad(lambda u: (0.75 * (1.0 - u * u)) ** 2, -1.0, 1.0)
    assert NU0 == pytest.approx(num, rel=1e-12)
    # unit mass
    mass, _ = spi.quad(lambda u: 0.75 * (1.0 - u * u), -1.0, 1.0)
    assert mass == pytest.approx(1.0, rel=1e-12)


def _xi_brute(x, x0, h):
    # solve the weighted least squares normal equations directly and read
    # off the linear functional that yields the fitted intercept
    w = _epanechnikov((x - x0) / h)
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
            xi = xi_weights(x, x0, h)
        except (NoCoverageError, SingularDesignError):
            continue
        brute = _xi_brute(x, x0, h)
        assert np.allclose(xi, brute, rtol=1e-10, atol=1e-14)
        checked += 1
    assert checked >= 150


def test_xi_weight_identities():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 2.0, size=80)
    xi = xi_weights(x, 1.0, 0.4)
    assert xi.sum() == pytest.approx(1.0, abs=1e-10)
    assert float(xi @ (x - 1.0)) == pytest.approx(0.0, abs=1e-10)


def test_local_linear_recovers_linear_function_exactly():
    x = np.linspace(0.0, 1.0, 41)
    resp = 2.0 + 3.0 * x
    assert _intercept(x, resp, 0.5, 0.3) == pytest.approx(3.5, abs=1e-10)


def test_zero_spread_cluster_falls_back_to_plain_average():
    # all covered points share one x: slope is unidentifiable, intercept
    # becomes the kernel-weighted (here plain) mean
    x = np.full(5, 0.7)
    resp = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    xi = xi_weights(x, 0.7, 0.1)
    assert np.allclose(xi, 0.2, atol=1e-12)
    assert float(xi @ resp) == pytest.approx(3.0, abs=1e-12)


def test_no_coverage_raises():
    x = np.linspace(0.0, 1.0, 30)
    with pytest.raises(NoCoverageError):
        xi_weights(x, 5.0, 0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_xi_weights_rejects_levels_that_are_not_finite(bad):
    # a NaN level would otherwise get weight 0 and the rest renormalize
    x = np.linspace(0.0, 1.0, 10)
    x[5] = bad
    with pytest.raises(ValueError, match="state levels must be finite"):
        xi_weights(x, 0.5, 0.3)


@pytest.mark.parametrize("h", [np.inf, np.nan, 0.0, -0.3])
def test_xi_weights_rejects_a_bandwidth_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="bandwidth must be finite"):
        xi_weights(np.linspace(0.0, 1.0, 10), 0.5, h)


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
        xi_weights(x, 0.6, 0.5001)


def test_drift_then_residual_pipeline():
    rng = np.random.default_rng(30)
    x = rng.uniform(0.0, 1.0, 200)
    y = 1.0 + 2.0 * x + rng.standard_normal(200) * 0.01
    drift = _intercept(x, y, 0.5, 0.25)
    assert drift == pytest.approx(2.0, abs=0.02)


def test_s2_squared_hand_value():
    # 2 * nu0 * sigma^4 / p = 2 * 0.6 * 4 / 0.5
    assert s2_squared(2.0, 0.5) == pytest.approx(9.6, rel=1e-13)
    with pytest.raises(ValueError):
        s2_squared(1.0, 0.0)


def test_kernel_density_integrates_to_one_and_tracks_height():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4000)
    h = rule_of_thumb_bandwidth(x)
    grid = np.linspace(-4.0, 4.0, 801)
    dens = np.array([kernel_density(x, g, h=h) for g in grid])
    total = np.trapezoid(dens, grid)
    assert total == pytest.approx(1.0, abs=0.01)
    assert kernel_density(x, 0.0, h=h) == pytest.approx(
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
    drift, h = select_bandwidth(x, y)
    h1 = drift.h
    rot = rule_of_thumb_bandwidth(x)
    ratios = [h1 / rot, h / rot]
    for r in ratios:
        assert any(math.isclose(r, g, rel_tol=1e-9) for g in CV_GRID)
    assert h1 > 0.5 * rot * 0.999


def test_select_bandwidth_needs_points():
    with pytest.raises(TooFewPointsError):
        select_bandwidth(np.arange(10.0), np.arange(10.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_bandwidth_rejects_a_response_that_is_not_finite(bad):
    # without the check a NaN response gives NaN drifts and resid2, and a
    # bandwidth is chosen anyway
    x = np.random.default_rng(3).uniform(0.0, 1.0, 40)
    y = np.sin(6.0 * x)
    y[17] = bad
    with pytest.raises(ValueError, match="responses must be finite"):
        select_bandwidth(x, y)


def _select_bandwidth_per_candidate(x, y):
    """select_bandwidth with a fresh engine pass for every candidate of both
    searches and the h1 fit from scratch: (h1, h, table bytes) and the
    number of candidates the drift search skipped."""
    rot = rule_of_thumb_bandwidth(x)

    def cv(resp):
        best_h, best_loss, skipped = rot, math.inf, 0
        for f in CV_GRID:
            pred = _intercepts(x, resp, rot * f, loo=True)
            ok = np.isfinite(pred)
            if ok.sum() < 0.8 * x.size:
                skipped += 1
                continue
            loss = float(np.mean((resp[ok] - pred[ok]) ** 2))
            if loss < best_loss:
                best_h, best_loss = rot * f, loss
        return best_h, skipped

    h1, skipped = cv(y)
    order = np.argsort(x, kind="stable")
    drift = DriftFit.from_design(_design(_levels(x[order]), h1), y[order])
    resid2 = np.empty_like(y)
    resid2[order] = drift.resid2
    return (h1, cv(resid2)[0], drift.table.tobytes()), skipped


# 14 tied points and three pairs of singletons, each pair 1e-3 apart and
# more than two rules of thumb from every other level: under leave-one-out a
# pair's points see one other level only, so every candidate is skipped
_ALL_SKIPPED = np.concatenate((np.zeros(14), [1.0, -1.0, 2.0],
                               [1.001, -0.999, 2.001]))


@st.composite
def _tied_series(draw):
    """Levels in constant stretches on a few distinct values, plus pairs of
    singleton levels a thousandth of the spacing apart, in time order or
    shuffled: series where some grid candidates leave more than 20% of the
    points without a leave-one-out fit."""
    spacing = draw(st.sampled_from([1e-3, 0.3, 1.0, 40.0]))
    values = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
    stretches = draw(st.lists(st.tuples(st.integers(0, len(values) - 1),
                                        st.integers(1, 8)),
                              min_size=1, max_size=30))
    pairs = np.array(draw(st.lists(st.integers(-40, 40), max_size=6)),
                     dtype=float)
    x = np.concatenate((np.repeat([values[i] for i, _ in stretches],
                                  [run for _, run in stretches]),
                        pairs, pairs + 1e-3)) * spacing
    x = np.resize(x, max(x.size, 20))
    if draw(st.booleans()):
        x = x[np.random.default_rng(draw(st.integers(0, 99))).permutation(
            x.size)]
    return x


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(x=_tied_series(), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
@example(x=_ALL_SKIPPED, seed=0, bad=np.nan)
def test_select_bandwidth_matches_a_pass_per_candidate(x, seed, bad):
    # the grid's designs, built once and shared by both searches and the h1
    # fit, give the bits of a fresh engine pass per candidate
    y = np.random.default_rng(seed).standard_normal(x.size)
    try:
        want = _select_bandwidth_per_candidate(x, y)[0]
    except DegenerateSeriesError:
        with pytest.raises(DegenerateSeriesError):
            select_bandwidth(x, y)
        return
    drift, h = select_bandwidth(x, y)
    assert (drift.h, h, drift.table.tobytes()) == want
    x = x.copy()
    x[seed % x.size] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="state levels must be finite"):
            _select_bandwidth_per_candidate(x, y)
        with pytest.raises(ValueError, match="state levels must be finite"):
            select_bandwidth(x, y)


def test_all_skipped_grid_falls_back_to_the_rule_of_thumb():
    y = np.random.default_rng(0).standard_normal(_ALL_SKIPPED.size)
    want, skipped = _select_bandwidth_per_candidate(_ALL_SKIPPED, y)
    assert skipped == len(CV_GRID)
    drift, h = select_bandwidth(_ALL_SKIPPED, y)
    assert drift.h == rule_of_thumb_bandwidth(_ALL_SKIPPED)
    assert (drift.h, h, drift.table.tobytes()) == want


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
                a = _intercept(xs, ys, float(x[i]), h)
            except (NoCoverageError, SingularDesignError):
                continue
            sse += (y[i] - a) ** 2
        return sse

    h1 = select_bandwidth(x, y)[0].h
    rot = rule_of_thumb_bandwidth(x)
    assert loo_sse(h1) <= loo_sse(rot * 2.0) + 1e-9


# ---------------------------------------------------------------------------
# prefix-sum engine against the dense oracle

def _dense_intercepts(x, resp, h, loo, chunk=256):
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
        w = _epanechnikov(d / h)
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
# values within ORACLE_TOL (tests/oracles.py) * max|resp| * max(1, cond).


def _assert_matches_oracle(x, resp, h, loo):
    got = _intercepts(x, resp, h, loo)
    want, cond = _dense_intercepts(x, resp, h, loo)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    scale = max(float(np.abs(resp).max(initial=0.0)), np.finfo(float).tiny)
    bound = ORACLE_TOL * scale * np.maximum(cond[ok], 1.0)
    assert np.all(np.abs(got[ok] - want[ok]) <= bound)
    return got


@pytest.mark.parametrize("factor", CV_GRID)
def test_prefix_engine_matches_oracle_on_rate_paths(factor):
    cfg = study_preset("cir")
    for rep in range(2):
        [sim] = simulate_series(cfg, [rep])
        x, y = sim.levels[:1150 - 52], sim.returns.y[:1150 - 52]
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


def test_prefix_engine_matches_oracle_on_a_long_design_with_wide_windows():
    # blocks are bounded by width only, so one window covers many blocks:
    # 5,000 random-walk levels with ties, windows of 20-60% of the design
    rng = np.random.default_rng(11)
    x = np.round(np.cumsum(rng.standard_normal(5000)) * 0.01, 3)
    y = rng.standard_normal(x.size) * (0.5 + np.abs(x))
    xs = np.sort(x)
    for frac, loo in ((0.08, True), (0.25, False)):
        h = frac * (xs[-1] - xs[0])
        held = np.searchsorted(xs, xs + h) - np.searchsorted(xs, xs - h)
        assert np.median(held) >= 0.2 * x.size
        _assert_matches_oracle(x, y, h, loo)
        _assert_matches_oracle(x, y * y, h, loo)


def test_prefix_engine_drops_weights_of_a_few_ulps_at_the_edge():
    # 0.3 * [7, 8, 9] are exactly h = 0.3 apart in decimal, but u rounds to
    # 1 - 7e-16, where 1 - u^2 is 5 ulps: the kernel weighs them 0, so at
    # 2.4 the other levels give no coverage, on every route
    x = 0.3 * np.array([7.0, 7.0, 8.0, 9.0])
    assert 0.0 < 1.0 - ((x[3] - x[2]) / 0.3) ** 2 < 1e-14
    got = _assert_matches_oracle(x, np.array([1.0, 2.0, 3.0, 4.0]), 0.3, True)
    assert np.isnan(got[2])
    with pytest.raises(NoCoverageError):
        xi_weights(x[[0, 1, 3]], x[2], 0.3)
    # inside the edge band the weight is 1 - u^2, as the prefix sums take it
    u = np.linspace(EDGE_BAND - 1.0, 1.0 - EDGE_BAND, 2001)[1:-1]
    assert np.array_equal(_kernel(u), 1.0 - u * u)
    # with h equal to the lattice spacing, a neighbour gets weight 0 or a
    # few ulps before that rule depending on how x_j - x_i rounds; every
    # route gives the direct evaluation's answer
    rng = np.random.default_rng(8)
    for spacing in (0.05, 0.1, 0.3, 0.7, 1.1, 2.9):
        x = spacing * np.concatenate((np.arange(40.0), [7.0, 7.0, 21.0]))
        resp = rng.standard_normal(x.size)
        for loo in (True, False):
            _assert_matches_oracle(x, resp, spacing, loo)


_lattice = st.lists(st.integers(0, 40), min_size=1, max_size=60)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(levels=_lattice,
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
            _intercepts(x, np.ones(4), 0.2, True)


# windowed point query against the dense oracle

@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(levels=_lattice,
       spacing=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 40.0]),
       offset=st.sampled_from([0.0, -7.5, 2.0, 1e4]),
       hmul=st.sampled_from([0.4, 0.5, 0.75, 1.0, 1.3, 2.5, 6.0, 30.0]),
       where=st.sampled_from(["first", "last", "below", "above", "between"]),
       pick=st.integers(0, 59),
       frac=st.floats(0.0, 1.0))
def test_point_query_matches_dense_oracle(levels, spacing, offset, hmul,
                                          where, pick, frac):
    # lattice levels with ties; queries at the ends of the design, exactly
    # one bandwidth from a design point, and in between
    x = offset + spacing * np.asarray(levels, dtype=float)
    h = hmul * spacing
    xs = np.sort(x)
    xj = x[pick % x.size]
    x0 = float({"first": xs[0], "last": xs[-1], "below": xj - h,
                "above": xj + h,
                "between": xs[0] + frac * (xs[-1] - xs[0])}[where])
    try:
        want, cond, singular = dense_xi(x, x0, h)
    except NoCoverageError:
        with pytest.raises(NoCoverageError):
            xi_weights(x, x0, h)
        return
    if singular:
        with pytest.raises(SingularDesignError):
            xi_weights(x, x0, h)
        return
    got = xi_weights(x, x0, h)
    assert np.all(np.abs(got - want) <= ORACLE_TOL * max(1.0, cond))
    # the window is one contiguous run of indices holding every point of
    # positive weight
    idx, *_ = _window_weights(xs, np.array([x0]), h)
    assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
    pos = np.flatnonzero(_epanechnikov((xs - x0) / h) > 0.0)
    assert idx[0] <= pos[0] and pos[-1] <= idx[-1]
