"""State-domain variance estimation by local-linear kernel regression.

Responses (squared residuals or squared returns) are regressed on the state
level with the Epanechnikov kernel W(u) = 0.75 (1 - u^2) on |u| <= 1; the
fitted intercept at the query point is the variance estimate. The
equivalent-weight representation

    xi_i(x0) = W_i * (V2 - (x_i - x0) V1) / (V0 V2 - V1^2),
    V_j = sum_i (x_i - x0)^j W_i,

reproduces the intercept as sum_i xi_i * response_i and satisfies
sum xi_i = 1 and sum xi_i (x_i - x0) = 0 exactly.

Two routes compute it, both on the design sorted by level. A query at one
point (the per-step state estimate, and xi_weights) evaluates the kernel
only on the window that searchsorted finds, in O(log N + window). The fit
at every design point at once (the drift refit and leave-one-out bandwidth
cross-validation) runs in O(N log N) on sorted prefix sums, after
Fan & Marron (1994) and Seifert, Brockmann, Engel & Gasser (1994): the
Epanechnikov weight is quadratic on its support, so each moment sum over a
window is a difference of prefix sums of powers of the centred level. The
window is the exact positive support of the kernel; weights in a thin band
at its edge and on the point's own level are taken directly; empty,
own-level-only and single-level windows are told apart by exact counts. Its
tests check it against the direct O(N^2) evaluation: the NaN pattern is
identical, and values agree within 1e-11 * max|resp| * h^2 V0^2 / det, the
design's condition (the worst case seen is 2.4e-13 of that bound).

The drift refit of a walk-forward run has one lifecycle (DriftFit). Its
bandwidth is frozen after the first fit, which runs the prefix-sum engine
and keeps each point's moments and exact counts. Every later refit only
adds the few pairs the origin has moved past: it inserts them into the
sorted design, adds their kernel weights, taken directly, to the moments
of the points they reach, gives them moments of their own, and solves
again only the span they touched: one copy of each array and
O(pairs added x window) arithmetic. One function
(_solve_intercepts) turns moments into intercepts on both paths. On every
refit of a walk-forward the grown fit has the NaN pattern of a fit from
scratch on the same pairs, and values within the bound above (the worst
seen on the benchmark's daily series is 0.4% of it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSeriesError, NoCoverageError,
                     SingularDesignError, TooFewPointsError)

# relative determinant tolerance for declaring a local design singular
DET_RTOL = 1e-12

# multiplicative grid of bandwidth candidates around the rule of thumb
CV_GRID = (0.5, 1.0 / math.sqrt(2.0), 1.0, math.sqrt(2.0), 2.0)

# blocks of the sorted design that share one centre in _prefix_moments
# span at most this many bandwidths
BLOCK_SPAN = 4.0
# points with |u| >= 1 - EDGE_BAND take their kernel weight directly
EDGE_BAND = 1e-4
# searchsorted on x -/+ h pads h by this times |x| + h, a few ulps, so that
# rounding in x -/+ h never drops a point the kernel weighs
PAD = 8.0 * np.finfo(float).eps


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    # 1 - u^2 rounds negative exactly where |u| > 1; fmax also maps NaN to 0
    return np.fmax(0.75 * (1.0 - u * u), 0.0)


# int W(u)^2 du of the Epanechnikov kernel
NU0 = 0.6


@dataclass(frozen=True)
class StatePairs:
    """Historical (state level, response) pairs for the kernel fit."""

    x: np.ndarray
    resp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "resp", np.asarray(self.resp, dtype=float))
        if self.x.shape != self.resp.shape or self.x.ndim != 1:
            raise ValueError("x and resp must be 1-d arrays of equal length")

    @property
    def count(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class StateVarianceEstimate:
    """Kernel variance estimate with its own sampling-variance estimate.

    var_hat = 2 * sigma2_hat^2 * sum(xi^2); effective_n = 1 / sum(xi^2).
    """

    sigma2_hat: float
    xi_sq_sum: float
    var_hat: float
    bandwidth_used: float = float("nan")

    def __post_init__(self):
        if self.sigma2_hat < 0 or self.var_hat < 0 or self.xi_sq_sum <= 0:
            raise ValueError("invalid state variance estimate")

    @property
    def effective_n(self) -> float:
        return 1.0 / self.xi_sq_sum


def _window_xi(xs: np.ndarray, x0: float, h: float):
    """Equivalent local-linear weights at x0 on the sorted design xs.

    Returns (lo, xi, singular): xi holds the weights of xs[lo:lo + xi.size].
    That window is found by searchsorted on x0 -/+ h padded by a few ulps,
    so it holds every point the kernel gives positive weight; the kernel
    itself zeroes the points the padding lets in. A zero-spread window
    (V2 = 0, all weighted points at x0) gives the normalized kernel weights,
    and so does a design with det = V0 V2 - V1^2 below DET_RTOL h^2 V0^2,
    which is flagged singular.

    Raises ValueError for a non-positive bandwidth and NoCoverageError when
    x0 lies outside the data or gets no kernel mass.
    """
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    if xs.size == 0 or x0 < xs[0] or x0 > xs[-1]:
        raise NoCoverageError(f"query {x0} outside historical range")
    pad = PAD * (abs(x0) + h)
    lo = int(np.searchsorted(xs, x0 - h - pad, "left"))
    hi = int(np.searchsorted(xs, x0 + h + pad, "right"))
    d = xs[lo:hi] - x0
    w = _epanechnikov(d / h)
    v0 = float(w.sum())
    if v0 <= 0.0:
        raise NoCoverageError(f"no kernel mass at {x0}")
    wd = w * d
    v1 = float(wd.sum())
    v2 = float((wd * d).sum())
    if v2 == 0.0:
        return lo, w / v0, False
    det = v0 * v2 - v1 * v1
    if det < DET_RTOL * h * h * v0 * v0:
        return lo, w / v0, True
    return lo, w * (v2 - d * v1) / det, False


def xi_weights(pairs: StatePairs, x0: float, h: float) -> np.ndarray:
    """Equivalent local-linear weights at x0, one per pair.

    dot(xi, resp) equals the local-linear intercept; sum(xi) == 1 and
    sum(xi * (x - x0)) == 0. A zero-spread neighborhood returns the
    normalized kernel weights (both identities still hold); an
    ill-conditioned design raises SingularDesignError.
    """
    order = np.argsort(pairs.x, kind="stable")
    lo, xi, singular = _window_xi(pairs.x[order], x0, h)
    if singular:
        raise SingularDesignError(f"local design singular at {x0}")
    out = np.zeros(pairs.count)
    out[order[lo:lo + xi.size]] = xi
    return out


def residual_squares(y: np.ndarray, drift_at_x: np.ndarray) -> np.ndarray:
    """Squared residuals (y - drift)^2; with drift identically 0 this is y^2."""
    y = np.asarray(y, dtype=float)
    drift_at_x = np.asarray(drift_at_x, dtype=float)
    if y.shape != drift_at_x.shape:
        raise ValueError("y and drift_at_x must have equal shapes")
    r = y - drift_at_x
    return r * r


def state_variance(sigma2_hat: float, xi: np.ndarray,
                   bandwidth: float = float("nan")) -> StateVarianceEstimate:
    """Package a variance estimate with var_hat = 2 sigma2_hat^2 sum(xi^2)."""
    if sigma2_hat < 0:
        raise ValueError("sigma2_hat must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    s = float(np.dot(xi, xi))
    if s <= 0:
        raise ValueError("xi weights must not be all zero")
    return StateVarianceEstimate(sigma2_hat, s, 2.0 * sigma2_hat**2 * s, bandwidth)


def rule_of_thumb_bandwidth(x: np.ndarray) -> float:
    """h = 1.06 * std(x) * N^(-1/5); requires at least 2 distinct values."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise TooFewPointsError("need at least 2 points")
    s = float(np.std(x))
    if s <= 0:
        raise DegenerateSeriesError("states are constant")
    return 1.06 * s * x.size ** (-0.2)


def _support(xs: np.ndarray, h: float):
    """Index range [lo, hi) of the sorted design xs with positive kernel
    weight at each xs[i], decided by the floating-point weight the kernel
    itself gives each point, so a point on the edge of the support is in or
    out exactly as in a direct evaluation.

    searchsorted on xs -/+ h can be wrong only for points within a few ulps
    of the edge; those are settled by bisection on the weight, which is
    monotone in the sorted index on either side of the query.
    """
    own_lo = np.searchsorted(xs, xs, "left")
    own_hi = np.searchsorted(xs, xs, "right")
    pad = PAD * (np.abs(xs) + h)

    def positive(j):
        return _epanechnikov((xs[j] - xs) / h) > 0.0

    # first index with positive weight; it lies in [a, b]
    a = np.searchsorted(xs, xs - h - pad, "left")
    b = np.minimum(np.searchsorted(xs, xs - h + pad, "left"), own_lo)
    while np.any(act := a < b):
        mid = (a + b) // 2
        pos = positive(mid)
        b = np.where(act & pos, mid, b)
        a = np.where(act & ~pos, mid + 1, a)
    lo = a
    # first index past the query with zero weight; it lies in [a, b]
    a = np.maximum(np.searchsorted(xs, xs + h - pad, "right"), own_hi)
    b = np.searchsorted(xs, xs + h + pad, "right")
    while np.any(act := a < b):
        mid = (a + b) // 2
        zero = ~positive(np.minimum(mid, xs.size - 1))
        b = np.where(act & zero, mid, b)
        a = np.where(act & ~zero, mid + 1, a)
    return lo, a, own_lo, own_hi


def _prefix_moments(xs: np.ndarray, rs: np.ndarray, h: float,
                    bands) -> np.ndarray:
    """Moments (v0, v1, v2, b0, b1) in units of 0.75 h^k over index bands
    of the sorted design, from prefix sums; bands is a list of index
    ranges (a, b), one array each, whose union per query lies between the
    first band's a and the last band's b.

    With t = (x - c)/h and s the query's t, the weight 1 - (t - s)^2 makes
    each moment a binomial combination of band sums of t^k (k <= 4) and
    resp*t^k (k <= 3). c is the midpoint of a block of queries spanning at
    most BLOCK_SPAN bandwidths, and the prefix sums run only over that
    block's bands, so |t| stays small. An empty band sums to exactly zero.
    """
    n = xs.size
    sums = np.zeros((n, 9))
    s = np.empty(n)
    start = 0
    while start < n:
        stop = int(np.searchsorted(xs, xs[start] + BLOCK_SPAN * h, "right"))
        c = 0.5 * (xs[start] + xs[stop - 1])
        left, right = bands[0][0][start], bands[-1][1][stop - 1]
        t = (xs[left:right] - c) / h
        # row k + 1 holds the sums over rows 0..k of the span
        pw = np.empty((right - left + 1, 9))
        pw[0] = 0.0
        pw[1:, 0] = 1.0
        pw[1:, 1] = t
        pw[1:, 2] = t * t
        pw[1:, 3] = pw[1:, 2] * t
        pw[1:, 4] = pw[1:, 2] * pw[1:, 2]
        pw[1:, 5:] = pw[1:, :4] * rs[left:right, None]
        np.cumsum(pw, axis=0, out=pw)
        for a, b in bands:
            sums[start:stop] += (pw[b[start:stop] - left]
                                 - pw[a[start:stop] - left])
        s[start:stop] = (xs[start:stop] - c) / h
        start = stop

    t0, t1, t2, t3, t4, r0, r1, r2, r3 = sums.T
    # sums of e^k and resp*e^k with e = t - s = (x_j - x_i)/h
    s2 = s * s
    e1 = t1 - s * t0
    e2 = t2 - 2.0 * s * t1 + s2 * t0
    e3 = t3 - 3.0 * s * t2 + 3.0 * s2 * t1 - s2 * s * t0
    e4 = (t4 - 4.0 * s * t3 + 6.0 * s2 * t2 - 4.0 * s2 * s * t1
          + s2 * s2 * t0)
    f1 = r1 - s * r0
    f2 = r2 - 2.0 * s * r1 + s2 * r0
    f3 = r3 - 3.0 * s * r2 + 3.0 * s2 * r1 - s2 * s * r0
    return np.stack((t0 - e2, e1 - e3, e2 - e4, r0 - f2, f1 - f3))


def _edge_moments(xs: np.ndarray, h: float, level: np.ndarray,
                  ux: np.ndarray, count: np.ndarray, rsum: np.ndarray,
                  bands) -> np.ndarray:
    """Moments (v0, v1, v2, b0, b1) in units of 0.75 h^k over index bands
    of the sorted design that hold whole levels; each level's weight
    1 - u^2 comes from u = (x_j - x_i)/h computed as the kernel computes
    it, and its count and response sum stand for its tied points."""
    n = xs.size
    lev = np.append(level, level[-1] + 1)
    a = np.concatenate([lev[p] for p, _ in bands])
    k = np.concatenate([lev[q] for _, q in bands]) - a
    query = np.repeat(np.tile(np.arange(n), len(bands)), k)
    ids = np.repeat(a - np.cumsum(k) + k, k) + np.arange(int(k.sum()))
    u = (ux[ids] - xs[query]) / h
    w = 1.0 - u * u
    wc = w * count[ids]
    wr = w * rsum[ids]
    return np.stack([np.bincount(query, m, n)
                     for m in (wc, wc * u, wc * u * u, wr, wr * u)])


def _solve_intercepts(mom: np.ndarray, flat: np.ndarray,
                      multi: np.ndarray) -> np.ndarray:
    """Local-linear intercepts from the moments (v0, v1, v2, b0, b1) of each
    window, in units of 0.75 h^k.

    A window of two or more levels (multi) gives (v2 b0 - v1 b1) / det with
    det = v0 v2 - v1^2, or NaN unless v2 > 0 and det >= DET_RTOL v0^2 (that
    is DET_RTOL h^2 V0^2 in units of the level). A window that holds only
    the point's own level (flat) gives the locally constant b0 / v0; any
    other window gives NaN.
    """
    v0, v1, v2, b0, b1 = mom
    det = v0 * v2 - v1 * v1
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = np.where(multi & (v2 > 0.0) & (det >= DET_RTOL * v0 * v0),
                       (v2 * b0 - v1 * b1) / det, np.nan)
        return np.where(flat, b0 / v0, fit)


def _sorted_moments(xs: np.ndarray, rs: np.ndarray, h: float, loo: bool):
    """Moments (v0, v1, v2, b0, b1) of the window at every point of the
    sorted design xs, in units of 0.75 h^k, in O(N log N); also the masks
    flat and multi that _solve_intercepts reads, and the count of points of
    other levels in each window.

    With loo=True the point's own observation is excluded (used by
    cross-validation).

    Each window [lo, hi) is the exact positive support of the kernel at the
    point (_support). Its moments come from prefix sums (_prefix_moments)
    over the points with |u| < 1 - EDGE_BAND, and from the kernel weights
    themselves (_edge_moments) over the thin band next to the edge of the
    support, where a weight of a few ulps would otherwise be lost in the
    rounding of the prefix sums. The point's own level adds exactly its
    count to v0 and its response sum to b0 (weight 1, no spread);
    leave-one-out takes the point itself out of both. Which case a window
    falls in (empty, own level only, one other level, two or more levels)
    is decided from exact counts of points and levels, never from rounded
    sums. The moment algebra is that of the Epanechnikov kernel, the
    package's one kernel.
    """
    n = xs.size
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise ValueError("state levels must be finite")
    lo, hi, own_lo, own_hi = _support(xs, h)
    inner = (1.0 - EDGE_BAND) * h
    lo_in = np.maximum(np.searchsorted(xs, xs - inner, "left"), lo)
    hi_in = np.minimum(np.searchsorted(xs, xs + inner, "right"), hi)

    new_level = np.append(True, xs[1:] != xs[:-1])
    level = np.cumsum(new_level) - 1
    first = np.flatnonzero(new_level)
    count = np.diff(np.append(first, n))
    rsum = np.add.reduceat(rs, first)
    # the own level has e = 0 and weight 1 per point: its share is exact
    own = own_hi - own_lo - loo
    mom = (_prefix_moments(xs, rs, h, [(lo_in, own_lo), (own_hi, hi_in)])
           + _edge_moments(xs, h, level, xs[first], count, rsum,
                           [(lo, lo_in), (hi_in, hi)]))
    mom[0] += own
    mom[3] += rsum[level] - loo * rs

    distinct = level[hi - 1] - level[lo] + 1 - (own == 0)
    other = (hi - lo) - (own_hi - own_lo)
    return mom, (distinct == 1) & (own > 0), distinct >= 2, other


def _intercepts_at_data(x: np.ndarray, resp: np.ndarray, h: float,
                        loo: bool) -> np.ndarray:
    """Local-linear intercept at every design point in O(N log N).

    With loo=True the point's own observation is excluded (used by
    cross-validation). Points whose design is empty or singular get NaN; a
    window whose only level is the point's own degrades to the locally
    constant fit. The design is sorted once (_sorted_moments).
    """
    out = np.full(x.size, np.nan)
    if x.size == 0:
        return out
    order = np.argsort(x, kind="stable")
    mom, flat, multi, _ = _sorted_moments(x[order], resp[order], h, loo)
    out[order] = _solve_intercepts(mom, flat, multi)
    return out


def _resid2(y: np.ndarray, drift: np.ndarray) -> np.ndarray:
    # a pair without a drift fit keeps its raw square
    return residual_squares(y, np.where(np.isfinite(drift), drift, 0.0))


def _spliced(at: np.ndarray, arrays) -> list[np.ndarray]:
    """Each array with a zero inserted on its last axis before each index
    in the sorted at, as np.insert gives it, by one slice copy per run of
    kept entries (np.insert costs several times more at a few indices)."""
    n, k = arrays[0].shape[-1], at.size
    bounds = [0, *at.tolist(), n]
    out = []
    for a in arrays:
        b = np.zeros(a.shape[:-1] + (n + k,), a.dtype)
        for j in range(k + 1):
            b[..., bounds[j] + j:bounds[j + 1] + j] = a[..., bounds[j]:
                                                         bounds[j + 1]]
        out.append(b)
    return out


@dataclass(frozen=True)
class DriftFit:
    """The h1 drift fit at every pair of a level-sorted design, kept so that
    later pairs can be added without fitting again.

    x and y are the pairs sorted by level, ties in arrival order (a stable
    sort). moments holds (v0, v1, v2, b0, b1) of each pair's window in units
    of 0.75 h^k and other the exact count of points of other levels in it;
    drift is the intercept, NaN where the design has no fit, and resid2 the
    squared residual y - drift, with the drift taken as 0 where it is NaN.

    from_scratch fits with the prefix-sum engine. extend adds the k pairs
    of a later origin, which arrive after every pair held, with one copy of
    each array and O(k window) arithmetic: each new pair's kernel weights on
    the window around it, taken directly, go into the moments of every pair
    it weighs and make its own moments. Only the span of pairs they touched
    is solved again. The result agrees with a from-scratch fit on the same
    pairs within the engine's bound and with the same NaN pattern.
    """

    x: np.ndarray
    y: np.ndarray
    h: float
    moments: np.ndarray
    other: np.ndarray
    drift: np.ndarray
    resid2: np.ndarray

    @classmethod
    def from_scratch(cls, x: np.ndarray, y: np.ndarray, h: float) -> DriftFit:
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        mom, flat, multi, other = _sorted_moments(xs, ys, h, False)
        drift = _solve_intercepts(mom, flat, multi)
        return cls(xs, ys, h, mom, other, drift, _resid2(ys, drift))

    def extend(self, x_new: np.ndarray, y_new: np.ndarray) -> DriftFit:
        """The fit with the pairs (x_new, y_new) added."""
        if x_new.size == 0:
            return self
        h = self.h
        order = np.argsort(x_new, kind="stable")
        xn, yn = x_new[order], y_new[order]
        if not (np.isfinite(xn[0]) and np.isfinite(xn[-1])):
            raise ValueError("state levels must be finite")
        # after the tied pairs held, as a stable sort of all pairs puts them
        at = np.searchsorted(self.x, xn, "right")
        new = at + np.arange(xn.size)
        x, y, mom, other, drift, resid2 = _spliced(
            at, (self.x, self.y, self.moments, self.other, self.drift,
                 self.resid2))
        x[new] = xn
        y[new] = yn

        # [a, b) holds every pair a new level weighs; u as _support has it
        a = int(np.searchsorted(x, xn[0] - h - PAD * (abs(xn[0]) + h), "left"))
        b = int(np.searchsorted(x, xn[-1] + h + PAD * (abs(xn[-1]) + h),
                                "right"))
        xw, yw = x[a:b], y[a:b]
        u = (xw - xn[:, None]) / h
        w = np.fmax(1.0 - u * u, 0.0)
        wu = w * u
        wuu = wu * u
        apart = (w > 0.0) & (xw != xn[:, None])
        # every pair in a new pair's window, new pairs included, sees it at
        # -u: exactly, since x_j - x_i rounds to -(x_i - x_j)
        mom[:, a:b] += np.stack((w.sum(0), -wu.sum(0), wuu.sum(0), yn @ w,
                                 -(yn @ wu)))
        other[a:b] += apart.sum(0)
        # a new pair's own moments over the pairs held before it; the
        # new-against-new block came in above
        cols = new - a
        for m in (w, wu, wuu, apart):
            m[:, cols] = 0
        mom[:, new] += np.stack((w.sum(1), wu.sum(1), wuu.sum(1), w @ yw,
                                 wu @ yw))
        other[new] += apart.sum(1)

        span = other[a:b]
        drift[a:b] = _solve_intercepts(mom[:, a:b], span == 0, span > 0)
        resid2[a:b] = _resid2(yw, drift[a:b])
        return DriftFit(x, y, h, mom, other, drift, resid2)


def _cv_bandwidth(x: np.ndarray, resp: np.ndarray) -> float:
    """Leave-one-out CV over a multiplicative grid around the rule of thumb.

    Candidates where more than 20% of points have no valid fit are skipped;
    if all are skipped the rule of thumb is returned.
    """
    rot = rule_of_thumb_bandwidth(x)
    best_h, best_loss = rot, math.inf
    for f in CV_GRID:
        h = rot * f
        pred = _intercepts_at_data(x, resp, h, loo=True)
        ok = np.isfinite(pred)
        if ok.sum() < 0.8 * x.size:
            continue
        loss = float(np.mean((resp[ok] - pred[ok]) ** 2))
        if loss < best_loss:
            best_h, best_loss = h, loss
    return best_h


def select_bandwidth(x: np.ndarray, y: np.ndarray) -> tuple[DriftFit, float]:
    """The h1 drift fit of the pairs and the variance bandwidth h.

    Both bandwidths are picked independently by the same rule: leave-one-out
    CV on a small multiplicative grid around 1.06*std(x)*N^(-1/5). h1 (the
    fit's h) is picked for the mean fit, h against the squared residuals of
    the h1 fit.

    Requires at least 20 pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 20:
        raise TooFewPointsError("need at least 20 pairs")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal shapes")
    drift = DriftFit.from_scratch(x, y, _cv_bandwidth(x, y))
    # the fit holds the pairs sorted by level; CV takes them in time order
    resid2 = np.empty_like(y)
    resid2[np.argsort(x, kind="stable")] = drift.resid2
    return drift, _cv_bandwidth(x, resid2)
