"""State-domain variance estimation by local-linear kernel regression.

Responses (squared residuals or squared returns) are regressed on the state
level with a compactly supported kernel; the fitted intercept at the query
point is the variance estimate. The equivalent-weight representation

    xi_i(x0) = W_i * (V2 - (x_i - x0) V1) / (V0 V2 - V1^2),
    V_j = sum_i (x_i - x0)^j W_i,

reproduces the intercept as sum_i xi_i * response_i and satisfies
sum xi_i = 1 and sum xi_i (x_i - x0) = 0 exactly.

The fit at every design point at once (the drift refit and leave-one-out
bandwidth cross-validation) runs in O(N log N) on sorted prefix sums, after
Fan & Marron (1994) and Seifert, Brockmann, Engel & Gasser (1994): the
Epanechnikov weight is quadratic on its support, so each moment sum over a
window is a difference of prefix sums of powers of the centred level. The
window is the exact positive support of the kernel; weights in a thin band
at its edge and on the point's own level are taken directly; empty,
own-level-only and single-level windows are told apart by exact counts. Its
tests check it against the direct O(N^2) evaluation: the NaN pattern is
identical, and values agree within 1e-11 * max|resp| * h^2 V0^2 / det, the
design's condition (the worst case seen is 2.4e-13 of that bound).
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

# blocks of the sorted design that share one centre in _prefix_moments:
# at most this many points, spanning at most this many bandwidths
BLOCK_POINTS = 256
BLOCK_SPAN = 4.0
# points with |u| >= 1 - EDGE_BAND take their kernel weight directly
EDGE_BAND = 1e-4


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, out, 0.0)


_KERNELS = {"epanechnikov": (_epanechnikov, 0.6)}


@dataclass(frozen=True)
class KernelSpec:
    """Compactly supported symmetric kernel; nu0 is int W(u)^2 du."""

    kind: str = "epanechnikov"

    def __post_init__(self):
        if self.kind not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kind!r}")

    @property
    def nu0(self) -> float:
        return _KERNELS[self.kind][1]

    def weights(self, u) -> np.ndarray:
        return _KERNELS[self.kind][0](np.asarray(u, dtype=float))


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


def _moments(x: np.ndarray, x0: float, h: float, kernel: KernelSpec):
    d = x - x0
    w = kernel.weights(d / h)
    v0 = float(w.sum())
    wd = w * d
    v1 = float(wd.sum())
    v2 = float((wd * d).sum())
    return d, w, v0, v1, v2


def _check_coverage(x: np.ndarray, x0: float, v0: float) -> None:
    if x.size == 0 or x0 < x.min() or x0 > x.max():
        raise NoCoverageError(f"query {x0} outside historical range")
    if v0 <= 0.0:
        raise NoCoverageError(f"no kernel mass at {x0}")


def local_linear_fit(pairs: StatePairs, x0: float, h: float,
                     kernel: KernelSpec = KernelSpec()) -> tuple[float, float]:
    """Weighted local-linear fit of the response at x0.

    Returns (intercept, slope). A zero-spread neighborhood (all weighted
    points at x0) degrades to the locally constant fit with slope 0; an
    ill-conditioned design raises SingularDesignError.
    """
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    d, w, v0, v1, v2 = _moments(pairs.x, x0, h, kernel)
    _check_coverage(pairs.x, x0, v0)
    if v2 == 0.0:
        return float(np.dot(w, pairs.resp) / v0), 0.0
    det = v0 * v2 - v1 * v1
    if det < DET_RTOL * h * h * v0 * v0:
        raise SingularDesignError(f"local design singular at {x0}")
    b0 = float(np.dot(w, pairs.resp))
    b1 = float(np.dot(w * d, pairs.resp))
    return (v2 * b0 - v1 * b1) / det, (v0 * b1 - v1 * b0) / det


def locally_constant_fit(pairs: StatePairs, x0: float, h: float,
                         kernel: KernelSpec = KernelSpec()) -> float:
    """Kernel-weighted mean of the response at x0 (fallback for singular fits)."""
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    _, w, v0, _, _ = _moments(pairs.x, x0, h, kernel)
    _check_coverage(pairs.x, x0, v0)
    return float(np.dot(w, pairs.resp) / v0)


def locally_constant_weights(pairs: StatePairs, x0: float, h: float,
                             kernel: KernelSpec = KernelSpec()) -> np.ndarray:
    _, w, v0, _, _ = _moments(pairs.x, x0, h, kernel)
    _check_coverage(pairs.x, x0, v0)
    return w / v0


def xi_weights(pairs: StatePairs, x0: float, h: float,
               kernel: KernelSpec = KernelSpec()) -> np.ndarray:
    """Equivalent local-linear weights at x0.

    dot(xi, resp) equals the local-linear intercept; sum(xi) == 1 and
    sum(xi * (x - x0)) == 0. A zero-spread neighborhood returns the
    normalized kernel weights (both identities still hold).
    """
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    d, w, v0, v1, v2 = _moments(pairs.x, x0, h, kernel)
    _check_coverage(pairs.x, x0, v0)
    if v2 == 0.0:
        return w / v0
    det = v0 * v2 - v1 * v1
    if det < DET_RTOL * h * h * v0 * v0:
        raise SingularDesignError(f"local design singular at {x0}")
    return w * (v2 - d * v1) / det


def estimate_drift(pairs_raw: StatePairs, x0: float, h1: float,
                   kernel: KernelSpec = KernelSpec()) -> float:
    """Local-linear conditional-mean estimate (responses are raw returns)."""
    return local_linear_fit(pairs_raw, x0, h1, kernel)[0]


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


def s2_squared(sigma2: float, density_at_x: float,
               kernel: KernelSpec = KernelSpec()) -> float:
    """Asymptotic variance factor 2 nu0 sigma^4 / p(x) for the kernel fit."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not density_at_x > 0:
        raise ValueError("density_at_x must be positive")
    return 2.0 * kernel.nu0 * sigma2 * sigma2 / density_at_x


def kernel_density(x: np.ndarray, x0: float, kernel: KernelSpec = KernelSpec(),
                   h: float | None = None) -> float:
    """Kernel density estimate at x0; bandwidth defaults to the rule of thumb."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = rule_of_thumb_bandwidth(x)
    return float(kernel.weights((x - x0) / h).sum() / (x.size * h))


def rule_of_thumb_bandwidth(x: np.ndarray) -> float:
    """h = 1.06 * std(x) * N^(-1/5); requires at least 2 distinct values."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise TooFewPointsError("need at least 2 points")
    s = float(np.std(x))
    if s <= 0:
        raise DegenerateSeriesError("states are constant")
    return 1.06 * s * x.size ** (-0.2)


def _support(xs: np.ndarray, h: float, kernel: KernelSpec):
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
    pad = 8.0 * np.finfo(float).eps * (np.abs(xs) + h)

    def positive(j):
        return kernel.weights((xs[j] - xs) / h) > 0.0

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
    resp*t^k (k <= 3). c is the midpoint of a block of at most BLOCK_POINTS
    queries spanning at most BLOCK_SPAN bandwidths, and the prefix sums run
    only over that block's bands, so |t| stays small. An empty band sums to
    exactly zero.
    """
    n = xs.size
    sums = np.zeros((n, 9))
    s = np.empty(n)
    start = 0
    while start < n:
        stop = min(start + BLOCK_POINTS,
                   int(np.searchsorted(xs, xs[start] + BLOCK_SPAN * h, "right")))
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


def _intercepts_at_data(x: np.ndarray, resp: np.ndarray, h: float,
                        kernel: KernelSpec, loo: bool) -> np.ndarray:
    """Local-linear intercept at every design point in O(N log N).

    With loo=True the point's own observation is excluded (used by
    cross-validation). Points whose design is empty or singular get NaN; a
    window whose only level is the point's own degrades to the locally
    constant fit.

    The design is sorted once. Each window [lo, hi) is the exact positive
    support of the kernel at the point (_support). Its moments come from
    prefix sums (_prefix_moments) over the points with |u| < 1 - EDGE_BAND,
    and from the kernel weights themselves (_edge_moments) over the thin
    band next to the edge of the support, where a weight of a few ulps would
    otherwise be lost in the rounding of the prefix sums. The point's own
    level adds exactly its count to v0 and its response sum to b0 (weight 1,
    no spread); leave-one-out takes the point itself out of both. Which case
    a window falls in (empty, own level only, one other level, two or more
    levels) is decided from exact counts of points and levels, never from
    rounded sums. The moment algebra is that of the Epanechnikov kernel, the
    one kernel KernelSpec offers.
    """
    n = x.size
    out = np.full(n, np.nan)
    if n == 0:
        return out
    order = np.argsort(x, kind="stable")
    xs = x[order]
    rs = resp[order]
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise ValueError("state levels must be finite")
    lo, hi, own_lo, own_hi = _support(xs, h, kernel)
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
    v0, v1, v2, b0, b1 = (
        _prefix_moments(xs, rs, h, [(lo_in, own_lo), (own_hi, hi_in)])
        + _edge_moments(xs, h, level, xs[first], count, rsum,
                        [(lo, lo_in), (hi_in, hi)]))
    v0 = v0 + own
    b0 = b0 + (rsum[level] - loo * rs)

    distinct = level[hi - 1] - level[lo] + 1 - (own == 0)
    flat = (distinct == 1) & (own > 0)
    det = v0 * v2 - v1 * v1
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = np.where((distinct >= 2) & (v2 > 0.0)
                       & (det >= DET_RTOL * v0 * v0),
                       (v2 * b0 - v1 * b1) / det, np.nan)
        out[order] = np.where(flat, b0 / v0, fit)
    return out


def _cv_bandwidth(x: np.ndarray, resp: np.ndarray, kernel: KernelSpec,
                  grid: tuple[float, ...]) -> float:
    """Leave-one-out CV over a multiplicative grid around the rule of thumb.

    Candidates where more than 20% of points have no valid fit are skipped;
    if all are skipped the rule of thumb is returned.
    """
    rot = rule_of_thumb_bandwidth(x)
    best_h, best_loss = rot, math.inf
    for f in grid:
        h = rot * f
        pred = _intercepts_at_data(x, resp, h, kernel, loo=True)
        ok = np.isfinite(pred)
        if ok.sum() < 0.8 * x.size:
            continue
        loss = float(np.mean((resp[ok] - pred[ok]) ** 2))
        if loss < best_loss:
            best_h, best_loss = h, loss
    return best_h


def select_bandwidth(x: np.ndarray, y: np.ndarray,
                     kernel: KernelSpec = KernelSpec(),
                     grid: tuple[float, ...] = CV_GRID) -> tuple[float, float]:
    """Bandwidths (h1 for the mean fit, h for the variance fit).

    Both are picked independently by the same rule: leave-one-out CV on a
    small multiplicative grid around 1.06*std(x)*N^(-1/5). The variance
    bandwidth is selected against squared residuals from the h1 mean fit.

    Requires at least 20 pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 20:
        raise TooFewPointsError("need at least 20 pairs")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal shapes")
    h1 = _cv_bandwidth(x, y, kernel, grid)
    drift = _intercepts_at_data(x, y, h1, kernel, loo=False)
    drift = np.where(np.isfinite(drift), drift, 0.0)
    resid2 = residual_squares(y, drift)
    h = _cv_bandwidth(x, resid2, kernel, grid)
    return h1, h
