"""State-domain variance estimation by local-linear kernel regression.

Responses (squared residuals or squared returns) are regressed on the state
level with the Epanechnikov kernel W(u) = 0.75 (1 - u^2) on |u| <= 1; the
fitted intercept at the query point is the variance estimate. The
equivalent-weight representation

    xi_i(x0) = W_i * (V2 - (x_i - x0) V1) / (V0 V2 - V1^2),
    V_j = sum_i (x_i - x0)^j W_i,

reproduces the intercept as sum_i xi_i * response_i and satisfies
sum xi_i = 1 and sum xi_i (x_i - x0) = 0 exactly. The estimate's sampling
variance is 2 sigma2_hat^2 sum_i xi_i^2, from the sums the query returns.

Three routes compute the intercept, all on the design sorted by level,
and one rule decides what a window holds: _reach finds its range by a
padded searchsorted, and _kernel, the one kernel formula, weighs every
point in it, 0 for those the padding lets in. The windowed query
(_window_weights) evaluates the kernel only on the window, in
O(log N + window), at the origins of one refit block of the walk-forward
(_window_estimates) or at one level (xi_weights); the windows are laid end
to end and each reduced on its own with np.add.reduceat, so that an
origin's estimate reads its own window only and has the same bits in any
block. The fit at every design point at once (the first drift fit and
leave-one-out bandwidth cross-validation) runs in O(N log N) on sorted
prefix sums, after Fan & Marron (1994) and Seifert, Brockmann, Engel &
Gasser (1994): the Epanechnikov weight is quadratic on its support, so each
moment sum over a window is a difference of prefix sums of powers of the
centred level. Weights in a thin band at the window's edge and on the
point's own level are taken directly; empty, own-level-only and
single-level windows are told apart by exact counts of the points of
positive weight. The engine runs in two steps: a design (_design) holds
all that depends only on the sorted levels and h (the windows, the edge
bands, the level moments), and a moment step (_moments) applies it to one
response. Bandwidth
selection sorts the levels once and builds the designs of the CV grid once
per series; the drift search, the h1 fit and the variance search all share
them. Its tests check the engine against the direct O(N^2) evaluation: the
NaN pattern is identical, and values agree within
1e-11 * max|resp| * h^2 V0^2 / det, the design's condition (the worst case
seen is 2.4e-13 of that bound).

The drift refit of a walk-forward run has one lifecycle (DriftFit). Its
bandwidth is frozen after the first fit, which runs the prefix-sum engine
and keeps each point's moments and exact counts. Every later refit only
adds the few pairs the origin has moved past: it inserts them into the
sorted design, adds their kernel weights, taken directly, to the moments
of the points they reach, gives them moments of their own, and solves
again only the span they touched: one copy of the fit's table and
O(pairs added x window) arithmetic. One function
(_solve_intercepts) turns moments into intercepts on both paths. On every
refit of a walk-forward the grown fit has the NaN pattern of a fit from
scratch on the same pairs, and values within the bound above (the worst
seen on the benchmark's daily series is 0.4% of it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateSeriesError, NoCoverageError,
                     SingularDesignError, TooFewPointsError)

# relative determinant tolerance for declaring a local design singular
DET_RTOL = 1e-12

# fewest pairs select_bandwidth, and so the state-domain fit, is made from
MIN_STATE_PAIRS = 20

# multiplicative grid of bandwidth candidates around the rule of thumb
CV_GRID = (0.5, 1.0 / math.sqrt(2.0), 1.0, math.sqrt(2.0), 2.0)

# blocks of the sorted design that share one centre in _prefix_moments
# span at most this many bandwidths
BLOCK_SPAN = 4.0
# points with |u| >= 1 - EDGE_BAND take their kernel weight directly
EDGE_BAND = 1e-4
# _reach pads h by this times |x| + h, a few ulps, so that rounding in
# x -/+ h never drops a point the kernel weighs
PAD = 8.0 * np.finfo(float).eps


def _kernel(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Epanechnikov weight in units of 0.75, the package's one kernel:
    1 - u^2, and 0 where that is at most 2 PAD (|u| within about PAD of 1,
    where the rounding of u puts a point lying h away), past the edge and
    at NaN. |u| < 1 - EDGE_BAND always gets 1 - u^2. A product by the mask
    costs less than a masked store, which is slow when the mask is dense."""
    w = np.fmax(1.0 - u * u, 0.0, out=out)
    w *= w > 2.0 * PAD
    return w


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return 0.75 * _kernel(u)


def _padded(x0, h: float):
    """x0 -/+ h, each padded outward by PAD (|x0| + h): the levels _reach
    searches for."""
    pad = PAD * (abs(x0) + h)
    return x0 - h - pad, x0 + h + pad


def _reach(xs: np.ndarray, x0, h: float):
    """Index range [lo, hi) of the sorted xs that holds every point the
    kernel weighs at each level x0: searchsorted on x0 -/+ h, padded by a
    few ulps. The padding may let in points of weight 0, which the kernel
    itself zeroes."""
    below, above = _padded(x0, h)
    return (np.searchsorted(xs, below, "left"),
            np.searchsorted(xs, above, "right"))


def _runs(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[i], ..., start[i] + size[i] - 1 of each run, the
    runs laid end to end."""
    return (np.repeat(start - np.cumsum(size) + size, size)
            + np.arange(int(size.sum())))


def _window_sums(v: np.ndarray, starts: np.ndarray,
                 some: np.ndarray) -> np.ndarray:
    """The sum of v over each window laid end to end, one entry per query:
    np.add.reduceat from the starts of the nonempty windows (some), and 0
    for an empty one."""
    out = np.zeros(some.size)
    if starts.size:
        out[some] = np.add.reduceat(v, starts)
    return out


def _window_weights(xs: np.ndarray, x0: np.ndarray, h: float):
    """Equivalent local-linear weights of the windowed query at each query
    level of the 1-d array x0 on the sorted design xs.

    Returns (idx, seg, xi, covered, singular). A query's window is
    _reach's range; a query outside the data, or NaN, gets an empty one.
    The windows are laid end to end: idx holds their indices into xs (the
    rule of _runs), xi their weights and seg the (starts, some) of
    _window_sums, which reduces each window on its own, so a query's values
    read its own window only and do not depend on the other queries.
    covered marks the queries with kernel mass. A zero-spread window
    (V2 = 0, all weighted points at the query) gives the normalized kernel
    weights, and so does a design with det = V0 V2 - V1^2 below
    DET_RTOL h^2 V0^2, which is flagged singular.
    """
    lo, hi = _reach(xs, x0, h)
    if xs.size:
        hi = np.where((x0 >= xs[0]) & (x0 <= xs[-1]), hi, lo)
    size = hi - lo
    some = size > 0
    seg = ((np.cumsum(size) - size)[some], some)
    idx = _runs(lo, size)
    d = xs[idx] - np.repeat(x0, size)
    w = _epanechnikov(d / h)
    wd = w * d
    v0, v1, v2 = (_window_sums(v, *seg) for v in (w, wd, wd * d))
    covered = v0 > 0.0
    det = v0 * v2 - v1 * v1
    singular = covered & (v2 != 0.0) & (det < DET_RTOL * h * h * v0 * v0)
    # xi = w (v2 - d v1) / det; zero-spread and singular windows take the
    # normalized kernel weights, as w (1 - d 0) / v0 gives them exactly
    const = (v2 == 0.0) | singular
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (w * (np.repeat(np.where(const, 1.0, v2), size)
                   - d * np.repeat(np.where(const, 0.0, v1), size))
              / np.repeat(np.where(const, v0, det), size))
    return idx, seg, xi, covered, singular


def _window_estimates(xs: np.ndarray, resp: np.ndarray, x0: np.ndarray,
                      h: float):
    """Local-linear intercept and sum of squared equivalent weights at each
    query level of the 1-d array x0, on the sorted design xs with responses
    resp, from the weights of _window_weights.

    Returns (est, xi_sq, singular), one entry per query; est and xi_sq are
    NaN where the query has no coverage.
    """
    idx, seg, xi, covered, singular = _window_weights(
        xs, np.asarray(x0, dtype=float), h)
    est = _window_sums(xi * resp[idx], *seg)
    xi_sq = _window_sums(xi * xi, *seg)
    est[~covered] = np.nan
    xi_sq[~covered] = np.nan
    return est, xi_sq, singular


def xi_weights(x: np.ndarray, x0: float, h: float) -> np.ndarray:
    """Equivalent local-linear weights at x0, one per design point of x:
    the windowed query of _window_weights at one level.

    dot(xi, resp) equals the local-linear intercept; sum(xi) == 1 and
    sum(xi * (x - x0)) == 0. A zero-spread neighborhood returns the
    normalized kernel weights (both identities still hold). Raises
    ValueError for a level that is not finite or a bandwidth that is not
    finite and positive, NoCoverageError when x0 gets no kernel mass, and
    SingularDesignError for an ill-conditioned design.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("state levels must be finite")
    if not 0.0 < h < math.inf:
        raise ValueError("bandwidth must be finite and positive")
    order = np.argsort(x, kind="stable")
    idx, _, xi, covered, singular = _window_weights(
        x[order], np.array([x0], dtype=float), h)
    if not covered[0]:
        raise NoCoverageError(f"no kernel mass at {x0}")
    if singular[0]:
        raise SingularDesignError(f"local design singular at {x0}")
    out = np.zeros(x.size)
    out[order[idx]] = xi
    return out


def rule_of_thumb_bandwidth(x: np.ndarray) -> float:
    """h = 1.06 * std(x) * N^(-1/5); requires at least 2 distinct values."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise TooFewPointsError("need at least 2 points")
    s = float(np.std(x))
    if s <= 0:
        raise DegenerateSeriesError("states are constant")
    return 1.06 * s * x.size ** (-0.2)


class _Levels(NamedTuple):
    """The sorted design xs and its runs of tied levels, none of which
    depends on h: level is each point's run, first and count each run's
    first index and length, and [own_lo, own_hi) each point's own run."""

    xs: np.ndarray
    level: np.ndarray
    first: np.ndarray
    count: np.ndarray
    own_lo: np.ndarray
    own_hi: np.ndarray


def _levels(xs: np.ndarray) -> _Levels:
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise ValueError("state levels must be finite")
    new_level = np.append(True, xs[1:] != xs[:-1])
    level = np.cumsum(new_level) - 1
    first = np.flatnonzero(new_level)
    bounds = np.append(first, xs.size)
    return _Levels(xs, level, first, np.diff(bounds), bounds[level],
                   bounds[level + 1])


def _band_sums(xs: np.ndarray, h: float, blocks, at: np.ndarray,
               rs: np.ndarray | None) -> np.ndarray:
    """Sums of t^k (k <= 4), or with rs given of rs*t^k (k <= 3), over the
    two prefix-sum bands of each point of the sorted design, one row per k.

    t = (x - c)/h, where c is the centre of the point's block; blocks is
    (top, lens, left, c), one entry per block, whose span [left,
    left + lens - 1) of the design is laid end to end with the others after
    a zero row at row top, so that its prefix sums run over its own span
    only and |t| stays small. at holds, per point, the rows of the prefix
    sums up to lo_in, own_lo, own_hi and hi_in: the bands are [lo_in,
    own_lo) and [own_hi, hi_in). An empty band sums to exactly zero.
    """
    top, lens, left, c = blocks
    cols = 5 if rs is None else 4
    src = _runs(left - 1, lens)
    t = (xs[src] - np.repeat(c, lens)) / h
    pw = np.empty((src.size, cols))
    pw[:, 0] = 1.0
    pw[:, 1] = t
    pw[:, 2] = t * t
    pw[:, 3] = pw[:, 2] * t
    if rs is None:
        pw[:, 4] = pw[:, 2] * pw[:, 2]
    else:
        pw *= rs[src, None]
    pw[top] = 0.0
    # row top + 1 + k of a block then holds the sums over its rows 0..k
    for a, b in zip(top.tolist(), (top + lens).tolist()):
        pw[a:b].cumsum(axis=0, out=pw[a:b])
    # take gathers whole rows several times faster than indexing
    sums = pw.take(at[1], axis=0)
    sums -= pw.take(at[0], axis=0)
    upper = pw.take(at[3], axis=0)
    upper -= pw.take(at[2], axis=0)
    sums += upper
    return sums.T


class _Design(NamedTuple):
    """The part of the fit at every point of the sorted design that does
    not depend on the response (_design); _moments applies it to one."""

    h: float
    lv: _Levels
    blocks: tuple
    at: np.ndarray
    s: np.ndarray
    mom: np.ndarray
    edge: tuple
    levels_in: np.ndarray
    other: np.ndarray


def _design(lv: _Levels, h: float) -> _Design:
    """The response-free part of the fit at every point of the sorted
    design lv.xs with bandwidth h, in O(N log N).

    Each window [lo, hi) is _reach's range at the point. Its moments come
    from prefix sums (_band_sums) over the points with |u| < 1 - EDGE_BAND,
    and from the kernel weights themselves (_kernel) over the thin band
    next to the edge of the window, where a weight of a few ulps would
    otherwise be lost in the rounding of the prefix sums. With
    t = (x - c)/h and s the query's t, the weight 1 - (t - s)^2 makes each
    moment a binomial combination of band sums of t^k; c is the midpoint of
    a block of queries spanning at most BLOCK_SPAN bandwidths. The design
    keeps the blocks, the prefix-sum rows of the bands (at) and s for the
    response sums, the level moments (v0 without the own level, v1, v2) in
    units of 0.75 h^k, the edge weights (edge: query, level, w, u), the
    count of levels in each window and the exact count of points of other
    levels in it, both without the edge levels of weight 0.
    """
    xs, n = lv.xs, lv.xs.size
    lo, hi = _reach(xs, xs, h)
    inner = (1.0 - EDGE_BAND) * h
    lo_in = np.searchsorted(xs, xs - inner, "left")
    hi_in = np.searchsorted(xs, xs + inner, "right")
    starts = [0]
    while (stop := int(np.searchsorted(xs, xs[starts[-1]] + BLOCK_SPAN * h,
                                       "right"))) < n:
        starts.append(stop)
    starts = np.array(starts)
    stops = np.append(starts[1:], n)
    size = stops - starts
    c = 0.5 * (xs[starts] + xs[stops - 1])
    s = (xs - np.repeat(c, size)) / h
    left = lo_in[starts]
    lens = hi_in[stops - 1] - left + 1
    top = np.cumsum(lens) - lens
    blocks = (top, lens, left, c)
    # a prefix sum up to index j of the design sits in row top + j - left
    # of the point's block
    at = (np.stack((lo_in, lv.own_lo, lv.own_hi, hi_in))
          + np.repeat(top - left, size))
    t0, t1, t2, t3, t4 = _band_sums(xs, h, blocks, at, None)
    # sums of e^k with e = t - s = (x_j - x_i)/h
    s2 = s * s
    e1 = t1 - s * t0
    e2 = t2 - 2.0 * s * t1 + s2 * t0
    e3 = t3 - 3.0 * s * t2 + 3.0 * s2 * t1 - s2 * s * t0
    e4 = (t4 - 4.0 * s * t3 + 6.0 * s2 * t2 - 4.0 * s2 * s * t1
          + s2 * s2 * t0)

    # the edge bands hold whole levels; each level's weight comes from
    # u = (x_j - x_i)/h, and its count stands for its tied points
    lev = np.append(lv.level, lv.level[-1] + 1)
    a = np.concatenate((lev[lo], lev[hi_in]))
    k = np.concatenate((lev[lo_in], lev[hi])) - a
    query = np.repeat(np.tile(np.arange(n), 2), k)
    ids = _runs(a, k)
    u = (xs[lv.first][ids] - xs[query]) / h
    w = _kernel(u)
    wc = w * lv.count[ids]
    mom = np.stack((t0 - e2 + np.bincount(query, wc, n),
                    e1 - e3 + np.bincount(query, wc * u, n),
                    e2 - e4 + np.bincount(query, wc * u * u, n)))
    zero = w == 0.0
    return _Design(h, lv, blocks, at, s, mom, (query, ids, w, u),
                   lv.level[hi - 1] - lv.level[lo] + 1
                   - np.bincount(query[zero], minlength=n),
                   (hi - lo) - (lv.own_hi - lv.own_lo)
                   - np.bincount(query[zero], lv.count[ids[zero]], n))


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


def _moments(d: _Design, rs: np.ndarray, loo: bool):
    """Moments (v0, v1, v2, b0, b1) of the window at every point of the
    design d for the responses rs in the design's order, in units of
    0.75 h^k, and the masks flat and multi that _solve_intercepts reads.

    With loo=True the point's own observation is excluded (used by
    cross-validation). The response sums b0, b1 take the design's blocks,
    bands and edge weights as the level moments do. The point's own level
    adds exactly its count to v0 and its response sum to b0 (weight 1, no
    spread); leave-one-out takes the point itself out of both. Which case a
    window falls in (empty, own level only, one other level, two or more
    levels) is decided from exact counts of points and levels, never from
    rounded sums. The moment algebra is that of the Epanechnikov kernel,
    the package's one kernel.
    """
    lv, n = d.lv, rs.size
    r0, r1, r2, r3 = _band_sums(lv.xs, d.h, d.blocks, d.at, rs)
    # sums of resp*e^k with e = t - s
    s = d.s
    s2 = s * s
    f1 = r1 - s * r0
    f2 = r2 - 2.0 * s * r1 + s2 * r0
    f3 = r3 - 3.0 * s * r2 + 3.0 * s2 * r1 - s2 * s * r0
    query, ids, w, u = d.edge
    rsum = np.add.reduceat(rs, lv.first)
    wr = w * rsum[ids]
    # the own level has e = 0 and weight 1 per point: its share is exact
    own = lv.own_hi - lv.own_lo - loo
    v0, v1, v2 = d.mom
    mom = np.stack((v0 + own, v1, v2,
                    r0 - f2 + np.bincount(query, wr, n)
                    + (rsum[lv.level] - loo * rs),
                    f1 - f3 + np.bincount(query, wr * u, n)))
    distinct = d.levels_in - (own == 0)
    return mom, (distinct == 1) & (own > 0), distinct >= 2


def _resid2(y: np.ndarray, drift: np.ndarray) -> np.ndarray:
    # (y - drift)^2; a pair without a drift fit keeps its raw square
    r = y - np.where(np.isfinite(drift), drift, 0.0)
    return r * r


def _spliced(table: np.ndarray, at: np.ndarray) -> np.ndarray:
    """table with a zero column inserted before each column index in the
    sorted at, as np.insert gives it, by one slice copy per run of kept
    columns: all rows move together, and a boolean or integer scatter, or
    np.insert, costs several times more."""
    n, k = table.shape[1], at.size
    bounds = [0, *at.tolist(), n]
    out = np.empty((table.shape[0], n + k))
    for j in range(k + 1):
        out[:, bounds[j] + j:bounds[j + 1] + j] = table[:, bounds[j]:
                                                        bounds[j + 1]]
    out[:, at + np.arange(k)] = 0.0
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
    All of them are rows of one float table (other holds integers, exact in
    a float), so that extend splices them together; count is their length.

    from_design fits on a design of the prefix-sum engine (bandwidth
    CV's). extend adds the k pairs of a later origin, which arrive after
    every pair held, with one copy of the table and O(k window) arithmetic:
    each new pair's kernel weights on the window around it, taken directly,
    go into the moments of every pair it weighs and make its own moments.
    Only the span of pairs they touched is solved again. The result agrees
    with a from-scratch fit on the same pairs within the engine's bound and
    with the same NaN pattern.
    """

    h: float
    table: np.ndarray

    x = property(lambda self: self.table[0])
    y = property(lambda self: self.table[1])
    moments = property(lambda self: self.table[2:7])
    drift = property(lambda self: self.table[7])
    resid2 = property(lambda self: self.table[8])
    other = property(lambda self: self.table[9])
    count = property(lambda self: self.table.shape[1])

    @classmethod
    def from_design(cls, d: _Design, ys: np.ndarray) -> DriftFit:
        """The fit of the responses ys, in the design's order, on d."""
        mom, flat, multi = _moments(d, ys, False)
        drift = _solve_intercepts(mom, flat, multi)
        return cls(d.h, np.vstack((d.lv.xs, ys, mom, drift,
                                   _resid2(ys, drift), d.other)))

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
        fit = DriftFit(h, _spliced(self.table, at))
        x, y, mom, other = fit.x, fit.y, fit.moments, fit.other
        x[new] = xn
        y[new] = yn

        # [a, b) holds every pair a new level weighs: _reach's range from
        # the lowest new level to the highest, as two scalar searches
        a = int(x.searchsorted(_padded(xn[0], h)[0], "left"))
        b = int(x.searchsorted(_padded(xn[-1], h)[1], "right"))
        xw, yw = x[a:b], y[a:b]
        k, width = xn.size, b - a
        # kern[i] holds w, w u and w u^2 for new pair i at each pair j of
        # [a, b), new pairs included, with u = (x_i - x_j)/h: what pair j's
        # moments take in from new pair i. In new pair i's own moments u
        # has the other sign, exactly, since x_j - x_i rounds to -(x_i - x_j)
        u = (xn[:, None] - xw) / h
        kern = np.empty((k, 3, width))
        _kernel(u, out=kern[:, 0])
        np.multiply(kern[:, 0], u, out=kern[:, 1])
        np.multiply(kern[:, 1], u, out=kern[:, 2])
        apart = (kern[:, 0] > 0.0) & (xw != xn[:, None])
        # one product sums kern over the new pairs, plain and weighted by
        # their responses: rows v0, v1, v2, b0, b1 (and an unused sixth)
        mom[:, a:b] += (np.stack((np.ones(k), yn))
                        @ kern.reshape(k, -1)).reshape(6, width)[:5]
        other[a:b] += apart.sum(0)
        # a new pair's own moments over the pairs held before it (the
        # new-against-new block came in above): one product sums kern over
        # the span, plain and weighted by its responses, with the sign of u
        # turned for v1 and b1
        cols = new - a
        kern[:, :, cols] = 0.0
        apart[:, cols] = False
        own = (kern.reshape(-1, width)
               @ np.stack((np.ones(width), yw), axis=1)).reshape(k, 6)
        mom[:, new] += (own[:, [0, 2, 4, 1, 3]]
                        * np.array([1.0, -1.0, 1.0, 1.0, -1.0])).T
        other[new] += apart.sum(1)

        span = other[a:b]
        fit.drift[a:b] = _solve_intercepts(mom[:, a:b], span == 0, span > 0)
        fit.resid2[a:b] = _resid2(yw, fit.drift[a:b])
        return fit


def _cv_design(designs: list[_Design], order: np.ndarray,
               resp: np.ndarray) -> _Design:
    """The design of the grid whose leave-one-out fit of resp, taken in
    time order, has the least mean squared error; order sorts resp into
    the designs' order.

    Candidates where more than 20% of points have no valid fit are skipped;
    if all are skipped the rule of thumb (the grid's factor 1) is returned.
    """
    best, best_loss = designs[CV_GRID.index(1.0)], math.inf
    rs = resp[order]
    pred = np.empty(resp.size)
    for d in designs:
        pred[order] = _solve_intercepts(*_moments(d, rs, True))
        ok = np.isfinite(pred)
        if ok.sum() < 0.8 * resp.size:
            continue
        loss = float(np.mean((resp[ok] - pred[ok]) ** 2))
        if loss < best_loss:
            best, best_loss = d, loss
    return best


def select_bandwidth(x: np.ndarray, y: np.ndarray) -> tuple[DriftFit, float]:
    """The h1 drift fit of the pairs and the variance bandwidth h.

    Both bandwidths are picked independently by the same rule: leave-one-out
    CV on a small multiplicative grid around 1.06*std(x)*N^(-1/5). h1 (the
    fit's h) is picked for the mean fit, h against the squared residuals of
    the h1 fit. Both searches run on the same levels, so the grid's designs
    are built once and shared by the two searches and the h1 fit.

    Requires at least MIN_STATE_PAIRS pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < MIN_STATE_PAIRS:
        raise TooFewPointsError(f"need at least {MIN_STATE_PAIRS} pairs")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal shapes")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")
    order = np.argsort(x, kind="stable")
    lv = _levels(x[order])
    rot = rule_of_thumb_bandwidth(x)
    designs = [_design(lv, rot * f) for f in CV_GRID]
    drift = DriftFit.from_design(_cv_design(designs, order, y), y[order])
    # the fit holds the pairs sorted by level; CV takes them in time order
    resid2 = np.empty_like(y)
    resid2[order] = drift.resid2
    return drift, _cv_design(designs, order, resid2).h
