"""Direct definitions, asymptotic laws and the inverse-gamma prior algebra
that dynvol is checked against, and the test series they are checked on."""

import math
import operator
import warnings
from array import array
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from dynvol.errors import (DegenerateCaseWarning, DegenerateSeriesError,
                           InsufficientHistoryError, NoCoverageError)
from dynvol.integration import MATCHED_SHAPE
from dynvol import sde
from dynvol.sde import POSITIVITY_FLOOR, SvParams
from dynvol.state_domain import (DET_RTOL, _epanechnikov,
                                 rule_of_thumb_bandwidth)

# unit roundoff of float64
UNIT_ROUNDOFF = 2.0**-53

# int W(u)^2 du of the Epanechnikov kernel
NU0 = 0.6

# The state_domain engine's documented bound: intercepts at the design
# points within ORACLE_TOL * max|resp| * max(1, cond) of the direct O(N^2)
# evaluation, cond being the design's condition h^2 V0^2 / det. The
# deviation is rounding amplified by the conditioning, which the direct
# evaluation suffers as much: on the oracle cases of test_state_domain and
# on 5000 more random ones the worst seen is 2.4e-13 of that bound; on 20
# rate paths it is 3.9e-11 of max|resp|, 1.1e-8 relative on intercepts near
# zero.
ORACLE_TOL = 1e-11


def acf_direct(y, t: int, max_lag: int, shift: float):
    """Autocorrelation of y[:t]**2 at lags 1..max_lag by its definition:
    the squares centred on their mean, one lagged dot product per lag, over
    the biased denominator, in exact arithmetic on the rounded squares and
    rounded once at the end. A float mean carries an error of u times the
    mean square, which the centred squares amplify without bound when they
    are tiny beside it, so the reference is not computed in floats.

    Also returns the tolerance autocorr_sq states for a table built on the
    squares minus `shift`: 16 t u kappa with kappa = sum (z - shift)^2 /
    sum (z - mean)^2.
    """
    if t > y.size or t < max_lag + 2:
        raise InsufficientHistoryError(
            f"need at least {max_lag + 2} observations, have {min(t, y.size)}")
    z = y[:t] ** 2
    if z.max() == z.min():
        raise DegenerateSeriesError("squared returns are constant")
    # every float is an integer over a power of two: scale all of them to
    # integers over the largest denominator, so every sum below is exact
    ratios = [v.as_integer_ratio() for v in z.tolist() + [float(shift)]]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    zi, c = ints[:-1], ints[-1]
    total = sum(zi)
    # t (z_j - mean), scaled: the common factor cancels in every ratio
    zc = [t * v - total for v in zi]
    denom = sum(v * v for v in zc)
    rho = np.array([sum(map(operator.mul, zc[:-k], zc[k:])) / denom
                    for k in range(1, max_lag + 1)])
    kappa = t * t * sum((v - c) ** 2 for v in zi) / denom
    return rho, 16.0 * t * UNIT_ROUNDOFF * kappa


def s1_squared(sigma2: float, c: float) -> float:
    """Asymptotic variance factor c*sigma^4*(e^c + 1)/(e^c - 1) for the
    smoother with n(1 - lam) -> c; the c -> 0 limit is 2*sigma^4."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if c < 0:
        raise ValueError("c must be nonnegative")
    s4 = sigma2 * sigma2
    if c < 1e-10:
        return 2.0 * s4
    # (e^c+1)/(e^c-1) written via exp(-c) to stay finite for large c
    return c * s4 * (1.0 + math.exp(-c)) / (-math.expm1(-c))


def s2_squared(sigma2: float, density_at_x: float) -> float:
    """Asymptotic variance factor 2 nu0 sigma^4 / p(x) for the kernel fit."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not density_at_x > 0:
        raise ValueError("density_at_x must be positive")
    return 2.0 * NU0 * sigma2 * sigma2 / density_at_x


def kernel_density(x: np.ndarray, x0: float, h: float | None = None) -> float:
    """Kernel density estimate at x0; bandwidth defaults to the rule of thumb."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = rule_of_thumb_bandwidth(x)
    return float(_epanechnikov((x - x0) / h).sum() / (x.size * h))


def dense_xi(x: np.ndarray, x0: float, h: float):
    """Equivalent local-linear weights at x0 by their definition, with the
    kernel evaluated at every point of x: (xi, cond, singular), cond being
    the design's condition h^2 V0^2 / det (1 when V2 = 0). Where det falls
    below DET_RTOL h^2 V0^2 the design is singular, and xi is the engine's
    fallback there, the normalized kernel weights, with cond infinite.
    Raises NoCoverageError when x0 lies outside the data or gets no kernel
    mass."""
    if x.size == 0 or x0 < x.min() or x0 > x.max():
        raise NoCoverageError(f"query {x0} outside historical range")
    d = x - x0
    w = _epanechnikov(d / h)
    v0 = float(w.sum())
    if v0 <= 0.0:
        raise NoCoverageError(f"no kernel mass at {x0}")
    wd = w * d
    v1, v2 = float(wd.sum()), float((wd * d).sum())
    if v2 == 0.0:
        return w / v0, 1.0, False
    det = v0 * v2 - v1 * v1
    if det < DET_RTOL * h * h * v0 * v0:
        return w / v0, math.inf, True
    return w * (v2 - d * v1) / det, h * h * v0 * v0 / det, False


@dataclass(frozen=True)
class IgPrior:
    """Inverse-gamma prior on the variance; mean b/(a-1), needs a > 2 for a
    finite prior variance. b = 0 is a degenerate (point-at-zero-mean) prior."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 2.0:
            raise ValueError("shape a must exceed 2")
        if self.b < 0.0:
            raise ValueError("rate b must be nonnegative")

    @property
    def mean(self) -> float:
        return self.b / (self.a - 1.0)

    @property
    def variance(self) -> float:
        return self.b**2 / ((self.a - 1.0) ** 2 * (self.a - 2.0))


def ig_posterior(prior: IgPrior, window: np.ndarray) -> IgPrior:
    """Posterior after observing zero-mean normal data with unknown variance:
    a' = a + n/2, b' = b + sum(y^2)/2."""
    y = np.asarray(window, dtype=float)
    return IgPrior(prior.a + 0.5 * y.size, prior.b + 0.5 * float(np.dot(y, y)))


def bayes_ma(ma_est: float, prior_mean: float, n: int, a: float) -> float:
    """Posterior-mean shrinkage of the moving average toward the prior mean,
    (n MA + k S)/(n + k) with k = 2(a-1): the posterior mean of an
    inverse-gamma prior of shape a and mean S after n observations."""
    k = 2.0 * (a - 1.0)
    return (n * ma_est + k * prior_mean) / (n + k)


def effective_n(lam: float, n: int) -> float:
    """Equivalent window size of the smoother: (1 - lam^n)/(1 - lam); lam = 1
    gives exactly n."""
    if lam == 1.0:
        return float(n)
    return (1.0 - lam**n) / (1.0 - lam)


def match_hyperparams(state_est: float) -> IgPrior:
    """Moment-matched prior centered at the state-domain estimate: matching
    mean b/(a-1) = s and variance b^2/((a-1)^2 (a-2)) = 2 s^2 gives a = 2.5,
    b = 1.5 s."""
    if state_est < 0:
        raise ValueError("state_est must be nonnegative")
    if state_est == 0.0:
        warnings.warn("state estimate is zero; prior is degenerate",
                      DegenerateCaseWarning, stacklevel=2)
    return IgPrior(MATCHED_SHAPE, (MATCHED_SHAPE - 1.0) * state_est)


def efficiency_ratios(d: float, s1_sq: float, s2_sq: float) -> tuple[float, float]:
    """Asymptotic efficiency of the integrated estimator over each component:
    (1 + d s2^2/s1^2, 1 + s1^2/(d s2^2)). The two excesses multiply to 1."""
    if not (d > 0 and s1_sq > 0 and s2_sq > 0):
        raise ValueError("d, s1_sq, s2_sq must all be positive")
    r = d * s2_sq / s1_sq
    return 1.0 + r, 1.0 + 1.0 / r


# a series is a run of segments: noise at a scale, zero returns, returns of
# one magnitude (constant squares), or noise with one spike
SEGMENT = st.tuples(st.sampled_from(["noise", "zero", "const", "spike"]),
                    st.integers(1, 40), st.integers(-3, 3))


def segmented_series(segments, seed):
    """The series of a list of SEGMENT draws, noise from seed."""
    rng = np.random.default_rng(seed)
    parts = []
    for kind, n, e in segments:
        if kind == "zero":
            parts.append(np.zeros(n))
        elif kind == "const":
            parts.append(rng.choice([-1.0, 1.0], n) * 10.0**e)
        else:
            part = rng.standard_normal(n) * 10.0**e
            if kind == "spike":
                part[rng.integers(n)] = 10.0 ** (e + 4)
            parts.append(part)
    return np.concatenate(parts)


def sv_inner_path_scalar(params: SvParams, v0: float, eps: np.ndarray,
                         dstar: float) -> np.ndarray:
    """The latent-variance scheme one path at a time on Python floats: the
    loop sv_inner_path ran before it stepped a group of columns in
    lockstep. Returns len(eps) + 1 values including v0."""
    if not (v0 > 0 and dstar > 0):
        raise ValueError("v0 and dstar must be positive")
    k, th = params.kappa, params.theta
    alpha = math.sqrt(params.alpha2)
    sqdstar = math.sqrt(dstar)
    half_a2 = 0.5 * params.alpha2 * dstar
    floor = POSITIVITY_FLOOR
    v = float(v0)
    out = array("d", [v])
    append = out.append
    for e in memoryview(np.ascontiguousarray(eps, dtype=float).ravel()):
        v = (v + k * (th - v) * dstar
             + alpha * v * sqdstar * e
             + half_a2 * v * (e * e - 1.0))
        if v < floor:
            v = floor
        append(v)
    return np.frombuffer(out)


def sv_inner_path(params: SvParams, v0, eps: np.ndarray,
                  dstar: float) -> np.ndarray:
    """Advance the latent-variance scheme through len(eps) substeps of size
    dstar, starting at v0, for every column of eps at once, by the block
    step of sde.simulate_sv, so that the scalar loop above can check it on
    given normals.

    v0 has shape (R,) and eps (N, R); returns the (N + 1, R) values including
    v0. A float v0 and a 1-d eps are the one-column case and return N + 1
    values. The substeps run through sde._sv_block, every whole interval of
    `params.substeps` in one call, then the last N % substeps as one more
    interval, with the step bound checked once. eps is left as it is.
    """
    v0 = np.asarray(v0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if not (np.all(v0 > 0) and dstar > 0):
        raise ValueError("v0 and dstar must be positive")
    if eps.ndim != v0.ndim + 1 or eps.shape[1:] != v0.shape:
        raise ValueError("eps must hold one column per entry of v0")
    sde._check_sv_step(params, dstar)
    n, m, cols = eps.shape[0], params.substeps, v0.size
    # column c of eps in row c, a copy that _sv_block overwrites with the path
    path = eps.reshape(n, cols).T.copy()
    starts = np.empty((n // m + 2, cols))
    starts[0] = v0
    for lo, nb, k in ((0, n // m, m), (n - n % m, 1, n % m)):
        if nb * k:
            a, b = np.empty((2, k, nb, cols))
            sde._sv_block(params, dstar, path[:, lo:lo + nb * k].reshape(
                cols, nb, k), a, b, starts[:nb + 1], np.empty((cols, nb)))
            starts[0] = starts[nb]
    return np.concatenate((path.T, starts[:1])).reshape((n + 1,) + v0.shape)
