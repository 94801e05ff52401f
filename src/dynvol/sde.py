"""Synthetic diffusion paths and return construction.

Three generators are provided: a square-root mean-reverting rate model
(Milstein scheme with reflection at zero), a stochastic-variance model whose
returns are conditionally Gaussian given the substep-averaged variance, and
geometric Brownian motion sampled from its exact log-normal transition law.

`simulate_cir` is a scalar recursion per path on Python floats: it iterates
a memoryview of the contiguous draws and appends to an `array.array`, which
is several times faster than indexing numpy scalars. The stochastic-variance
step is affine in the variance, v' = a_k v + kappa theta d, so `simulate_sv`
steps a group of replications in lockstep and runs the substeps as a scan of
composed affine maps (`_sv_block`): one map per observation interval, one
pass over the intervals, then one multiply-add for every substep. Its
Python-level loops run over the substeps of one interval and over the
intervals, not over every substep, so one column costs about what a scalar
loop does and a group costs little more. Each operation is elementwise, so
a replication has the same bits alone or in any group. `tests/oracles.py`
drives `_sv_block` over given normals (`sv_inner_path`) and holds the
scalar loop of the scheme, which rounds in another order; the two agree
within a tolerance stated in `tests/test_sde.py`, which pins the output
bits of every simulator by SHA-256 digests.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_value, store_ints

# post-step floor keeping the rate model positive (CIR only: its step has
# sqrt(r); the affine SV step keeps v > 0 without one)
POSITIVITY_FLOOR = 1e-12

# room _sv_slopes leaves below 1: near the least slope its terms are of
# order 1, so rounding moves the slope by a few ulps of 1, not more
AFFINE_ROOM = 32 * np.finfo(float).eps

# log of the largest float: a GBM level whose log path passes +-LOG_MAX
# overflows, or underflows towards 0
LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class RngStream:
    """Deterministic randomness source: one independent substream per id.

    The same (seed, stream_id) pair always yields the same draws, and
    distinct stream ids give statistically independent streams, so
    replications can run in any order or in parallel.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class CirParams:
    """Square-root mean-reverting model dr = kappa(theta - r)dt + sigma sqrt(r)dW."""

    kappa: float
    theta: float
    sigma: float

    def __post_init__(self):
        check_finite(self, "kappa", "theta", "sigma", positive=True)
        # the stationary law's shape 2 kappa theta / sigma^2 must be finite:
        # a sigma whose square underflows to 0 would divide by zero
        sq = self.sigma * self.sigma
        if not (sq > 0 and math.isfinite(2.0 * self.kappa * self.theta / sq)):
            raise ValueError(f"sigma = {self.sigma!r} is too small: the "
                             f"stationary shape 2*kappa*theta/sigma^2 must "
                             f"be finite")
        # keeps the process strictly positive (boundary unattainable)
        if 2.0 * self.kappa * self.theta < sq:
            raise ValueError("requires 2*kappa*theta >= sigma^2")


@dataclass(frozen=True)
class SvParams:
    """Stochastic-variance model: dV = kappa(theta - V)dt + alpha V dW.

    The stationary law of V is inverse-gamma with shape a = 1 + 2 kappa/alpha2
    and rate b = 2 theta kappa / alpha2; a > 2 is required so the stationary
    variance is finite.
    """

    kappa: float
    theta: float
    alpha2: float
    substeps: int = 30

    def __post_init__(self):
        check_finite(self, "kappa", "theta", "alpha2", positive=True)
        store_ints(self, "substeps")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.shape_a <= 2.0:
            raise ValueError("stationary shape 1 + 2*kappa/alpha2 must exceed 2")

    @property
    def shape_a(self) -> float:
        return 1.0 + 2.0 * self.kappa / self.alpha2

    @property
    def rate_b(self) -> float:
        return 2.0 * self.theta * self.kappa / self.alpha2


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion dr = mu r dt + sigma r dW."""

    mu: float
    sigma: float

    def __post_init__(self):
        check_finite(self, "mu")
        check_finite(self, "sigma", positive=True)
        # the log drift mu - sigma^2 / 2 needs a finite sigma^2
        if not math.isfinite(self.sigma * self.sigma):
            raise ValueError(f"sigma = {self.sigma!r} is too large: sigma^2 "
                             f"must be finite")


def simulate_cir(params: CirParams, delta: float, n_obs: int, rng: RngStream,
                 r0: float | None = None) -> np.ndarray:
    """Simulate the square-root rate model with a Milstein step.

    Parameters
    ----------
    params : CirParams
    delta : float
        Time step between observations; kappa * delta must be below 1.
    n_obs : int
        Number of observations, >= 2.
    rng : RngStream
    r0 : float, optional
        Starting level. Defaults to a draw from the stationary gamma law
        with shape 2*kappa*theta/sigma^2 and scale sigma^2/(2*kappa).

    Returns
    -------
    np.ndarray
        Strictly positive path of length n_obs.
    """
    if n_obs < 2:
        raise ValueError("n_obs must be >= 2")
    check_value("delta", delta, positive=True)
    k, th, sg = params.kappa, params.theta, params.sigma
    # past 1 the drift step (1 - kappa delta) r + kappa theta delta
    # overshoots theta
    if not k * delta < 1.0:
        raise ValueError(f"the CIR step needs kappa delta below 1, got "
                         f"{k * delta:.6g}: lower delta or kappa")
    gen = rng.generator()
    if r0 is None:
        shape = 2.0 * k * th / sg**2
        scale = sg**2 / (2.0 * k)
        r = float(gen.gamma(shape, scale))
    else:
        if not r0 > 0:
            raise ValueError("r0 must be positive")
        r = float(r0)
    eps = gen.standard_normal(n_obs - 1)
    sqdt = math.sqrt(delta)
    quarter = 0.25 * sg**2 * delta
    floor = POSITIVITY_FLOOR
    # the first step starts from r itself, even below the floor
    out = array("d", [max(r, floor)])
    append = out.append
    for e in memoryview(eps):
        r = (r + k * (th - r) * delta
             + sg * math.sqrt(max(r, 0.0)) * sqdt * e
             + quarter * (e * e - 1.0))
        if r < floor:
            r = floor
        append(r)
    return np.frombuffer(out)


def _check_sv_step(params: SvParams, dstar: float) -> None:
    """Raise ValueError unless (2 kappa + alpha2) d < 1 with d = dstar, the
    bound below which every slope of _sv_slopes is positive."""
    s = (2.0 * params.kappa + params.alpha2) * dstar
    if not s < 1.0 - AFFINE_ROOM:
        raise ValueError(f"the SV step needs (2 kappa + alpha2) delta / "
                         f"substeps below 1, got {s:.6g}: raise substeps")


def _sv_slopes(params: SvParams, eps: np.ndarray, dstar: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """The slope a = 1 - kappa d + alpha sqrt(d) e + (alpha2 d / 2)(e^2 - 1)
    of the Milstein step v' = a v + kappa theta d at each draw e of eps, with
    d = dstar, in out (an array other than eps) or a new array. As a
    quadratic in e, a >= (1 - (2 kappa + alpha2) d) / 2, so v stays
    positive under the bound of _check_sv_step, which the caller checks."""
    half_a2 = 0.5 * params.alpha2 * dstar
    # (half_a2 e + sqrt(alpha2 d)) e + (1 - kappa d - half_a2), in this order
    out = np.multiply(eps, half_a2, out=out)
    out += math.sqrt(params.alpha2 * dstar)
    out *= eps
    out += 1.0 - params.kappa * dstar - half_a2
    return out


def _sv_block(params: SvParams, dstar: float, eps: np.ndarray,
              a: np.ndarray, b: np.ndarray, starts: np.ndarray,
              sums: np.ndarray) -> None:
    """Step C streams' variance through nb intervals of m substeps of size
    dstar, in place. eps is (C, nb, m): stream c's normals, m per interval.
    a and b are (m, nb, C) work arrays, and starts (nb + 1, C) holds the
    first interval's start in starts[0]. Leaves interval k's start in
    starts[k] and the last one's end in starts[nb], the variance at every
    substep start in eps, and each interval's sum of them in sums (C, nb).

    Substep j of interval k maps its start v_k to A_j v_k + B_j, with A_j
    the running product of the interval's slopes and B_j the image of 0.
    One pass over the intervals carries v from each to the next, then one
    multiply and one add, with no division, give every substep; at m = 1
    this is the plain recursion, bit for bit."""
    # the slopes read a contiguous copy of eps in b: a third faster than
    # reading eps across its strides twice
    np.copyto(b, eps.transpose(2, 1, 0))
    _sv_slopes(params, b, dstar, out=a)
    # a[j, k] is substep j of interval k, so each loop step is a contiguous
    # (nb, C) block. b[j] = B_j = a[j] B_{j-1} + b[0] from b[0] = kappa theta
    # d (a full block: a same-shape add is faster than a broadcast one), then
    # a[j] = A_j = a[0] ... a[j] in place (np.cumprod measured twice as slow)
    b[0] = params.kappa * params.theta * dstar
    mul, add = np.multiply, np.add
    for a0, a1, b0, b1 in zip(a, a[1:], b, b[1:]):
        mul(a1, b0, out=b1)
        add(b1, b[0], out=b1)
        mul(a1, a0, out=a1)
    for ak, bk, v, nxt in zip(a[-1], b[-1], starts, starts[1:]):
        mul(ak, v, out=nxt)
        add(nxt, bk, out=nxt)
    # eps takes the variance at every substep start: the start v_i of
    # interval i, then A_j v_i + B_j for j < m - 1 (A_{m-1} v_i + B_{m-1} is
    # the next start, to the bit). The sums run over contiguous rows of m,
    # as on a single path (a strided view sums in another order).
    path = eps.transpose(2, 1, 0)
    path[0] = starts[:-1]
    mul(a[:-1], starts[:-1], out=a[:-1])
    add(a[:-1], b[:-1], out=path[1:])
    add.reduce(eps, axis=2, out=sums)


# observations per block of simulate_sv. Its three work buffers hold
# SV_BLOCK * substeps values per stream each, 0.46 MB at 40 streams and 30
# substeps, whatever the series length. A 40-stream call at the SV preset
# took 53 ms at 16, 48 ms at 48 and 46-48 ms at 96 (medians of 30 calls on
# a 2-core Xeon VM), so a larger block buys little time for its memory
SV_BLOCK = 48


def simulate_sv(params: SvParams, delta: float, n_obs: int,
                rngs: Sequence[RngStream]) -> tuple[np.ndarray, np.ndarray]:
    """Simulate n_obs conditionally Gaussian returns and their true variances
    on each stream of rngs, all streams in lockstep.

    The latent variance runs on a grid of `substeps` inner Milstein steps per
    observation interval; each return is drawn as N(0, vbar_i) where vbar_i
    is the average of the variance over the interval's substeps. The initial
    variance is drawn from the stationary inverse-gamma law.

    Each stream draws the start, then the substep normals, then the return
    normals, so a stream gives the same result in any group. The substep
    normals are drawn SV_BLOCK observations at a time, stream by stream,
    into one buffer that the block's scan then overwrites with its path;
    this gives the same numbers as one draw of all of them.

    Returns
    -------
    (y, vbar) : tuple of np.ndarray
        The scaled returns and the per-interval averaged variance, one row
        of n_obs per stream.
    """
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    check_value("delta", delta, positive=True)
    m = params.substeps
    dstar = delta / m
    _check_sv_step(params, dstar)
    gens = [rng.generator() for rng in rngs]
    n = len(gens)
    # buf takes one block's normals, then its variance path; a, b and starts
    # are the work arrays of every block, starts[0] the variance at the
    # block's start, first the stationary draw V = 1/G with
    # G ~ Gamma(shape=a, rate=b)
    buf = np.empty((n, SV_BLOCK * m))
    a = np.empty((m, SV_BLOCK, n))
    b = np.empty_like(a)
    starts = np.empty((SV_BLOCK + 1, n))
    starts[0] = [1.0 / float(gen.gamma(params.shape_a, 1.0 / params.rate_b))
                 for gen in gens]
    vbar = np.empty((n, n_obs))
    for lo in range(0, n_obs, SV_BLOCK):
        nb = min(SV_BLOCK, n_obs - lo)
        eps = buf[:, :nb * m]
        for gen, row in zip(gens, eps):
            gen.standard_normal(out=row)
        _sv_block(params, dstar, eps.reshape(n, nb, m), a[:, :nb], b[:, :nb],
                  starts[:nb + 1], vbar[:, lo:lo + nb])
        starts[0] = starts[nb]
    vbar /= m
    y = np.sqrt(vbar)
    for gen, row in zip(gens, y):
        row *= gen.standard_normal(n_obs)
    return y, vbar


def simulate_gbm(params: GbmParams, delta: float, n_obs: int, rng: RngStream,
                 r0: float = 1.0) -> np.ndarray:
    """Simulate geometric Brownian motion by exact log-normal increments.

    Log increments are iid N((mu - sigma^2/2)*delta, sigma^2*delta). Each
    level is math.exp of its log level, not np.exp of the log path: numpy
    picks its exp kernel by CPU, and its AVX-512 kernel rounds some levels
    one ulp apart from its others, where libm's exp gave the same bits
    with and without AVX-512, AVX2 and FMA.
    """
    if n_obs < 2:
        raise ValueError("n_obs must be >= 2")
    check_value("delta", delta, positive=True)
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    gen = rng.generator()
    z = gen.standard_normal(n_obs - 1)
    drift = (params.mu - 0.5 * params.sigma**2) * delta
    vol = params.sigma * math.sqrt(delta)
    with np.errstate(over="ignore", invalid="ignore"):
        log_incr = drift + vol * z
        log_path = np.concatenate(([0.0], np.cumsum(log_incr)))
    if not np.abs(log_path).max() <= LOG_MAX:
        raise ValueError(f"mu = {params.mu!r}, sigma = {params.sigma!r} and "
                         f"delta = {delta!r} drew a GBM log path past "
                         f"+-{LOG_MAX:.1f}, outside the float range")
    levels = np.fromiter(map(math.exp, log_path.tolist()), float,
                         log_path.size)
    return r0 * levels


def to_returns(levels, delta: float) -> np.ndarray:
    """Scaled differences along the last axis of levels, one path or one
    per row: y_i = (v_{i+1} - v_i)/sqrt(delta)."""
    return np.diff(levels) / math.sqrt(delta)


def levels_from_returns(y, delta: float, r0: float = 0.0) -> np.ndarray:
    """Inverse of to_returns along the last axis: the level path, or one per
    row, that starts at r0 and has the scaled differences y."""
    steps = np.multiply(y, math.sqrt(delta))
    return r0 + np.cumsum(np.insert(steps, 0, 0.0, axis=-1), axis=-1)
