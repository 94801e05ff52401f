"""Path generators: laws, determinism, scheme consistency, pinned bits."""

import hashlib
import math
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dynvol import sde
from dynvol.sde import (AFFINE_ROOM, POSITIVITY_FLOOR, CirParams, GbmParams,
                        RngStream, SvParams, _sv_slopes, levels_from_returns,
                        simulate_cir, simulate_gbm, simulate_sv, to_returns)
from oracles import UNIT_ROUNDOFF, sv_inner_path, sv_inner_path_scalar

WEEKLY = 1.0 / 52.0
MONTHLY = 1.0 / 12.0

CIR = CirParams(kappa=0.21459, theta=0.08571, sigma=0.07830)
SV = SvParams(kappa=3.0, theta=0.009, alpha2=4.0, substeps=30)
GBM = GbmParams(mu=0.03, sigma=0.26)


def test_param_validation():
    with pytest.raises(ValueError):
        CirParams(kappa=0.1, theta=0.01, sigma=0.5)  # 2*k*th < sigma^2
    with pytest.raises(ValueError):
        SvParams(kappa=1.0, theta=0.01, alpha2=4.0)  # stationary shape <= 2
    with pytest.raises(ValueError):
        GbmParams(mu=0.0, sigma=0.0)
    # stationary shape at the standard parameters is exactly 2.5
    assert SV.shape_a == pytest.approx(2.5, abs=1e-15)
    assert SV.rate_b == pytest.approx(0.0135, abs=1e-15)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("params, field", [
    pytest.param(params, name, id=f"{type(params).__name__}.{name}")
    for params, names in ((CIR, ("kappa", "theta", "sigma")),
                          (SV, ("kappa", "theta", "alpha2")),
                          (GBM, ("mu", "sigma")))
    for name in names])
def test_a_model_parameter_must_be_finite(params, field, bad):
    # an infinite theta would reach simulate_sv's start-variance draw as a
    # ZeroDivisionError; the constructor names the field instead
    with pytest.raises(ValueError, match=(rf"^{field} must be (positive and "
                                          rf")?finite, got {bad!r}$")):
        replace(params, **{field: bad})


@pytest.mark.parametrize("delta", [math.inf, math.nan])
@pytest.mark.parametrize("make", [
    pytest.param(lambda d: simulate_gbm(GBM, d, 4, RngStream(1)),
                 id="simulate_gbm"),
    pytest.param(lambda d: simulate_cir(CIR, d, 4, RngStream(1)),
                 id="simulate_cir"),
    pytest.param(lambda d: simulate_sv(SV, d, 4, [RngStream(1)]),
                 id="simulate_sv")])
def test_a_non_finite_delta_is_rejected_by_name(make, delta):
    # an infinite delta made NaN paths: simulate_gbm's was [1, 0, nan, nan]
    with pytest.raises(ValueError, match=rf"^delta must be positive and "
                       rf"finite, got {delta!r}$"):
        make(delta)


@pytest.mark.parametrize("sigma", [1e-300, 1e-160])
def test_a_cir_sigma_too_small_for_the_stationary_law_is_rejected(sigma):
    # sigma^2 underflows to 0, or 2 kappa theta / sigma^2 overflows: the
    # stationary draw divided by zero, or started the path at inf
    with pytest.raises(ValueError, match=rf"^sigma = {sigma!r} is too small"):
        replace(CIR, sigma=sigma)


def test_to_returns_hand_value():
    y = to_returns(np.array([0.06, 0.08]), 0.04)
    # (0.08 - 0.06)/sqrt(0.04) = 0.1
    assert y == pytest.approx([0.1], abs=1e-15)
    assert y.shape == (1,)


def test_returns_round_trip():
    path = simulate_cir(CIR, WEEKLY, 300, RngStream(7, 0))
    y = to_returns(path, WEEKLY)
    back = levels_from_returns(y, WEEKLY, r0=path[0])
    assert np.allclose(back, path, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_the_array_functions_give_each_row_its_1d_bits(rows):
    # a group of paths is one 2-d call of each, one path per row
    levels = np.stack([simulate_cir(CIR, WEEKLY, 300, RngStream(7, r))
                       for r in range(rows)])
    y = to_returns(levels, WEEKLY)
    back = levels_from_returns(y, WEEKLY, r0=0.05)
    assert y.shape == (rows, 299) and back.shape == (rows, 300)
    for i in range(rows):
        assert y[i].tobytes() == to_returns(levels[i], WEEKLY).tobytes()
        assert back[i].tobytes() == levels_from_returns(
            y[i], WEEKLY, r0=0.05).tobytes()


@pytest.mark.parametrize("r0", [0.0, 0.3])
@pytest.mark.parametrize("shape", [(299,), (5, 299)])
def test_levels_are_the_bits_of_the_cumsum_of_the_scaled_steps(shape, r0):
    # the levels are summed in place in one array, in the order and with
    # the bits of the expression built from temporaries
    y = np.random.default_rng(11).standard_normal(shape) * 0.1
    want = r0 + np.cumsum(np.insert(y * math.sqrt(WEEKLY), 0, 0.0, axis=-1),
                          axis=-1)
    got = levels_from_returns(y, WEEKLY, r0=r0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_rng_stream_reproducible_and_independent():
    a = simulate_cir(CIR, WEEKLY, 200, RngStream(42, 3))
    b = simulate_cir(CIR, WEEKLY, 200, RngStream(42, 3))
    c = simulate_cir(CIR, WEEKLY, 200, RngStream(42, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cir_positivity_and_length():
    path = simulate_cir(CIR, WEEKLY, 1200, RngStream(0, 0))
    assert len(path) == 1200
    assert np.all(path > 0)


def test_cir_near_zero_noise_converges_to_theta():
    # with negligible noise the scheme is the Euler recursion
    # r_{i+1} = theta + (r_i - theta)(1 - kappa*delta)
    p = CirParams(kappa=0.5, theta=0.08, sigma=1e-6)
    n, delta, r0 = 600, WEEKLY, 0.04
    path = simulate_cir(p, delta, n, RngStream(1, 0), r0=r0)
    expect = p.theta + (r0 - p.theta) * (1.0 - p.kappa * delta) ** (n - 1)
    assert path[-1] == pytest.approx(expect, abs=1e-4)


def test_cir_stationary_mean_matches_theta():
    # stationary start; grand mean over independent paths within 3 SE of theta
    reps, n = 200, 600
    means = np.array([simulate_cir(CIR, WEEKLY, n, RngStream(11, r)).mean()
                      for r in range(reps)])
    se = means.std(ddof=1) / math.sqrt(reps)
    assert abs(means.mean() - CIR.theta) < 3.0 * se


def test_gbm_increment_moments():
    # log increments are N((mu - sigma^2/2) delta, sigma^2 delta)
    n = 100_001
    path = simulate_gbm(GBM, WEEKLY, n, RngStream(5, 0))
    inc = np.diff(np.log(path))
    tvar = GBM.sigma**2 * WEEKLY
    tmean = (GBM.mu - 0.5 * GBM.sigma**2) * WEEKLY
    assert abs(inc.var(ddof=1) / tvar - 1.0) < 0.02
    assert abs(inc.mean() - tmean) < 3.0 * math.sqrt(tvar / (n - 1))


def test_gbm_positive_and_starts_at_r0():
    path = simulate_gbm(GBM, WEEKLY, 50, RngStream(9, 2), r0=2.5)
    assert path[0] == 2.5
    assert np.all(path > 0)


@pytest.mark.parametrize("params, delta", [
    # no drift, steps of sd 100: the walk passes 709.8 within 1000 steps
    (GbmParams(mu=5000.0, sigma=100.0), 1.0),
    # no drift, steps past the largest float
    (GbmParams(mu=5e307, sigma=1e154), 1.7e308)])
def test_simulate_gbm_rejects_a_drawn_log_path_past_the_float_range(
        params, delta):
    # before np.exp, which warned of overflow and returned inf levels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"mu = {params.mu!r}, sigma = {params.sigma!r} and delta = "
                f"{delta!r} drew a GBM log path past +-709.8, ")):
            simulate_gbm(params, delta, 1000, RngStream(1, 0))


def test_sv_variance_positive_and_mean_near_theta():
    reps = 200
    means = np.empty(reps)
    _, vbars = simulate_sv(SV, MONTHLY, 120,
                           [RngStream(21, r) for r in range(reps)])
    for r, vbar in enumerate(vbars):
        assert np.all(vbar > 0)
        means[r] = vbar.mean()
    se = means.std(ddof=1) / math.sqrt(reps)
    assert abs(means.mean() - SV.theta) < 3.0 * se


def test_sv_standardized_returns_are_standard_normal():
    # y_i / sqrt(vbar_i) ~ N(0,1) by construction of the conditional law
    y, vbar = simulate_sv(SV, MONTHLY, 250,
                          [RngStream(33, r) for r in range(40)])
    z = (y / np.sqrt(vbar)).ravel()
    assert stats.kstest(z, "norm").pvalue > 0.01


def test_sv_scheme_strong_convergence():
    # coupled refinements: coarse normals are aggregated fine normals;
    # terminal error vs the finest grid should shrink at strong order ~1;
    # the replications are the columns of one call per grid
    finest = 256
    levels = (8, 16, 32, 64)
    reps = 300
    delta = MONTHLY
    # row r of the draw is replication r's normals, as in one draw per rep
    eps_f = np.random.default_rng(1234).standard_normal((reps, finest)).T
    v0 = np.full(reps, SV.theta)
    ref = sv_inner_path(SV, v0, eps_f, delta / finest)[-1]
    errs = {}
    for m in levels:
        k = finest // m
        eps_m = eps_f.reshape(m, k, reps).sum(axis=1) / math.sqrt(k)
        vm = sv_inner_path(SV, v0, eps_m, delta / m)[-1]
        errs[m] = float(np.abs(vm - ref).sum())
    xs = np.log([delta / m for m in levels])
    ys = np.log([errs[m] / reps for m in levels])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope >= 0.8


def test_simulate_sv_of_no_streams_is_empty():
    y, vbar = simulate_sv(SV, MONTHLY, 10, [])
    assert y.shape == vbar.shape == (0, 10)
    with pytest.raises(ValueError, match="n_obs"):
        simulate_sv(SV, MONTHLY, 0, [])


# SHA-256 of the little-endian float64 bytes of each output. The CIR
# digests were recorded from the numpy-scalar loops these kernels replaced,
# so those rewrites reproduce them bit for bit; the SV digests pin the
# affine kernel, which is checked against the scalar loop within _sv_rtol
# below. The GBM digest was recorded once its levels took math.exp, and it
# holds with numpy's AVX-512 kernels on and off.
GOLDEN = {
    "sv_default": "fcf660c25e6cb131f093dd260819c246f79ceb4bf1d3c862baf5105dc8bc35ed",
    "sv_one_substep": "5bb295d62ecb19d29551e4f60279dea2ac67af7673ce7c19df1b7a22a705fef4",
    "cir": "64f6859d972b048e347180608ba1938fb89f0eead679c2723339ba13920582e3",
    "cir_r0": "1bb44e17a6c578c486179e7343d0471e42c0b91b45f9ac78588c36b9dba660cd",
    "cir_floor": "c661e1b895fc6978579fb5b28c95fee94bef821c0ab31fbaaed9bb8d27af1e06",
    "gbm": "75db35bef6003e07458ff960de4a618312b3f1e32a82c32f4a4318d1fe8cfd76",
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _sv(params, n_obs, rng):
    [y], [vbar] = simulate_sv(params, MONTHLY, n_obs, [rng])
    return _digest(y, vbar)


def test_simulators_reproduce_their_golden_bits():
    # r0 below the floor: the first step starts from the unclamped level
    tiny = simulate_cir(CirParams(0.5, 0.01, 0.09), WEEKLY, 800,
                        RngStream(3, 3), r0=1e-13)
    assert tiny[0] == POSITIVITY_FLOOR
    got = {
        "sv_default": _sv(SV, 999, RngStream(2007, 0)),
        "sv_one_substep": _sv(SvParams(3.0, 0.009, 4.0, substeps=1), 500,
                              RngStream(5, 2)),
        "cir": _digest(simulate_cir(CIR, WEEKLY, 1200, RngStream(3, 0))),
        "cir_r0": _digest(simulate_cir(CIR, WEEKLY, 1200, RngStream(3, 1),
                                       r0=0.05)),
        "cir_floor": _digest(tiny),
        "gbm": _digest(simulate_gbm(GBM, WEEKLY, 1000, RngStream(3, 2))),
    }
    assert got == GOLDEN


def _sv_rtol(params, dstar, n):
    """Relative tolerance of sv_inner_path against the scalar loop after n
    substeps of size dstar.

    With s = (2 kappa + alpha2) dstar every slope is at least (1 - s) / 2,
    so the terms of one step of the scalar loop add up to at most
    8 / (1 - s) times its result, and those of one slope to at most
    8 / (1 - s) times the slope. The loop's step rounds fewer than 16 such
    values and the slope's Horner form, with its three constants, 10, so
    per substep the loop is off by at most 128 u / (1 - s) relative and
    each slope by 80 u / (1 - s), u the unit roundoff.

    The scan computes each value as A v_s + B from the start v_s of its
    chunk. A is a product of at most m slopes, and B a sum of positive
    terms, each kappa theta dstar times a product of at most m slopes, so
    each is off by its slopes' errors plus at most 2 roundings per slope;
    the positive sum A v_s + B adds 2 more. An error carried in v_s reaches
    the value scaled by A v_s / (A v_s + B) < 1, as one in v does through a
    step of the loop. So both drift at most linearly, and after n substeps
    they differ by less than n (128 + 83) u / (1 - s) + 2 u, below
    256 n u / (1 - s). An A that underflows drops a term A v_s that is
    negligible next to B >= kappa theta dstar.
    """
    s = (2.0 * params.kappa + params.alpha2) * dstar
    return 256.0 * n * UNIT_ROUNDOFF / (1.0 - s)


def test_sv_path_is_one_inner_path_over_all_substeps():
    # vbar_i averages the variance at the m substep starts of interval i;
    # 401 observations end in a partial block of one
    params = replace(SV, substeps=7)
    gen = RngStream(5, 1).generator()
    v0 = 1.0 / float(gen.gamma(params.shape_a, 1.0 / params.rate_b))
    eps = gen.standard_normal((401, 7))
    path = sv_inner_path(params, v0, eps.ravel(), MONTHLY / 7)
    _, [vbar] = simulate_sv(params, MONTHLY, 401, [RngStream(5, 1)])
    assert np.array_equal(vbar, path[:-1].reshape(401, 7).mean(axis=1))


@settings(max_examples=60, deadline=None)
@given(substeps=st.sampled_from([1, 7, 30]), n=st.integers(1, 300),
       r=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_sv_inner_path_columns_are_the_scalar_recursion(substeps, n, r, seed):
    # the differential oracle of the lockstep kernel: every column is the
    # scalar loop on that column alone within _sv_rtol, and has the bytes
    # of the kernel run on that column alone; at 30 substeps n may end in a
    # partial chunk or fall short of one
    params = replace(SV, substeps=substeps)
    dstar = MONTHLY / substeps
    gen = np.random.default_rng(seed)
    v0 = 1.0 / gen.gamma(params.shape_a, 1.0 / params.rate_b, r)
    eps = gen.standard_normal((n, r))
    got = sv_inner_path(params, v0, eps, dstar)
    assert got.shape == (n + 1, r)
    want = np.column_stack([sv_inner_path_scalar(params, v0[j], eps[:, j],
                                                 dstar) for j in range(r)])
    assert np.all(np.abs(got - want) <= _sv_rtol(params, dstar, n) * want)
    for j in range(r):
        # a float v0 and a 1-d eps are the one-column case
        alone = sv_inner_path(params, v0[j], eps[:, j], dstar)
        assert alone.shape == (n + 1,)
        assert alone.tobytes() == got[:, j].tobytes()


@settings(max_examples=100, deadline=None)
@given(alpha2=st.floats(1e-3, 40.0), ratio=st.floats(0.51, 20.0),
       frac=st.floats(1e-6, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(alpha2=40.0, ratio=0.51, frac=1.0, seed=0)
@example(alpha2=1e-3, ratio=20.0, frac=1.0, seed=0)
def test_sv_slopes_and_path_stay_positive_up_to_the_bound(alpha2, ratio, frac,
                                                          seed):
    # dstar from 1e-6 of the bound up to it; far below, the draw of the
    # least slope lies past any normal draw
    params = SvParams(kappa=ratio * alpha2, theta=0.009, alpha2=alpha2)
    rate = 2.0 * params.kappa + alpha2
    dstar = frac * (1.0 - AFFINE_ROOM) / rate
    while not rate * dstar < 1.0 - AFFINE_ROOM:
        dstar = np.nextafter(dstar, 0.0)
    # the draw of the least slope and its neighbours, then normals
    least = -1.0 / math.sqrt(alpha2 * dstar)
    eps = np.concatenate((np.nextafter(least, [-np.inf, 0.0]), [least],
                          np.random.default_rng(seed).standard_normal(300)))
    assert np.all(_sv_slopes(params, eps, dstar) > 0.0)
    assert np.all(sv_inner_path(params, params.theta, eps, dstar) > 0.0)


@pytest.mark.parametrize("frac", [0.7, 0.9, 0.999, 1.0])
def test_sv_inner_path_survives_a_chunk_product_that_underflows(frac):
    # every draw at the least slope (1 - s) / 2 near the bound s < 1: the
    # running product of a 400-substep chunk's slopes underflows to 0, so
    # late substeps of each chunk are the image of 0 alone; 1000 substeps
    # end in a partial chunk
    params = SvParams(kappa=3.0, theta=0.009, alpha2=4.0, substeps=400)
    rate = 2.0 * params.kappa + params.alpha2
    dstar = frac * (1.0 - AFFINE_ROOM) / rate
    while not rate * dstar < 1.0 - AFFINE_ROOM:
        dstar = np.nextafter(dstar, 0.0)
    eps = np.full(1000, -1.0 / math.sqrt(params.alpha2 * dstar))
    assert np.prod(_sv_slopes(params, eps[:400], dstar)) == 0.0
    for v0 in (params.theta, 1e3):
        got = sv_inner_path(params, v0, eps, dstar)
        want = sv_inner_path_scalar(params, v0, eps, dstar)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        assert np.all(np.abs(got - want)
                      <= _sv_rtol(params, dstar, eps.size) * want)


# parameters whose step would need a floor: (2 kappa + alpha2) d = 140/84
# at 7 substeps a month
FLOOR_SV = SvParams(kappa=50.0, theta=0.009, alpha2=40.0, substeps=7)


class _Untouched:
    """A stream that fails the test if simulate_sv draws from it."""

    def generator(self):
        pytest.fail("the stream was drawn from")


@pytest.mark.parametrize("substeps", [1, 7])
def test_sv_step_that_would_need_a_floor_is_rejected(substeps):
    params = replace(FLOOR_SV, substeps=substeps)
    message = (r"^the SV step needs \(2 kappa \+ alpha2\) delta / substeps "
               r"below 1, got [0-9.]+: raise substeps$")
    with pytest.raises(ValueError, match=message):
        sv_inner_path(params, 0.009, np.zeros(10), MONTHLY / substeps)
    # before any stream is drawn from or any thread is started
    before = threading.active_count()
    with pytest.raises(ValueError, match=message):
        simulate_sv(params, MONTHLY, 10, [_Untouched()])
    assert threading.active_count() == before


@pytest.mark.parametrize("block", [1, 7, 48, 1000])
def test_sv_bytes_do_not_depend_on_the_block_size(monkeypatch, block):
    # 999 observations: partial last blocks at 7 and 48, one block at 1000
    monkeypatch.setattr(sde, "SV_BLOCK", block)
    assert _sv(SV, 999, RngStream(2007, 0)) == GOLDEN["sv_default"]
    assert (_sv(SvParams(3.0, 0.009, 4.0, substeps=1), 500, RngStream(5, 2))
            == GOLDEN["sv_one_substep"])


def test_sv_inner_path_rejects_eps_whose_columns_do_not_match_v0():
    for v0, eps in ((np.full(3, 0.009), np.zeros(5)),
                    (0.009, np.zeros((5, 3))), (0.009, 0.0)):
        with pytest.raises(ValueError, match="column"):
            sv_inner_path(SV, v0, eps, MONTHLY / 30)


@pytest.mark.parametrize("n, shapes", [
    (60, [(3, 2, 30)]), (61, [(3, 2, 30), (3, 1, 1)]), (29, [(3, 1, 29)])])
def test_sv_inner_path_runs_the_block_step_of_simulate_sv(monkeypatch, n,
                                                          shapes):
    # every whole interval in one call, then a partial last one in another,
    # with the bound checked once; the scalar-loop tests above check this
    # step through sv_inner_path
    seen, checks = [], []
    block, check = sde._sv_block, sde._check_sv_step

    def counted(params, dstar, eps, *args):
        seen.append(eps.shape)
        block(params, dstar, eps, *args)

    monkeypatch.setattr(sde, "_sv_block", counted)
    monkeypatch.setattr(sde, "_check_sv_step",
                        lambda *args: checks.append(args) or check(*args))
    eps = np.random.default_rng(n).standard_normal((n, 3))
    sv_inner_path(SV, np.full(3, SV.theta), eps, MONTHLY / 30)
    assert seen == shapes
    assert len(checks) == 1


def test_simulate_sv_checks_the_step_bound_once(monkeypatch):
    # before it draws, not again in each of its 21 blocks
    checks = []
    check = sde._check_sv_step
    monkeypatch.setattr(sde, "_check_sv_step",
                        lambda *args: checks.append(args) or check(*args))
    assert _sv(SV, 999, RngStream(2007, 0)) == GOLDEN["sv_default"]
    assert len(checks) == 1


@pytest.mark.parametrize("n", [60, 61, 7])
@pytest.mark.parametrize("cols", [None, 1, 4])
@pytest.mark.parametrize("transposed", [False, True])
def test_sv_inner_path_leaves_eps_as_it_is(n, cols, transposed):
    # _sv_block writes the path over its normals, so sv_inner_path hands it
    # a copy: an (n, 1) eps, or the transpose of a (cols, n) draw, is laid
    # out as the block step's (cols, n) already
    shape = (n,) if cols is None else (n, cols)
    gen = np.random.default_rng(n)
    eps = (gen.standard_normal(shape[::-1]).T if transposed
           else gen.standard_normal(shape))
    before = eps.copy()
    v0 = SV.theta if cols is None else np.full(cols, SV.theta)
    got = sv_inner_path(SV, v0, eps, MONTHLY / 30)
    assert got.shape == (n + 1,) + shape[1:]
    assert np.array_equal(eps, before)
