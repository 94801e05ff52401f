"""End-to-end acceptance checks with pinned tolerances.

Each test prints one pass/fail line with the measured quantities. The three
Monte Carlo studies run once per session (module fixtures) and their wall
times are checked against the stated budgets.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dynvol.errors import NoCoverageError, SingularDesignError
from dynvol import harness
from dynvol.harness import (BacktestDataset, run_backtest,
                            run_simulation_study, simulate_series,
                            study_preset, write_study_outputs, _fit_state,
                            _rolling)
from dynvol.integration import bayes_es
from dynvol.sde import RngStream, simulate_cir, to_returns
from dynvol.state_domain import (_epanechnikov, rule_of_thumb_bandwidth,
                                 xi_weights)
from dynvol.time_domain import (EsConfig, es_variance, es_weights, exp_smooth,
                                moving_average)
from oracles import bayes_ma, kernel_density, s1_squared, s2_squared

DEFAULT_CIR = study_preset("cir").model_params


def _intercept(x, resp, x0, h):
    return float(xi_weights(x, x0, h) @ resp)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def cir_run():
    t0 = time.perf_counter()
    res = run_simulation_study(study_preset("cir", n_reps=100))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sv_run():
    t0 = time.perf_counter()
    res = run_simulation_study(study_preset("sv", n_reps=100))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gbm_run():
    t0 = time.perf_counter()
    res = run_simulation_study(study_preset("gbm", n_reps=100,
                                            trim_upper=0.05))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def route_error_reps():
    # 300 rate paths; per path, one smoothed-window error from the final
    # window and one state-domain error at the fixed level x0 from the
    # disjoint earlier stretch
    p = DEFAULT_CIR
    delta, n_obs, n = 1.0 / 52.0, 1200, 52
    x0 = p.theta
    cfg = EsConfig(0.94, n)
    terr, serr = [], []
    h = None
    skipped = 0
    for r in range(300):
        path = simulate_cir(p, delta, n_obs, RngStream(41, r))
        y = to_returns(path, delta)
        m = y.size - n
        x = path[:m]
        if h is None:
            h = rule_of_thumb_bandwidth(x)
        try:
            s = _intercept(x, y[:m] ** 2, x0, h)
        except (NoCoverageError, SingularDesignError):
            skipped += 1
            continue
        serr.append(s - p.sigma**2 * x0)
        terr.append(exp_smooth(y, y.size, cfg) - p.sigma**2 * path[-1])
    return np.asarray(terr), np.asarray(serr), skipped


def test_criterion_01_algebraic_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 80))
        y = rng.standard_normal(n + 10) * 0.03
        t = int(rng.integers(n, n + 10))
        worst = max(worst, abs(exp_smooth(y, t, EsConfig(1.0, n))
                               - moving_average(y, t, n)))
        prior_mean = float(rng.uniform(0.001, 0.1))
        est = float(rng.uniform(0.001, 0.1))
        worst = max(worst, abs(bayes_es(est, prior_mean, 1.0, n, 2.5)
                               - bayes_ma(est, prior_mean, n, 2.5)))
    for lam, n in ((0.94, 52), (0.97, 12), (0.9, 5)):
        closed = (1.0 - lam) * (1.0 + lam**n) / ((1.0 + lam) * (1.0 - lam**n))
        for rho in (None, np.zeros(30)):
            got = es_variance(1.0, EsConfig(lam, n), rho=rho).c_t
            worst = max(worst, abs(got - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"max deviation {worst:.2e} (tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_local_linear_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    checked, attempts, worst = 0, 0, 0.0
    while checked < 200 and attempts < 2000:
        attempts += 1
        m = int(rng.integers(5, 51))
        x = rng.uniform(0.0, 2.0, size=m)
        resp = rng.standard_normal(m)
        x0 = float(rng.uniform(x.min(), x.max()))
        h = float(rng.uniform(0.15, 0.8))
        try:
            xi = xi_weights(x, x0, h)
        except (NoCoverageError, SingularDesignError):
            continue
        # independent route: solve the weighted normal equations directly
        w = _epanechnikov((x - x0) / h)
        X = np.column_stack([np.ones(m), x - x0])
        beta = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * resp))
        pred = float(xi @ resp)
        scale = max(abs(beta[0]), 1e-3)
        worst = max(worst, abs(pred - beta[0]) / scale,
                    abs(float(xi.sum()) - 1.0),
                    abs(float(xi @ (x - x0))))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 200 and worst <= 1e-10 and elapsed < 5.0
    _verdict(2, ok, f"{checked} instances, max deviation {worst:.2e} "
                    f"(tol 1e-10), {elapsed:.2f}s")
    assert checked >= 200
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_window_variance_law():
    t0 = time.perf_counter()
    lam, n, sigma2, reps = 0.94, 52, 0.01, 500
    cfg = EsConfig(lam, n)
    g = RngStream(904, 0).generator()
    ests = np.empty(reps)
    for r in range(reps):
        y = g.standard_normal(n) * math.sqrt(sigma2)
        ests[r] = exp_smooth(y, n, cfg)
    emp = ests.var(ddof=1)
    exact = es_variance(sigma2, cfg, rho=None).var_hat
    w = es_weights(lam, n)
    assert exact == pytest.approx(2.0 * sigma2**2 * float(w @ w), rel=1e-12)
    asym = s1_squared(sigma2, n * (1.0 - lam)) / n
    z = (ests - sigma2) / math.sqrt(exact)
    pval = stats.kstest(z, "norm").pvalue
    elapsed = time.perf_counter() - t0
    r_exact, r_asym = emp / exact, emp / asym
    ok = (abs(r_exact - 1.0) <= 0.15 and abs(r_asym - 1.0) <= 0.15
          and pval > 0.01 and elapsed < 10.0)
    _verdict(3, ok, f"var ratio {r_exact:.3f} (exact) / {r_asym:.3f} "
                    f"(asymptotic), KS p {pval:.3f}, {elapsed:.2f}s")
    assert abs(r_exact - 1.0) <= 0.15
    assert abs(r_asym - 1.0) <= 0.15
    assert pval > 0.01
    assert elapsed < 10.0


def test_criterion_04_state_variance_law():
    # stationary regression form of the rate model: level from the
    # stationary law, response from the conditional law; the variance
    # function is linear so the local-linear fit carries no leading bias
    t0 = time.perf_counter()
    p = DEFAULT_CIR
    x0 = p.theta
    sigma2_x0 = p.sigma**2 * x0
    shape = 2.0 * p.kappa * p.theta / p.sigma**2
    scale = p.sigma**2 / (2.0 * p.kappa)
    m, reps = 1147, 300
    g = RngStream(52, 0).generator()
    ests = np.empty(reps)
    pooled = []
    h = None
    for r in range(reps):
        x = g.gamma(shape, scale, size=m)
        y = g.standard_normal(m) * np.sqrt(p.sigma**2 * x)
        if h is None:
            h = rule_of_thumb_bandwidth(x)
        pooled.append(x)
        ests[r] = _intercept(x, y * y, x0, h)
    dens = kernel_density(np.concatenate(pooled), x0)
    s2 = s2_squared(sigma2_x0, dens)
    ratio = m * h * ests.var(ddof=1) / s2
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - 1.0) <= 0.25 and elapsed < 120.0
    _verdict(4, ok, f"scaled variance / s2^2 = {ratio:.3f} (tol 25%), "
                    f"density {dens:.2f}, {elapsed:.1f}s")
    assert abs(ratio - 1.0) <= 0.25
    assert elapsed < 120.0


def test_criterion_05_error_independence(route_error_reps):
    terr, serr, skipped = route_error_reps
    corr = float(np.corrcoef(terr, serr)[0, 1])
    ok = abs(corr) < 0.15 and terr.size >= 280
    _verdict(5, ok, f"corr(time error, state error) = {corr:+.4f} "
                    f"over {terr.size} replications ({skipped} skipped)")
    assert terr.size >= 280
    assert abs(corr) < 0.15


def test_criterion_06_rate_study_ordering(cir_run):
    res, elapsed = cir_run
    ests = res.cfg.estimators
    imade = {e: res.report.get(e, "imade", "mean") for e in ests}
    hist_rel = res.report.get("Hist", "imade", "rel_loss")
    er = res.report.get("Integ", "er", "mean")
    band = 2.0 * math.sqrt(0.05 * 0.95 / 300.0)
    integ_best = all(imade["Integ"] < imade[e] for e in ests if e != "Integ")
    ok = (integ_best and hist_rel >= 0.50 and abs(er - 0.05) <= band
          and elapsed < 600.0)
    _verdict(6, ok, f"Integ IMADE {imade['Integ']:.3e} lowest={integ_best}, "
                    f"Hist rel loss {100 * hist_rel:.1f}% (floor 50%), "
                    f"Integ ER {er:.4f} (band +/-{band:.4f}), {elapsed:.0f}s")
    assert integ_best
    assert hist_rel >= 0.50
    assert abs(er - 0.05) <= band
    assert elapsed < 600.0


def test_criterion_07_sv_study_ordering(sv_run):
    res, elapsed = sv_run
    ests = res.cfg.estimators
    others = [e for e in ests if e != "Integ"]
    best_both = all(
        res.report.get("Integ", meas, "mean") < res.report.get(e, meas, "mean")
        for meas in ("imade", "made") for e in others)
    rel_pos = all(res.report.get(e, meas, "rel_loss") > 0.0
                  for meas in ("imade", "made") for e in others)
    min_rel = min(res.report.get(e, "imade", "rel_loss") for e in others)
    ok = best_both and rel_pos and elapsed < 600.0
    _verdict(7, ok, f"Integ lowest IMADE and MADE={best_both}, all rel losses "
                    f"positive={rel_pos} (tightest {100 * min_rel:.2f}%), "
                    f"{elapsed:.0f}s")
    assert best_both
    assert rel_pos
    assert elapsed < 600.0


def test_criterion_08_gbm_trimmed_robustness(gbm_run):
    res, elapsed = gbm_run
    ests = res.cfg.estimators
    tim = {e: res.report.get(e, "imade", "trimmed_mean") for e in ests}
    tmade = {e: res.report.get(e, "made", "trimmed_mean") for e in ests}
    two_best = set(sorted(tim, key=tim.get)[:2])
    made_best = min(tmade, key=tmade.get)
    gap = abs(tim["NonBay"] - tim["Integ"])
    ok = two_best == {"NonBay", "Integ"} and made_best == "Integ" \
        and elapsed < 600.0
    _verdict(8, ok, f"two lowest trimmed IMADE {sorted(two_best)} "
                    f"(NonBay-Integ gap {gap:.2e}), lowest trimmed MADE "
                    f"{made_best}, {elapsed:.0f}s")
    assert two_best == {"NonBay", "Integ"}
    assert made_best == "Integ"
    assert elapsed < 600.0


def test_criterion_09_no_lookahead_bytes():
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=1,
                       seed=77)
    sim = simulate_series(cfg, [0])
    first = cfg.in_sample_len - 1
    m = cfg.series_len - cfg.in_sample_len
    base, _ = _rolling(sim.levels[0], sim.y[0], cfg, first, m)
    ok = True
    for k in (first + 1, first + 14, first + 33):
        levels = sim.levels[0].copy()
        levels[k] *= 1.02  # perturb one future observation
        y = np.diff(levels) / math.sqrt(cfg.delta)
        pert, _ = _rolling(levels, y, cfg, first, m)
        cut = k - first  # origins strictly before the touched level
        for e in cfg.estimators:
            ok = ok and (base[e][:cut].tobytes() == pert[e][:cut].tobytes())
            ok = ok and not np.array_equal(base[e][cut:], pert[e][cut:])
    _verdict(9, ok, "prior forecasts byte-identical under three future "
                    "single-point perturbations, all five estimators")
    assert ok


def _prior_forecasts_unmoved(levels, delta, cfg, first, run):
    """Perturb single future levels; forecasts at origins before the touched
    level must keep their bytes, and later ones must move."""
    y = np.diff(levels) / math.sqrt(delta)
    base = run(levels, y)
    bump = 0.5 * float(np.std(y)) * math.sqrt(delta)
    ok = True
    for k in (first + 1, first + 14, first + 33):
        pert_levels = levels.copy()
        pert_levels[k] += bump
        pert = run(pert_levels, np.diff(pert_levels) / math.sqrt(delta))
        cut = k - first
        for e in cfg.estimators:
            ok = ok and base[e][:cut].tobytes() == pert[e][:cut].tobytes()
            ok = ok and not np.array_equal(base[e][cut:], pert[e][cut:])
    return ok


@pytest.mark.parametrize("model", ["sv", "gbm"])
def test_no_lookahead_bytes_other_models(model):
    cfg = study_preset(model, series_len=300, in_sample_len=260, n_reps=1,
                       seed=77)
    sim = simulate_series(cfg, [0])
    first = cfg.in_sample_len - 1
    m = cfg.series_len - cfg.in_sample_len

    def run(levels, y):
        return _rolling(levels, y, cfg, first, m)[0]

    assert _prior_forecasts_unmoved(sim.levels[0], cfg.delta, cfg, first, run)


def test_no_lookahead_bytes_backtest(monkeypatch):
    cfg = study_preset("cir", er_window=60)
    path = simulate_cir(DEFAULT_CIR, 1.0 / 52.0, 400, RngStream(78, 0))
    split = 300
    first = split - 1 - cfg.er_window
    captured = []

    def capture(*args):
        tracks, counters = _rolling(*args)
        captured.append(tracks)
        return tracks, counters

    monkeypatch.setattr(harness, "_rolling", capture)

    def run(levels, y):
        data = BacktestDataset("bt", levels, None, 1.0 / 52.0, split,
                               return_mode="diff")
        run_backtest(data, cfg)
        return captured.pop()

    assert _prior_forecasts_unmoved(path, 1.0 / 52.0, cfg, first, run)


def test_state_fit_reads_only_the_pairs_history():
    cfg = study_preset("cir", series_len=300, in_sample_len=260, n_reps=1,
                       seed=77)
    sim = simulate_series(cfg, [0])
    origin = 270
    keep = origin - cfg.es.n
    counters = {"drift_fallback": 0}
    fit = _fit_state(sim.levels[0], sim.y[0], origin, cfg, None, counters)
    levels, y = sim.levels[0].copy(), sim.y[0].copy()
    levels[keep:] = np.nan
    y[keep:] = np.nan
    again = _fit_state(levels, y, origin, cfg, None, counters)

    def floor(fit):  # the state estimate's floor, as _eval_state takes it
        return 1e-12 * float(np.var(fit.pairs.resid2))

    for a, b in ((fit.pairs.x, again.pairs.x),
                 (fit.pairs.resid2, again.pairs.resid2),
                 (np.array([fit.pairs.h, fit.h, floor(fit)]),
                  np.array([again.pairs.h, again.h, floor(again)]))):
        assert a.tobytes() == b.tobytes()


def test_criterion_10_byte_determinism(tmp_path):
    cfg = study_preset("cir", series_len=400, in_sample_len=340, n_reps=3,
                       seed=202)
    a, b = tmp_path / "a", tmp_path / "b"
    write_study_outputs(run_simulation_study(cfg), a)
    write_study_outputs(run_simulation_study(cfg), b)
    same = all((a / f).read_bytes() == (b / f).read_bytes()
               for f in ("report.csv", "per_rep.csv"))
    _verdict(10, same, "report.csv and per_rep.csv byte-identical across "
                       "two runs of one config")
    assert same
