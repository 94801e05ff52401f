"""Lockstep time-domain tracks: the window estimators and the SemiProxy
selector take a 2-d array of series, one per row, and give every row the
bits of the call on that series alone, fallbacks included."""

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dynvol.harness import (DEFAULT_SEMI_GRID, StudyConfig, _new_counters,
                            _SemiSelector, _time_tracks)
from dynvol.time_domain import EsConfig, exp_smooth, moving_average
from oracles import SEGMENT, segmented_series

# windows past 128 terms, where numpy's pairwise sum splits a window
WINDOWS = st.one_of(st.integers(1, 16), st.integers(120, 140))
DECAYS = st.sampled_from([0.5, 0.9, 0.94, 0.97, 1.0])
GRIDS = st.sampled_from([DEFAULT_SEMI_GRID, (0.90, 0.96), (0.94,),
                         (0.90, 1.0), (1.0,), (0.94, 0.94)])


@st.composite
def series_rows(draw, min_len):
    """A (rows, T) array with T >= min_len: each row a list of SEGMENT
    draws repeated to length T, so zero stretches, constants and spikes
    fall at different places in different rows."""
    size = draw(st.integers(min_len, min_len + 60))
    rows = draw(st.lists(st.lists(SEGMENT, min_size=1, max_size=6),
                         min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.stack([np.resize(segmented_series(segs, seed + i), size)
                     for i, segs in enumerate(rows)])


@st.composite
def origins(draw, lo, hi):
    """A contiguous run of origins in [lo, hi], as the harness asks for
    them, or any non-empty list of them."""
    if draw(st.booleans()):
        a = draw(st.integers(lo, hi))
        return np.arange(a, draw(st.integers(a, hi)) + 1)
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=1,
                                  max_size=12)))


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=WINDOWS, lam=DECAYS, data=st.data())
def test_window_estimators_give_each_row_the_bits_of_its_series(n, lam,
                                                                data):
    ys = data.draw(series_rows(n))
    o = data.draw(origins(n, ys.shape[1]))
    t = data.draw(st.sampled_from(o.tolist()))
    cfg = EsConfig(lam, n)
    ma, es = moving_average(ys, o, n), exp_smooth(ys, o, cfg)
    assert ma.shape == es.shape == (len(ys), o.size)
    assert moving_average(ys, t, n).shape == (len(ys),)
    for r, y in enumerate(ys):
        assert _same_bits(ma[r], moving_average(y, o, n))
        assert _same_bits(es[r], exp_smooth(y, o, cfg))
        assert moving_average(ys, t, n)[r] == moving_average(y, t, n)
        assert exp_smooth(ys, t, cfg)[r] == exp_smooth(y, t, cfg)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=WINDOWS, grid=GRIDS, data=st.data())
def test_semi_selector_gives_each_row_the_bits_and_fallbacks_of_its_series(
        n, grid, data):
    ys = data.draw(series_rows(2 * n))
    o = data.draw(origins(2 * n, ys.shape[1]))
    group, per_row = _new_counters(), np.zeros(len(ys), dtype=int)
    got = _SemiSelector(ys, n, grid).value(o, group, per_row=per_row)
    assert got.shape == (len(ys), o.size)
    event(f"fallback: {group['semi_fallback'] > 0}")
    for r, y in enumerate(ys):
        alone = _new_counters()
        assert _same_bits(got[r], _SemiSelector(y, n, grid).value(o, alone))
        assert per_row[r] == alone["semi_fallback"]
    assert group["semi_fallback"] == per_row.sum()


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=WINDOWS, data=st.data())
def test_time_tracks_give_each_row_its_one_row_tracks(n, data):
    ys = data.draw(series_rows(2 * n + 1))
    first = data.draw(st.integers(2 * n, ys.shape[1] - 1))
    o = np.arange(first, ys.shape[1])
    cfg = StudyConfig(estimators=("Hist", "RiskM", "SemiProxy"),
                      es=EsConfig(0.94, n), hist_window=n)
    for r, row in enumerate(_time_tracks(ys, cfg, o)):
        [alone] = _time_tracks(ys[r:r + 1], cfg, o)
        assert row.semi_fallback == alone.semi_fallback
        for got, want in zip(row[:3], alone[:3]):
            assert _same_bits(got, want)


def test_semi_grid_decay_one_is_the_pairwise_moving_average():
    # a decay of 1.0 in semi_grid forecasts with moving_average's pairwise
    # sums, as exp_smooth at lam = 1 does; 1/n weights added in sequence, the
    # sum exp_smooth runs for lam < 1, round differently
    n = 200
    ys = np.random.default_rng(11).standard_normal((3, 3 * n)) ** 3
    o = np.arange(2 * n, 3 * n + 1)
    counters = _new_counters()
    got = _SemiSelector(ys, n, (1.0,)).value(o, counters)
    assert counters["semi_fallback"] == 0
    assert _same_bits(got, moving_average(ys, o, n))
    z2 = ys**2
    sequential = np.zeros((3, o.size))
    for k in range(n):
        sequential += z2[:, o - n + k] * (1.0 / n)
    assert not _same_bits(got, sequential)
