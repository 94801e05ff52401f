"""Forecast quality measures, empirical quantiles, report assembly."""

import numpy as np
import pytest
from scipy.stats import norm

from dynvol.evaluation import (build_report, empirical_quantile,
                               exceedance_ratio, imade, made, pe, rade,
                               relative_loss, report_to_csv, report_to_text,
                               score, trimmed_mean)

Z_05 = float(norm.ppf(0.05))


def test_exceedance_ratio_hand_value():
    y = np.array([-1.0, 1.0])
    # sigma 0 makes the threshold 0: only the negative return is below it
    track = np.zeros(2)
    assert exceedance_ratio(y, track, Z_05) == pytest.approx(0.5, abs=1e-15)


def test_exceedance_ratio_counts_lower_tail():
    rng = np.random.default_rng(6)
    y = rng.standard_normal(200_000)
    track = np.ones_like(y)
    er = exceedance_ratio(y, track, Z_05)
    assert er == pytest.approx(0.05, abs=0.005)


def test_made_pe_rade_imade_hand_values():
    track = np.array([2.0, 2.0])
    y = np.array([1.0, 2.0])  # y^2 = [1, 4]
    assert made(y, track) == pytest.approx(1.5, abs=1e-15)
    assert pe(y, track) == pytest.approx(2.5, abs=1e-15)
    # |y| straddles sqrt(2/pi)*sqrt(2), so the deviations telescope to 1/2
    assert rade(y, track) == pytest.approx(0.5, rel=1e-13)
    true = np.array([1.5, 1.5])
    assert imade(true, track) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        imade(None, track)


def test_measure_length_contract():
    track = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        made(np.array([1.0]), track)
    with pytest.raises(ValueError):
        imade(np.array([1.0, 1.0, 1.0]), track)


def test_score_counts_strict_wins():
    per_rep = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
    s = score(per_rep)
    assert np.allclose(s, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # ties with the row mean do not count
    tied = np.array([[1.0, 1.0]])
    assert np.allclose(score(tied), [0.0, 0.0], atol=1e-15)


def test_relative_loss_hand_value():
    rl = relative_loss(np.array([0.2, 0.1]), ref_index=1)
    assert rl[0] == pytest.approx(1.0, abs=1e-13)
    assert rl[1] == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError):
        relative_loss(np.array([0.1, 0.0]), ref_index=1)


def test_trimmed_mean_drops_largest():
    x = np.arange(1.0, 101.0)
    # 5% of 100 -> drop the 5 largest, mean of 1..95 = 48
    assert trimmed_mean(x, 0.05) == pytest.approx(48.0, abs=1e-12)
    assert trimmed_mean(x, 0.0) == pytest.approx(50.5, abs=1e-12)
    # never drops everything
    assert trimmed_mean(np.array([3.0]), 0.99) == 3.0


def test_empirical_quantile_order_statistic():
    rng = np.random.default_rng(1)
    resid = rng.permutation(np.arange(1.0, 251.0))
    # ceil(0.05*250) = 13th smallest
    assert empirical_quantile(resid, 0.05, 250) == 13.0
    with pytest.raises(ValueError):
        empirical_quantile(resid[:100], 0.05, 250)


def _tiny_report():
    per_rep = {
        "imade": np.array([[2.0, 1.0], [4.0, 1.0], [3.0, 2.0]]),
        "made": np.array([[1.0, 1.0], [1.0, 3.0], [2.0, 1.0]]),
        "er": np.array([[0.05, 0.06], [0.04, 0.05], [0.05, 0.04]]),
    }
    return build_report(per_rep, ("Hist", "Integ"), "Integ", trim_upper=0.0)


def test_build_report_stats():
    rep = _tiny_report()
    assert rep.n_reps == 3
    assert rep.get("Hist", "imade", "mean") == pytest.approx(3.0, abs=1e-14)
    assert rep.get("Integ", "imade", "mean") == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert rep.get("Hist", "imade", "std") == pytest.approx(1.0, abs=1e-13)
    # score: Integ beats the row mean in all three replications
    assert rep.get("Integ", "imade", "score") == pytest.approx(1.0, abs=1e-14)
    assert rep.get("Hist", "imade", "score") == pytest.approx(0.0, abs=1e-14)
    # relative loss of Hist vs Integ: 3/(4/3) - 1 = 1.25
    assert rep.get("Hist", "imade", "rel_loss") == pytest.approx(1.25, rel=1e-13)
    assert rep.get("Integ", "imade", "rel_loss") == pytest.approx(0.0, abs=1e-14)
    # er carries no score/rel_loss; its target is closeness to alpha
    assert "score" not in rep.stats["Hist"]["er"]
    assert rep.get("Hist", "er", "mean") == pytest.approx(0.14 / 3.0, rel=1e-12)


def test_build_report_with_trimming():
    per_rep = {"imade": np.column_stack([np.arange(1.0, 101.0),
                                         np.full(100, 30.0)])}
    rep = build_report(per_rep, ("A", "B"), "B", trim_upper=0.05)
    assert rep.get("A", "imade", "trimmed_mean") == pytest.approx(48.0, abs=1e-12)
    assert rep.get("B", "imade", "trimmed_mean") == pytest.approx(30.0, abs=1e-12)
    assert rep.get("A", "imade", "trimmed_rel_loss") == pytest.approx(
        48.0 / 30.0 - 1.0, rel=1e-13)


def test_report_csv_layout_and_values(tmp_path):
    rep = _tiny_report()
    report_to_csv(rep, tmp_path / "report.csv")
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "estimator,measure,statistic,value"
    rows = {tuple(l.split(",")[:3]): l.split(",")[3] for l in lines[1:]}
    assert float(rows[("Hist", "imade", "mean")]) == 3.0
    assert rows[("ALL", "meta", "n_reps")] == "3"
    assert rows[("ALL", "meta", "reference")] == "Integ"
    # full-precision round trip of an irrational mean
    assert float(rows[("Integ", "imade", "mean")]) == rep.get(
        "Integ", "imade", "mean")


def test_report_text_mentions_all_estimators():
    out = report_to_text(_tiny_report())
    assert "Hist" in out and "Integ" in out
    assert "IMADE" in out
    assert "Score" in out
