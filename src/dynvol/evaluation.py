"""Forecast evaluation: tail-risk calibration and accuracy measures.

All measures take an out-of-sample stretch of one-step-ahead variance
forecasts as an array. Exceedance compares raw returns against a scaled
lower quantile, which the caller supplies: studies pass the normal
quantile, backtests each estimator's empirical residual quantile
(`empirical_quantile`). The absolute/squared deviation measures compare
squared returns (or the true variance, when known) against the forecasts.

A measure called on 1-d stretches returns a float. Called on arrays, whose
shapes broadcast, it returns one value per row, reduced along the last
axis, which holds the steps: a harness scores a replications x estimators
x steps block in one call per measure, the returns replications x 1 x
steps and the exceedance quantile, one per estimator, estimators x 1. When
the forecasts are C-contiguous, each row has the bits of the 1-d call on
that row; an elementwise result keeps its inputs' layout, and a mean over
strided rows sums in another order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def empirical_quantile(residuals: np.ndarray, alpha: float, window: int) -> float:
    """Order statistic x_(ceil(alpha*window)) of the last `window` residuals."""
    r = np.asarray(residuals, dtype=float)
    if r.size < window:
        raise ValueError(f"need at least {window} residuals, have {r.size}")
    tail = np.sort(r[-window:])
    idx = max(int(math.ceil(alpha * window)) - 1, 0)
    return float(tail[idx])


def _check_lengths(returns_out: np.ndarray, sigma2: np.ndarray):
    r = np.asarray(returns_out, dtype=float)
    s = np.asarray(sigma2, dtype=float)
    if r.shape[-1:] != s.shape[-1:]:
        raise ValueError("forecasts and values must have equal length")
    if s.size == 0:
        raise ValueError("empty evaluation stretch")
    return r, s


def _mean(x: np.ndarray) -> float | np.ndarray:
    """The mean along the last axis: a float for 1-d x, else an array."""
    m = np.mean(x, axis=-1)
    return float(m) if m.ndim == 0 else m


def exceedance_ratio(returns_out: np.ndarray, sigma2: np.ndarray,
                     quantile: float | np.ndarray) -> float | np.ndarray:
    """Fraction of steps where the raw return fell below quantile * sigma_hat."""
    r, s = _check_lengths(returns_out, sigma2)
    return _mean(r < quantile * np.sqrt(s))


def made(returns_out: np.ndarray, sigma2: np.ndarray) -> float | np.ndarray:
    """Mean absolute deviation of squared returns from the forecasts."""
    r, s = _check_lengths(returns_out, sigma2)
    return _mean(np.abs(r * r - s))


def pe(returns_out: np.ndarray, sigma2: np.ndarray) -> float | np.ndarray:
    """Mean squared deviation of squared returns from the forecasts."""
    r, s = _check_lengths(returns_out, sigma2)
    return _mean((r * r - s) ** 2)


def rade(returns_out: np.ndarray, sigma2: np.ndarray) -> float | np.ndarray:
    """Mean absolute deviation of |return| from its forecast mean
    sqrt(2/pi) * sigma_hat."""
    r, s = _check_lengths(returns_out, sigma2)
    return _mean(np.abs(np.abs(r) - ROOT_2_OVER_PI * np.sqrt(s)))


def imade(true_sigma2: np.ndarray | None, sigma2: np.ndarray
          ) -> float | np.ndarray:
    """Mean absolute deviation of forecasts from the true variance.

    Only defined when the true variance is known (simulated data); passing
    None is an error, not a silent NaN.
    """
    if true_sigma2 is None:
        raise ValueError("true variance unavailable (real-data mode)")
    t, s = _check_lengths(true_sigma2, sigma2)
    return _mean(np.abs(s - t))


def score(measure_matrix: np.ndarray) -> np.ndarray:
    """Fraction of replications where each estimator beat the cross-estimator
    mean (strict inequality; ties lose). Matrix is replications x estimators."""
    m = np.asarray(measure_matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("need a nonempty 2-d matrix")
    rowmean = m.mean(axis=1, keepdims=True)
    return (m < rowmean).mean(axis=0)


def relative_loss(means: np.ndarray, ref_index: int) -> np.ndarray:
    """(mean_k - mean_ref)/mean_ref for every estimator k."""
    m = np.asarray(means, dtype=float)
    if not 0 <= ref_index < m.size:
        raise ValueError("ref_index out of range")
    ref = m[ref_index]
    if not ref > 0:
        raise ValueError("reference mean must be positive")
    return (m - ref) / ref


def trimmed_mean(xs: np.ndarray, trim_upper: float) -> float:
    """Mean after discarding the largest trim_upper fraction of the values."""
    v = np.asarray(xs, dtype=float)
    if v.size == 0:
        raise ValueError("empty input")
    if not (0.0 <= trim_upper < 1.0):
        raise ValueError("trim_upper must lie in [0, 1)")
    k = int(math.floor(trim_upper * v.size + 1e-9))
    keep = max(v.size - k, 1)
    return float(np.mean(np.sort(v)[:keep]))


# ---------------------------------------------------------------------------
# aggregation into a report

MEASURES = ("imade", "made", "rade", "er")
SCORED = ("imade", "made", "rade")


@dataclass
class MeasureReport:
    """Aggregated measure statistics per estimator.

    stats[estimator][measure][statistic] with statistics among
    score / mean / std / rel_loss (plus trimmed_mean / trimmed_rel_loss when
    an upper trim fraction is configured). Relative losses are against the
    reference estimator `ref`.
    """

    estimators: tuple[str, ...]
    ref: str
    n_reps: int
    stats: dict = field(default_factory=dict)
    excluded_steps: int = 0
    failed_reps: int = 0

    def get(self, estimator: str, measure: str, statistic: str) -> float:
        return self.stats[estimator][measure][statistic]


def build_report(per_rep: dict[str, np.ndarray], estimators: tuple[str, ...],
                 ref: str, trim_upper: float = 0.0, excluded_steps: int = 0,
                 failed_reps: int = 0) -> MeasureReport:
    """Aggregate per-replication measures (measure -> reps x estimators).

    Scores and relative losses are computed for the accuracy measures but not
    for the exceedance ratio, whose target is closeness to alpha.
    """
    if ref not in estimators:
        raise ValueError(f"reference {ref!r} not among estimators")
    ref_i = estimators.index(ref)
    n_reps = 0
    stats = {est: {} for est in estimators}
    for meas, mat in per_rep.items():
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != len(estimators):
            raise ValueError(f"matrix for {meas} must be reps x estimators")
        n_reps = mat.shape[0]
        cols = {"mean": mat.mean(axis=0),
                "std": (mat.std(axis=0, ddof=1) if n_reps > 1
                        else np.zeros(len(estimators)))}
        if trim_upper > 0.0:
            cols["trimmed_mean"] = np.array([trimmed_mean(col, trim_upper)
                                             for col in mat.T])
        if meas in SCORED:
            cols["score"] = score(mat)
            cols["rel_loss"] = relative_loss(cols["mean"], ref_i)
            if trim_upper > 0.0:
                cols["trimmed_rel_loss"] = relative_loss(cols["trimmed_mean"],
                                                         ref_i)
        for j, est in enumerate(estimators):
            stats[est][meas] = {k: float(v[j]) for k, v in cols.items()}
    return MeasureReport(tuple(estimators), ref, n_reps, stats,
                         excluded_steps, failed_reps)


_STAT_ORDER = ("score", "mean", "std", "rel_loss", "trimmed_mean",
               "trimmed_rel_loss")


def report_to_csv(report: MeasureReport, path) -> None:
    """Write rows `estimator,measure,statistic,value` (full precision)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimator", "measure", "statistic", "value"])
        w.writerow(["ALL", "meta", "n_reps", report.n_reps])
        w.writerow(["ALL", "meta", "failed_reps", report.failed_reps])
        w.writerow(["ALL", "meta", "excluded_steps", report.excluded_steps])
        w.writerow(["ALL", "meta", "reference", report.ref])
        for est in report.estimators:
            for meas in MEASURES:
                if meas not in report.stats[est]:
                    continue
                d = report.stats[est][meas]
                for stat in _STAT_ORDER:
                    if stat in d:
                        w.writerow([est, meas, stat, repr(d[stat])])


_ROW_LABELS = {"score": "Score (%)", "mean": "Ave", "std": "Std",
               "rel_loss": "Rel loss (%)", "trimmed_mean": "Trimmed ave",
               "trimmed_rel_loss": "Trimmed rel loss (%)"}


def report_to_text(report: MeasureReport) -> str:
    """Aligned plain-text table: one block per measure, estimators as columns."""
    ests = report.estimators
    width = max(12, max(len(e) for e in ests) + 2)
    lines = [f"Replications: {report.n_reps}   reference: {report.ref}   "
             f"failed reps: {report.failed_reps}   excluded steps: "
             f"{report.excluded_steps}"]
    for meas in MEASURES:
        if not any(meas in report.stats[e] for e in ests):
            continue
        lines.append("")
        lines.append(meas.upper())
        lines.append(" " * 22 + "".join(e.rjust(width) for e in ests))
        stats_present = [s for s in _STAT_ORDER
                         if any(s in report.stats[e].get(meas, {}) for e in ests)]
        for stat in stats_present:
            cells = []
            for e in ests:
                v = report.stats[e].get(meas, {}).get(stat)
                if v is None:
                    cells.append("".rjust(width))
                elif stat in ("score", "rel_loss", "trimmed_rel_loss"):
                    cells.append(f"{100.0 * v:.2f}".rjust(width))
                else:
                    cells.append(f"{v:.4e}".rjust(width))
            lines.append(_ROW_LABELS[stat].ljust(22) + "".join(cells))
    return "\n".join(lines) + "\n"
