"""Output check for one op's `report.csv` and `per_rep.csv`.

Two checks, each returning a list of problems (empty when the op passes):

- `compare_reference`: every cell against committed reference values for the
  same workload and seed. Numbers agree within `RTOL` relative (plus `ATOL`
  absolute, for zeros); everything else must match exactly. Byte identity
  is reported separately and is not required.
- `check_consistency`: cheap checks that hold at any seed. The report has
  the expected shape and no failed replications, and every measure is
  finite and in range. The values themselves are checked only against the
  reference, on the run's check op; every other op of the run must write
  the same bytes as the first op of its seed (`perfbench/worker.py`).

RTOL admits the ~1e-11 absolute (5e-8 relative on near-zero intercepts)
deviation of a prefix-sum local-linear engine, which moves the measures by
far less than 1e-6, and rejects a forecast track perturbed by 1e-4.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

FILES = ("report.csv", "per_rep.csv")
RTOL = 1e-6
ATOL = 1e-15

MEASURES = ("imade", "made", "pe", "rade", "er")


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare_reference(outdir, refdir) -> tuple[list[str], bool]:
    """(problems, byte_identical) of an op's outputs against a reference."""
    problems = []
    identical = True
    for name in FILES:
        out, ref = Path(outdir) / name, Path(refdir) / name
        if not out.is_file():
            problems.append(f"{name}: missing")
            identical = False
            continue
        identical &= out.read_bytes() == ref.read_bytes()
        got, want = _rows(out), _rows(ref)
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} rows, reference has "
                            f"{len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want), start=1):
            if len(g) != len(w):
                problems.append(f"{name} row {i}: {g} vs reference {w}")
                continue
            for gc, wc in zip(g, w):
                gn, wn = _num(gc), _num(wc)
                ok = (gc == wc if gn is None or wn is None
                      else _close(gn, wn))
                if not ok:
                    problems.append(f"{name} row {i}: {gc} vs reference {wc}")
    return problems, identical


def _report_meta(rows) -> dict:
    return {stat: value for _, meas, stat, value in rows[1:] if meas == "meta"}


def check_consistency(outdir, estimators, n_reps: int) -> list[str]:
    """Problems found in one op's outputs without any reference."""
    outdir = Path(outdir)
    for name in FILES:
        if not (outdir / name).is_file():
            return [f"{name}: missing"]
    meta = _report_meta(_rows(outdir / "report.csv"))
    per_rep = _rows(outdir / "per_rep.csv")
    problems = []
    reps = max(n_reps, 1)
    if meta.get("n_reps") != str(reps) or meta.get("failed_reps") != "0":
        problems.append(f"report meta {meta}, expected {reps} reps, 0 failed")
    header, body = per_rep[0], per_rep[1:]
    expected = [(str(r), e) for r in range(reps) for e in estimators]
    if [(row[0], row[1]) for row in body] != expected:
        return problems + ["per_rep.csv rows are not reps x estimators"]
    for meas in MEASURES:
        col = header.index(meas)
        cells = [row[col] for row in body]
        if all(c == "" for c in cells):
            continue  # imade of a backtest: the true variance is unknown
        values = [float(c) for c in cells]
        if not all(math.isfinite(v) and v >= 0 for v in values):
            problems.append(f"{meas}: non-finite or negative values")
        elif meas == "er" and max(values) > 1:
            problems.append("er above 1")
    return problems
