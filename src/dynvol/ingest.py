"""Backtest input, checked before the run: a CSV of levels and its split."""

from __future__ import annotations

import codecs
import csv
import datetime as _dt
import io
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, check_finite

FREQUENCY_DELTA = {"daily": 1.0 / 252.0, "weekly": 1.0 / 52.0,
                   "monthly": 1.0 / 12.0}
RETURN_MODES = ("log", "diff")


@dataclass(frozen=True)
class BacktestDataset:
    """Ingested level series with a declared in-sample split. levels, the
    state series whose differences are the returns, is log(values) in log
    mode, which needs every level positive, and a copy of values in diff
    mode."""

    name: str
    values: np.ndarray
    dates: tuple[str, ...] | None
    delta: float
    in_sample_end: int
    frequency: str = "weekly"
    return_mode: str = "log"
    filled_rows: tuple[int, ...] = ()
    levels: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("values must be a 1-d array of levels")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"values must be finite; values[{bad[0]}] is "
                             f"{self.values[bad[0]]}")
        if self.return_mode not in RETURN_MODES:
            raise ValueError(f"return_mode must be one of {RETURN_MODES}")
        if not 2 <= self.in_sample_end < self.values.size:
            raise ValueError("in_sample_end must split the series")
        check_finite(self, "delta", positive=True)
        if self.return_mode == "log":
            if np.any(self.values <= 0):
                raise IngestionError("log returns need strictly positive levels")
            # math.log per level: numpy's log kernel is picked by CPU and
            # rounds some levels one ulp apart under AVX-512
            levels = np.fromiter(map(math.log, self.values.tolist()), float)
        else:
            levels = self.values.copy()
        object.__setattr__(self, "levels", levels)


def ingest_csv(path, frequency: str = "weekly",
               in_sample_end: int | str | None = None, return_mode: str = "log",
               forward_fill: bool = False) -> BacktestDataset:
    """Read a UTF-8 `date,value` CSV (ISO dates, strictly increasing); a
    leading byte order mark, as spreadsheets write, is skipped.

    Empty or unparsable values are rejected with their row numbers unless
    forward_fill is set, in which case they take the previous value and the
    rows are recorded on the dataset. Infinite values are always rejected
    with their row numbers. A byte that is not UTF-8 is rejected with its
    row number. in_sample_end is a row count (an int or digits; a float is
    rejected) or an ISO date to split after, leaving 2 to all but one row
    in sample; by default two thirds. delta is the frequency's."""
    if frequency not in FREQUENCY_DELTA:
        raise IngestionError(f"unknown frequency {frequency!r}")
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end in \n, \r\n or \r, as the csv reader splits them
        head = raw[:exc.start]
        row = (head.count(b"\n") + head.count(b"\r")
               - head.count(b"\r\n") + 1)
        raise IngestionError(f"row {row} is not UTF-8: byte "
                             f"0x{raw[exc.start]:02x}") from None
    rowiter = list(csv.reader(io.StringIO(text, newline="")))
    if not rowiter or [c.strip().lower() for c in rowiter[0][:2]] != ["date", "value"]:
        raise IngestionError("expected header 'date,value'")
    dates: list[_dt.date] = []
    values: list[float] = []
    bad_rows: list[int] = []
    filled: list[int] = []
    order_bad: list[int] = []
    infinite: list[int] = []
    for num, row in enumerate(rowiter[1:], start=2):
        try:
            d, cell = _dt.date.fromisoformat(row[0].strip()), row[1].strip()
        except (IndexError, ValueError):
            bad_rows.append(num)
            continue
        try:
            v = float(cell)
        except ValueError:
            v = math.nan
        if math.isinf(v):
            infinite.append(num)
        elif math.isnan(v):
            if forward_fill and values:
                v = values[-1]
                filled.append(num)
            else:
                bad_rows.append(num)
                continue
        if dates and d <= dates[-1]:
            order_bad.append(num)
        dates.append(d)
        values.append(v)
    for message, rows in (("invalid rows", bad_rows),
                          ("non-finite values at rows", infinite),
                          ("dates not strictly increasing at rows",
                           order_bad)):
        if rows:
            raise IngestionError(f"{message}: {_row_list(rows)}")
    if len(values) < 3:
        raise IngestionError("need at least 3 observations")
    if in_sample_end is None:
        split = int(round(len(values) * 2 / 3))
    elif isinstance(in_sample_end, str) and in_sample_end.isdecimal():
        split = int(in_sample_end)
    else:
        try:
            if isinstance(in_sample_end, str):
                cutoff = _dt.date.fromisoformat(in_sample_end)
                split = sum(1 for d in dates if d <= cutoff)
            else:
                split = operator.index(in_sample_end)
        except (TypeError, ValueError):
            raise IngestionError(f"in_sample_end {in_sample_end!r} is neither "
                                 "a row count nor an ISO date") from None
    if not 2 <= split < len(values):
        raise IngestionError(f"in_sample_end {in_sample_end} leaves {split} "
                             f"of {len(values)} rows in sample; it must "
                             f"leave 2 to {len(values) - 1}")
    return BacktestDataset(
        name=os.path.splitext(os.path.basename(str(path)))[0],
        values=np.asarray(values), dates=tuple(d.isoformat() for d in dates),
        delta=FREQUENCY_DELTA[frequency], in_sample_end=split,
        frequency=frequency, return_mode=return_mode,
        filled_rows=tuple(filled))


def _row_list(rows: list[int]) -> str:
    """Row numbers for an error message; past ten, the first ten and the
    total count."""
    if len(rows) <= 10:
        return str(rows)
    head = ", ".join(str(r) for r in rows[:10])
    return f"[{head}, ...] ({len(rows)} rows)"
