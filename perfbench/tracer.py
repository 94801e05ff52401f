"""Outside-in tracing of dynvol's layers.

The tracer replaces names that `dynvol.harness` and `dynvol.cli` look up at
call time with wrappers that record a span per call: name, start, end,
parent span and op id. Spans stay in memory until the run ends. Nothing
inside `src/` is changed; every wrapped name is put back on exit, and a
name that does not exist at the commit under test is listed as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# field order of a span record
NAME, START, END, PARENT, OP = range(5)

ROOT_SPAN = "bench.op"


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _counters_snapshot(pos):
    """`before` hook: copy of the `counters` dict argument at position pos."""
    return lambda args, kwargs: dict(_arg(args, kwargs, pos, "counters"))


def _counters_growth(pos, keys: dict):
    """`after` hook: growth of entries of the `counters` argument, each added
    to the count named by `keys`."""
    def after(counts, snap, args, kwargs, result):
        now = _arg(args, kwargs, pos, "counters")
        for name, key in keys.items():
            counts[key] += now[name] - snap[name]
    return after


def _count_cv(counts, snap, args, kwargs, result):
    counts["state_domain.cv.pairs"] += len(_arg(args, kwargs, 0, "x"))


_refit_growth = _counters_growth(
    6, {"drift_fallback": "state_domain.refit.drift_fallback"})


def _count_refit(counts, snap, args, kwargs, result):
    _refit_growth(counts, snap, args, kwargs, result)
    if result is not None:
        counts["state_domain.refit.pairs"] += result.pairs.count


def _count_var(counts, snap, args, kwargs, result):
    counts["time_domain.var.clamped"] += bool(result.clamped)


def _count_loop(counts, snap, args, kwargs, result):
    counts["harness.loop.steps"] += _arg(args, kwargs, 4, "n_steps")
    counts["harness.loop.nan_steps"] += result[1]["nan_steps"]


def _count_write(counts, snap, args, kwargs, result):
    outdir = _arg(args, kwargs, 1, "outdir")
    counts["harness.write.bytes"] += sum(
        e.stat().st_size for e in os.scandir(outdir) if e.is_file())


def _count_ingest(counts, snap, args, kwargs, result):
    counts["harness.ingest.rows"] += result.values.size


_EVAL_HOOK = (_counters_snapshot(3), _counters_growth(
    3, {"state_nocov": "state_domain.eval.nocov",
        "state_singular": "state_domain.eval.singular"}))
_SEMI_HOOK = (_counters_snapshot(2), _counters_growth(
    2, {"semi_fallback": "harness.semi.fallback"}))

# (owner, attribute, layer, count hook). The owner is a module or a class in
# one; the hook is (before, after) with `before` optional. Count keys are
# "<layer>.<counter>".
WRAPS = (
    ("dynvol.harness", "simulate_series", "sde.simulate", None),
    ("dynvol.harness", "select_bandwidth", "state_domain.cv", (None, _count_cv)),
    ("dynvol.harness", "_fit_state", "state_domain.refit",
     (_counters_snapshot(6), _count_refit)),
    ("dynvol.harness", "_eval_state", "state_domain.eval", _EVAL_HOOK),
    ("dynvol.harness", "autocorr_sq", "time_domain.acf", None),
    ("dynvol.harness", "es_variance", "time_domain.var", (None, _count_var)),
    ("dynvol.harness", "exp_smooth", "time_domain.smooth", None),
    ("dynvol.harness", "moving_average", "time_domain.smooth", None),
    ("dynvol.harness", "combine_estimates", "integration.blend", None),
    ("dynvol.harness", "nonbayes_static", "integration.blend", None),
    ("dynvol.harness._SemiSelector", "value", "harness.semi", _SEMI_HOOK),
    ("dynvol.harness", "_rolling", "harness.loop", (None, _count_loop)),
    ("dynvol.harness", "run_simulation_study", "harness.run", None),
    ("dynvol.cli", "run_backtest", "harness.run", None),
    ("dynvol.harness", "imade", "evaluation.score", None),
    ("dynvol.harness", "made", "evaluation.score", None),
    ("dynvol.harness", "pe", "evaluation.score", None),
    ("dynvol.harness", "rade", "evaluation.score", None),
    ("dynvol.harness", "exceedance_ratio", "evaluation.score", None),
    ("dynvol.harness", "empirical_quantile", "evaluation.score", None),
    ("dynvol.harness", "build_report", "evaluation.score", None),
    ("dynvol.harness", "write_study_outputs", "harness.write",
     (None, _count_write)),
    ("dynvol.cli", "write_backtest_outputs", "harness.write",
     (None, _count_write)),
    ("dynvol.cli", "ingest_csv", "harness.ingest", (None, _count_ingest)),
    ("dynvol.cli", "main", "cli.main", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in WRAPS))

# Exceptions a count hook may meet when a wrapped signature or result type
# changed at the commit under test; the count is then recorded as broken.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _resolve(path: str, modules: dict):
    """The module named `path`, or the class `path` names inside one."""
    if path in modules:
        return modules[path]
    base, _, name = path.rpartition(".")
    return getattr(modules[base], name, None) if base in modules else None


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager around the traced ops: entering installs the
    wrappers, leaving restores the original objects.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.broken_counts: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span."""
        self.op = op_id
        return self.call(ROOT_SPAN, fn, args)

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, fn, layer, hook):
        before, after = hook if hook else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            snap = None
            if before is not None:
                try:
                    snap = before(args, kwargs)
                except _HOOK_ERRORS:
                    self.broken_counts.add(layer)
            result = self.call(layer, fn, args, kwargs)
            if after is not None and layer not in self.broken_counts:
                try:
                    after(self.counts, snap, args, kwargs, result)
                except _HOOK_ERRORS:
                    self.broken_counts.add(layer)
            return result
        return traced

    def install(self) -> None:
        for owner_path, attr, layer, hook in WRAPS:
            owner = _resolve(owner_path, self.modules)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(orig, layer, hook))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            a = max(spans[c][START], reach)
            b = min(spans[c][END], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def layer_summary(spans, n_ops: int) -> dict:
    """Per-layer calls and self seconds per op, and share of op wall time."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    op_wall = 0.0
    for s, st in zip(spans, selfs):
        if s[NAME] == ROOT_SPAN:
            op_wall += s[END] - s[START]
            continue
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_s"] = self_s[layer] / n_ops
        out[f"{layer}.share"] = self_s[layer] / op_wall if op_wall > 0 else 0.0
    return out
