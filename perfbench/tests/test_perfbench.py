"""Tests of the benchmark's own machinery: span arithmetic, wrapper
restoration, the reference loop, the output check and the backtest input
generator."""

import datetime as dt
import shutil
import types
from pathlib import Path

import pytest

from perfbench import check, tracer
from perfbench.refloop import Reference
from perfbench.run import _tail
from perfbench.workloads import FULL_ROSTER, daily_levels_csv

ROOT = Path(__file__).resolve().parents[2]
REFERENCE = ROOT / "perfbench" / "reference"


def _span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_children_clipped_to_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),     # overlaps a by 1
        _span("a.x", 1.5, 2.5, 1),
        _span("c", 9.0, 12.0, 0),    # runs past the parent's end
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_summary_shares_are_over_op_wall_time():
    spans = [
        _span(tracer.ROOT_SPAN, 0.0, 4.0, op=0),
        _span("state_domain.refit", 0.0, 3.0, 0, op=0),
        _span("state_domain.cv", 0.5, 1.5, 1, op=0),
        _span(tracer.ROOT_SPAN, 4.0, 8.0, op=1),
        _span("state_domain.refit", 4.0, 6.0, 3, op=1),
    ]
    m = tracer.layer_summary(spans, n_ops=2)
    assert m["state_domain.refit.calls"] == 1.0
    assert m["state_domain.refit.self_s"] == pytest.approx((2.0 + 2.0) / 2)
    assert m["state_domain.refit.share"] == pytest.approx(4.0 / 8.0)
    assert m["state_domain.cv.share"] == pytest.approx(1.0 / 8.0)
    assert m["sde.simulate.calls"] == 0.0


def _fake_modules():
    harness = types.ModuleType("dynvol.harness")

    class Selector:
        def value(self, t, counters):
            counters["semi_fallback"] += 1
            return 2.0 * t

    def simulate_series(cfg, rep):
        return rep + 1

    harness.simulate_series = simulate_series
    harness._SemiSelector = Selector
    cli = types.ModuleType("dynvol.cli")
    return {"dynvol.harness": harness, "dynvol.cli": cli}


def test_wrappers_record_spans_and_are_restored():
    mods = _fake_modules()
    harness = mods["dynvol.harness"]
    orig_sim = harness.simulate_series
    orig_value = vars(harness._SemiSelector)["value"]
    with tracer.Tracer(mods) as tr:
        assert harness.simulate_series is not orig_sim
        counters = {"semi_fallback": 0}
        result = tr.run_op(0, lambda: (harness.simulate_series(None, 2),
                                       harness._SemiSelector().value(3, counters)))
    assert result == (3, 6.0)
    assert harness.simulate_series is orig_sim
    assert vars(harness._SemiSelector)["value"] is orig_value
    names = [s[tracer.NAME] for s in tr.spans]
    assert names == [tracer.ROOT_SPAN, "sde.simulate", "harness.semi"]
    assert [s[tracer.PARENT] for s in tr.spans] == [-1, 0, 0]
    assert tr.counts["harness.semi.fallback"] == 1
    # names missing at this commit are listed, not fatal
    assert "dynvol.harness._fit_state" in tr.absent
    assert "dynvol.cli.main" in tr.absent


def test_wrappers_are_restored_on_the_real_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import dynvol.cli
    import dynvol.harness
    mods = {"dynvol.harness": dynvol.harness, "dynvol.cli": dynvol.cli}
    before = {(o, a): vars(tracer._resolve(o, mods)).get(a)
              for o, a, _, _ in tracer.WRAPS}
    try:
        with tracer.Tracer(mods):
            raise RuntimeError("op failed")
    except RuntimeError:
        pass
    after = {(o, a): vars(tracer._resolve(o, mods)).get(a)
             for o, a, _, _ in tracer.WRAPS}
    assert all(after[k] is before[k] for k in before)


def test_reference_block_reuses_its_arrays():
    import numpy as np
    ref = Reference()
    names = ("_d", "_d2", "_near", "_y", "_big")
    buffers = [getattr(ref, n) for n in names]
    assert ref.block() > 0
    assert all(getattr(ref, n) is b for n, b in zip(names, buffers))
    x = ref._x
    d = x[:, None] - x[None, :]
    want = x @ np.where(np.abs(d) < 0.3, 1.0 - d * d, 0.0)
    np.testing.assert_allclose(ref._y, want, rtol=1e-12)


def _copy_reference(tmp_path, workload="study-cir"):
    dest = tmp_path / "out"
    shutil.copytree(REFERENCE / workload / "seed-12345", dest)
    return dest


def _scale_cell(path, row, col, factor):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_reference_matches_itself_byte_for_byte(tmp_path):
    out = _copy_reference(tmp_path)
    ref = REFERENCE / "study-cir" / "seed-12345"
    assert check.compare_reference(out, ref) == ([], True)
    assert check.check_consistency(out, FULL_ROSTER, 4) == []


def test_output_check_rejects_a_perturbed_track(tmp_path):
    out = _copy_reference(tmp_path)
    _scale_cell(out / "per_rep.csv", 5, 3, 1.0 + 1e-4)  # rep 0 Integ made
    problems, identical = check.compare_reference(
        out, REFERENCE / "study-cir" / "seed-12345")
    assert problems and not identical


def test_output_check_admits_rounding_level_deviation(tmp_path):
    out = _copy_reference(tmp_path)
    _scale_cell(out / "report.csv", 6, 3, 1.0 + 1e-11)
    problems, identical = check.compare_reference(
        out, REFERENCE / "study-cir" / "seed-12345")
    assert problems == [] and not identical


def test_consistency_check_rejects_failed_reps_and_bad_values(tmp_path):
    out = _copy_reference(tmp_path, "backtest-daily")
    assert check.check_consistency(out, FULL_ROSTER, 0) == []
    report = out / "report.csv"
    report.write_text(report.read_text().replace("failed_reps,0",
                                                 "failed_reps,1"))
    assert check.check_consistency(out, FULL_ROSTER, 0)
    out = _copy_reference(tmp_path / "b", "backtest-daily")
    _scale_cell(out / "per_rep.csv", 1, 3, float("nan"))
    assert check.check_consistency(out, FULL_ROSTER, 0)


def test_backtest_input_is_a_function_of_the_seed():
    a = daily_levels_csv(7)
    assert a == daily_levels_csv(7)
    assert a != daily_levels_csv(8)
    rows = a.splitlines()
    assert rows[0] == "date,value" and len(rows) == 2521
    dates = [dt.date.fromisoformat(r.split(",")[0]) for r in rows[1:]]
    assert all(d.weekday() < 5 for d in dates)
    assert all(x < y for x, y in zip(dates, dates[1:]))
    assert all(float(r.split(",")[1]) > 0 for r in rows[1:])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    assert _tail([1.0] * 10).startswith("n/a")
    op_s = [float(i) for i in range(1, 21)]  # 20 ops
    assert _tail(op_s) == "10.0000 s at p50.0 of 20 ops"


def test_metric_names_match_benchmark_json():
    import json

    from perfbench import run, worker
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        k for k, _ in run.END_TO_END]
    tr = tracer.Tracer({})
    tr.spans = [_span(tracer.ROOT_SPAN, 0.0, 1.0)]
    op = worker.Op(0, "unused", "traced")
    op.wall, op.ref = 1.0, 0.5
    per_layer = worker._trace_metrics(tr, [op], [op])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    assert all(run._layer_unit(m["name"]) == m["unit"]
               for m in spec["per_layer"])
