"""The benchmark's tracer (perfbench/tracer.py) wraps names of the program
and reads arguments and results of the calls it wraps: `counters` passed by
keyword to `_fit_state` and `_eval_state`, `_fit_state(...).pairs.count`,
`es_variance(...).clamped` and `_rolling`'s (tracks, counters). A hook that
no longer finds what it reads records its layer as broken, and a wrapped
name the program no longer has is listed as absent; both pass a run
silently. This runs the tracer on the real modules around a small study and
a short backtest."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import dynvol.cli  # noqa: E402
import dynvol.harness  # noqa: E402
from perfbench.tracer import Tracer, layer_summary  # noqa: E402
from perfbench.workloads import daily_levels_csv  # noqa: E402


def test_tracer_finds_every_name_and_argument_it_reads(tmp_path):
    harness = dynvol.harness
    cfg = harness.study_preset("cir", series_len=300, in_sample_len=260,
                               n_reps=1, seed=4242)
    data = tmp_path / "levels.csv"
    data.write_text(daily_levels_csv(4242, 600))
    argv = ["backtest", "--data", str(data), "--frequency", "daily",
            "--return-mode", "diff", "--quiet", "--out", str(tmp_path / "bt")]
    with Tracer({"dynvol.harness": harness, "dynvol.cli": dynvol.cli}) as tr:
        study = tr.run_op(0, harness.run_simulation_study, cfg)
        status = tr.run_op(1, dynvol.cli.main, argv)
    assert study.failed_reps == () and status == 0
    assert tr.broken_counts == set()
    # the one known absent name is the blend NonBay no longer calls
    assert tr.absent == ["dynvol.harness.nonbayes_static"]
    assert tr.counts["state_domain.refit.pairs"] > 0
    per_layer = layer_summary(tr.spans, 2)
    for layer in ("state_domain.eval", "time_domain.var", "integration.blend"):
        assert per_layer[f"{layer}.calls"] > 0
    # every wrapped name is put back
    assert harness.run_simulation_study.__module__ == "dynvol.harness"
    assert "traced" not in harness._fit_state.__qualname__
