"""The benchmark's workloads and the input generator of the backtest.

Each workload runs through dynvol's public entry points only:
`dynvol.harness.run_simulation_study` with `write_study_outputs`, or
`dynvol.cli.main(["backtest", ...])`. One op is one study or one backtest,
written to a fresh output directory.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from pathlib import Path

# Committed reference outputs exist for these two seeds: the default and a
# held-out one that was not used while the output tolerance was chosen.
DEFAULT_SEED = 12345
HELDOUT_SEED = 4242
REFERENCE_SEEDS = (DEFAULT_SEED, HELDOUT_SEED)

BACKTEST_ROWS = 2520  # ten years of trading days


class OpFailed(Exception):
    """An op finished but reported failure (non-zero exit status)."""


@dataclass(frozen=True)
class Workload:
    name: str
    estimators: tuple[str, ...]
    n_reps: int  # replications per op; 0 for the backtest

    def resolve(self, harness, seed: int):
        """The op's configuration, as the program resolves it."""
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path):
        """Inputs for one seed, written before timing starts."""
        return None

    def run_op(self, modules, cfg, inputs, outdir: str) -> int:
        """Run one op into outdir; return the number of failed replications."""
        raise NotImplementedError


@dataclass(frozen=True)
class StudyWorkload(Workload):
    preset: str = "CIR"

    def resolve(self, harness, seed):
        return harness.study_preset(self.preset, seed=seed, n_reps=self.n_reps,
                                    estimators=self.estimators)

    def run_op(self, modules, cfg, inputs, outdir):
        harness = modules["dynvol.harness"]
        result = harness.run_simulation_study(cfg)
        harness.write_study_outputs(result, outdir)
        return len(result.failed_reps)


@dataclass(frozen=True)
class BacktestWorkload(Workload):
    rows: int = BACKTEST_ROWS

    def resolve(self, harness, seed):
        # the configuration `dynvol backtest` starts from
        return harness.study_preset("cir")

    def prepare(self, seed, workdir):
        path = workdir / f"levels-{seed}.csv"
        path.write_text(daily_levels_csv(seed, self.rows))
        return str(path)

    def run_op(self, modules, cfg, inputs, outdir):
        rc = modules["dynvol.cli"].main(
            ["backtest", "--data", inputs, "--frequency", "daily",
             "--return-mode", "diff", "--out", outdir])
        if rc != 0:
            raise OpFailed(f"dynvol backtest exited with status {rc}")
        return 0


FULL_ROSTER = ("Hist", "RiskM", "SemiProxy", "NonBay", "Integ")

# Why each workload exists is recorded in BENCHMARK.json. In short: study-cir
# mixes every layer at the paper's design, study-sv-time bypasses
# state_domain, and backtest-daily has the long history where the O(N^2)
# refit and peak memory dominate.
WORKLOADS = {w.name: w for w in (
    StudyWorkload("study-cir", FULL_ROSTER, 4, preset="CIR"),
    StudyWorkload("study-sv-time", ("Hist", "RiskM", "SemiProxy"), 40,
                  preset="SV"),
    BacktestWorkload("backtest-daily", FULL_ROSTER, 0),
)}


def daily_levels_csv(seed: int, rows: int = BACKTEST_ROWS) -> str:
    """`date,value` CSV of CIR-like daily rate levels on weekdays from 2000.

    Uses numpy only, never `dynvol.sde`, so the backtest input stays fixed
    when the simulators change. Euler steps of the square-root diffusion
    with the CIR preset's parameters, reflected at zero.
    """
    import numpy as np

    kappa, theta, sigma, delta = 0.21459, 0.08571, 0.07830, 1.0 / 252.0
    z = np.random.default_rng(seed).standard_normal(rows - 1)
    levels = [theta]
    for zi in z.tolist():
        r = levels[-1]
        levels.append(abs(r + kappa * (theta - r) * delta
                          + sigma * math.sqrt(r * delta) * zi))
    day = _dt.date(2000, 1, 3)
    lines = ["date,value"]
    for v in levels:
        while day.weekday() >= 5:
            day += _dt.timedelta(days=1)
        lines.append(f"{day.isoformat()},{v:.10f}")
        day += _dt.timedelta(days=1)
    return "\n".join(lines) + "\n"
