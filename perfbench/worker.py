"""One workload run in a fresh interpreter; started by `perfbench/run.py`.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --write-reference

The worker imports dynvol from the checkout's `src/`, resolves the workload's
configuration and prints READY; the parent times set-up up to that line.
With `--setup-only` it then times one block of the reference loop
(`perfbench/refloop.py`), which the parent divides set-up time by, and
exits. Otherwise it writes the inputs, runs one untimed check op at a
reference seed (which also warms caches), takes the peak resident set, and
runs timed ops until `--seconds` have passed, with a reference block before
the first and after each. With `--trace 1` the timed ops run half untraced
and half traced, and the result holds the per-layer figures. The last line
of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
# none of these imports numpy at import time
from perfbench import check  # noqa: E402
from perfbench.refloop import Reference  # noqa: E402
from perfbench.tracer import Tracer, layer_summary  # noqa: E402
from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
READY = "PERFBENCH_READY"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RUNS_DIR = ROOT / ".perfbench_runs"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _import_dynvol() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import dynvol
    import dynvol.cli
    import dynvol.harness
    src = (ROOT / "src").resolve()
    if src not in Path(dynvol.__file__).resolve().parents:
        raise ImportError(f"dynvol imported from {dynvol.__file__}, not {src}")
    return {"dynvol.harness": dynvol.harness, "dynvol.cli": dynvol.cli}


class Op:
    """Outcome of one op: its output directory, time and failures."""

    def __init__(self, seed: int, outdir: str, phase: str):
        self.seed = seed
        self.outdir = outdir
        self.phase = phase
        self.wall = 0.0
        self.cpu = 0.0
        self.ref = 0.0  # mean seconds of the reference blocks around it
        self.reps_failed = 0
        self.problems: list[str] = []

    def bytes(self) -> dict:
        return {n: (Path(self.outdir) / n).read_bytes()
                for n in check.FILES if (Path(self.outdir) / n).is_file()}


class Run:
    def __init__(self, workload, modules, workdir: Path):
        self.wl = workload
        self.modules = modules
        self.workdir = workdir
        self.ops: list[Op] = []
        self.refloop = None  # made after the peak resident set is taken
        self.ref_blocks: list[float] = []  # seconds of each block, in order

    def start_refloop(self) -> None:
        """Make the reference loop and time its first block; from now on a
        block follows every op."""
        self.refloop = Reference()
        self.ref_blocks.append(self.refloop.block())

    def op(self, seed, cfg, inputs, phase, tracer=None) -> Op:
        op = Op(seed, tempfile.mkdtemp(dir=self.workdir), phase)
        run = self.wl.run_op
        args = (self.modules, cfg, inputs, op.outdir)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op.reps_failed = run(*args)
            else:
                op.reps_failed = tracer.run_op(len(self.ops), run, *args)
        except (Exception, SystemExit) as exc:  # an op that raised has failed
            op.problems.append(f"raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
        op.wall = time.perf_counter() - t0
        op.cpu = _cpu_seconds() - cpu0
        if self.refloop is not None:
            self.ref_blocks.append(self.refloop.block())
            op.ref = (self.ref_blocks[-2] + self.ref_blocks[-1]) / 2
        self.ops.append(op)
        return op

    def timed(self, seed, cfg, inputs, seconds, phase, tracer=None):
        """Closed loop: the next op starts when the last one ends. Another op
        starts only while it would end nearer to `seconds` than stopping now,
        judged by the median op so far."""
        ops = []
        start = time.perf_counter()
        while not ops or (time.perf_counter() - start + 0.5 * statistics.median(
                op.wall for op in ops) < seconds):
            ops.append(self.op(seed, cfg, inputs, phase, tracer))
        return ops


def _check(run: Run, op: Op, reference: dict) -> dict:
    """Check one op's outputs; problems land on the op."""
    info = {}
    if op.problems:
        return info
    try:
        op.problems += check.check_consistency(op.outdir, run.wl.estimators,
                                               run.wl.n_reps)
        if op.seed in reference:
            probs, identical = check.compare_reference(op.outdir,
                                                       reference[op.seed])
            op.problems += probs
            info = {"reference_seed": op.seed, "byte_identical": identical}
    except (OSError, ValueError, IndexError, KeyError) as exc:
        op.problems.append(f"unreadable output: {exc!r}")
    return info


def _env_info() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        **_git_info(),
    }


def _git_info() -> dict:
    """Commit and dirty flag when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no", "--", "src"],
                               capture_output=True, text=True, env=env,
                               timeout=10, check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": dirty}


def _trace_metrics(tracer, traced_ops, untraced_ops) -> dict:
    n = len(traced_ops)
    m = layer_summary(tracer.spans, n)
    c = tracer.counts
    per_op = lambda key: c[key] / n  # noqa: E731
    refit_pairs = c["state_domain.refit.pairs"]
    eval_calls = m["state_domain.eval.calls"] * n
    m.update({
        "state_domain.cv.pairs": per_op("state_domain.cv.pairs"),
        "state_domain.refit.pairs": per_op("state_domain.refit.pairs"),
        "state_domain.refit.us_per_pair": (
            1e6 * m["state_domain.refit.self_s"] * n / refit_pairs
            if refit_pairs else 0.0),
        "state_domain.refit.drift_fallback":
            per_op("state_domain.refit.drift_fallback"),
        "state_domain.eval.coverage_frac": (
            1.0 - c["state_domain.eval.nocov"] / eval_calls
            if eval_calls else 0.0),
        "state_domain.eval.singular": per_op("state_domain.eval.singular"),
        "time_domain.var.clamped": per_op("time_domain.var.clamped"),
        "harness.semi.fallback": per_op("harness.semi.fallback"),
        "harness.loop.steps": per_op("harness.loop.steps"),
        "harness.loop.nan_steps": per_op("harness.loop.nan_steps"),
        "harness.write.bytes": per_op("harness.write.bytes"),
        "harness.ingest.rows": per_op("harness.ingest.rows"),
        "trace.overhead_frac": (
            statistics.median(o.wall / o.ref for o in traced_ops)
            / statistics.median(o.wall / o.ref for o in untraced_ops) - 1.0),
        "trace.absent": float(len(tracer.absent)),
    })
    return m


def _write_spans(tracer, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "absent": tracer.absent,
                   "counts": dict(tracer.counts),
                   "broken_counts": sorted(tracer.broken_counts)}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    wl = WORKLOADS[args.workload]
    modules = _import_dynvol()
    cfg = wl.resolve(modules["dynvol.harness"], args.seed)
    print(READY, flush=True)
    if args.setup_only:
        print(json.dumps({"setup_ref_s": Reference().block()}))
        return 0

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUNS_DIR))
    try:
        return _measure(args, wl, modules, cfg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, modules, cfg, workdir) -> int:
    run = Run(wl, modules, workdir)
    harness = modules["dynvol.harness"]
    ref_dir = REFERENCE_DIR / wl.name
    if args.write_reference:
        op = run.op(args.seed, cfg, wl.prepare(args.seed, workdir), "reference")
        _check(run, op, {})
        if op.problems:
            print("\n".join(op.problems), file=sys.stderr)
            return 1
        dest = ref_dir / f"seed-{args.seed}"
        dest.mkdir(parents=True, exist_ok=True)
        for name, data in op.bytes().items():
            (dest / name).write_bytes(data)
        return 0

    reference = {s: ref_dir / f"seed-{s}" for s in REFERENCE_SEEDS}
    check_seed = (args.seed if args.seed in reference
                  else REFERENCE_SEEDS[args.seed % len(REFERENCE_SEEDS)])
    inputs = wl.prepare(args.seed, workdir)
    check_op = run.op(check_seed, wl.resolve(harness, check_seed),
                      wl.prepare(check_seed, workdir), "check")
    # Set-up, inputs and one whole op, which every later op repeats on
    # another seed; taken before tracing, so that spans never count, and
    # before the reference loop allocates its arrays.
    peak_rss_mb = _peak_rss_mb()
    run.start_refloop()

    tracer = None
    if args.trace:
        untraced = run.timed(args.seed, cfg, inputs, args.seconds / 2,
                             "untraced")
        with Tracer(modules) as tracer:
            timed = run.timed(args.seed, cfg, inputs, args.seconds / 2,
                              "traced", tracer)
    else:
        timed = run.timed(args.seed, cfg, inputs, args.seconds, "timed")
        untraced = timed

    checks = [dict(_check(run, op, reference), phase=op.phase, seed=op.seed)
              for op in run.ops]
    # every op of one seed writes the same bytes, traced or not
    same_seed = [op for op in run.ops
                 if op.seed == args.seed and not op.problems]
    for op in same_seed[1:]:
        if op.bytes() != same_seed[0].bytes():
            op.problems.append("outputs differ from the run's first op")

    failed_ops = sum(bool(op.problems) for op in run.ops)
    reps_failed = sum(op.reps_failed for op in run.ops)
    result = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "op_s": [op.wall for op in timed],
        "op_cpu_s": [op.cpu for op in timed],
        "op_ref_s": [op.ref for op in timed],
        # the blocks timed before, between and after the timed ops
        "timed_ref_blocks_s": run.ref_blocks[-len(timed) - 1:],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(run.ops) * (1 + wl.n_reps),
        "failed": failed_ops + reps_failed,
        "failed_ops": failed_ops,
        "failed_reps": reps_failed,
        "problems": [p for op in run.ops for p in op.problems][:20],
        "checks": [c for c in checks if "reference_seed" in c],
        "check_op_s": check_op.wall,
        "env": _env_info(),
    }
    if tracer is not None:
        result["per_layer"] = _trace_metrics(tracer, timed, untraced)
        result["absent"] = tracer.absent
        spans_path = RUNS_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        _write_spans(tracer, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
