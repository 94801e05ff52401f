"""dynvol benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload study-cir --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dynvol is imported from `src/`.
Each run starts fresh interpreters: one worker that sets up, checks one op
against the committed reference outputs and times ops for `--seconds`, and,
before and after it, a few that only set up (import dynvol and resolve the
workload's configuration). BLAS libraries are pinned to one thread.

The set-up-only interpreters time a block of a fixed reference loop
(perfbench/refloop.py) right after their set-up, and the worker times one
before its first timed op and one after each. Each time metric is divided
by the mean seconds of the blocks timed next to it, so that the host's drift
in speed between runs cancels; the unit `ref` is the seconds of one block.

With `--trace 0` the result holds the end-to-end metrics:

    op_ref_p50      median wall seconds of the timed ops, over the mean
                    seconds of the blocks before, between and after them
    cpu_ref_per_op  user + system CPU seconds of the worker and its children
                    in the timed ops, per op, over the same blocks
    setup_s         median wall seconds from a fresh interpreter to the
                    first op, over the worker and the set-up-only
                    interpreters, rescaled to a host where a block takes
                    REF_BLOCK_S: times REF_BLOCK_S over the mean seconds of
                    the blocks the set-up-only interpreters timed
    peak_rss_mb     peak resident set of the worker through set-up, inputs
                    and its first op

The raw seconds (op_s_p50, cpu_s_per_op, setup_raw_s) and op_s_tail are
printed too.

With `--trace 1` it holds the per-layer metrics of `perfbench/tracer.py`,
measured on traced ops, plus the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Failed ops and failed replications
count in `failed`; an op fails when it raises, exits non-zero or fails the
output check of `perfbench/check.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS_DIR = ROOT / ".perfbench_runs"

sys.path.insert(0, str(ROOT))
from perfbench.worker import BLAS_THREAD_VARS, READY  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# set-up-only interpreters before the worker and as many after it; setup_s
# is the median of these and the worker's own set-up
SETUP_PROBES = 2
# seconds of a reference block that setup_s is rescaled to: about its value
# on the 2-core Xeon VM the benchmark was built on
REF_BLOCK_S = 0.35
# the whole run, probes included, must end within this many seconds
DEADLINE_S = 170.0

END_TO_END = (("op_ref_p50", "ref"), ("cpu_ref_per_op", "ref"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def _spawn(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run the worker; return (seconds to its READY line, its stdout lines).

    The worker is killed at the deadline; it is always waited for.
    """
    env = dict(os.environ, **{v: "1" for v in BLAS_THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == READY:
                ready = time.perf_counter() - t0
            lines.append(line.rstrip("\n"))
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(argv)} exited with status "
                          f"{proc.returncode}")
    return ready, lines


def _tail(op_s: list[float]) -> str:
    """Highest percentile of op seconds with at least ten ops beyond it."""
    n = len(op_s)
    if n < 11:
        return f"n/a ({n} ops; a tail needs at least 11)"
    k = n - 11  # index of the value with ten ops above it, in sorted order
    pct = 100.0 * (k + 1) / n
    return f"{sorted(op_s)[k]:.4f} s at p{pct:.1f} of {n} ops"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dynvol benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "dynvol" / "__init__.py").is_file():
        print(f"error: no dynvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES

    def setup(argv):
        """(set-up seconds, worker result)"""
        ready, lines = _spawn(common + argv, deadline)
        return ready, json.loads(lines[-1])

    try:
        probed = [setup(["--setup-only"]) for _ in range(probes)]
        ready, res = setup(["--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
        probed += [setup(["--setup-only"]) for _ in range(probes)]
        setup_refs = [r["setup_ref_s"] for _, r in probed]
    except (WorkerError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n_ops = len(res["op_s"])
    RESULTS_DIR.mkdir(exist_ok=True)
    detail = RESULTS_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    res["setup_s"] = [ready] + [s for s, _ in probed]
    res["setup_ref_blocks_s"] = setup_refs
    detail.write_text(json.dumps(res, indent=1))

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in res["per_layer"].items()}
    else:
        ref_s = statistics.fmean(res["timed_ref_blocks_s"])
        values = {"op_ref_p50": statistics.median(res["op_s"]) / ref_s,
                  "cpu_ref_per_op": sum(res["op_cpu_s"]) / n_ops / ref_s,
                  "setup_s": statistics.median(res["setup_s"])
                  * REF_BLOCK_S / statistics.fmean(setup_refs),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: {n_ops} timed ops")
    for k, m in metrics.items():
        print(f"  {k:<36} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        raw = {"op_s_p50": statistics.median(res["op_s"]),
               "cpu_s_per_op": sum(res["op_cpu_s"]) / n_ops,
               "setup_raw_s": statistics.median(res["setup_s"]),
               "reference_block_s": ref_s}
        for k, v in raw.items():
            print(f"  {k:<36} {v:.6g} s")
        print(f"  {'op_s_tail':<36} {_tail(res['op_s'])}")
    print(f"  {'fail_frac':<36} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops and replications)")
    for seed in sorted({c["reference_seed"] for c in res["checks"]}):
        same = [c["byte_identical"] for c in res["checks"]
                if c["reference_seed"] == seed]
        print(f"  reference seed {seed}: {len(same)} ops checked, "
              f"{sum(same)} byte-identical")
    for p in res["problems"]:
        print(f"  problem: {p}")
    if res.get("absent"):
        print(f"  absent names: {', '.join(res['absent'])}")
    env = res["env"]
    print(f"  env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"git={env['git_sha']} dirty={env['git_dirty']}")
    print(f"  detail: {detail.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    return {"self_s": "s", "share": "frac", "coverage_frac": "frac",
            "overhead_frac": "frac", "us_per_pair": "us",
            "bytes": "B"}.get(leaf, "count")


if __name__ == "__main__":
    sys.exit(main())
