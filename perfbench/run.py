"""Benchmark of decoded trials per second for the ybias toolkit.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-y-d21 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (trials
decoded over the wall time of the timed batches), ``setup_s`` (median over
several fresh processes of the time from process start until the first
trial is ready) and ``peak_rss_mb`` of the measuring process.
``--trace 1`` reports the per-layer spans and counts from a separate traced
run.  Every run checks the decoded results; see README.md.

Each workload runs in fresh single processes with workers=1 and BLAS and
OpenMP pinned to one thread before numpy is imported.  The program is
imported from ``src/`` of the checkout this script sits in; without it the
benchmark exits with status 2 and prints no result.  The last stdout line
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 4  # set-up-only processes per run; the measuring process adds one more sample
DEADLINE_S = 170.0  # whole run, inside the 180 s limit
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def start_worker(args, mode: str, deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its set-up time (start to ``ready``) and the process."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    env = {**os.environ, **PINNED_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], remaining(deadline))[0]:
            raise WorkerError(f"{mode} worker did not get ready in time")
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise WorkerError(f"{mode} worker exited before it was ready")
    except BaseException:
        stop(proc)
        raise
    return ready, proc


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for the worker; return its stdout after ``ready``."""
    try:
        out = proc.stdout.read() if proc.wait(timeout=remaining(deadline)) == 0 else None
    except subprocess.TimeoutExpired:
        out = None
    finally:
        stop(proc)
    if out is None:
        raise WorkerError(f"worker failed or overran (exit {proc.returncode})")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "ybias" / "__init__.py").is_file():
        print(f"error: no ybias sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROCESSES):
                ready, proc = start_worker(args, "setup", deadline)
                finish(proc, deadline)
                setup_samples.append(ready)
        ready, proc = start_worker(args, "trace" if args.trace else "measure", deadline)
        setup_samples.append(ready)
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    trials = report["trials"]
    failed = report["decoder_errors"]
    correct = all(check["ok"] for check in report["checks"])
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "trials_per_s": (report["trials_per_s"], "1/s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
        }
    names = list(metrics)

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"trials {trials}  failures {report['failures']}  decoder_errors {failed}  "
          f"failed_frac {failed / trials:.6g}")
    if setup_samples[:-1]:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples))
    print("batch_s " + " ".join(f"{s:.4f}" for s in report["batch_seconds"]))
    for check in report["checks"]:
        print(f"check {'PASS' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    if args.trace:
        run_s = metrics["sim.run.s"][0]
        for span in sorted(SPANS, key=lambda s: -metrics[f"{s}.self_s"][0]):
            self_s = metrics[f"{span}.self_s"][0]
            print(f"span {span:24s} calls {metrics[f'{span}.calls'][0]:>9}  s {metrics[f'{span}.s'][0]:9.4f}  "
                  f"self_s {self_s:9.4f}  self share of sim.run {self_s / run_s:6.1%}")
    for name in names[3 * len(SPANS):] if args.trace else names:
        value, unit = metrics[name]
        print(f"metric {name} {value} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": trials,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
