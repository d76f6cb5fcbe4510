"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  setup    import ybias, build the code and decoder, decode one warm-up
           trial, print ``ready`` and exit (run.py times this).
  measure  after set-up, decode batches untraced for ``--seconds`` seconds.
  trace    after set-up, decode a fixed number of batches twice each, once
           untraced and once under the layer tracer, alternating the order.

Every measure and trace run also runs the correctness gate.  The last
stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_BATCHES = 3


def batch_seed(seed: int, index: int) -> int:
    """Seed of timed batch ``index``: distinct inputs per batch, fixed by ``seed``."""
    return seed * 1_000_003 + index


def import_ybias():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ybias

    if Path(ybias.__file__).resolve().parent != src / "ybias":
        raise SystemExit(f"imported ybias from {ybias.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Gate:
    """Named pass/fail checks; the run is correct only if all pass."""

    def __init__(self):
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def plausible(failures: int, trials: int, rate: float) -> bool:
    """Failure count within 5 sigma (plus slack for tiny batches) of the long-run rate."""
    sigma = (trials * rate * (1.0 - rate)) ** 0.5
    return abs(failures - trials * rate) <= 5.0 * sigma + 3.0


def check_prefix(gate: Gate, code, decoder, model, seed: int, trials: int) -> None:
    """Batch-path verdicts must equal single-trial decode + sim.is_stabilizer."""
    import numpy as np
    from ybias import codes, noise, sim
    from ybias.pauli import PauliOperator

    result = sim.estimate_failure_rate(
        code, decoder, model, trials, seed, workers=1, keep_records=True
    )
    key = noise.derive_key(seed)
    classes = noise.sample_error_classes_batch(model, noise.batch_uniforms(key, 0, trials, code.n))
    mismatches = 0
    for record, cls in zip(result.records, classes):
        x_bits = (cls & 1).astype(np.uint8)
        z_bits = (cls >> 1).astype(np.uint8)
        error = PauliOperator(x_bits, z_bits)
        outcome = decoder.decode(codes.syndrome(code, error))
        ok = sim.is_stabilizer(code, outcome.recovery.mul(error))
        digest = np.packbits(np.concatenate([x_bits, z_bits])).tobytes().hex()
        if (digest, outcome.verdict or "", ok) != (record.error_digest, record.verdict, record.success):
            mismatches += 1
    gate.check(
        "prefix_single_trial",
        mismatches == 0,
        f"{mismatches} of {trials} batch verdicts differ from single-trial decode (seed {seed})",
    )


def run_batch(code, decoder, model, wl, seed: int, tracer=None):
    from ybias import sim

    with tracer.active() if tracer else nullcontext():
        start = time.perf_counter()
        result = sim.estimate_failure_rate(code, decoder, model, wl.batch_trials, seed, workers=1)
        elapsed = time.perf_counter() - start
    return elapsed, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    import_ybias()
    from ybias import codes, decoders, noise, sim

    build = codes.build_rotated_code if wl.layout == "rotated" else codes.build_standard_code
    code = build(wl.size, wl.size)
    model = noise.BiasedNoiseModel(wl.p, wl.eta)
    chi = {} if wl.chi is None else {"chi": wl.chi}

    def make_decoder():
        return decoders.decoder_from_name(wl.decoder, code, model, **chi)

    tracer = spans.Tracer() if args.mode == "trace" else None
    decoder = tracer.wrapper("decoders.init", make_decoder)() if tracer else make_decoder()
    # The warm-up trial fills the lazy per-code caches (y_solver, tool tables, network layout).
    sim.estimate_failure_rate(code, decoder, model, 1, args.seed, workers=1)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    gate = Gate()
    ref = sim.estimate_failure_rate(code, decoder, model, wl.reference_trials, DEFAULT_SEED, workers=1)
    diff = ref.failures - wl.reference_failures
    gate.check(
        "reference_counts",
        abs(diff) <= wl.failure_tolerance and ref.decoder_errors == 0,
        f"seed {DEFAULT_SEED}, {wl.reference_trials} trials: {ref.failures} failures "
        f"(reference {wl.reference_failures}, difference {diff:+d}, tolerance "
        f"{wl.failure_tolerance}), {ref.decoder_errors} decoder errors",
    )

    batches = []
    if tracer is None:
        started = time.perf_counter()
        while len(batches) < MIN_BATCHES or time.perf_counter() - started < args.seconds:
            seed = batch_seed(args.seed, len(batches))
            elapsed, result = run_batch(code, decoder, model, wl, seed)
            batches.append((seed, elapsed, result))
    else:
        spans.instrument(tracer, type(decoder))
        traced_s = 0.0
        mismatched = 0
        for index in range(wl.trace_batches):
            seed = batch_seed(args.seed, index)
            runs = {}
            for traced in (False, True) if index % 2 == 0 else (True, False):
                runs[traced] = run_batch(code, decoder, model, wl, seed, tracer if traced else None)
            traced_s += runs[True][0]
            counts = [(r.failures, r.decoder_errors) for _, r in runs.values()]
            mismatched += counts[0] != counts[1]
            batches.append((seed, *runs[False]))
        gate.check(
            "trace_reproduces_counts",
            mismatched == 0,
            f"{mismatched} of {wl.trace_batches} traced batches changed failure or decoder-error counts",
        )
        missing = [name for name in wl.expected_spans if tracer.totals[name][2] == 0]
        gate.check("expected_spans", not missing, f"spans with zero calls: {missing or 'none'}")

    implausible = [
        seed for seed, _, r in batches if not plausible(r.failures, wl.batch_trials, wl.expected_rate)
    ]
    gate.check(
        "batch_failure_rates",
        not implausible,
        f"{len(batches)} batches vs long-run rate {wl.expected_rate:.4f}; "
        f"outside 5 sigma at seeds {implausible or 'none'}",
    )
    if wl.prefix_trials:
        check_prefix(gate, code, decoder, model, batch_seed(args.seed, 0), wl.prefix_trials)

    trials = len(batches) * wl.batch_trials
    batch_seconds = [elapsed for _, elapsed, _ in batches]
    report = {
        "environment": environment(),
        "trials": trials,
        "decoder_errors": sum(r.decoder_errors for _, _, r in batches),
        "failures": sum(r.failures for _, _, r in batches),
        "batch_seconds": batch_seconds,
        "trials_per_s": trials / sum(batch_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": gate.checks,
    }
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (traced_s / sum(batch_seconds), "ratio")
        metrics["trace.trials"] = (trials, "count")
        report["per_layer"] = metrics
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
