"""The benchmark's workloads, their reference counts and expected spans.

Each workload is a closed loop: one caller decodes a batch of trials with
``sim.estimate_failure_rate(..., workers=1)`` and starts the next batch only
when the previous one has returned.  The three workloads are each dominated
by a different layer (see README.md for the shares and the predictions).

Reference counts were measured at the seed commit of the benchmark with the
default seed.  ``exact-y`` and ``concatenated-y`` are exact and
deterministic, so their counts must match exactly; the ``mps`` decoder's
floating-point contraction may flip a near-tie on another BLAS build, so its
count may differ by ``failure_tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    layout: str
    size: int
    eta: float
    p: float
    decoder: str
    chi: int | None  # MPS bond cap; None for the other decoders
    batch_trials: int  # trials per timed estimate_failure_rate call
    trace_batches: int  # batches decoded both untraced and traced in a traced run
    reference_trials: int  # trials of the default-seed reference batch
    reference_failures: int  # its failure count at the seed commit
    failure_tolerance: int  # allowed |failures - reference_failures|
    expected_rate: float  # long-run failure rate, for the per-batch plausibility check
    prefix_trials: int  # batch-path trials re-decoded one by one (0: no batch path)
    expected_spans: tuple[str, ...]  # spans that must record calls in a traced run


_COMMON_SPANS = ("decoders.init", "sim.run", "noise.uniforms", "noise.classes")
_PER_TRIAL_SPANS = ("codes.syndrome", "decoders.decode", "sim.judge", "gf2.reduce")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-y-d21",
            layout="rotated",
            size=21,
            eta=math.inf,
            p=0.45,
            decoder="exact-y",
            chi=None,
            batch_trials=2000,
            trace_batches=10,
            reference_trials=2000,
            reference_failures=37,
            failure_tolerance=0,
            expected_rate=368 / 20000,
            prefix_trials=200,
            expected_spans=_COMMON_SPANS + ("decoders.decode_batch", "gf2.solve_batch"),
        ),
        Workload(
            name="mps-depol-d9",
            layout="rotated",
            size=9,
            eta=0.5,
            p=0.19,
            decoder="mps",
            chi=16,
            batch_trials=20,
            trace_batches=8,
            reference_trials=30,
            reference_failures=3,
            failure_tolerance=1,
            expected_rate=118 / 400,
            prefix_trials=0,
            expected_spans=_COMMON_SPANS
            + _PER_TRIAL_SPANS
            + (
                "decoders.candidate",
                "gf2.solver_solve",
                "gf2.consistent",
                "tensor.build",
                "tensor.contract",
                "tensor.truncate",
            ),
        ),
        Workload(
            name="concat-y-std9",
            layout="standard",
            size=9,
            eta=math.inf,
            p=0.3,
            decoder="concatenated-y",
            chi=None,
            batch_trials=800,
            trace_batches=8,
            reference_trials=1000,
            reference_failures=89,
            failure_tolerance=0,
            expected_rate=1599 / 20000,
            prefix_trials=0,
            expected_spans=_COMMON_SPANS + _PER_TRIAL_SPANS + ("gf2.solve", "gf2.consistent"),
        ),
    )
}
