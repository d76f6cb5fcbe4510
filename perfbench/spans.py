"""Outside-in layer tracing for the ybias benchmark.

Spans are recorded by replacing public functions at the attribute where
their caller looks them up (``sim.syndrome``, ``decoders.solve``,
``tensor.apply_and_truncate``, ``Gf2Solver.solve_batch``...).  Patching the
defining module instead would miss names bound by ``from ... import``.
Nothing under ``src/`` is edited: the patches exist only inside
``Tracer.active()`` and are removed on exit, so untraced work runs the
unmodified program.

Spans nest strictly (one thread), so a span's self time is its duration
minus the durations of the spans it directly encloses.  Totals are kept per
span name in memory and read out when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# Span names in report order.
SPANS = (
    "sim.run",
    "sim.judge",
    "noise.uniforms",
    "noise.classes",
    "codes.syndrome",
    "decoders.init",
    "decoders.decode",
    "decoders.decode_batch",
    "decoders.candidate",
    "gf2.solve",
    "gf2.solver_solve",
    "gf2.solve_batch",
    "gf2.reduce",
    "gf2.consistent",
    "tensor.build",
    "tensor.contract",
    "tensor.truncate",
)


class Tracer:
    """Per-name span totals plus shape-derived counts for one traced run."""

    def __init__(self):
        self.totals = {name: [0.0, 0.0, 0] for name in SPANS}  # duration, child time, calls
        self.counts: dict[str, float] = {}
        self.mps_stats: dict = {}
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrapper(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(*args)`` runs first when given."""
        total = self.totals[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                total[0] += elapsed
                total[1] += children.pop()
                total[2] += 1
                if children:
                    children[-1] += elapsed

        return traced

    def patch(self, owner, attr: str, name: str, count=None, inner=None) -> None:
        """Register span ``name`` around ``owner.attr`` for ``active()``.

        ``inner`` replaces the original callable inside the span (used to
        inject arguments or observe exceptions).
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, self.wrapper(name, inner or original, count)))

    @contextmanager
    def active(self):
        """Install every registered patch; restore the originals on exit."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in self._patches]
        try:
            for owner, attr, replacement in self._patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every span's s/self_s/calls and every count, with units."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            duration, child, calls = self.totals[name]
            out[f"{name}.s"] = (duration, "s")
            out[f"{name}.self_s"] = (duration - child, "s")
            out[f"{name}.calls"] = (calls, "count")
        truncations = self.totals["tensor.truncate"][2]
        over_chi = self.counts.get("tensor.truncate.over_chi", 0)
        for name in ("gf2.solve_batch.rows", "gf2.solve_batch.macs", "gf2.reduce.rows"):
            out[name] = (self.counts.get(name, 0), "count")
        out["tensor.max_bond_dim"] = (self.mps_stats.get("max_bond_dim", 0), "count")
        out["tensor.max_rank2_ratio"] = (self.mps_stats.get("max_rank2_ratio", 0.0), "ratio")
        out["tensor.truncate.over_chi_frac"] = (over_chi / truncations if truncations else 0.0, "ratio")
        out["decoders.unattainable"] = (self.counts.get("decoders.unattainable", 0), "count")
        return out


def instrument(tracer: Tracer, decoder_cls) -> None:
    """Register the call-site patches for every span except ``decoders.init``."""
    from ybias import decoders, sim, tensor
    from ybias.gf2 import Gf2Solver

    tracer.patch(sim, "estimate_failure_rate", "sim.run")
    tracer.patch(sim, "is_stabilizer", "sim.judge")
    tracer.patch(sim, "batch_uniforms", "noise.uniforms")
    tracer.patch(sim, "sample_error_classes_batch", "noise.classes")
    tracer.patch(sim, "syndrome", "codes.syndrome")

    original_decode = vars(decoder_cls)["decode"]

    def decode(self, s):
        try:
            return original_decode(self, s)
        except decoders.UnattainableSyndromeError:
            tracer.add("decoders.unattainable")
            raise

    tracer.patch(decoder_cls, "decode", "decoders.decode", inner=decode)
    if "decode_batch" in vars(decoder_cls):
        tracer.patch(decoder_cls, "decode_batch", "decoders.decode_batch")
    tracer.patch(decoders, "solve", "gf2.solve")
    tracer.patch(decoders, "candidate_recovery", "decoders.candidate")

    original_contract = vars(tensor)["contract_columns"]

    def contract_columns(columns, chi, stats=None):
        return original_contract(columns, chi, tracer.mps_stats if stats is None else stats)

    def count_truncate(mps, column, chi, stats=None):
        # An absorbed bond is the product of the boundary bond and the
        # column's vertical bond; truncation does useful work only above chi.
        if not mps.is_zero and any(
            a.shape[1] * t.shape[1] > chi for a, t in zip(mps.tensors, column)
        ):
            tracer.add("tensor.truncate.over_chi")

    tracer.patch(tensor, "build_coset_network", "tensor.build")
    tracer.patch(tensor, "contract_columns", "tensor.contract", inner=contract_columns)
    tracer.patch(tensor, "apply_and_truncate", "tensor.truncate", count=count_truncate)

    def count_solve_batch(solver, B):
        tracer.add("gf2.solve_batch.rows", B.shape[0])
        tracer.add("gf2.solve_batch.macs", B.shape[0] * solver.rows * solver.cols)

    def count_reduce(solver, V):
        tracer.add("gf2.reduce.rows", V.shape[0])

    tracer.patch(Gf2Solver, "solve", "gf2.solver_solve")
    tracer.patch(Gf2Solver, "solve_batch", "gf2.solve_batch", count=count_solve_batch)
    tracer.patch(Gf2Solver, "reduce_rowspace_batch", "gf2.reduce", count=count_reduce)
    tracer.patch(Gf2Solver, "is_consistent", "gf2.consistent")
