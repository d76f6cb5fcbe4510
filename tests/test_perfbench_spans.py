"""The benchmark's own checks, run early against ``src/``.

``perfbench/spans.py`` patches decoder methods and module attributes by
name (``vars(owner)[attr]``), and the traced benchmark run requires each
workload's ``expected_spans`` to record calls.  A renamed or bypassed call
site in ``src/`` would fail that run; these tests fail first.  Every
benchmark run also decodes each workload's reference batch and compares
its failure count with ``perfbench/workloads.py``; a kernel change that
flips a count fails here first too.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from ybias import codes, decoders, sim
from ybias.noise import BiasedNoiseModel
from ybias.pauli import PauliOperator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return sys.modules[module_name]


spans = _load("spans")
workloads = _load("workloads")

PURE_Y = BiasedNoiseModel(0.1, math.inf)
DEPOLARIZING = BiasedNoiseModel(0.1, 0.5)

# One decoder of each class, and the spans one decode must record.
DECODERS = {
    "exact-y": (
        lambda: decoders.ExactYDecoder(codes.build_rotated_code(3, 3), PURE_Y),
        ("decoders.decode", "gf2.solve_batch"),
    ),
    "concatenated-y": (
        lambda: decoders.ConcatenatedYDecoder(codes.build_standard_code(4, 4)),
        ("decoders.decode", "gf2.solve", "gf2.consistent"),
    ),
    "brute-force": (
        lambda: decoders.BruteForceDecoder(codes.build_rotated_code(3, 3), DEPOLARIZING),
        ("decoders.decode", "decoders.candidate", "gf2.solver_solve", "gf2.consistent"),
    ),
    "mps": (
        lambda: decoders.MpsDecoder(codes.build_rotated_code(3, 3), DEPOLARIZING, chi=4),
        ("decoders.decode", "decoders.candidate", "gf2.solver_solve", "gf2.consistent")
        + ("tensor.build", "tensor.contract", "tensor.truncate"),
    ),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_one_decode_reaches_every_patched_call_site(name):
    make, expected = DECODERS[name]
    decoder = make()
    tracer = spans.Tracer()
    spans.instrument(tracer, type(decoder))  # KeyError on a renamed call site
    error = PauliOperator.single(decoder.code.n, 0, "Y")
    with tracer.active():
        decoder.decode(codes.syndrome(decoder.code, error))
    assert tracer.totals["decoders.decode"][2] == 1
    assert [span for span in expected if tracer.totals[span][2] == 0] == []


def _workload_setup(wl, make_decoder=decoders.decoder_from_name):
    """Code, model and decoder of a benchmark workload, set up as its worker does."""
    build = codes.build_rotated_code if wl.layout == "rotated" else codes.build_standard_code
    code = build(wl.size, wl.size)
    model = BiasedNoiseModel(wl.p, wl.eta)
    chi = {} if wl.chi is None else {"chi": wl.chi}
    return code, model, make_decoder(wl.decoder, code, model, **chi)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_records_its_expected_spans(name):
    """A short traced run of each benchmark workload."""
    wl = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    code, model, decoder = _workload_setup(wl, tracer.wrapper("decoders.init", decoders.decoder_from_name))
    spans.instrument(tracer, type(decoder))
    with tracer.active():
        result = sim.estimate_failure_rate(code, decoder, model, wl.batch_trials, 5, workers=1)
    assert result.decoder_errors == 0
    assert [span for span in wl.expected_spans if tracer.totals[span][2] == 0] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reference_counts(name):
    """The default-seed reference batch gives the failure count the benchmark's gate expects."""
    wl = workloads.WORKLOADS[name]
    code, model, decoder = _workload_setup(wl)
    ref = sim.estimate_failure_rate(
        code, decoder, model, wl.reference_trials, workloads.DEFAULT_SEED, workers=1
    )
    assert ref.decoder_errors == 0
    assert abs(ref.failures - wl.reference_failures) <= wl.failure_tolerance
