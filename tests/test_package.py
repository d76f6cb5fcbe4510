"""The public names are pinned and resolve; importing ybias loads no scipy or process pool."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ybias

MODULES = ["ybias"] + [f"ybias.{info.name}" for info in pkgutil.iter_modules(ybias.__path__)]


# Every module's __all__, in order (None: the module declares none).  Adding or
# dropping a public name is an edit to this table.
PUBLIC_SURFACE = {
    "ybias": (
        "__version__ StabilizerCode build_standard_code build_rotated_code syndrome "
        "PauliOperator BiasedNoiseModel hashing_bound CycleCode YCodeStructure cycle_code "
        "y_code_structure DecodeOutcome UnattainableSyndromeError cycle_failure_bound "
        "decoder_from_name ExactYDecoder ConcatenatedYDecoder BruteForceDecoder MpsDecoder "
        "FailureRateResult FailurePoint ThresholdFit estimate_failure_rate convergence_study "
        "fit_threshold"
    ),
    "ybias.cli": None,
    "ybias.codes": (
        "StabilizerCode build_standard_code build_rotated_code syndrome "
        "syndrome_batch y_distance y_logical_count construct_y_logical "
        "propagate_y_from_top"
    ),
    "ybias.decoders": (
        "DecodeOutcome UnattainableSyndromeError cycle_decode_batch "
        "cycle_failure_bound candidate_recovery ExactYDecoder ConcatenatedYDecoder "
        "BruteForceDecoder MpsDecoder decoder_from_name"
    ),
    "ybias.gf2": "matmul_mod2 rank rref solve Gf2Solver",
    "ybias.noise": "BiasedNoiseModel hashing_bound derive_key batch_uniforms counters_per_trial",
    "ybias.pauli": "PauliOperator",
    "ybias.sim": (
        "TrialRecord FailureRateResult ConvergencePoint ConvergenceResult FailurePoint "
        "ThresholdFit is_stabilizer is_stabilizer_batch estimate_failure_rate convergence_study "
        "fit_threshold failure_row CSV_COLUMNS"
    ),
    "ybias.tensor": (
        "NetworkLayout SiteTensorSpec Column network_layout build_coset_network "
        "contract_columns"
    ),
    "ybias.ycode": "YCodeStructure y_code_structure CycleCode cycle_code",
}


def test_public_surface_is_pinned():
    assert sorted(MODULES) == sorted(PUBLIC_SURFACE)
    for name, expected in PUBLIC_SURFACE.items():
        exported = getattr(importlib.import_module(name), "__all__", None)
        assert exported == (None if expected is None else expected.split()), name


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


# Every source module but ``ybias/__init__.py``, which imports to re-export,
# and every file of the test suite, ``support.py`` and ``conftest.py`` included.
IMPORTING_FILES = [
    pytest.param(Path(importlib.import_module(name).__file__), id=name)
    for name in MODULES
    if name != "ybias"
] + [
    pytest.param(path, id=f"tests.{path.stem}") for path in sorted(Path(__file__).parent.glob("*.py"))
]


@pytest.mark.parametrize("path", IMPORTING_FILES)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from ybias import *", namespace)
    assert set(ybias.__all__) <= namespace.keys()


# Runs in a fresh interpreter: this test process has scipy loaded already.
_SCIPY_PROBE = r"""
import importlib, json, math, pkgutil, sys

import ybias
import ybias.cli
for info in pkgutil.iter_modules(ybias.__path__):
    importlib.import_module(f"ybias.{info.name}")

from ybias.codes import build_rotated_code, build_standard_code
from ybias.decoders import ConcatenatedYDecoder, ExactYDecoder, MpsDecoder
from ybias.noise import BiasedNoiseModel
from ybias.sim import FailurePoint, estimate_failure_rate, fit_threshold

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def failures(code, decoder, model):
    result = estimate_failure_rate(code, decoder, model, 200, 5, workers=1)
    assert result.decoder_errors == 0
    return result.failures

pure_y = BiasedNoiseModel(0.3, math.inf)
depolarizing = BiasedNoiseModel(0.1, 0.5)
rotated, standard = build_rotated_code(3, 3), build_standard_code(4, 4)
exact = failures(rotated, ExactYDecoder(rotated, pure_y), pure_y)
failures(standard, ConcatenatedYDecoder(standard), pure_y)
failures(rotated, MpsDecoder(rotated, depolarizing, 2), depolarizing)  # merged: chi >= 2^1
report = {"after_benchmark_paths": loaded()}

chain = failures(rotated, MpsDecoder(rotated, pure_y, 1), pure_y)  # truncating chain
report["chain_matches_exact"] = chain == exact
report["after_chain"] = loaded()

points = []
for d in (5, 9, 13):
    for p in (0.16, 0.175, 0.19, 0.205, 0.22):
        x = (p - 0.188) * d ** (1.0 / 1.4)
        points.append(FailurePoint(d, p, 0.28 + 1.1 * x + 0.6 * x * x, 1e-4, 10_000))
report["fit_p_c"] = fit_threshold(points).p_c
report["after_fit"] = loaded()
print(json.dumps(report))
"""


def _probe(script: str) -> dict:
    """Run ``script`` in a fresh interpreter on this checkout; its last stdout line is JSON."""
    src = Path(ybias.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_is_imported_only_by_the_chain_and_the_fit():
    report = _probe(_SCIPY_PROBE)
    assert report["after_benchmark_paths"] == []
    assert report["chain_matches_exact"]
    assert "scipy.linalg" in report["after_chain"]
    assert "scipy.optimize" not in report["after_chain"]
    assert report["fit_p_c"] == pytest.approx(0.188, abs=1e-6)
    assert "scipy.optimize" in report["after_fit"]


_PROCESS_PROBE = r"""
import json, math, sys

import ybias
import ybias.cli
from ybias.codes import build_rotated_code
from ybias.decoders import ExactYDecoder
from ybias.noise import BiasedNoiseModel
from ybias.sim import estimate_failure_rate

def loaded():
    names = ("concurrent.futures.process", "multiprocessing", "socket", "subprocess")
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

report = {"after_import": loaded()}
model = BiasedNoiseModel(0.3, math.inf)
code = build_rotated_code(3, 3)
decoder = ExactYDecoder(code, model)
one = estimate_failure_rate(code, decoder, model, 200, 5, workers=1)
report["after_one_worker"] = loaded()
two = estimate_failure_rate(code, decoder, model, 200, 5, workers=2)
report["two_workers_match"] = two == one
report["after_two_workers"] = loaded()
print(json.dumps(report))
"""


def test_process_pool_is_imported_only_by_a_multi_worker_run():
    report = _probe(_PROCESS_PROBE)
    assert report["after_import"] == []
    assert report["after_one_worker"] == []
    assert report["two_workers_match"]
    assert "concurrent.futures.process" in report["after_two_workers"]
