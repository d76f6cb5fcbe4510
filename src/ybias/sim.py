"""Monte Carlo failure-rate estimation, convergence studies, threshold fits.

Determinism contract: trial i of a run with master seed s always samples the
same error, regardless of batching, worker count, or scheduling.  Each trial
owns a fixed counter block of the Philox stream derived from s, and
aggregation is pure counting (associative and commutative), so identical
(seed, config) pairs produce bit-identical results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codes import StabilizerCode, syndrome, syndrome_batch
from .decoders import MpsDecoder, UnattainableSyndromeError
from .noise import (
    BiasedNoiseModel,
    batch_uniforms,
    counters_per_trial,
    derive_key,
    sample_error_classes_batch,
)
from .pauli import PauliOperator

__all__ = [
    "TrialRecord",
    "FailureRateResult",
    "ConvergencePoint",
    "ConvergenceResult",
    "FailurePoint",
    "ThresholdFit",
    "is_stabilizer",
    "is_stabilizer_batch",
    "estimate_failure_rate",
    "convergence_study",
    "fit_threshold",
    "failure_row",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class TrialRecord:
    """One decoded trial; success means recovery * error is a stabilizer."""

    code_id: str
    decoder: str
    params: tuple[tuple[str, object], ...]
    p: float
    eta: float
    trial_index: int
    error_digest: str
    verdict: str
    success: bool


@dataclass(frozen=True)
class FailureRateResult:
    """Failure fraction with binomial standard error.

    ``decoder_errors`` counts trials the decoder refused (reported
    separately, never as failures); the rate denominator excludes them.
    """

    rate: float
    stderr: float
    trials: int
    failures: int
    decoder_errors: int = 0
    records: tuple[TrialRecord, ...] | None = None


def is_stabilizer_batch(
    code: StabilizerCode, x_rows: np.ndarray, z_rows: np.ndarray
) -> np.ndarray:
    """Per row i, whether the Pauli (``x_rows[i]``, ``z_rows[i]``) is a stabilizer.

    Membership is over GF(2), so phases are ignored: the X part must lie in
    the X-check row space and the Z part in the Z-check row space.  Identity
    rows are members without a reduction, so only the rows that need it
    reach the reducer: under pure Y on the rotated layout, the failed trials.
    """
    member = np.ones(len(x_rows), dtype=bool)
    rows = np.flatnonzero(x_rows.any(axis=1) | z_rows.any(axis=1))
    if rows.size:
        x_left = code.x_solver.reduce_rowspace_batch(x_rows[rows])
        z_left = code.z_solver.reduce_rowspace_batch(z_rows[rows])
        member[rows] = ~(x_left.any(axis=1) | z_left.any(axis=1))
    return member


def is_stabilizer(code: StabilizerCode, op: PauliOperator) -> bool:
    """GF(2) membership of op in the stabilizer group (phases ignored)."""
    return bool(is_stabilizer_batch(code, op.x_bits[None], op.z_bits[None])[0])


def _digest(x_bits: np.ndarray, z_bits: np.ndarray) -> str:
    return np.packbits(np.concatenate([x_bits, z_bits])).tobytes().hex()


# Bytes of float64 uniforms per chunk of trials: small enough that a chunk's
# blocks (uniforms, classes, syndromes, candidates) stay near the CPU cache
# and the trial loop's memory does not grow with the trial count.
_CHUNK_BYTES = 2 * 1024 * 1024


def _chunk_size(n: int) -> int:
    """Trials per chunk: as many whole Philox counter blocks as fit in ``_CHUNK_BYTES``."""
    per_trial = 4 * counters_per_trial(n) * 8
    return max(1, _CHUNK_BYTES // per_trial)


def _run_range(
    decoder, model: BiasedNoiseModel, seed: int, start: int, count: int, keep_records: bool
) -> tuple[int, int, list[TrialRecord]]:
    """Decode trials [start, start+count); returns (failures, decoder_errors, records).

    A decoder with ``decode_batch`` takes each chunk's syndromes at once;
    any other decodes them one by one.  Either way every recovery is judged
    here, by stabilizer membership of recovery * error.  Only an
    UnattainableSyndromeError from a one-by-one decode counts as a decoder
    error; any other exception (a numerical failure, say) propagates.
    """
    code = decoder.code
    key = derive_key(seed)
    failures = 0
    decoder_errors = 0
    records: list[TrialRecord] = []
    params = tuple(sorted(decoder.params.items()))
    batch = getattr(decoder, "decode_batch", None)
    step = _chunk_size(code.n)

    for lo in range(start, start + count, step):
        hi = min(start + count, lo + step)
        classes = sample_error_classes_batch(model, batch_uniforms(key, lo, hi - lo, code.n))
        x_rows = classes & 1
        z_rows = classes >> 1
        if batch is not None:
            recovery_x, recovery_z, verdicts = batch(syndrome_batch(code, x_rows, z_rows))
            success = is_stabilizer_batch(code, recovery_x ^ x_rows, recovery_z ^ z_rows)
            del recovery_x, recovery_z
            decoded = range(hi - lo)
        else:
            decoded, verdicts, success = [], [], []
            for i in range(hi - lo):
                err = PauliOperator(x_rows[i], z_rows[i])
                try:
                    outcome = decoder.decode(syndrome(code, err))
                except UnattainableSyndromeError:
                    decoder_errors += 1
                    continue
                decoded.append(i)
                verdicts.append(outcome.verdict or "")
                success.append(is_stabilizer(code, outcome.recovery.mul(err)))
        failures += len(decoded) - int(np.count_nonzero(success))
        if keep_records:
            records.extend(
                TrialRecord(
                    code.id,
                    decoder.name,
                    params,
                    model.p,
                    model.eta,
                    lo + i,
                    _digest(x_rows[i], z_rows[i]),
                    str(verdict),
                    bool(ok),
                )
                for i, verdict, ok in zip(decoded, verdicts, success)
            )
        # Free this chunk's arrays before the next chunk's uniforms are drawn.
        del classes, x_rows, z_rows, verdicts, success
    return failures, decoder_errors, records


def _worker_run(payload) -> tuple[int, int, list[TrialRecord]]:
    return _run_range(*payload)


def estimate_failure_rate(
    code: StabilizerCode,
    decoder,
    model: BiasedNoiseModel,
    trials: int,
    seed: int,
    workers: int | None = None,
    keep_records: bool = False,
) -> FailureRateResult:
    """Monte Carlo failure fraction with binomial standard error.

    Trial i samples its error from a counter block of the seed-derived
    Philox stream, so results do not depend on worker count or chunking.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if decoder.code.id != code.id:
        raise ValueError(f"decoder is for {decoder.code.id}, not {code.id}")
    workers = workers or 1
    if workers > 1 and trials >= 4 * workers:
        # Here, not at module level: a one-worker run loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, trials, workers + 1).astype(int)
        payloads = [
            (decoder, model, seed, int(lo), int(hi - lo), keep_records)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_worker_run, payloads))
        failures = sum(p[0] for p in parts)
        decoder_errors = sum(p[1] for p in parts)
        records: list[TrialRecord] = [r for p in parts for r in p[2]]
    else:
        failures, decoder_errors, records = _run_range(
            decoder, model, seed, 0, trials, keep_records
        )
    decoded = trials - decoder_errors
    if decoded == 0:
        raise RuntimeError("decoder rejected every trial; no rate available")
    rate = failures / decoded
    stderr = math.sqrt(rate * (1.0 - rate) / decoded)
    return FailureRateResult(
        rate, stderr, trials, failures, decoder_errors, tuple(records) if keep_records else None
    )


# -- convergence in bond dimension ----------------------------------------


@dataclass(frozen=True)
class ConvergencePoint:
    chi: int
    rate: float
    stderr: float
    shifted: float
    converged: bool


@dataclass(frozen=True)
class ConvergenceResult:
    reference_chi: int
    points: tuple[ConvergencePoint, ...]


def convergence_study(
    code: StabilizerCode,
    model: BiasedNoiseModel,
    chis: Sequence[int],
    trials: int,
    seed: int,
    workers: int | None = None,
) -> ConvergenceResult:
    """Failure rates at several bond dimensions on identical sampled errors.

    Reports rates shifted by the rate at the largest chi; a point is marked
    converged when its shift is within half the reference standard error.
    """
    if len(set(chis)) < 2:
        raise ValueError(f"convergence_study needs two distinct chi values, got {list(chis)}")
    chi_max = max(chis)
    # Every decoder is built, and so every chi checked, before any decoding.
    decoders = {chi: MpsDecoder(code, model, chi) for chi in dict.fromkeys(chis)}
    results = {
        chi: estimate_failure_rate(code, decoder, model, trials, seed, workers)
        for chi, decoder in decoders.items()
    }
    ref = results[chi_max]
    points = tuple(
        ConvergencePoint(
            chi,
            results[chi].rate,
            results[chi].stderr,
            results[chi].rate - ref.rate,
            abs(results[chi].rate - ref.rate) <= 0.5 * ref.stderr,
        )
        for chi in chis
    )
    return ConvergenceResult(chi_max, points)


# -- threshold fitting -----------------------------------------------------


@dataclass(frozen=True)
class FailurePoint:
    distance: int
    p: float
    rate: float
    stderr: float
    trials: int | None = None


@dataclass(frozen=True)
class ThresholdFit:
    p_c: float
    p_c_stderr: float
    nu: float
    nu_stderr: float
    coefficients: tuple[float, float, float]
    jackknife_p_c: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "p_c": self.p_c,
            "p_c_stderr": self.p_c_stderr,
            "nu": self.nu,
            "nu_stderr": self.nu_stderr,
            "coefficients": list(self.coefficients),
            "jackknife_p_c": list(self.jackknife_p_c),
        }


def _floored_stderr(pt: FailurePoint) -> float:
    if pt.stderr > 0.0:
        return pt.stderr
    if pt.trials:
        centered = (pt.rate * pt.trials + 0.5) / (pt.trials + 1)
        return math.sqrt(centered * (1.0 - centered) / pt.trials)
    raise ValueError(
        "point with zero stderr needs a trial count for the Wilson floor"
    )


# The fit's bounds on p_c and nu; an initial guess outside them is refused.
_PC_BOUNDS = (1e-6, 1.0 - 1e-6)
_NU_BOUNDS = (0.2, 10.0)


def _fit_once(
    points: Sequence[FailurePoint], nu_init: float, pc_init: float
) -> np.ndarray:
    import scipy.optimize  # here, not at module level: no other sim path needs scipy

    d = np.array([pt.distance for pt in points], dtype=np.float64)
    p = np.array([pt.p for pt in points], dtype=np.float64)
    f = np.array([pt.rate for pt in points], dtype=np.float64)
    w = 1.0 / np.array([_floored_stderr(pt) for pt in points])

    def residuals(theta: np.ndarray) -> np.ndarray:
        pc, nu, a, b, c = theta
        x = (p - pc) * d ** (1.0 / nu)
        return (a + b * x + c * x * x - f) * w

    x0 = np.array([pc_init, nu_init, float(f.mean()), 1.0, 0.0])
    result = scipy.optimize.least_squares(
        residuals,
        x0,
        bounds=(
            [_PC_BOUNDS[0], _NU_BOUNDS[0], -np.inf, -np.inf, -np.inf],
            [_PC_BOUNDS[1], _NU_BOUNDS[1], np.inf, np.inf, np.inf],
        ),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=20000,
    )
    if not result.success:
        raise RuntimeError(f"threshold fit did not converge: {result.message}")
    return result.x


def fit_threshold(
    data: Iterable[FailurePoint], nu_init: float = 1.0, pc_init: float | None = None
) -> ThresholdFit:
    """Critical-exponent crossing fit f = A + Bx + Cx^2, x = (p - p_c) d^(1/nu).

    Weighted least squares over all points; the quoted uncertainty is the
    jackknife spread over leave-one-distance-out refits.  The fit runs on
    ``scipy.optimize.least_squares``, which is imported on the first call:
    this is the one ``sim`` function that needs scipy.
    """
    points = list(data)
    by_distance: dict[int, list[FailurePoint]] = {}
    for pt in points:
        by_distance.setdefault(pt.distance, []).append(pt)
    if len(by_distance) < 3:
        raise ValueError(f"need >= 3 distances, got {sorted(by_distance)}")
    for dist, pts in by_distance.items():
        if len({pt.p for pt in pts}) < 3:
            raise ValueError(f"distance {dist} has fewer than 3 distinct p-values")
    if pc_init is None:
        pc_init = float(np.mean([pt.p for pt in points]))
    for dist, pts in by_distance.items():
        lo, hi = min(pt.p for pt in pts), max(pt.p for pt in pts)
        if not (lo <= pc_init <= hi):
            raise ValueError(
                f"p-values for distance {dist} ([{lo}, {hi}]) do not bracket p_c guess {pc_init}"
            )

    full = _fit_once(points, nu_init, pc_init)
    estimates = []
    nus = []
    for leave_out in sorted(by_distance):
        subset = [pt for pt in points if pt.distance != leave_out]
        theta = _fit_once(subset, float(full[1]), float(full[0]))
        estimates.append(float(theta[0]))
        nus.append(float(theta[1]))
    m = len(estimates)
    pc_bar = sum(estimates) / m
    nu_bar = sum(nus) / m
    pc_err = math.sqrt((m - 1) / m * sum((e - pc_bar) ** 2 for e in estimates))
    nu_err = math.sqrt((m - 1) / m * sum((e - nu_bar) ** 2 for e in nus))
    return ThresholdFit(
        float(full[0]),
        pc_err,
        float(full[1]),
        nu_err,
        (float(full[2]), float(full[3]), float(full[4])),
        tuple(estimates),
    )


# -- deterministic result files -------------------------------------------

CSV_COLUMNS = (
    "layout",
    "j",
    "k",
    "eta",
    "p",
    "decoder",
    "chi",
    "trials",
    "failures",
    "rate",
    "stderr",
    "seed",
)


def format_number(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def failure_row(
    code: StabilizerCode,
    model: BiasedNoiseModel,
    decoder,
    result: FailureRateResult,
    seed: int,
) -> dict:
    return {
        "layout": code.layout,
        "j": code.j,
        "k": code.k,
        "eta": model.eta,
        "p": model.p,
        "decoder": decoder.name,
        "chi": decoder.params.get("chi"),
        "trials": result.trials,
        "failures": result.failures,
        "rate": result.rate,
        "stderr": result.stderr,
        "seed": seed,
    }


def csv_text(
    rows: Iterable[Mapping],
    metadata: Mapping[str, object],
    columns: Sequence[str] = CSV_COLUMNS,
) -> str:
    """Rows with a reproducibility header; output is byte-deterministic."""
    lines = [f"# {key} = {format_number(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_number(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return format_number(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def json_text(payload: Mapping) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"

