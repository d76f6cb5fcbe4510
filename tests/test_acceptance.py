"""End-to-end acceptance runs: structure, rates, thresholds, determinism.

Each numbered test exercises one headline property at full scale; the
helper functions are parameterized by scale so the determinism test can
re-run the same pipelines small and compare output bytes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
import scipy.stats

import support
from support import cycle_decode, nullspace_basis, sample_error
from ybias.codes import (
    build_rotated_code,
    build_standard_code,
    syndrome,
    y_distance,
    y_logical_count,
)
from ybias.decoders import (
    BruteForceDecoder,
    ExactYDecoder,
    MpsDecoder,
    cycle_decode_batch,
    cycle_failure_bound,
)
from ybias.gf2 import rank
from ybias.noise import BiasedNoiseModel, hashing_bound
from ybias.pauli import PauliOperator
from ybias.sim import (
    FailurePoint,
    csv_text,
    estimate_failure_rate,
    failure_row,
    fit_threshold,
    is_stabilizer,
)
from ybias.ycode import cycle_code, y_code_structure


# -- shared pipeline cores (full scale in the criterion tests, reduced in 11) --


def cycle_decoder_benchmark(m: int, p: float, trials: int, seed: int):
    """Decode i.i.d. edge flips on the complete-graph cycle code."""
    code = cycle_code(m)
    rng = np.random.default_rng(seed)
    errors = (rng.random((trials, code.num_bits)) < p).astype(np.uint8)
    decoded = cycle_decode_batch(m, errors)
    misidentified = int((decoded != errors).any(axis=1).sum())
    rate = misidentified / trials
    rows = [
        {
            "m": m,
            "p": p,
            "trials": trials,
            "misidentified": misidentified,
            "rate": rate,
            "bound": cycle_failure_bound(m, p),
            "seed": seed,
        }
    ]
    text = csv_text(
        rows,
        {"command": "cycle-benchmark", "seed": seed},
        columns=("m", "p", "trials", "misidentified", "rate", "bound", "seed"),
    )
    return rate, cycle_failure_bound(m, p), text


# Criterion 5: the largest relative error of an MPS coset probability.
COSET_REL_ERR_BOUND = 1e-10


def coset_probability_comparison(ps, samples: int, chi: int, seed: int):
    """Worst relative disagreement between MPS and brute-force coset sums.

    The text prints, per p, whether the worst relative error is within
    ``COSET_REL_ERR_BOUND`` (1 or 0), not the error itself, which is
    rounding-level and would follow any change of summation order.
    """
    code = build_rotated_code(3, 3)
    rows = []
    worst = 0.0
    for index, p in enumerate(ps):
        model = BiasedNoiseModel(p=p, eta=0.5)
        mps = MpsDecoder(code, model, chi)
        brute = BruteForceDecoder(code, model)
        rng = np.random.default_rng(seed + index)
        p_worst = 0.0
        for _ in range(samples):
            s = syndrome(code, sample_error(model, code.n, rng))
            got = mps.decode(s).coset_scores
            want = brute.decode(s).coset_scores
            for label in ("I", "X", "Y", "Z"):
                a, b = math.exp(got[label]), math.exp(want[label])
                assert b > 0.0
                p_worst = max(p_worst, abs(a - b) / b)
        worst = max(worst, p_worst)
        rows.append(
            {
                "p": p,
                "samples": samples,
                "within_bound": int(p_worst <= COSET_REL_ERR_BOUND),
                "seed": seed + index,
            }
        )
    text = csv_text(
        rows,
        {"command": "coset-comparison", "chi": chi, "bound": COSET_REL_ERR_BOUND, "seed": seed},
        columns=("p", "samples", "within_bound", "seed"),
    )
    return worst, text


def pure_y_verdict_comparison(distances, ps, samples: int, seed: int):
    """Count recovery-class disagreements between chi=1 MPS and the exact decoder."""
    rows = []
    total_mismatches = 0
    for d_index, d in enumerate(distances):
        code = build_rotated_code(d, d)
        for p_index, p in enumerate(ps):
            model = BiasedNoiseModel(p=p, eta=math.inf)
            mps = MpsDecoder(code, model, chi=1)
            exact = ExactYDecoder(code, model)
            rng = np.random.default_rng(seed + 100 * d_index + p_index)
            mismatches = 0
            for _ in range(samples):
                s = syndrome(code, sample_error(model, code.n, rng))
                a = mps.decode(s).recovery
                b = exact.decode(s).recovery
                if support.relative_class(code, a, b) != "I":
                    mismatches += 1
            total_mismatches += mismatches
            rows.append(
                {
                    "distance": d,
                    "p": p,
                    "samples": samples,
                    "mismatches": mismatches,
                    "seed": seed + 100 * d_index + p_index,
                }
            )
    text = csv_text(
        rows,
        {"command": "pure-y-verdicts", "seed": seed},
        columns=("distance", "p", "samples", "mismatches", "seed"),
    )
    return total_mismatches, text


def pure_y_threshold_sweep(distances, ps, trials: int, seed: int):
    """Failure-rate grid for the exact decoder under pure Y noise."""
    rows = []
    points = []
    for d in distances:
        code = build_rotated_code(d, d)
        for p in ps:
            model = BiasedNoiseModel(p=p, eta=math.inf)
            decoder = ExactYDecoder(code, model)
            result = estimate_failure_rate(code, decoder, model, trials, seed)
            rows.append(failure_row(code, model, decoder, result, seed))
            points.append(FailurePoint(d, p, result.rate, result.stderr, result.trials))
    text = csv_text(rows, {"command": "pure-y-threshold", "trials": trials, "seed": seed})
    return points, text


def pure_y_decay_sweep(trials_by_distance, p: float, seed: int):
    """Failure rate of the exact decoder per distance at fixed pure-Y rate."""
    rows = []
    measured = []
    for d, trials in trials_by_distance.items():
        code = build_rotated_code(d, d)
        model = BiasedNoiseModel(p=p, eta=math.inf)
        decoder = ExactYDecoder(code, model)
        result = estimate_failure_rate(code, decoder, model, trials, seed)
        rows.append(failure_row(code, model, decoder, result, seed))
        measured.append((code.y_dist, result))
    text = csv_text(rows, {"command": "pure-y-decay", "p": p, "seed": seed})
    return measured, text


def layout_comparison(trials: int, p: float, seed: int):
    """Rotated versus square layout at equal distance under pure Y noise."""
    model = BiasedNoiseModel(p=p, eta=math.inf)
    results = []
    rows = []
    for code in (build_rotated_code(9, 9), build_standard_code(9, 9)):
        decoder = ExactYDecoder(code, model)
        result = estimate_failure_rate(code, decoder, model, trials, seed)
        rows.append(failure_row(code, model, decoder, result, seed))
        results.append(result)
    text = csv_text(rows, {"command": "layout-comparison", "p": p, "seed": seed})
    return results[0], results[1], text


def biased_threshold_sweep(distances, ps, trials: int, chi: int, seed: int):
    """MPS failure-rate grid under finite bias."""
    rows = []
    points = []
    for d in distances:
        code = build_rotated_code(d, d)
        for p in ps:
            model = BiasedNoiseModel(p=p, eta=0.5)
            decoder = MpsDecoder(code, model, chi)
            result = estimate_failure_rate(code, decoder, model, trials, seed)
            rows.append(failure_row(code, model, decoder, result, seed))
            points.append(FailurePoint(d, p, result.rate, result.stderr, result.trials))
    text = csv_text(
        rows, {"command": "biased-threshold", "chi": chi, "trials": trials, "seed": seed}
    )
    return points, text


def brute_force_y_operators(code):
    """Y-type logical count and minimum weight from the raw kernel span."""
    basis = nullspace_basis(code.y_checks)
    dim = len(basis)
    stack = np.stack(basis)
    subsets = (
        (np.arange(1 << dim, dtype=np.int64)[:, None] >> np.arange(dim)) & 1
    ).astype(np.uint8)
    span = (subsets @ stack) & 1
    logicals = [
        bits
        for bits in span
        if not is_stabilizer(code, PauliOperator.y_type(bits))
    ]
    weights = [int(b.sum()) for b in logicals]
    return len(logicals), (min(weights) if weights else None)


# -- the acceptance criteria ----------------------------------------------


def test_criterion_01():
    """Distance and operator-count formulas across the family grid."""
    for j in range(2, 13):
        for k in range(2, 13):
            g = math.gcd(j, k)
            assert y_distance(j, k, "standard") == (2 * g - 1) * j * k // (g * g)
            assert y_logical_count(j, k, "standard") == 2 ** (g - 1)
            if j % 2 and k % 2:
                assert y_distance(j, k, "rotated") == j * k
                assert y_logical_count(j, k, "rotated") == 1
    # Independent check against the raw kernel span at small sizes.
    for j in range(2, 7):
        for k in range(2, 7):
            code = build_standard_code(j, k)
            count, min_weight = brute_force_y_operators(code)
            assert count == y_logical_count(j, k, "standard")
            assert min_weight == y_distance(j, k, "standard")
    for j, k in [(3, 3), (3, 5), (5, 3), (5, 5)]:
        code = build_rotated_code(j, k)
        count, min_weight = brute_force_y_operators(code)
        assert count == y_logical_count(j, k, "rotated")
        assert min_weight == y_distance(j, k, "rotated")


def test_criterion_02():
    """Concatenation structure: block multiplicities and diagonal span."""
    for j, k in [(4, 4), (3, 4), (8, 12), (6, 9)]:
        g = math.gcd(j, k)
        t = j * k // (g * g)
        structure = y_code_structure(j, k)
        assert structure.g == g and structure.t == t
        blocks: dict[int, int] = {}
        for _, members in structure.repetition_blocks:
            blocks[len(members)] = blocks.get(len(members), 0) + 1
        expected = {t: 1}
        if g > 1:
            expected[2 * t] = 2 * (g - 1)
            expected[4 * t] = g * (g + 1) // 2 - 2 * g + 1
        assert blocks == {size: mult for size, mult in expected.items() if mult}
        diagonals = np.stack([op.x_bits for op in structure.extended_diagonals])
        assert rank(diagonals) == g


def test_criterion_03():
    """Hashing-bound thresholds across eight bias values."""
    reference = [
        (0.5, 0.189),
        (1.0, 0.194),
        (3.0, 0.222),
        (10.0, 0.278),
        (30.0, 0.335),
        (100.0, 0.390),
        (300.0, 0.428),
        (1000.0, 0.456),
    ]
    for eta, expected in reference:
        assert abs(hashing_bound(eta) - expected) <= 1e-3


def test_criterion_04():
    """Cycle decoder: failure bound at scale, exact ML agreement at m=4."""
    rate, bound, _ = cycle_decoder_benchmark(m=20, p=0.25, trials=100_000, seed=20)
    assert rate <= bound
    # m = 4, p = 0.1: exhaustive comparison on the syndromes where both the
    # vote rule and min-weight decoding are unambiguous (8 of 64 patterns).
    m = 4
    code = cycle_code(m)
    basis = nullspace_basis(code.checks)
    stack = np.stack(basis)
    subsets = (
        (np.arange(1 << len(basis), dtype=np.int64)[:, None] >> np.arange(len(basis))) & 1
    ).astype(np.uint8)
    codewords = (subsets @ stack) & 1
    dense = code.checks
    checked = 0
    for pattern in range(1 << code.num_bits):
        e = ((pattern >> np.arange(code.num_bits)) & 1).astype(np.uint8)
        s = (dense @ e.astype(np.uint64)) & 1
        votes = dense.T.astype(np.int64) @ s.astype(np.int64)
        if (votes == (m - 2) // 2).any():
            continue
        coset = codewords ^ e
        weights = coset.sum(axis=1)
        if (weights == weights.min()).sum() != 1:
            continue
        tmap = {
            tri: int(s[row])
            for row, tri in enumerate(code.triangles)
        }
        assert np.array_equal(cycle_decode(m, tmap), coset[int(np.argmin(weights))])
        checked += 1
    assert checked == 8


def test_criterion_05():
    """MPS at chi=64 reproduces brute-force coset probabilities at 3x3."""
    worst, _ = coset_probability_comparison(
        ps=(0.05, 0.1, 0.15), samples=1000, chi=64, seed=50
    )
    assert worst <= COSET_REL_ERR_BOUND


def test_criterion_06():
    """chi=1 MPS decoding equals exact decoding under pure Y noise."""
    mismatches, _ = pure_y_verdict_comparison(
        distances=(5, 7), ps=(0.1, 0.3, 0.45), samples=10_000, seed=60
    )
    assert mismatches == 0


def test_criterion_07():
    """Pure-Y threshold of the rotated family sits at 50%."""
    points, _ = pure_y_threshold_sweep(
        distances=(5, 9, 13),
        ps=(0.42, 0.44, 0.46, 0.48, 0.50),
        trials=10_000,
        seed=70,
    )
    fit = fit_threshold(points)
    assert abs(fit.p_c - 0.50) <= 0.02


def test_criterion_08():
    """Failure rate decays exponentially in the Y distance."""
    measured, _ = pure_y_decay_sweep(
        trials_by_distance={3: 30_000, 5: 100_000, 7: 300_000, 9: 1_000_000},
        p=0.30,
        seed=80,
    )
    xs, ys = [], []
    for d_y, result in measured:
        n = d_y  # the all-site Y logical makes the distance equal the qubit count
        analytic = float(scipy.stats.binom.sf(n // 2, n, 0.30))
        stderr = max(result.stderr, 1e-12)
        assert abs(result.rate - analytic) <= 5.0 * stderr
        assert result.failures > 0
        xs.append(d_y)
        ys.append(math.log(result.rate))
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * np.array(xs) + intercept
    residual = float(((np.array(ys) - predicted) ** 2).sum())
    total = float(((np.array(ys) - np.mean(ys)) ** 2).sum())
    r_squared = 1.0 - residual / total
    assert slope < 0
    assert r_squared >= 0.98


def test_criterion_09():
    """Rotated layout beats the square layout under pure Y noise."""
    rotated, square, _ = layout_comparison(trials=30_000, p=0.3, seed=90)
    separation = math.hypot(rotated.stderr, square.stderr)
    assert rotated.rate < square.rate
    assert (square.rate - rotated.rate) >= 5.0 * separation


@pytest.mark.slow
def test_criterion_10():
    """Finite-bias threshold matches the hashing-bound region."""
    points, _ = biased_threshold_sweep(
        distances=(5, 7, 9),
        ps=(0.16, 0.175, 0.19, 0.205, 0.22),
        trials=5_000,
        chi=16,
        seed=100,
    )
    fit = fit_threshold(points)
    assert abs(fit.p_c - 0.188) <= 0.015


def test_criterion_11():
    """Every sampling pipeline yields byte-identical output on identical seeds."""
    runs = [
        lambda: cycle_decoder_benchmark(m=20, p=0.25, trials=2000, seed=20)[-1],
        lambda: coset_probability_comparison(ps=(0.1,), samples=20, chi=64, seed=50)[-1],
        lambda: pure_y_verdict_comparison(distances=(5,), ps=(0.3,), samples=50, seed=60)[-1],
        lambda: pure_y_threshold_sweep(
            distances=(3, 5), ps=(0.42, 0.5), trials=200, seed=70
        )[-1],
        lambda: pure_y_decay_sweep(trials_by_distance={3: 2000, 5: 2000}, p=0.3, seed=80)[-1],
        lambda: layout_comparison(trials=1000, p=0.3, seed=90)[-1],
        lambda: biased_threshold_sweep(
            distances=(3, 5), ps=(0.16, 0.19), trials=100, chi=2, seed=100
        )[-1],
    ]
    for pipeline in runs:
        first = pipeline()
        second = pipeline()
        assert first == second
        assert first.endswith("\n")



# sha256 of every criterion-11 pipeline text, so a refactor that claims
# byte-identical output can be checked against the recorded bytes and not
# only against a rerun of itself.  A deliberate output change updates its
# digest and says so in CHANGES.md.  None prints a rounding-level float:
# MPS verdicts break near-ties (within 1e-9) by class order, so the
# biased-threshold text is unchanged when the SVD routine is swapped from
# gesdd to gesvd, and the coset comparison prints its bound check.
PINNED_PIPELINES = {
    "cycle_decoder_benchmark": (
        "79b1c2e864f9b91e5eef5d293de1ff01f5c59ae36752fb3a6178eb8b521befed",
        lambda: cycle_decoder_benchmark(m=20, p=0.25, trials=2000, seed=20)[-1],
    ),
    "coset_probability_comparison": (
        "dddedab20bf48ac6d9b1f0958fda91ad63882e831f6457e363908fa7fe248314",
        lambda: coset_probability_comparison(ps=(0.1,), samples=20, chi=64, seed=50)[-1],
    ),
    "pure_y_verdict_comparison": (
        "c10a0457d690168cceaf47a2861a2804482d51ad6897d8c62a34520899d668e2",
        lambda: pure_y_verdict_comparison(distances=(5,), ps=(0.3,), samples=50, seed=60)[-1],
    ),
    "pure_y_threshold_sweep": (
        "1cac25f88dc209cec602026584434b4b1a1c0d639a1843ce92ccd5497422da3e",
        lambda: pure_y_threshold_sweep(distances=(3, 5), ps=(0.42, 0.5), trials=200, seed=70)[-1],
    ),
    "pure_y_decay_sweep": (
        "b9d99297e6891d986e3bdd0adca89e9926298c345b5b2174dba24a7741e59fc6",
        lambda: pure_y_decay_sweep(trials_by_distance={3: 2000, 5: 2000}, p=0.3, seed=80)[-1],
    ),
    "layout_comparison": (
        "a9d6afc1ff4fcbdc98827e65c35d5f5f36c1cb43d6366f9dc13efed0832ceb95",
        lambda: layout_comparison(trials=1000, p=0.3, seed=90)[-1],
    ),
    "biased_threshold_sweep": (
        "c4749d296e9b1a585336d3b862b055f9d827be7f5d3cdd3b08b64b333291e0b1",
        lambda: biased_threshold_sweep(
            distances=(3, 5), ps=(0.16, 0.19), trials=100, chi=2, seed=100
        )[-1],
    ),
}


def test_pipeline_digests_are_pinned():
    changed = [
        name
        for name, (digest, pipeline) in PINNED_PIPELINES.items()
        if hashlib.sha256(pipeline().encode()).hexdigest() != digest
    ]
    assert not changed
