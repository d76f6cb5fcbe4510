"""Monte Carlo machinery: determinism, accounting, fits, result files."""

from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybias import decoders, sim
from ybias.codes import build_rotated_code, build_standard_code
from ybias.decoders import (
    BruteForceDecoder,
    ConcatenatedYDecoder,
    ExactYDecoder,
    MpsDecoder,
    UnattainableSyndromeError,
)
from ybias.gf2 import matmul_mod2
from ybias.noise import BiasedNoiseModel
from ybias.pauli import PauliOperator
from ybias.sim import (
    CSV_COLUMNS,
    FailurePoint,
    FailureRateResult,
    _floored_stderr,
    convergence_study,
    csv_text,
    estimate_failure_rate,
    failure_row,
    fit_threshold,
    format_number,
    is_stabilizer,
    is_stabilizer_batch,
    json_text,
)

PURE_Y = BiasedNoiseModel(p=0.3, eta=math.inf)


class TestIsStabilizer:
    def test_generators_and_products_are_members(self):
        code = build_rotated_code(3, 3)
        n = code.n
        assert is_stabilizer(code, PauliOperator.identity(n))
        zeros = np.zeros(n, dtype=np.uint8)
        x_rows = code.x_checks
        z_rows = code.z_checks
        for row in x_rows:
            assert is_stabilizer(code, PauliOperator(row, zeros))
        for row in z_rows:
            assert is_stabilizer(code, PauliOperator(zeros, row))
        assert is_stabilizer(code, PauliOperator(x_rows[0] ^ x_rows[1], z_rows[2]))

    def test_logicals_are_not_members(self):
        code = build_rotated_code(3, 3)
        assert not is_stabilizer(code, code.logical_x)
        assert not is_stabilizer(code, code.logical_z)
        # The all-site Y operator is the Y logical on this layout.
        ones = np.ones(code.n, dtype=np.uint8)
        assert not is_stabilizer(code, PauliOperator(ones, ones))
        x_rows = code.x_checks
        dressed = code.logical_x.mul(PauliOperator(x_rows[0], np.zeros(code.n, dtype=np.uint8)))
        assert not is_stabilizer(code, dressed)


@settings(max_examples=60, deadline=None)
@given(
    layout_j_k=st.sampled_from(
        [
            ("rotated", 3, 3),
            ("rotated", 5, 5),
            ("rotated", 9, 9),
            ("standard", 3, 4),
            ("standard", 4, 4),
        ]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_judge_matches_the_per_row_reducer(layout_j_k, seed):
    """Zero rows, stabilizers, dressed logicals and random rows, shuffled."""
    layout, j, k = layout_j_k
    code = (build_rotated_code if layout == "rotated" else build_standard_code)(j, k)
    rng = np.random.default_rng(seed)
    count = 6

    def members(checks):
        return matmul_mod2(rng.integers(0, 2, (count, checks.shape[0]), dtype=np.uint8), checks)

    zero = np.zeros((count, code.n), dtype=np.uint8)
    stab_x, stab_z = members(code.x_checks), members(code.z_checks)
    logicals = [code.logical_x, code.logical_z, code.logical_x.mul(code.logical_z)]
    dressed = [logicals[i] for i in rng.integers(0, 3, count)]
    random_x, random_z = rng.integers(0, 2, (2, count, code.n), dtype=np.uint8)
    dressed_x = np.array([op.x_bits for op in dressed]) ^ stab_x
    dressed_z = np.array([op.z_bits for op in dressed]) ^ stab_z
    x = np.vstack([zero, stab_x, zero, stab_x, dressed_x, random_x])
    z = np.vstack([zero, zero, stab_z, stab_z, dressed_z, random_z])
    kinds = np.repeat([1, 1, 1, 1, 0, -1], count)  # 1 member, 0 not a member, -1 unknown
    order = rng.permutation(len(x))
    x, z, kinds = x[order], z[order], kinds[order]

    reference = np.array(
        [
            not code.x_solver.reduce_rowspace_batch(x[i : i + 1]).any()
            and not code.z_solver.reduce_rowspace_batch(z[i : i + 1]).any()
            for i in range(len(x))
        ]
    )
    assert reference[kinds == 1].all() and not reference[kinds == 0].any()
    assert np.array_equal(is_stabilizer_batch(code, x, z), reference)
    assert [is_stabilizer(code, PauliOperator(a, b)) for a, b in zip(x, z)] == reference.tolist()


class _RejectingDecoder:
    name = "reject-all"
    params: dict = {}

    def __init__(self, code):
        self.code = code

    def decode(self, s):
        raise UnattainableSyndromeError("nothing is attainable")


class _FailingDecoder(_RejectingDecoder):
    name = "numerical-failure"

    def decode(self, s):
        raise RuntimeError("SVD did not converge")


class TestEstimateFailureRate:
    def test_noiseless_runs_never_fail(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.0, eta=math.inf)
        result = estimate_failure_rate(code, ExactYDecoder(code, model), model, 200, seed=1)
        assert result.failures == 0 and result.rate == 0.0 and result.stderr == 0.0
        assert result.trials == 200 and result.decoder_errors == 0
        assert result.records is None

    def test_maximum_noise_rate_is_one_half(self):
        # At p = 1/2 the two coset members are equally likely and the
        # decoder's fixed tie pick succeeds on exactly half of all errors.
        code = build_rotated_code(5, 5)
        model = BiasedNoiseModel(p=0.5, eta=math.inf)
        result = estimate_failure_rate(code, ExactYDecoder(code, model), model, 100_000, seed=2)
        assert abs(result.rate - 0.5) <= 5.0 * result.stderr
        assert result.stderr == pytest.approx(
            math.sqrt(result.rate * (1 - result.rate) / 100_000)
        )

    def test_validation(self):
        code = build_rotated_code(3, 3)
        decoder = ExactYDecoder(code, PURE_Y)
        with pytest.raises(ValueError):
            estimate_failure_rate(code, decoder, PURE_Y, 0, seed=0)
        with pytest.raises(ValueError):
            estimate_failure_rate(build_rotated_code(5, 5), decoder, PURE_Y, 10, seed=0)

    def test_worker_count_does_not_change_results(self):
        code = build_rotated_code(5, 5)
        decoder = ExactYDecoder(code, PURE_Y)
        serial = estimate_failure_rate(
            code, decoder, PURE_Y, 400, seed=7, workers=1, keep_records=True
        )
        parallel = estimate_failure_rate(
            code, decoder, PURE_Y, 400, seed=7, workers=3, keep_records=True
        )
        assert serial == parallel
        assert len(serial.records) == 400

    def test_records_are_deterministic_and_labeled(self):
        code = build_rotated_code(3, 3)
        decoder = ExactYDecoder(code, PURE_Y)
        first = estimate_failure_rate(code, decoder, PURE_Y, 40, seed=3, keep_records=True)
        second = estimate_failure_rate(code, decoder, PURE_Y, 40, seed=3, keep_records=True)
        assert first.records == second.records
        for i, record in enumerate(first.records):
            assert record.trial_index == i
            assert record.code_id == code.id
            assert record.decoder == "exact-y"
            assert record.params == ()
            assert record.verdict in ("I", "L")
        assert sum(not r.success for r in first.records) == first.failures

    def test_rejected_trials_are_counted_separately(self):
        # A Y-only decoder on a square code under finite bias sees X/Z
        # components whose syndromes no Y configuration can produce.
        code = build_standard_code(3, 3)
        model = BiasedNoiseModel(p=0.2, eta=0.5)
        result = estimate_failure_rate(code, ConcatenatedYDecoder(code), model, 400, seed=11)
        assert 0 < result.decoder_errors < 400
        assert result.rate == result.failures / (400 - result.decoder_errors)

    def test_every_trial_rejected_raises(self):
        code = build_rotated_code(3, 3)
        with pytest.raises(RuntimeError):
            estimate_failure_rate(code, _RejectingDecoder(code), PURE_Y, 8, seed=0)

    def test_numerical_failure_propagates(self):
        # Only unattainable syndromes are decoder errors; anything else must
        # surface instead of shrinking the rate's denominator.
        code = build_standard_code(3, 3)
        with pytest.raises(RuntimeError, match="SVD"):
            estimate_failure_rate(code, _FailingDecoder(code), PURE_Y, 8, seed=0)


@functools.lru_cache(maxsize=None)
def _chunking_case(name):
    if name == "exact-y":  # the batch path
        code = build_rotated_code(5, 5)
        model = BiasedNoiseModel(p=0.45, eta=math.inf)
        return ExactYDecoder(code, model), model
    if name == "exact-y-standard":  # the batch path, scored against the cut table
        code = build_standard_code(5, 5)
        model = BiasedNoiseModel(p=0.3, eta=math.inf)
        return ExactYDecoder(code, model), model
    # The per-trial path.  Under finite bias some X/Z components give
    # syndromes no Y configuration produces, so decoder errors count too.
    model = BiasedNoiseModel(p=0.3, eta=30.0)
    return ConcatenatedYDecoder(build_standard_code(4, 4)), model


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["exact-y", "exact-y-standard", "concatenated-y"]),
    cuts=st.lists(st.integers(0, 40), max_size=4),
    chunk=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_do_not_depend_on_chunking(name, cuts, chunk, seed):
    """Trials [0, 40) run in pieces split anywhere, at any chunk size, add up to one run.

    The pieces also score the standard layout's cut table in chunks of
    ``chunk`` rows, where the single run scores all 40 rows as one chunk.
    """
    decoder, model = _chunking_case(name)
    failures, decoder_errors, records = sim._run_range(decoder, model, seed, 0, 40, True)
    bounds = [0, *sorted(cuts), 40]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_chunk_size", lambda n: chunk)
        patch.setattr(decoders, "_SCORE_MIN_ROWS", chunk)
        patch.setattr(decoders, "_SCORE_CHUNK_BYTES", 0)
        pieces = [
            sim._run_range(decoder, model, seed, lo, hi - lo, True)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    assert sum(piece[0] for piece in pieces) == failures
    assert sum(piece[1] for piece in pieces) == decoder_errors
    assert [record for piece in pieces for record in piece[2]] == records


@pytest.mark.parametrize(
    "build, size, p, trials, limit_mib",
    [
        (build_rotated_code, 21, 0.45, 20_000, 8),
        (build_rotated_code, 9, 0.45, 200_000, 8),
        (build_standard_code, 13, 0.3, 4_000, 8),
        (build_rotated_code, 21, 0.45, 2_000, 4.25),
    ],
    ids=["rotated-21x21", "rotated-9x9", "standard-13x13", "rotated-21x21-chunk-freed"],
)
def test_trial_loop_working_set_does_not_grow_with_trials(build, size, p, trials, limit_mib):
    """An exact-y run decodes in cache-sized chunks, so its traced peak stays within 8 MiB.

    A warm-up run first builds what the decoder keeps (solver and cut
    tables); only the allocations of the measured run are traced.  Each
    chunk's arrays are freed before the next chunk is sampled, so at
    rotated 21x21 the peak is one chunk's 2 MiB of uniforms plus what
    decoding adds: 3.8 MiB measured, and 4.7 MiB if the previous chunk's
    arrays stay bound.
    """
    code = build(size, size)
    model = BiasedNoiseModel(p=p, eta=math.inf)
    decoder = ExactYDecoder(code, model)
    estimate_failure_rate(code, decoder, model, 10, seed=0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        estimate_failure_rate(code, decoder, model, trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


class TestConvergenceStudy:
    def test_reference_point_has_zero_shift(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        study = convergence_study(code, model, (2, 4, 8), 600, seed=91)
        assert study.reference_chi == 8
        by_chi = {pt.chi: pt for pt in study.points}
        assert by_chi[8].shifted == 0.0 and by_chi[8].converged
        # Same trials, same seed: an exact decoder pins the expected scale.
        brute = estimate_failure_rate(code, BruteForceDecoder(code, model), model, 600, seed=91)
        for pt in study.points:
            assert abs(pt.rate - brute.rate) <= 5.0 * max(pt.stderr, brute.stderr)
        rerun = convergence_study(code, model, (2, 4, 8), 600, seed=91)
        assert rerun == study

    def test_pure_y_rates_are_chi_independent(self):
        code = build_rotated_code(5, 5)
        results = [
            estimate_failure_rate(code, MpsDecoder(code, PURE_Y, chi), PURE_Y, 300, seed=5)
            for chi in (1, 4)
        ]
        exact = estimate_failure_rate(code, ExactYDecoder(code, PURE_Y), PURE_Y, 300, seed=5)
        assert results[0].failures == results[1].failures == exact.failures
        assert results[0].rate == exact.rate

    def test_bad_chi_raises_before_any_decoding(self, monkeypatch):
        import ybias.sim

        decoded = []
        monkeypatch.setattr(
            ybias.sim, "estimate_failure_rate", lambda *args, **kwargs: decoded.append(args)
        )
        with pytest.raises(ValueError, match="chi"):
            convergence_study(build_rotated_code(3, 3), PURE_Y, (2, 0), 10, seed=0)
        assert not decoded

    def test_requires_two_bond_dimensions(self):
        code = build_rotated_code(3, 3)
        with pytest.raises(ValueError):
            convergence_study(code, PURE_Y, (4,), 10, seed=0)

    def test_repeated_chi_is_one_bond_dimension(self, monkeypatch):
        import ybias.sim

        decoded = []
        monkeypatch.setattr(
            ybias.sim, "estimate_failure_rate", lambda *args, **kwargs: decoded.append(args)
        )
        with pytest.raises(ValueError, match="distinct chi"):
            convergence_study(build_rotated_code(3, 3), PURE_Y, (4, 4), 10, seed=0)
        assert not decoded


def synthetic_points(pc, nu, coeffs, distances, ps, noise=0.0):
    a, b, c = coeffs
    points = []
    for d in distances:
        for p in ps:
            x = (p - pc) * d ** (1.0 / nu)
            points.append(FailurePoint(d, p, a + b * x + c * x * x + noise, 1e-4, 10_000))
    return points


class TestThresholdFit:
    def test_recovers_synthetic_crossing(self):
        points = synthetic_points(
            0.188, 1.4, (0.28, 1.1, 0.6), (5, 9, 13), (0.16, 0.175, 0.19, 0.205, 0.22)
        )
        fit = fit_threshold(points)
        assert fit.p_c == pytest.approx(0.188, abs=1e-6)
        assert fit.nu == pytest.approx(1.4, abs=1e-5)
        assert fit.coefficients[0] == pytest.approx(0.28, abs=1e-6)
        assert len(fit.jackknife_p_c) == 3
        assert fit.p_c_stderr < 1e-6 and fit.nu_stderr < 1e-4
        payload = fit.to_json()
        assert payload["p_c"] == fit.p_c
        assert payload["jackknife_p_c"] == list(fit.jackknife_p_c)

    def test_fit_accepts_zero_stderr_points_with_trials(self):
        points = synthetic_points(0.5, 1.0, (0.4, 0.4, 0.1), (5, 9, 13), (0.44, 0.5, 0.56))
        flat = [FailurePoint(pt.distance, pt.p, pt.rate, 0.0, 20_000) for pt in points]
        fit = fit_threshold(flat)
        assert fit.p_c == pytest.approx(0.5, abs=1e-4)

    def test_wilson_floor(self):
        pt = FailurePoint(5, 0.1, 0.0, 0.0, trials=1000)
        centered = 0.5 / 1001
        assert _floored_stderr(pt) == pytest.approx(
            math.sqrt(centered * (1 - centered) / 1000)
        )
        assert _floored_stderr(FailurePoint(5, 0.1, 0.2, 0.01)) == 0.01
        with pytest.raises(ValueError):
            _floored_stderr(FailurePoint(5, 0.1, 0.0, 0.0))

    def test_validation(self):
        good = synthetic_points(0.5, 1.0, (0.3, 1.0, 0.2), (5, 9, 13), (0.44, 0.5, 0.56))
        with pytest.raises(ValueError, match="3 distances"):
            fit_threshold([pt for pt in good if pt.distance != 13])
        trimmed = [pt for pt in good if (pt.distance, pt.p) != (9, 0.56)]
        with pytest.raises(ValueError, match="fewer than 3"):
            fit_threshold(trimmed)
        repeated = trimmed + [pt for pt in good if (pt.distance, pt.p) == (9, 0.5)]
        with pytest.raises(ValueError, match="fewer than 3 distinct"):
            fit_threshold(repeated)
        with pytest.raises(ValueError, match="bracket"):
            fit_threshold(good, pc_init=0.6)


class TestResultFiles:
    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(math.inf) == "inf"
        assert format_number(-math.inf) == "-inf"
        assert format_number(0.1) == "0.1"
        assert format_number(7) == "7"
        assert format_number("mps") == "mps"

    def test_failure_row_fields(self):
        code = build_rotated_code(3, 3)
        decoder = MpsDecoder(code, PURE_Y, chi=6)
        result = FailureRateResult(rate=0.25, stderr=0.02, trials=100, failures=25)
        row = failure_row(code, PURE_Y, decoder, result, seed=13)
        assert row == {
            "layout": "rotated",
            "j": 3,
            "k": 3,
            "eta": math.inf,
            "p": 0.3,
            "decoder": "mps",
            "chi": 6,
            "trials": 100,
            "failures": 25,
            "rate": 0.25,
            "stderr": 0.02,
            "seed": 13,
        }

    def test_csv_layout_is_byte_stable(self):
        rows = [
            {
                "layout": "rotated",
                "j": 3,
                "k": 3,
                "eta": math.inf,
                "p": 0.3,
                "decoder": "exact-y",
                "chi": None,
                "trials": 10,
                "failures": 2,
                "rate": 0.2,
                "stderr": 0.1264911064067352,
                "seed": 5,
            }
        ]
        metadata = {"tool": "ybias", "command": "run", "seed": 5}
        text = csv_text(rows, metadata)
        assert text == (
            "# tool = ybias\n"
            "# command = run\n"
            "# seed = 5\n"
            "layout,j,k,eta,p,decoder,chi,trials,failures,rate,stderr,seed\n"
            "rotated,3,3,inf,0.3,exact-y,,10,2,0.2,0.1264911064067352,5\n"
        )
        assert csv_text([], {}, columns=("a", "b")) == "a,b\n"

    def test_json_text_sorts_keys_and_names_infinities(self):
        payload = {"b": math.inf, "a": 1.5, "nested": {"v": [2, -math.inf]}}
        text = json_text(payload)
        assert text == (
            '{\n'
            '  "a": 1.5,\n'
            '  "b": "inf",\n'
            '  "nested": {\n'
            '    "v": [\n'
            '      2,\n'
            '      "-inf"\n'
            '    ]\n'
            '  }\n'
            '}\n'
        )

    def test_csv_columns_are_fixed(self):
        assert CSV_COLUMNS == (
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
