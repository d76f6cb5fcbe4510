import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

import support
from support import coset_log_probability, cycle_decode, nullspace_basis, sample_error
from ybias import decoders, tensor
from ybias.codes import build_rotated_code, build_standard_code, syndrome, syndrome_batch
from ybias.decoders import (
    BruteForceDecoder,
    ConcatenatedYDecoder,
    DecodeOutcome,
    ExactYDecoder,
    MpsDecoder,
    UnattainableSyndromeError,
    _argmax_class,
    _logsumexp,
    candidate_recovery,
    cycle_decode_batch,
    cycle_failure_bound,
    decoder_from_name,
    logical_class_representatives,
)
from ybias.gf2 import matmul_mod2, solve
from ybias.noise import BiasedNoiseModel
from ybias.pauli import PauliOperator
from ybias.sim import is_stabilizer, is_stabilizer_batch
from ybias.ycode import cycle_code, y_code_structure

PURE_Y = lambda p: BiasedNoiseModel(p=p, eta=math.inf)  # noqa: E731


def y_syndrome(code, y_bits):
    return matmul_mod2(code.y_checks, y_bits)


def triangle_map(m, edge_bits):
    """Triangle syndrome dict for an explicit edge error pattern."""
    code = cycle_code(m)
    out = {}
    for tri in code.triangles:
        a, b, c = tri
        bits = [edge_bits[code.edge_index(*e)] for e in ((a, b), (b, c), (a, c))]
        out[tri] = int(sum(bits) % 2)
    return out


class TestCycleDecode:
    def test_all_zero_syndromes_give_zero_correction(self):
        m = 5
        zero = np.zeros(cycle_code(m).num_bits, dtype=np.uint8)
        assert not cycle_decode(m, triangle_map(m, zero)).any()

    def test_single_error_fires_all_incident_triangles(self):
        m = 5
        code = cycle_code(m)
        e = np.zeros(code.num_bits, dtype=np.uint8)
        e[code.edge_index(1, 2)] = 1
        tmap = triangle_map(m, e)
        # Exactly the m-2 triangles containing edge (1,2) fire.
        assert sum(tmap.values()) == m - 2
        assert all(bit == (1 in tri and 2 in tri) for tri, bit in tmap.items())
        assert np.array_equal(cycle_decode(m, tmap), e)

    def test_missing_triangle_rejected(self):
        m = 4
        tmap = triangle_map(m, np.zeros(6, dtype=np.uint8))
        tmap.pop((1, 2, 3))
        with pytest.raises(ValueError, match="missing"):
            cycle_decode(m, tmap)

    def test_inconsistent_syndromes_rejected(self):
        m = 5
        tmap = triangle_map(m, np.zeros(10, dtype=np.uint8))
        tmap[(1, 2, 3)] = 1  # single flipped parity cannot come from any error
        with pytest.raises(ValueError, match="inconsistent"):
            cycle_decode(m, tmap)

    def test_k4_matches_maximum_likelihood_off_ties(self):
        """Vote decoding equals min-weight coset decoding wherever both are unambiguous."""
        m = 4
        code = cycle_code(m)
        basis = nullspace_basis(code.checks)
        stack = np.stack(basis)
        subsets = (
            (np.arange(1 << len(basis), dtype=np.int64)[:, None] >> np.arange(len(basis))) & 1
        ).astype(np.uint8)
        codewords = (subsets @ stack) & 1  # the 8-element cut space
        dense = code.checks
        checked = 0
        for bits in itertools.product((0, 1), repeat=code.num_bits):
            e = np.array(bits, dtype=np.uint8)
            s = (dense @ e.astype(np.uint64)) & 1
            votes = dense.T.astype(np.int64) @ s.astype(np.int64)
            if (votes == (m - 2) // 2).any():
                continue  # vote rule is on its knife edge
            coset = codewords ^ e
            weights = coset.sum(axis=1)
            if (weights == weights.min()).sum() != 1:
                continue  # ML itself is ambiguous
            ml = coset[int(np.argmin(weights))]
            assert np.array_equal(cycle_decode(m, triangle_map(m, e)), ml)
            checked += 1
        # Exhaustive count: 16 of the 64 patterns are free of edge-vote ties,
        # and 8 of those have a unique minimum-weight coset element.  (The
        # other 8 are genuinely ambiguous -- e.g. the all-fired syndrome has
        # three weight-2 representatives -- so they carry no ML verdict.)
        assert checked == 8

    def test_batch_matches_single_decodes(self):
        m = 6
        code = cycle_code(m)
        rng = np.random.default_rng(17)
        errors = (rng.random((200, code.num_bits)) < 0.2).astype(np.uint8)
        batch = cycle_decode_batch(m, errors)
        for row, e in zip(batch, errors):
            assert np.array_equal(row, cycle_decode(m, triangle_map(m, e)))


class TestCycleFailureBound:
    def test_p_zero_value(self):
        for m in (3, 8, 20):
            assert cycle_failure_bound(m, 0.0) == pytest.approx(
                min(1.0, 2 * m * m * math.exp(-m / 2))
            )

    def test_monotone_nonincreasing_once_below_one(self):
        # At p = 0.05 the bound drops below 1 near m = 21 and then decays
        # exponentially; at p closer to 1/2 the 2m^2 prefactor keeps the
        # clipped bound pinned at 1 for any desk-scale m.
        values = [cycle_failure_bound(m, 0.05) for m in range(3, 300)]
        below = [v for v in values if v < 1.0]
        assert len(below) > 200
        assert below == sorted(below, reverse=True)
        assert below[-1] < 1e-6

    @pytest.mark.parametrize("p", [0.5, 0.7, -0.01])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            cycle_failure_bound(10, p)


@functools.lru_cache(maxsize=None)
def _assembly_reference(code):
    """Parity functionals and cuts of the per-block assembly, built without the decoder.

    Each bit the concatenated decoder reads is the parity of a target set of
    qubits, the same on every Y-configuration with syndrome s; it is u . s
    for any u with y_checks^T u = target.  Blocks are matched to the edges
    of K_(g+1) by the two extended diagonals that cross them.
    """
    structure = y_code_structure(code.j, code.k, code)
    cycle = cycle_code(code.g + 1)
    crossings = np.stack([op.x_bits for op in structure.extended_diagonals])
    by_edge = {
        tuple(int(i) + 1 for i in np.flatnonzero(crossings[:, members[0]])): members
        for _, members in structure.repetition_blocks
    }
    blocks = [np.array(by_edge[e]) for e in cycle.edges]

    def functional(qubits):
        target = np.zeros(code.n, dtype=np.uint8)
        for q in qubits:
            target[q] ^= 1
        u = solve(code.y_checks.T, target)
        assert u is not None
        return u

    boundary = np.array(structure.boundary_zero_qubits, dtype=np.intp)
    u_boundary = np.array([functional([q]) for q in boundary]).reshape(-1, code.num_checks)
    u_rel = [np.array([functional([members[0], q]) for q in members]) for members in blocks]
    refs = [members[0] for members in blocks]
    u_tri = np.array(
        [
            functional([refs[cycle.edge_index(*e)] for e in ((a, b), (b, c), (a, c))])
            for a, b, c in cycle.triangles
        ]
    ).reshape(-1, code.num_checks)
    side = np.zeros((2**code.g, code.g + 1), dtype=np.uint8)
    side[:, 1:] = (np.arange(2**code.g)[:, None] >> np.arange(code.g)) & 1
    ends = np.array(cycle.edges) - 1
    cuts = side[:, ends[:, 0]] ^ side[:, ends[:, 1]]
    return cycle, blocks, boundary, u_boundary, u_rel, u_tri, cuts


def _loop_assembled_y_recovery(code, s):
    """Concatenated-y recovery bits by the per-edge assembly loop, as a reference.

    Reads the boundary bits, each block's relative bits and the triangle
    parities off the syndrome with independent parity functionals, scores
    every cut-shifted candidate in int64, and assembles the recovery one
    block at a time.
    """
    cycle, blocks, boundary, u_boundary, u_rel, u_tri, cuts = _assembly_reference(code)
    rel_bits = [matmul_mod2(u, s) for u in u_rel]
    base = solve(cycle.checks, matmul_mod2(u_tri, s))
    block_lengths = np.array([len(members) for members in blocks], dtype=np.int64)
    w_edge = np.array([int(bits.sum()) for bits in rel_bits], dtype=np.int64)
    candidates = base[None, :] ^ cuts
    costs = candidates.astype(np.int64) @ (block_lengths - 2 * w_edge) + w_edge.sum()
    best = candidates[int(np.argmin(costs))]
    y = np.zeros(code.n, dtype=np.uint8)
    y[boundary] = matmul_mod2(u_boundary, s)
    for edge_idx, members in enumerate(blocks):
        y[members] = rel_bits[edge_idx] ^ best[edge_idx]
    return y


class TestConcatenated:
    @pytest.mark.parametrize("j,k", [(4, 4), (6, 9), (9, 9), (3, 4), (10, 15), (13, 13)])
    def test_recovery_matches_the_assembly_loop(self, j, k):
        code = build_standard_code(j, k)
        decoder = ConcatenatedYDecoder(code)
        rng = np.random.default_rng(41)
        for p in (0.05, 0.2, 0.45):
            for _ in range(20):
                s = y_syndrome(code, (rng.random(code.n) < p).astype(np.uint8))
                got = decoder.decode(s).recovery.x_bits
                want = _loop_assembled_y_recovery(code, s)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_zero_syndrome_returns_identity(self):
        for j, k in [(4, 4), (3, 4)]:
            code = build_standard_code(j, k)
            outcome = ConcatenatedYDecoder(code).decode(np.zeros(code.num_checks, dtype=np.uint8))
            assert support.is_identity(outcome.recovery)

    def test_coprime_3x4_corrects_every_single_y_exactly(self):
        code = build_standard_code(3, 4)
        decoder = ConcatenatedYDecoder(code)
        for q in range(code.n):
            e = np.zeros(code.n, dtype=np.uint8)
            e[q] = 1
            outcome = decoder.decode(y_syndrome(code, e))
            assert np.array_equal(outcome.recovery.x_bits, e)

    def test_square_4x4_corrects_up_to_weight_three(self):
        code = build_standard_code(4, 4)
        decoder = ConcatenatedYDecoder(code)
        for w in range(4):
            for supp in itertools.combinations(range(code.n), w):
                e = np.zeros(code.n, dtype=np.uint8)
                e[list(supp)] = 1
                outcome = decoder.decode(y_syndrome(code, e))
                residual = PauliOperator.y_type(outcome.recovery.x_bits ^ e)
                assert is_stabilizer(code, residual)

    @pytest.mark.parametrize("j,k", [(3, 4), (4, 4), (6, 4), (4, 6), (5, 5)])
    def test_recovery_always_reproduces_syndrome(self, j, k):
        code = build_standard_code(j, k)
        decoder = ConcatenatedYDecoder(code)
        rng = np.random.default_rng(23)
        for _ in range(25):
            e = (rng.random(code.n) < 0.25).astype(np.uint8)
            s = y_syndrome(code, e)
            outcome = decoder.decode(s)
            assert support.is_y_type(outcome.recovery)
            assert np.array_equal(y_syndrome(code, outcome.recovery.x_bits), s)

    def test_rotated_layout_rejected(self):
        for d in (3, 5, 7):
            code = build_rotated_code(d, d)
            with pytest.raises(ValueError):
                ConcatenatedYDecoder(code)

    def test_decoder_rejects_rotated_layout_by_name(self):
        code = build_rotated_code(3, 3)
        for build in (
            lambda: ConcatenatedYDecoder(code),
            lambda: decoder_from_name("concatenated-y", code, PURE_Y(0.1)),
        ):
            with pytest.raises(ValueError, match="concatenated-y requires the standard layout"):
                build()

    def test_unattainable_syndrome_raises(self):
        # A coprime code's Y-check matrix has full row rank, so only wider
        # families have unreachable syndromes; on the square 4x4 every unit
        # syndrome is one (a lone Y flips at least two checks).
        code = build_standard_code(4, 4)
        decoder = ConcatenatedYDecoder(code)
        s = np.zeros(code.num_checks, dtype=np.uint8)
        s[0] = 1
        assert not code.y_solver.is_consistent(s)
        with pytest.raises(UnattainableSyndromeError):
            decoder.decode(s)


class TestConcatenatedHalfDistance:
    """The decoder corrects every Y-error of weight <= (d_Y - 1)/2."""

    @pytest.mark.parametrize("j,k", [(2, 2), (3, 3), (4, 4), (2, 4), (4, 2)])
    def test_exhaustive_small_codes(self, j, k):
        code = build_standard_code(j, k)
        decoder = ConcatenatedYDecoder(code)
        half = (code.y_dist - 1) // 2
        for w in range(half + 1):
            for supp in itertools.combinations(range(code.n), w):
                e = np.zeros(code.n, dtype=np.uint8)
                e[list(supp)] = 1
                outcome = decoder.decode(y_syndrome(code, e))
                residual = PauliOperator.y_type(outcome.recovery.x_bits ^ e)
                assert is_stabilizer(code, residual), (j, k, supp)

    def test_5x5_exhaustive_to_weight_three_then_sampled(self):
        code = build_standard_code(5, 5)
        decoder = ConcatenatedYDecoder(code)
        assert (code.y_dist - 1) // 2 == 4
        for w in range(4):
            for supp in itertools.combinations(range(code.n), w):
                e = np.zeros(code.n, dtype=np.uint8)
                e[list(supp)] = 1
                residual = decoder.decode(y_syndrome(code, e)).recovery.x_bits ^ e
                assert is_stabilizer(code, PauliOperator.y_type(residual))
        rng = np.random.default_rng(31)
        for _ in range(2000):
            supp = rng.choice(code.n, size=4, replace=False)
            e = np.zeros(code.n, dtype=np.uint8)
            e[supp] = 1
            residual = decoder.decode(y_syndrome(code, e)).recovery.x_bits ^ e
            assert is_stabilizer(code, PauliOperator.y_type(residual))

    @pytest.mark.parametrize("j,k", [(2, 3), (3, 4), (4, 5), (5, 4), (3, 5), (2, 5)])
    def test_coprime_at_exact_half_distance_weight(self, j, k):
        # Coprime codes reduce to one majority block plus exact boundary bits,
        # so the half-distance guarantee holds at the maximum allowed weight.
        code = build_standard_code(j, k)
        decoder = ConcatenatedYDecoder(code)
        half = (code.y_dist - 1) // 2
        rng = np.random.default_rng(1000 + j * 10 + k)
        for _ in range(500):
            supp = rng.choice(code.n, size=half, replace=False)
            e = np.zeros(code.n, dtype=np.uint8)
            e[supp] = 1
            outcome = decoder.decode(y_syndrome(code, e))
            # g = 1: the only Y-type stabilizer is the identity, so exact match.
            assert np.array_equal(outcome.recovery.x_bits, e)


def _exact_y_reference(code, p, s, group):
    """Exact-y recovery and verdict for one syndrome, by exact rational arithmetic.

    The candidate is the canonical GF(2) solution on both layouts, from the
    one-syndrome ``solve`` rather than the decoder's ``solve_batch``; each
    coset's probability is summed over ``group``, the Y-type stabilizers.
    L must win strictly.
    """
    cand = code.y_solver.solve(s)
    q = Fraction(p)

    def coset_probability(rep):
        weights = [int((rep ^ g).sum()) for g in group]
        return sum(q**w * (1 - q) ** (code.n - w) for w in weights)

    logical = code.logical_y.x_bits
    take_l = coset_probability(cand ^ logical) > coset_probability(cand)
    return (cand ^ logical, "L") if take_l else (cand, "I")


def _assert_batch_matches_reference(code, p, errors):
    decoder = ExactYDecoder(code, PURE_Y(p))
    syndromes = syndrome_batch(code, errors, errors)
    recovery_x, recovery_z, verdicts = decoder.decode_batch(syndromes)
    assert verdicts.shape == (len(errors),)
    group, _ = support.split_y_span(code)
    for s, rx, rz, verdict in zip(syndromes, recovery_x, recovery_z, verdicts):
        want, want_verdict = _exact_y_reference(code, p, s, group)
        assert np.array_equal(rx, want) and np.array_equal(rz, want)
        assert verdict == want_verdict


class TestExactML:
    def test_zero_syndrome_is_identity(self):
        for code in (build_standard_code(4, 4), build_rotated_code(5, 5)):
            decoder = ExactYDecoder(code, PURE_Y(0.2))
            outcome = decoder.decode(np.zeros(code.num_checks, np.uint8))
            assert outcome.verdict == "I"
            assert support.is_identity(outcome.recovery)

    def test_finite_bias_rejected(self):
        code = build_rotated_code(3, 3)
        with pytest.raises(ValueError):
            ExactYDecoder(code, BiasedNoiseModel(p=0.1, eta=10.0))

    def test_coprime_3x4_exhaustive_against_kernel_oracle(self):
        """Every Y-configuration decodes to the strictly lighter coset member.

        All 2^18 Y-configs cover all 2^17 attainable syndromes; the coset of
        each syndrome is {e, e ^ K} with K the lone kernel generator.  Each
        block is decoded from its syndromes and judged as ``sim`` judges.
        """
        code = build_standard_code(3, 4)
        n = code.n
        basis = nullspace_basis(code.y_checks)
        assert len(basis) == 1
        kernel = basis[0]
        decoder = ExactYDecoder(code, PURE_Y(0.1))

        configs = (
            (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        ).astype(np.uint8)
        success = np.empty(1 << n, dtype=bool)
        chunk = 1 << 14
        for lo in range(0, 1 << n, chunk):
            block = configs[lo : lo + chunk]
            recovery_x, recovery_z, _ = decoder.decode_batch(syndrome_batch(code, block, block))
            success[lo : lo + chunk] = is_stabilizer_batch(
                code, recovery_x ^ block, recovery_z ^ block
            )

        w_self = configs.sum(axis=1)
        w_other = (configs ^ kernel).sum(axis=1)
        # Strictly lighter member must win; the decoder succeeds iff the true
        # error was that member (g = 1, so success means exact recovery).
        lighter = w_self < w_other
        heavier = w_self > w_other
        assert success[lighter].all()
        assert not success[heavier].any()
        # Weight ties come in partner pairs {e, e ^ K} sharing a syndrome; the
        # decoder commits to one fixed representative, so exactly one partner
        # succeeds, and single-shot decoding pinpoints which.
        ties = ~(lighter | heavier)
        assert ties.any()
        tie_idx = np.flatnonzero(ties)
        partner_idx = tie_idx ^ int(kernel @ (1 << np.arange(n, dtype=np.int64)))
        assert np.array_equal(success[tie_idx] ^ success[partner_idx], np.ones_like(ties[tie_idx]))
        h = code.y_checks.astype(np.uint64)
        rng = np.random.default_rng(40)
        for i in rng.choice(tie_idx, size=60, replace=False):
            e = configs[i]
            outcome = decoder.decode(((h @ e.astype(np.uint64)) & 1).astype(np.uint8))
            assert outcome.verdict == "I"
            assert success[i] == bool(np.array_equal(outcome.recovery.x_bits, e))

    def test_square_4x4_sampled_syndromes_against_span_oracle(self):
        """Coset scores and the verdict match a direct sum over the kernel span."""
        code = build_standard_code(4, 4)
        p = 0.3
        decoder = ExactYDecoder(code, PURE_Y(p))
        span = support.y_kernel_span(code)  # 16 zero-syndrome Y-configs
        rng = np.random.default_rng(41)
        for _ in range(120):
            e = (rng.random(code.n) < 0.3).astype(np.uint8)
            s = y_syndrome(code, e)
            outcome = decoder.decode(s)
            rec = outcome.recovery.x_bits
            assert np.array_equal(y_syndrome(code, rec), s)
            coset = span ^ e  # every Y-config with syndrome s
            same_side = np.array(
                [
                    is_stabilizer(code, PauliOperator.y_type(rec ^ y))
                    for y in coset
                ]
            )
            assert same_side.sum() == len(coset) // 2
            logw = coset.sum(axis=1) * math.log(p) + (code.n - coset.sum(axis=1)) * math.log1p(-p)
            pi_rec = logsumexp(logw[same_side])
            pi_other = logsumexp(logw[~same_side])
            assert pi_rec >= pi_other - 1e-12  # maximum-likelihood optimality
            got = sorted(outcome.coset_scores.values())
            assert got == pytest.approx(sorted([pi_rec, pi_other]), rel=1e-12)

    # The model's p varies while errors stay sampled at a fixed rate, so
    # p = 0 and p = 1 exercise the infinite-score ties.
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_batch_matches_single_rotated(self, p):
        code = build_rotated_code(5, 5)
        rng = np.random.default_rng(7)
        errors = (rng.random((200, code.n)) < 0.3).astype(np.uint8)
        _assert_batch_matches_reference(code, p, errors)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_batch_matches_single_standard(self, p):
        # Square 4x4, coprime 3x4, and 4x6 and 6x4 with g = 2.
        for j, k in ((4, 4), (3, 4), (4, 6), (6, 4)):
            code = build_standard_code(j, k)
            rng = np.random.default_rng(8)
            errors = (rng.random((150, code.n)) < 0.35).astype(np.uint8)
            _assert_batch_matches_reference(code, p, errors)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5])
    def test_standard_scoring_chunk_changes_nothing(self, p, monkeypatch):
        # Scored in chunks of 1 to 7 rows, every recovery, verdict and score
        # is bit for bit that of one chunk holding all 60 rows.
        code = build_standard_code(6, 9)
        decoder = ExactYDecoder(code, PURE_Y(p))
        errors = (np.random.default_rng(9).random((60, code.n)) < 0.3).astype(np.uint8)
        syndromes = syndrome_batch(code, errors, errors)
        recovery, verdicts, scores = decoder._decode_rows(syndromes)
        monkeypatch.setattr(decoders, "_SCORE_CHUNK_BYTES", 0)
        for rows in range(1, 8):
            monkeypatch.setattr(decoders, "_SCORE_MIN_ROWS", rows)
            got_recovery, got_verdicts, got_scores = decoder._decode_rows(syndromes)
            assert np.array_equal(got_recovery, recovery)
            assert np.array_equal(got_verdicts, verdicts)
            for got, want in zip(got_scores, scores):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda decoder, s: decoder.decode(s), id="decode"),
            pytest.param(
                lambda decoder, s: decoder.decode_batch(np.stack([np.zeros_like(s), s])),
                id="decode_batch",
            ),
        ],
    )
    def test_unattainable_standard_syndrome_raises(self, call):
        # A lone Y flips at least two checks of the square 4x4, so no Y-type
        # error has a unit syndrome.
        code = build_standard_code(4, 4)
        decoder = ExactYDecoder(code, PURE_Y(0.2))
        s = np.zeros(code.num_checks, dtype=np.uint8)
        s[0] = 1
        assert not code.y_solver.is_consistent(s)
        with pytest.raises(UnattainableSyndromeError):
            call(decoder, s)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_rotated_scores_equal_the_scipy_formula(self, p):
        # The rotated Y-stabilizer group is the identity alone, so each coset
        # score is one log-weight: logsumexp over a length-1 axis.
        code = build_rotated_code(7, 7)
        decoder = ExactYDecoder(code, PURE_Y(p))
        logical = code.logical_y.x_bits
        rng = np.random.default_rng(43)
        for e in (rng.random((150, code.n)) < p).astype(np.uint8):
            outcome = decoder.decode(y_syndrome(code, e))
            rec = outcome.recovery.x_bits
            cand = rec if outcome.verdict == "I" else rec ^ logical
            for label, member in (("I", cand), ("L", cand ^ logical)):
                w = np.array([[member.sum()]], dtype=np.float64)
                want = logsumexp(w * math.log(p) + (code.n - w) * math.log1p(-p), axis=-1)[0]
                assert outcome.coset_scores[label] == want

    @pytest.mark.parametrize("size", [19, 21])
    def test_oversized_standard_group_rejected_before_it_is_built(self, size, monkeypatch):
        # Both standard-layout pure-Y decoders read the cut table, whose 2^g
        # rows span the Y-stabilizer group and its logical coset; each must
        # refuse it from g alone, before the block structure is extracted.
        def forbidden(*args):
            raise AssertionError("cut table built for an oversized code")

        monkeypatch.setattr(decoders, "y_code_structure", forbidden)
        code = build_standard_code(size, size)
        for build in (lambda: ExactYDecoder(code, PURE_Y(0.1)), lambda: ConcatenatedYDecoder(code)):
            with pytest.raises(ValueError, match=rf"standard-{size}x{size}.*g = {size}.*bytes"):
                build()

    @pytest.mark.parametrize("size", [9, 13, 17])
    def test_standard_group_within_the_bound_builds(self, size):
        code = build_standard_code(size, size)
        table = ExactYDecoder(code, PURE_Y(0.1))._table
        assert table.cuts.shape == (2**size, size * (size + 1) // 2)
        assert ConcatenatedYDecoder(code)._table is table

    @pytest.mark.parametrize("j,k", [(3, 4), (4, 6), (6, 9), (9, 9), (12, 8), (13, 13)])
    def test_cut_table_scores_equal_the_group_oracle(self, j, k):
        # The oracle sums each coset over the billiard-orbit Y-stabilizer
        # group, built without the block structure the table comes from.
        code = build_standard_code(j, k)
        group = support.y_stabilizer_group(code)
        table = decoders._cut_table(code)
        flips = np.zeros((len(table.cuts), code.n), dtype=np.uint8)
        flips[:, table.member_qubit] = table.cuts[:, table.member_edge]
        half = len(table.cuts) // 2
        assert {row.tobytes() for row in flips[:half]} == {row.tobytes() for row in group}
        logical = code.logical_y.x_bits
        rng = np.random.default_rng(j * 100 + k)
        for p in (0.05, 0.2, 0.4):
            decoder = ExactYDecoder(code, PURE_Y(p))
            for _ in range(15):
                s = y_syndrome(code, (rng.random(code.n) < p).astype(np.uint8))
                outcome = decoder.decode(s)
                cand = code.y_solver.solve(s)
                want = {
                    label: float(decoders._pure_y_log_score((member ^ group).sum(axis=1), code.n, p))
                    for label, member in (("I", cand), ("L", cand ^ logical))
                }
                for label in "IL":
                    assert outcome.coset_scores[label] == pytest.approx(want[label], rel=1e-12)
                want_verdict = "L" if want["L"] > want["I"] + decoders._TIE_TOLERANCE else "I"
                assert outcome.verdict == want_verdict
                want_recovery = cand ^ logical if want_verdict == "L" else cand
                assert np.array_equal(outcome.recovery.x_bits, want_recovery)

    def test_cut_table_is_read_only(self):
        table = decoders._cut_table(build_standard_code(4, 6))
        for name in ("member_qubit", "member_edge", "block_starts", "block_lengths", "cuts"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0

    def test_tie_probability_half_at_p_half(self):
        # At p = 1/2 both cosets weigh the same; the identity class must win
        # every tie, so the decoder returns its candidate unchanged.
        code = build_rotated_code(3, 3)
        outcome = ExactYDecoder(code, PURE_Y(0.5)).decode(np.zeros(code.num_checks, np.uint8))
        assert outcome.verdict == "I"
        assert outcome.coset_scores["I"] == pytest.approx(outcome.coset_scores["L"])


class TestBruteForce:
    def test_p_zero_zero_syndrome_certain_identity(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.0, eta=0.5)
        outcome = BruteForceDecoder(code, model).decode(np.zeros(code.num_checks, np.uint8))
        assert outcome.verdict == "I"
        assert outcome.coset_scores["I"] == pytest.approx(0.0)
        for label in "XYZ":
            assert outcome.coset_scores[label] == -np.inf

    def test_coset_sums_match_enumeration_oracle(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.1, eta=0.5)
        decoder = BruteForceDecoder(code, model)
        rng = np.random.default_rng(19)
        seen = set()
        for _ in range(6):
            s = syndrome(code, sample_error(model, code.n, rng))
            if s.tobytes() in seen:
                continue
            seen.add(s.tobytes())
            outcome = decoder.decode(s)
            expected, total = support.enumerate_coset_probs(code, model, s)
            for label in "IXYZ":
                assert math.exp(outcome.coset_scores[label]) == pytest.approx(
                    expected[label], rel=1e-12, abs=1e-300
                )
            assert sum(expected.values()) == pytest.approx(total, rel=1e-12)

    def test_conservation_over_all_syndromes(self):
        # Summing all four coset probabilities over every syndrome must give 1.
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.13, eta=3.0)
        decoder = BruteForceDecoder(code, model)
        total = 0.0
        for value in range(1 << code.num_checks):
            s = np.array([(value >> i) & 1 for i in range(code.num_checks)], dtype=np.uint8)
            outcome = decoder.decode(s)
            total += sum(math.exp(v) for v in outcome.coset_scores.values())
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_large_code_rejected(self, monkeypatch):
        # The refusal comes from n alone, before the stabilizer group is built.
        def forbidden(*args):
            raise AssertionError("stabilizer group built for an oversized code")

        monkeypatch.setattr(decoders, "matmul_mod2", forbidden)
        code = build_rotated_code(5, 5)
        with pytest.raises(ValueError, match="n <= 16"):
            BruteForceDecoder(code, BiasedNoiseModel(p=0.1, eta=0.5))


class TestCandidateRecovery:
    @pytest.mark.parametrize(
        "code",
        [build_rotated_code(3, 3), build_rotated_code(5, 5), build_standard_code(3, 3)],
        ids=lambda c: c.id,
    )
    def test_candidate_has_requested_syndrome(self, code):
        rng = np.random.default_rng(29)
        model = BiasedNoiseModel(p=0.2, eta=1.0)
        for _ in range(20):
            s = syndrome(code, sample_error(model, code.n, rng))
            f = candidate_recovery(code, s)
            assert np.array_equal(syndrome(code, f), s)

    def test_syndrome_length_checked(self):
        code = build_rotated_code(3, 3)
        with pytest.raises(ValueError):
            candidate_recovery(code, np.zeros(3, np.uint8))


class TestMps:
    def test_p_zero_identity_coset_is_certain(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.0, eta=0.5)
        outcome = MpsDecoder(code, model, 8).decode(np.zeros(code.num_checks, np.uint8))
        assert outcome.verdict == "I"
        assert outcome.coset_scores["I"] == pytest.approx(0.0)
        for label in "XYZ":
            assert outcome.coset_scores[label] == -np.inf

    def test_agrees_with_exact_on_all_pure_y_syndromes_3x3(self):
        code = build_rotated_code(3, 3)
        model = PURE_Y(0.1)
        mps, exact = MpsDecoder(code, model, 4), ExactYDecoder(code, model)
        for value in range(1 << code.num_checks):
            s = np.array([(value >> i) & 1 for i in range(code.num_checks)], dtype=np.uint8)
            mps_out = mps.decode(s)
            exact_out = exact.decode(s)
            assert support.relative_class(code, mps_out.recovery, exact_out.recovery) == "I"

    def test_chi_one_matches_exact_on_5x5_samples(self):
        code = build_rotated_code(5, 5)
        model = PURE_Y(0.3)
        mps, exact = MpsDecoder(code, model, 1), ExactYDecoder(code, model)
        rng = np.random.default_rng(59)
        for _ in range(60):
            e = (rng.random(code.n) < 0.3).astype(np.uint8)
            s = y_syndrome(code, e)
            full = np.concatenate([s[: code.num_x_checks], s[code.num_x_checks :]])
            mps_out = mps.decode(full)
            exact_out = exact.decode(full)
            assert support.relative_class(code, mps_out.recovery, exact_out.recovery) == "I"

    def test_chi64_matches_brute_force_cosets_3x3(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        mps, brute = MpsDecoder(code, model, 64), BruteForceDecoder(code, model)
        rng = np.random.default_rng(61)
        for _ in range(40):
            s = syndrome(code, sample_error(model, code.n, rng))
            mps_out = mps.decode(s)
            brute_out = brute.decode(s)
            for label in "IXYZ":
                a, b = mps_out.coset_scores[label], brute_out.coset_scores[label]
                if b == -np.inf:
                    assert a == -np.inf or a < max(brute_out.coset_scores.values()) + math.log(
                        1e-12
                    )
                else:
                    assert a == pytest.approx(b, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize(
        "distance,chi,perturbation", [(3, 64, "chain"), (5, 4, "chain"), (5, 2, "gesvd")]
    )
    def test_verdicts_do_not_follow_rounding(self, distance, chi, perturbation, monkeypatch):
        """Depolarizing noise makes some cosets equal in exact arithmetic.

        Contracting them along another rounding path (the MPS chain instead
        of the merged boundary, or the gesvd SVD routine instead of gesdd)
        moves their scores by ~1e-14 and must change no verdict.
        """
        code = build_rotated_code(distance, distance)
        model = BiasedNoiseModel(p=0.19, eta=0.5)
        rng = np.random.default_rng(83)
        syndromes = [syndrome(code, sample_error(model, code.n, rng)) for _ in range(200)]
        decoder = MpsDecoder(code, model, chi)
        before = [decoder.decode(s).verdict for s in syndromes]
        if perturbation == "chain":
            monkeypatch.setattr(tensor, "_is_exact", lambda rows, chi: False)
        else:
            monkeypatch.setattr(tensor, "_gesdd", tensor._gesvd)
        assert [decoder.decode(s).verdict for s in syndromes] == before

    def test_recovery_syndrome_invariant(self):
        code = build_rotated_code(5, 5)
        model = BiasedNoiseModel(p=0.12, eta=2.0)
        decoder = MpsDecoder(code, model, chi=8)
        rng = np.random.default_rng(67)
        for _ in range(10):
            s = syndrome(code, sample_error(model, code.n, rng))
            outcome = decoder.decode(s)
            assert np.array_equal(syndrome(code, outcome.recovery), s)

    def test_standard_layout_rejected(self):
        code = build_standard_code(3, 3)
        with pytest.raises(ValueError):
            MpsDecoder(code, BiasedNoiseModel(p=0.1, eta=0.5), chi=4)

    def test_chi_below_one_rejected(self):
        code = build_rotated_code(3, 3)
        with pytest.raises(ValueError):
            MpsDecoder(code, BiasedNoiseModel(p=0.1, eta=0.5), chi=0)

    @pytest.mark.parametrize(
        "distance,chi",
        [pytest.param(5, 8, id="5"), pytest.param(7, 8, id="7"), pytest.param(7, 2, id="7-chain")],
    )
    def test_decode_runs_two_sweeps(self, distance, chi, monkeypatch):
        # One sweep from f closes as I and Z, one from f * Xbar as X and Y,
        # on the merged boundary (chi >= 2^floor(j/2)) and on the MPS chain.
        code = build_rotated_code(distance, distance)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        decoder = MpsDecoder(code, model, chi=chi)
        s = syndrome(code, sample_error(model, code.n, np.random.default_rng(71)))
        original = tensor.apply_and_truncate
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tensor, "apply_and_truncate", counting)
        decoder.decode(s)
        assert len(calls) == 2 * (code.k - 1)


class TestDecoderRegistry:
    def test_round_trip_names(self):
        rotated = build_rotated_code(3, 3)
        standard = build_standard_code(3, 4)
        model_inf = PURE_Y(0.1)
        model_dep = BiasedNoiseModel(p=0.1, eta=0.5)
        assert isinstance(decoder_from_name("exact-y", rotated, model_inf), ExactYDecoder)
        assert isinstance(
            decoder_from_name("concatenated-y", standard, model_inf), ConcatenatedYDecoder
        )
        assert isinstance(decoder_from_name("brute-force", rotated, model_dep), BruteForceDecoder)
        mps = decoder_from_name("mps", rotated, model_dep, chi=5)
        assert isinstance(mps, MpsDecoder)
        assert mps.params == {"chi": 5}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            decoder_from_name("nope", build_rotated_code(3, 3), PURE_Y(0.1))


@pytest.mark.parametrize(
    "scores,verdict",
    [
        ({"I": -5.0, "X": -5.0 + 5e-10, "Y": -7.0, "Z": -9.0}, "I"),  # tie: class order
        ({"I": -5.0, "X": -5.0 + 2e-9, "Y": -7.0, "Z": -9.0}, "X"),  # beyond the tolerance
        ({"I": -9.0, "X": -6.0, "Y": -6.0 - 1e-12, "Z": -6.0 + 1e-12}, "X"),
        ({"I": -np.inf, "X": -np.inf, "Y": -800.0, "Z": -np.inf}, "Y"),  # -inf never ties
        ({"I": -np.inf, "X": -np.inf, "Y": -np.inf, "Z": -np.inf}, "I"),
    ],
)
def test_near_equal_coset_scores_tie_in_class_order(scores, verdict):
    assert _argmax_class(scores, ("I", "X", "Y", "Z")) == verdict


def test_outcome_is_frozen():
    outcome = DecodeOutcome(PauliOperator.identity(2), "I", {"I": 0.0})
    with pytest.raises(AttributeError):
        outcome.verdict = "L"


finite = st.floats(-1e3, 1e3)
with_neg_inf = st.one_of(finite, st.just(-np.inf))


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 20), st.just(1)), elements=with_neg_inf))
def test_logsumexp_of_one_entry_is_that_entry(a):
    got = _logsumexp(a, axis=-1)
    assert np.array_equal(got, a[:, 0])
    assert np.array_equal(got, logsumexp(a, axis=-1))


@pytest.mark.parametrize("elements", [finite, with_neg_inf], ids=["finite", "with-neg-inf"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), axis=st.sampled_from([None, -1]))
def test_logsumexp_matches_scipy(elements, data, axis):
    shape = st.tuples(st.integers(1, 6), st.integers(1, 40))
    a = data.draw(arrays(np.float64, shape, elements=elements))
    got = _logsumexp(a, axis=axis)
    want = logsumexp(a, axis=axis)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_logsumexp_of_all_neg_inf_is_neg_inf():
    a = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]])
    assert _logsumexp(a[:1]) == -np.inf
    got = _logsumexp(a, axis=-1)
    assert got[0] == -np.inf and got[1] == pytest.approx(np.log(1 + np.e), rel=1e-15)


@functools.cache
def _code(layout, j, k):
    return (build_rotated_code if layout == "rotated" else build_standard_code)(j, k)


@settings(max_examples=200, deadline=None)
@given(
    layout_j_k=st.one_of(
        st.tuples(st.just("standard"), st.integers(2, 4), st.integers(2, 4)),
        st.tuples(st.just("rotated"), st.sampled_from([3, 5]), st.sampled_from([3, 5])),
        # n = 72 and n = 81: check rows and GF(2) rows that span two words.
        st.sampled_from([("standard", 6, 7), ("rotated", 9, 9)]),
    ),
    eta=st.sampled_from([0.5, 10.0, math.inf]),
    p=st.floats(0.01, 0.3),
    name=st.sampled_from(["exact-y", "concatenated-y", "brute-force", "mps"]),
    seed=st.integers(0, 2**16),
)
def test_decoders_reject_the_config_or_reproduce_every_syndrome(layout_j_k, eta, p, name, seed):
    code = _code(*layout_j_k)
    model = BiasedNoiseModel(p=p, eta=eta)
    try:
        decoder = decoder_from_name(name, code, model, chi=2)
    except ValueError:
        return
    rng = np.random.default_rng(seed)
    for _ in range(3):
        s = syndrome(code, sample_error(model, code.n, rng))
        assert np.array_equal(syndrome(code, decoder.decode(s).recovery), s)


@settings(max_examples=60, deadline=None)
@given(
    distance=st.sampled_from([3, 5]),
    eta=st.sampled_from([0.5, 3.0]),
    p=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_sweep_scores_match_four_independent_sweeps(distance, eta, p, seed):
    """Closing two sweeps twice scores the cosets as four separate contractions do.

    At chi = 64 no bond of these codes is truncated, so both paths are exact
    up to rounding.
    """
    code = _code("rotated", distance, distance)
    model = BiasedNoiseModel(p=p, eta=eta)
    s = syndrome(code, sample_error(model, code.n, np.random.default_rng(seed)))
    shared = MpsDecoder(code, model, 64).decode(s).coset_scores
    f = candidate_recovery(code, s)
    alone = {
        label: coset_log_probability(code, model, f.mul(rep), 64)
        for label, rep in logical_class_representatives(code).items()
    }
    assert shared.keys() == alone.keys()
    dominant = max(alone.values())
    for label in alone:
        a, b = shared[label], alone[label]
        if a == -np.inf or b == -np.inf:
            assert a == -np.inf or a < dominant - 10.0
            assert b == -np.inf or b < dominant - 10.0
        else:
            assert a == pytest.approx(b, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    j_k=st.sampled_from([(2, 2), (3, 4), (4, 4), (4, 6), (6, 9), (9, 9), (12, 8)]),
    p=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_concatenated_recovery_weighs_the_least_over_every_cut(j_k, p, seed):
    """Concatenated-y returns a lightest Y-configuration with the syndrome.

    Its weight is the least of exact-y's I- and L-coset weights of the
    canonical candidate, which together range over all 2^g cuts.
    """
    code = _code("standard", *j_k)
    e = (np.random.default_rng(seed).random(code.n) < p).astype(np.uint8)
    s = y_syndrome(code, e)
    recovery = ConcatenatedYDecoder(code).decode(s).recovery.x_bits
    weights = ExactYDecoder(code, PURE_Y(p))._coset_weights(code.y_solver.solve(s)[None])
    assert int(recovery.sum()) == min(int(w.min()) for w in weights)
