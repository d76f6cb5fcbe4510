"""Decoding algorithms and the brute-force maximum-likelihood oracle.

One class per algorithm: :class:`ExactYDecoder`, :class:`ConcatenatedYDecoder`,
:class:`BruteForceDecoder` and :class:`MpsDecoder`.  Each checks its code and
noise model once, in ``__init__``.  ``decode(s)`` takes one syndrome (X-check
bits then Z-check bits, in check construction order) and returns a
:class:`DecodeOutcome`; ``ExactYDecoder.decode_batch`` takes a block of
syndromes, one per row, and returns recoveries and verdicts.  On the
standard layout both pure-Y decoders start from the canonical GF(2)
solution of the syndrome and score it against the code's cut table of
K_{g+1} (:class:`_CutTable`).  Decoders read syndromes only, never errors,
and judge nothing: ``sim`` judges success by whether recovery * error lies
in the stabilizer group.  Verdicts are argmax classes relative to each
decoder's own candidate recovery.

Tie-breaking is deterministic everywhere: coset log-scores within 1e-9 of
each other are tied, and ties prefer I, then X, Y, Z, so a verdict never
follows the rounding of cosets equal in exact arithmetic (pure-Y decoding
prefers I over L on an exact tie); vote ties in the cycle decoder resolve to
"no flip".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from . import tensor
from .codes import StabilizerCode
from .gf2 import _read_only, matmul_mod2, solve
from .noise import BiasedNoiseModel
from .pauli import PauliOperator
from .ycode import cycle_code, y_code_structure

__all__ = [
    "DecodeOutcome",
    "UnattainableSyndromeError",
    "cycle_decode_batch",
    "cycle_failure_bound",
    "candidate_recovery",
    "ExactYDecoder",
    "ConcatenatedYDecoder",
    "BruteForceDecoder",
    "MpsDecoder",
    "decoder_from_name",
]

_CLASS_ORDER = ("I", "X", "Y", "Z")


class UnattainableSyndromeError(ValueError):
    """The syndrome cannot be produced by any error of the decoder's type."""


@dataclass(frozen=True)
class DecodeOutcome:
    """Recovery operator plus (optionally) per-class log-probability scores."""

    recovery: PauliOperator
    verdict: str | None = None
    coset_scores: dict[str, float] | None = None


# Log-scores this close are one tie: cosets that are equal in exact
# arithmetic differ by rounding (seen up to ~1e-13), never by this much.
_TIE_TOLERANCE = 1e-9


def _argmax_class(scores: Mapping[str, float], order: Iterable[str]) -> str:
    """The first label in ``order`` whose score is within the tie tolerance of the best.

    A -inf score never ties with a finite one.
    """
    order = tuple(order)
    best = max(scores[label] for label in order)
    return next(label for label in order if scores[label] >= best - _TIE_TOLERANCE)


def logical_class_representatives(code: StabilizerCode) -> dict[str, PauliOperator]:
    return {
        "I": PauliOperator.identity(code.n),
        "X": code.logical_x,
        "Y": code.logical_x.mul(code.logical_z),
        "Z": code.logical_z,
    }


# -- classical decoders ----------------------------------------------------


def cycle_decode_batch(m: int, errors: np.ndarray) -> np.ndarray:
    """Vote-decode the cycle code on K_m for many errors; rows are edge bit-vectors.

    Each edge sums the syndromes of the m-2 triangles containing it and is
    flipped iff the sum strictly exceeds (m-2)/2.  Syndromes are generated
    internally from the errors, so consistency holds by construction.  Vote
    sums run through float32 BLAS in chunks; they are small integers (at
    most m-2 < 2^24), so the arithmetic stays exact.
    """
    code = cycle_code(m)
    te = code.triangle_edges
    dense = code.checks.astype(np.float32)
    out = np.empty_like(errors)
    chunk = max(256, (64 * 1024 * 1024) // (4 * max(1, len(code.triangles))))
    for lo in range(0, errors.shape[0], chunk):
        block = errors[lo : lo + chunk]
        s = block[:, te[:, 0]] ^ block[:, te[:, 1]] ^ block[:, te[:, 2]]
        votes = s.astype(np.float32) @ dense
        out[lo : lo + chunk] = 2 * votes > m - 2
    return out


def cycle_failure_bound(m: int, p: float) -> float:
    """Analytic bound 2 m^2 exp(-2 eps^2 m), eps = 1/2 - 2p(1-p), clipped to [0,1]."""
    if not 0.0 <= p < 0.5:
        raise ValueError(f"bound requires 0 <= p < 1/2, got {p}")
    eps = 0.5 - 2.0 * p * (1.0 - p)
    return min(1.0, 2.0 * m * m * math.exp(-2.0 * eps * eps * m))


# -- shared Y-decoding machinery ------------------------------------------


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) over ``axis`` (all axes for None), shifted by the maximum.

    The steps are those of ``scipy.special.logsumexp`` (scipy >= 1.15): the
    m maxima of a slice leave the sum, and the result is
    a_max + log(m) + log1p(s / m) for the sum s of exp(a - a_max) over the
    rest.  So a length-1 slice returns its entry exactly, and an
    all-(-inf) slice returns -inf.
    """
    a = np.asarray(a, dtype=np.float64)
    a_max = np.max(a, axis=axis, keepdims=True)
    top = a == a_max
    m = top.sum(axis=axis, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.where(top, -np.inf, a)
        rest -= a_max
        s = np.exp(rest, out=rest).sum(axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
    return np.squeeze(np.where(np.isfinite(a_max), out, a_max), axis=axis)[()]


def _pure_y_log_score(weights: np.ndarray, n: int, p: float) -> np.ndarray:
    """log sum of p^w (1-p)^(n-w) over the last axis of the coset weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if p <= 0.0:
        return np.where((weights == 0).any(axis=-1), 0.0, -np.inf)
    if p >= 1.0:
        return np.where((weights == n).any(axis=-1), 0.0, -np.inf)
    # (n - w) log(1-p) + w log(p), built in place in one fresh block; a float
    # sum does not depend on the order of its terms, so this is bit for bit
    # w log(p) + (n - w) log(1-p).
    log_weights = n - weights
    log_weights *= math.log1p(-p)
    log_weights += weights * math.log(p)
    return _logsumexp(log_weights, axis=-1)


# Bound on the bytes of a cut table's float32 cuts, 4 * 2^g * E for the
# E = g(g+1)/2 edges of K_{g+1}: standard 17x17 (about 80 MB) fits, 18x18
# does not.
_CUT_TABLE_MAX_BYTES = 2**27

# Candidates are scored in chunks of rows whose float64 coset weights fill
# about _SCORE_CHUNK_BYTES, so the scoring temporaries stay near the CPU
# cache.  Each chunk's product reads the whole cut table once (16 MB at
# standard 15x15, where the byte budget alone would give 8 rows and run 1.5
# times slower), so a chunk has at least _SCORE_MIN_ROWS rows while their
# weights fit in _SCORE_MAX_BYTES: 32 rows at standard 15x15, 8 at 17x17.
_SCORE_CHUNK_BYTES = 2 * 1024 * 1024
_SCORE_MAX_BYTES = 8 * 1024 * 1024
_SCORE_MIN_ROWS = 32


class _CutTable:
    """The repetition blocks of a standard code on the edges of K_{g+1}, and every cut.

    Under pure Y the code's Y-kernel is spanned by whole-block flips: flipping
    the blocks on the edges of a cut of K_{g+1} has zero syndrome, and there
    are 2^g cuts (vertex 1 fixed on side 0).  Cut i puts vertex v + 2 on
    side ``(i >> v) & 1``, so the first half (vertex g+1 with vertex 1) are
    the Y-type stabilizers and the second half the Y logical's coset.  For
    a Y-configuration c with weight w_e on block e, flipping cut x gives

        |c ^ x| = |c| + sum_e x_e (|B_e| - 2 w_e).

    Members are listed block by block in ``y_code_structure`` order, which
    is ``cycle_code(g + 1).edges`` order, and each block's first member is
    its reference.  Every array is read-only; ``cuts`` is a float32
    (2^g, E) 0/1 matrix, so its products with small integer vectors are
    exact.  It is stored column by column (Fortran order), the layout in
    which BLAS reads it fastest both as ``cuts @ v`` and as a block's
    ``gains @ cuts.T``.
    """

    def __init__(self, code: StabilizerCode):
        g = code.g
        self.cycle = cycle_code(g + 1)
        structure = y_code_structure(code.j, code.k, code)
        blocks = [members for _, members in structure.repetition_blocks]
        lengths = [len(members) for members in blocks]
        self.member_qubit = _read_only(np.concatenate(blocks), np.intp)
        self.member_edge = _read_only(np.repeat(np.arange(len(blocks)), lengths), np.intp)
        self.block_starts = _read_only(np.cumsum([0] + lengths[:-1]), np.intp)
        self.block_lengths = _read_only(lengths, np.float32)
        index = np.arange(2**g)[:, None]
        side = np.hstack([np.zeros_like(index), (index >> np.arange(g)) & 1])
        cuts = np.empty((2**g, len(blocks)), dtype=np.float32, order="F")
        for e, (a, b) in enumerate(self.cycle.edges):
            cuts[:, e] = side[:, a - 1] ^ side[:, b - 1]
        cuts.setflags(write=False)
        self.cuts = cuts
        # The first half holds 2^(g-1) kernel elements, as many as the group
        # of Y-type stabilizers; it is that group if its generators, the cuts
        # around one vertex 2..g, are stabilizers.
        gens = np.zeros((g - 1, code.n), dtype=np.uint8)
        gens[:, self.member_qubit] = cuts[1 << np.arange(g - 1)][:, self.member_edge]
        for solver in (code.x_solver, code.z_solver):
            if solver.reduce_rowspace_batch(gens).any():
                raise AssertionError(f"{code.id}: a cut of the first half is not a stabilizer")

    def flip_gains(self, member_bits: np.ndarray) -> np.ndarray:
        """|B_e| - 2 w_e per edge, for bits of the members on the last axis (float32)."""
        weights = np.add.reduceat(member_bits, self.block_starts, axis=-1, dtype=np.float32)
        return self.block_lengths - 2 * weights


@lru_cache(maxsize=32)
def _cut_table(code: StabilizerCode) -> _CutTable:
    """The cut table of a standard code; ValueError, before any is built, if it is too large."""
    g = code.g
    table_bytes = 4 * 2**g * (g * (g + 1) // 2)
    if table_bytes > _CUT_TABLE_MAX_BYTES:
        raise ValueError(
            f"{code.id}: the pure-Y decoders score 2^g cuts of K_(g+1) (g = {g}), "
            f"{table_bytes} bytes, above the bound of {_CUT_TABLE_MAX_BYTES} bytes"
        )
    return _CutTable(code)


class ExactYDecoder:
    """Exact maximum-likelihood decoding under pure Y noise.

    Compares the identity coset against the logical coset, each summed over
    all Y-type stabilizers in log domain; ties resolve to the identity
    class.  On both layouts the candidate is the canonical GF(2) solution
    of the syndrome; ML needs only some representative of its coset, so
    another candidate could change a recovery only on an exact tie.  On
    the rotated layout the only Y-type stabilizer is the identity.  On the
    standard layout each coset's weights come from the code's cut table:
    one product of the candidates' block gains with the 2^g cuts, whose
    two halves are the I and L cosets.  A code whose table exceeds
    ``_CUT_TABLE_MAX_BYTES`` is rejected with ValueError before it is built.
    """

    name = "exact-y"

    def __init__(self, code: StabilizerCode, model: BiasedNoiseModel):
        if not math.isinf(model.eta):
            raise ValueError("ExactYDecoder requires a pure-Y model (eta = inf)")
        self.code = code
        self.model = model
        self.params: dict = {}
        self._table = None if code.layout == "rotated" else _cut_table(code)
        logical = code.logical_y.x_bits
        self._logical_weight = int(logical.sum())
        # Rotated layout: with columns [1, L], one exact float32 product gives
        # |c| and |c & L| per candidate row c.
        columns = np.stack([np.ones_like(logical), logical], axis=1)
        self._weight_columns = _read_only(columns, np.float32)

    def _coset_weights(self, cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights of every member of the I and of the L coset, per candidate row."""
        table = self._table
        if table is None:
            # |c ^ L| = |c| + |L| - 2 |c & L|, so no copy of the block is XORed.
            weight, overlap = (cands @ self._weight_columns).T
            return weight[:, None], (weight + self._logical_weight - 2 * overlap)[:, None]
        gains = table.flip_gains(cands[:, table.member_qubit])
        weights = cands.sum(axis=1)[:, None] + gains @ table.cuts.T
        return np.hsplit(weights, 2)

    def _decode_rows(self, syndromes: np.ndarray):
        """Recoveries, verdicts and (I, L) coset scores for a (trials, checks) block.

        Scores within the tie tolerance go to I, so cosets equal in exact
        arithmetic (every pair at p = 1/2) never follow rounding.
        """
        code = self.code
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        cands, attainable = code.y_solver.solve_batch(syndromes)
        if not attainable.all():
            raise UnattainableSyndromeError(f"{code.id}: syndrome not attainable by a Y-type error")
        scores = np.empty((2, len(cands)))
        row_bytes = 8 * (2 if self._table is None else len(self._table.cuts))
        floor = min(_SCORE_MIN_ROWS, _SCORE_MAX_BYTES // row_bytes)
        chunk = max(1, floor, _SCORE_CHUNK_BYTES // row_bytes)
        for lo in range(0, len(cands), chunk):
            for score, weights in zip(scores, self._coset_weights(cands[lo : lo + chunk])):
                score[lo : lo + chunk] = _pure_y_log_score(weights, code.n, self.model.p)
        score_i, score_l = scores
        take_l = score_l > score_i + _TIE_TOLERANCE
        # The candidates are a fresh block: flip the L rows in place.
        np.bitwise_xor(cands, code.logical_y.x_bits, out=cands, where=take_l[:, None])
        return cands, np.where(take_l, "L", "I"), (score_i, score_l)

    def decode_batch(self, syndromes: np.ndarray):
        """Decode a (trials, checks) syndrome block; returns (recovery_x, recovery_z, verdicts).

        Recoveries are Y-type, so the two bit blocks are equal; verdicts are
        "I" or "L" per row.  Any unattainable row raises
        UnattainableSyndromeError.
        """
        recovery, verdicts, _ = self._decode_rows(syndromes)
        return recovery, recovery.copy(), verdicts

    def decode(self, s: np.ndarray) -> DecodeOutcome:
        recovery, verdicts, (score_i, score_l) = self._decode_rows(np.asarray(s)[None])
        scores = {"I": float(score_i[0]), "L": float(score_l[0])}
        return DecodeOutcome(PauliOperator.y_type(recovery[0]), str(verdicts[0]), scores)


# -- concatenated decoder --------------------------------------------------


class ConcatenatedYDecoder:
    """Level-by-level decoding of a pure-Y syndrome on a standard code.

    Starts from the canonical GF(2) solution of the syndrome, the candidate
    exact-y takes too.  Every Y-configuration with that syndrome differs
    from it by whole-block flips along a cut of K_{g+1}, so the candidate
    already fixes what both levels read: the boundary qubits, each block's
    bits relative to its reference (first) member, and the triangle
    parities of the reference bits.  The bottom level fixes each block up
    to its reference bit; the top level then selects, among the 2^g
    reference patterns with those parities (a particular solution shifted
    by the cut space of K_{g+1}), the one of minimum total qubit weight,
    scored by one product with the code's cut table.  The particular
    solution comes from :func:`gf2.solve` on the fixed K_{g+1} check
    matrix, which is factored once and then served from gf2's solver
    cache.  Corrects every error of weight at most (d_Y - 1)/2.  A code
    whose cut table exceeds ``_CUT_TABLE_MAX_BYTES`` is rejected with
    ValueError before it is built.
    """

    name = "concatenated-y"

    def __init__(self, code: StabilizerCode):
        if code.layout != "standard":
            raise ValueError("concatenated-y requires the standard layout")
        self.code = code
        self._table = _cut_table(code)
        # The fixed operand of the per-decode product, kept in float32.
        self._y_checks = _read_only(code.y_checks, np.float32)
        self.params: dict = {}

    def decode(self, s: np.ndarray) -> DecodeOutcome:
        code, table = self.code, self._table
        s = np.asarray(s, dtype=np.uint8)
        cand = code.y_solver.solve(s)
        if cand is None:
            raise UnattainableSyndromeError(f"{code.id}: syndrome not attainable by a Y-type error")

        ref = cand[table.member_qubit[table.block_starts]]
        member_bits = cand[table.member_qubit] ^ ref[table.member_edge]
        te = table.cycle.triangle_edges
        tri = ref[te[:, 0]] ^ ref[te[:, 1]] ^ ref[te[:, 2]]
        base = solve(table.cycle.checks, tri)
        # Flipping the blocks of cut x changes the weight of (base ^ x) by
        # x_e (1 - 2 base_e) gain_e on each edge: the cost of base ^ x up to
        # a constant, in small integers that float32 sums exactly.
        costs = table.cuts @ ((1 - 2 * base.astype(np.float32)) * table.flip_gains(member_bits))
        best = base ^ table.cuts[int(np.argmin(costs))].astype(np.uint8)

        y = cand.copy()
        y[table.member_qubit] = member_bits ^ best[table.member_edge]
        if not np.array_equal(matmul_mod2(self._y_checks, y), s):
            raise AssertionError(f"{code.id}: concatenated recovery syndrome mismatch")
        return DecodeOutcome(PauliOperator.y_type(y), None, None)


# -- brute-force oracle ----------------------------------------------------


class _BruteTools:
    def __init__(self, code: StabilizerCode):
        if code.n > 16:
            raise ValueError(f"brute-force oracle limited to n <= 16, got n = {code.n}")
        self.code = code
        n = code.n
        gens = np.zeros((code.num_checks, 2 * n), dtype=np.uint8)
        gens[: code.num_x_checks, :n] = code.x_checks
        gens[code.num_x_checks :, n:] = code.z_checks
        count = code.num_checks
        subset_bits = (
            (np.arange(2**count, dtype=np.int64)[:, None] >> np.arange(count)) & 1
        ).astype(np.uint8)
        self.group = matmul_mod2(subset_bits, gens)


@lru_cache(maxsize=8)
def _brute_tools(code: StabilizerCode) -> _BruteTools:
    return _BruteTools(code)


def candidate_recovery(code: StabilizerCode, s: np.ndarray) -> PauliOperator:
    """Deterministic Pauli with syndrome s: canonical GF(2) half-solves.

    The Z part is solved from the X-check bits and the X part from the
    Z-check bits, free variables zero.  Shared by the MPS decoder and the
    brute-force oracle so their class labels coincide.
    """
    s = np.asarray(s, dtype=np.uint8)
    if s.size != code.num_checks:
        raise ValueError(f"syndrome length {s.size} != {code.num_checks}")
    z_bits = code.x_solver.solve(s[: code.num_x_checks])
    x_bits = code.z_solver.solve(s[code.num_x_checks :])
    if z_bits is None or x_bits is None:
        raise UnattainableSyndromeError(f"{code.id}: syndrome outside the check image")
    return PauliOperator(x_bits, z_bits)


class BruteForceDecoder:
    """Exact coset probabilities by enumerating all 2^(n-1) stabilizers."""

    name = "brute-force"

    def __init__(self, code: StabilizerCode, model: BiasedNoiseModel):
        self._tools = _brute_tools(code)  # validates the size
        self.code = code
        self.model = model
        self.params: dict = {}
        self._reps = logical_class_representatives(code)

    def decode(self, s: np.ndarray) -> DecodeOutcome:
        code = self.code
        f = candidate_recovery(code, s)
        n = code.n
        logp = self.model.log_class_probs
        scores: dict[str, float] = {}
        for label in _CLASS_ORDER:
            base = f.mul(self._reps[label]).symplectic()
            ops = self._tools.group ^ base
            cats = ops[:, :n] + 2 * ops[:, n:]
            with np.errstate(invalid="ignore"):
                per_op = logp[cats].sum(axis=1)
            scores[label] = float(_logsumexp(per_op))
        verdict = _argmax_class(scores, _CLASS_ORDER)
        return DecodeOutcome(f.mul(self._reps[verdict]), verdict, scores)


# -- rotated-layout MPS decoder -------------------------------------------


class MpsDecoder:
    """Approximate ML decoding by boundary-MPS contraction at bond cap chi (rotated layout).

    Two boundary sweeps score the four cosets.  Z on every qubit of the last
    column k equals ``code.logical_z`` (column 1) times a stabilizer, so the
    cosets of f and f * Zbar differ only in column k, and so do those of
    f * Xbar and f * Ybar.  Each network from ``tensor.build_coset_network``
    closes its sweep through columns 1..k-1 twice, giving I and Z from f and
    X and Y from f * Xbar.  The labels are the same logical classes relative
    to f as the code's own representatives, and the recovery is
    ``f * reps[verdict]``.

    Where chi >= 2^floor(j/2) for a code of j rows no bond could truncate:
    each sweep contracts the boundary exactly as one dense vector, and the
    decoder is exact maximum likelihood.
    """

    name = "mps"

    def __init__(self, code: StabilizerCode, model: BiasedNoiseModel, chi: int):
        if code.layout != "rotated":
            raise ValueError("MpsDecoder requires a rotated-layout code")
        if chi < 1:
            raise ValueError(f"chi must be >= 1, got {chi}")
        tensor.network_layout(code)  # build and cache the wiring eagerly
        self.code = code
        self.model = model
        self.chi = chi
        self.params = {"chi": chi}
        self._reps = logical_class_representatives(code)

    def decode(self, s: np.ndarray) -> DecodeOutcome:
        code = self.code
        f = candidate_recovery(code, s)
        scores: dict[str, float] = {}
        for base, with_z in (("I", "Z"), ("X", "Y")):
            columns = tensor.build_coset_network(code, self.model, f.mul(self._reps[base]))
            scores[base], scores[with_z] = (
                float(v) for v in tensor.contract_columns(columns, self.chi)
            )
        verdict = _argmax_class(scores, _CLASS_ORDER)
        return DecodeOutcome(f.mul(self._reps[verdict]), verdict, scores)


def decoder_from_name(name: str, code: StabilizerCode, model: BiasedNoiseModel, chi: int = 8):
    """Construct a decoder object from its CLI name."""
    if name == "exact-y":
        return ExactYDecoder(code, model)
    if name == "concatenated-y":
        if not math.isinf(model.eta):
            raise ValueError("concatenated-y requires a pure-Y model (eta = inf)")
        return ConcatenatedYDecoder(code)
    if name == "brute-force":
        return BruteForceDecoder(code, model)
    if name == "mps":
        return MpsDecoder(code, model, chi)
    raise ValueError(f"unknown decoder {name!r}")
