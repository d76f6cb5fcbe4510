"""Shared oracles for the test suite.

Class labels come from commutation with the logical pair, coset sums from
direct enumeration over all Paulis, and kernels from the generic nullspace
routine — none of it reuses the decoders' scoring internals.  The second
implementations the package does not run itself live here too: the
dict-based cycle decoder, the nullspace and row-space routines, one-trial
sampling, the one-coset MPS probability, Pauli strings and predicates, and
the billiard walker on the doubled lattice.  The package reads a standard
code's Y logical and pure-Y blocks off its extended diagonals; the walker,
a test-only oracle, builds the logical again as the corner-to-corner path
and the Y-type stabilizers as closed orbits through the top row.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from ybias import tensor
from ybias.codes import StabilizerCode, syndrome
from ybias.gf2 import _as_bit_array, _as_bit_matrix, matmul_mod2, rank, rref, solve
from ybias.noise import BiasedNoiseModel, counters_per_trial, sample_error_classes_batch
from ybias.pauli import PauliOperator
from ybias.sim import is_stabilizer
from ybias.ycode import cycle_code


def nullspace_basis(M: np.ndarray) -> list[np.ndarray]:
    """Basis of the kernel: cols - rank independent vectors, each with Mv = 0."""
    reduced, pivots = rref(M)
    cols = reduced.shape[1]
    pivot_set = set(pivots)
    basis: list[np.ndarray] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[free] = 1
        v[pivots] = reduced[: len(pivots), free]
        basis.append(v)
    return basis


def in_rowspace(M: np.ndarray, v: Iterable[int] | np.ndarray) -> bool:
    """True iff v lies in the GF(2) row space of M."""
    M = _as_bit_matrix(M)
    return rank(np.vstack([M, _as_bit_array(v, M.shape[1])])) == rank(M)


def sample_error(model: BiasedNoiseModel, n: int, rng: np.random.Generator) -> PauliOperator:
    """One i.i.d. channel sample on n qubits."""
    cls = sample_error_classes_batch(model, rng.random(n))
    return PauliOperator((cls & 1).astype(np.uint8), (cls >> 1).astype(np.uint8))


def trial_generator(key: np.ndarray, trial_index: int, n: int) -> np.random.Generator:
    """Generator positioned at the start of the given trial's counter block."""
    c = counters_per_trial(n)
    return np.random.Generator(np.random.Philox(key=key, counter=trial_index * c))


def cycle_decode(m: int, triangle_syndromes: Mapping[tuple[int, int, int], int]) -> np.ndarray:
    """Vote-decode the cycle code on K_m.

    Each edge sums the syndromes of the m-2 triangles containing it and is
    flipped iff the sum strictly exceeds (m-2)/2.  The full syndrome map
    (one bit per sorted vertex triple) is required and must be consistent.
    """
    code = cycle_code(m)
    try:
        s = np.array([triangle_syndromes[t] for t in code.triangles], dtype=np.uint8)
    except KeyError as missing:
        raise ValueError(f"missing triangle syndrome for {missing}") from None
    if solve(code.checks, s) is None:
        raise ValueError("inconsistent triangle syndrome set")
    votes = code.checks.T.astype(np.int64) @ s.astype(np.int64)
    return (2 * votes > m - 2).astype(np.uint8)


def coset_log_probability(
    code: StabilizerCode,
    model: BiasedNoiseModel,
    rep: PauliOperator,
    chi: int,
    stats: dict | None = None,
) -> float:
    """log of the total probability of the coset rep * stabilizer group."""
    columns = tensor.build_coset_network(code, model, rep)
    return float(tensor.contract_columns(columns, chi, stats)[0])


def anticommute_bit(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> int:
    return int((x1 & z2).sum() + (z1 & x2).sum()) % 2


def pauli_class_label(code: StabilizerCode, op: PauliOperator) -> str:
    """Logical class of a zero-syndrome Pauli from its commutation pattern.

    An element of the normalizer anticommutes with logical Z iff it carries
    logical X, and vice versa; the stabilizer group is the commute-commute
    cell.  This never touches the decoders' scoring machinery.
    """
    lx, lz = code.logical_x, code.logical_z
    a = anticommute_bit(op.x_bits, op.z_bits, lz.x_bits, lz.z_bits)  # carries logical X
    b = anticommute_bit(op.x_bits, op.z_bits, lx.x_bits, lx.z_bits)  # carries logical Z
    return {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(a, b)]


def relative_class(code: StabilizerCode, a: PauliOperator, b: PauliOperator) -> str:
    """Class of a*b; 'I' means a and b decode to the same logical outcome."""
    return pauli_class_label(code, a.mul(b))


def all_paulis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x_bits, z_bits) rows for every n-qubit Pauli, 4^n rows."""
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(2 * n)) & 1).astype(np.uint8)
    return bits[:, :n], bits[:, n:]


def batch_syndromes(code: StabilizerCode, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Syndromes for many Paulis at once, X-check bits first (matches codes.syndrome)."""
    sx = (code.x_checks.astype(np.uint64) @ z.T.astype(np.uint64)) & 1
    sz = (code.z_checks.astype(np.uint64) @ x.T.astype(np.uint64)) & 1
    return np.vstack([sx, sz]).T.astype(np.uint8)


def enumerate_coset_probs(
    code: StabilizerCode, model: BiasedNoiseModel, s: np.ndarray
) -> tuple[dict[str, float], float]:
    """Exact class-resolved probabilities of syndrome s by full enumeration.

    Sums P(e) over every Pauli e with syndrome s, split into the four logical
    classes labeled relative to the shared deterministic candidate (the same
    convention the decoders report).  Returns ({label: prob}, total).  Only
    feasible for small n.
    """
    from ybias.decoders import candidate_recovery

    n = code.n
    x, z = all_paulis(n)
    match = (batch_syndromes(code, x, z) == np.asarray(s, dtype=np.uint8)).all(axis=1)
    x, z = x[match], z[match]
    sums = {"I": 0.0, "X": 0.0, "Y": 0.0, "Z": 0.0}
    if x.shape[0] == 0:
        return sums, 0.0
    f = candidate_recovery(code, s)
    ux, uz = x ^ f.x_bits, z ^ f.z_bits
    lx, lz = code.logical_x, code.logical_z
    carries_x = ((ux @ lz.z_bits.astype(np.uint64)) + (uz @ lz.x_bits.astype(np.uint64))) % 2
    carries_z = ((ux @ lx.z_bits.astype(np.uint64)) + (uz @ lx.x_bits.astype(np.uint64))) % 2
    probs = model.class_probs[x + 2 * z].prod(axis=1)
    label_of = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    for key, label in label_of.items():
        mask = (carries_x == key[0]) & (carries_z == key[1])
        sums[label] = float(probs[mask].sum())
    return sums, float(probs.sum())


def y_kernel(code: StabilizerCode) -> list[np.ndarray]:
    """Nullspace basis of the Y-restricted check matrix (bit-per-qubit view)."""
    return nullspace_basis(code.y_checks)


def y_kernel_span(code: StabilizerCode) -> np.ndarray:
    """All elements of the Y-kernel span as rows, including the zero vector."""
    basis = y_kernel(code)
    if not basis:
        return np.zeros((1, code.n), dtype=np.uint8)
    stack = np.stack(basis)
    count = stack.shape[0]
    subsets = ((np.arange(1 << count, dtype=np.int64)[:, None] >> np.arange(count)) & 1).astype(
        np.uint8
    )
    return (subsets @ stack) & 1


def split_y_span(code: StabilizerCode) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(stabilizer members, logical members) of the Y-kernel span."""
    stabs, logicals = [], []
    for row in y_kernel_span(code):
        op = PauliOperator.y_type(row)
        assert not syndrome(code, op).any()
        if is_stabilizer(code, op):
            stabs.append(row)
        else:
            logicals.append(row)
    return stabs, logicals


def mps_chain_scores(
    columns: list[list[np.ndarray]], chi: int, stats: dict | None = None
) -> np.ndarray:
    """Closing log values of a coset network by the boundary-MPS chain at any chi.

    Calls ``initial_boundary``, ``apply_and_truncate`` and ``_close``
    directly, so the QR/SVD path runs even where ``contract_columns`` would
    contract the boundary as one merged site.
    """
    mps = tensor.initial_boundary(len(columns[0]))
    for col in columns[:-1]:
        mps = tensor.apply_and_truncate(mps, col, chi, stats)
    return tensor._close(mps, columns[-1])


def merged_row_by_row_scores(columns) -> np.ndarray:
    """Closing log values of a coset network by the merged boundary, one row at a time.

    The reference for the row-block absorption of ``tensor``: the boundary
    is one vector over the rows' horizontal bonds, row 1 most significant,
    and each site, as a (right*down, up*left) matrix, maps the (vertical
    bond, old index) pair of its row to (new index, vertical bond below).
    The vector is normalised after every column but the last, whose closing
    i is the entry with every row index i.
    """
    closings = columns[-1][0].shape[3]
    state = np.ones(1)
    log_norm = 0.0
    for c, col in enumerate(columns):
        lead = 1
        for t in col:
            u, d, l, p = t.shape
            m = t.transpose(3, 1, 0, 2).reshape(p * d, u * l)
            state = np.matmul(m, state.reshape(lead, u * l, -1)).reshape(-1)
            lead *= p
        if c < len(columns) - 1:
            norm = float(np.linalg.norm(state))
            if norm == 0.0:
                return np.full(closings, -math.inf)
            state = state / norm
            log_norm += math.log(norm)
    values = state[np.arange(closings) * sum(closings**r for r in range(len(columns[-1])))]
    return np.array([log_norm + math.log(v) if v > 0.0 else -math.inf for v in values])


def sample_syndromes(code: StabilizerCode, model: BiasedNoiseModel, rng, count: int) -> np.ndarray:
    """Syndromes of `count` errors drawn from the model (may repeat)."""
    return np.stack([syndrome(code, sample_error(model, code.n, rng)) for _ in range(count)])


def pauli_from_string(s: str) -> PauliOperator:
    """The Pauli written one character (I, X, Y or Z) per qubit."""
    x = np.zeros(len(s), dtype=np.uint8)
    z = np.zeros(len(s), dtype=np.uint8)
    for i, ch in enumerate(s):
        if ch in "XY":
            x[i] = 1
        if ch in "ZY":
            z[i] = 1
        if ch not in "IXYZ":
            raise ValueError(f"unknown Pauli character {ch!r}")
    return PauliOperator(x, z)


def is_identity(op: PauliOperator) -> bool:
    return not op.x_bits.any() and not op.z_bits.any()


def is_y_type(op: PauliOperator) -> bool:
    return bool(np.array_equal(op.x_bits, op.z_bits))


# -- billiard paths on the doubled lattice: Y logical and Y stabilizers -----


def _step(j: int, k: int, pos: tuple[int, int], direction: tuple[int, int]):
    """One diagonal step with wall reflection on [0, 2j] x [0, 2k]."""
    r, c = pos
    dr, dc = direction
    if not 0 <= r + dr <= 2 * j:
        dr = -dr
    if not 0 <= c + dc <= 2 * k:
        dc = -dc
    return (r + dr, c + dc), (dr, dc)


def _collect_support(code: StabilizerCode, visits: list[tuple[int, int]]) -> np.ndarray:
    """Convert a list of visited doubled-lattice points to a mod-2 qubit support."""
    coord_index = {coord: q for q, coord in enumerate(code.qubit_coords)}
    support = np.zeros(code.n, dtype=np.uint8)
    for pos in visits:
        q = coord_index.get(pos)
        if q is not None:
            support[q] ^= 1
    return support


def corner_path_support(code: StabilizerCode) -> np.ndarray:
    """Qubit support of the diagonal billiard path from the top-left corner.

    The path starts at doubled coordinate (0,0), bounces off the lattice
    walls, and ends at the first corner it reaches; its mod-2 visit pattern
    is a minimum-weight Y-type logical operator.
    """
    j, k = code.j, code.k
    pos, direction = (0, 0), (1, 1)
    visits = []
    expected = (2 * j * 2 * k) // math.gcd(2 * j, 2 * k)
    for _ in range(expected):
        pos, direction = _step(j, k, pos, direction)
        visits.append(pos)
    if pos[0] not in (0, 2 * j) or pos[1] not in (0, 2 * k):
        raise AssertionError(f"corner path on {code.id} did not close after {expected} steps")
    return _collect_support(code, visits)


def cyclic_path_support(code: StabilizerCode, start: tuple[int, int]) -> np.ndarray:
    """Qubit support of the closed billiard orbit through `start` heading (+1,+1)."""
    j, k = code.j, code.k
    pos, direction = start, (1, 1)
    visits = [start]
    limit = 16 * j * k + 8
    for _ in range(limit):
        pos, direction = _step(j, k, pos, direction)
        if pos == start and direction == (1, 1):
            break
        visits.append(pos)
    else:
        raise AssertionError(f"billiard orbit from {start} on {code.id} did not close")
    return _collect_support(code, visits)


def construct_y_stabilizer_group(code: StabilizerCode) -> list[PauliOperator]:
    """Independent Y-type stabilizer generators (g-1 of them) of a standard code.

    Generator i is the closed billiard orbit through the i-th qubit of the
    top row, for i = 2..gcd(j,k).
    """
    if code.layout != "standard":
        raise ValueError("Y-type stabilizer generators are a standard-layout construction")
    g = code.g
    gens = []
    for i in range(2, g + 1):
        support = cyclic_path_support(code, (1, 2 * i - 1))
        op = PauliOperator.y_type(support)
        if syndrome(code, op).any():
            raise AssertionError(f"{code.id}: orbit generator {i} has nonzero syndrome")
        gens.append(op)
    return gens


def y_stabilizer_group(code: StabilizerCode) -> np.ndarray:
    """Every Y-type stabilizer of a standard code, one row of qubit bits each.

    The 2^(g-1) products of the billiard-orbit generators, built without the
    code's block structure.
    """
    gens = [op.x_bits for op in construct_y_stabilizer_group(code)]
    count = len(gens)
    subsets = ((np.arange(2**count)[:, None] >> np.arange(count)) & 1).astype(np.uint8)
    return matmul_mod2(subsets, np.array(gens, dtype=np.uint8).reshape(count, code.n))
