"""Shared oracles for the test suite.

Class labels come from commutation with the logical pair, coset sums from
direct enumeration over all Paulis, and kernels from the generic nullspace
routine — none of it reuses the decoders' scoring internals.
"""

from __future__ import annotations

import math

import numpy as np

from ybias.codes import StabilizerCode, syndrome
from ybias.gf2 import nullspace_basis
from ybias.noise import BiasedNoiseModel, sample_error
from ybias.pauli import PauliOperator
from ybias.sim import is_stabilizer


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
    from ybias import tensor

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
