"""Linear algebra over GF(2) on 2-D uint8 arrays of 0/1 entries.

Every matrix argument and result is a plain 0/1 ``uint8`` array (array-likes
are accepted; anything not 2-D or not 0/1 raises ValueError).  General mod-2
products go through :func:`matmul_mod2`; the two batch paths that dominate
decoding do not: :meth:`Gf2Solver.solve_batch` reads byte tables built once
per solver, and ``codes.syndrome_batch`` gathers each check's few qubits.
Row reduction and the byte tables pack bits into 64-bit words (little-endian
bit order within each word), privately, and unpack their results.  All
public operations are pure: they never mutate their inputs, so matrices and
the solver helpers built from them are safe to share across threads.

:func:`solve` factors each distinct matrix once: it keeps a bounded cache of
:class:`Gf2Solver` objects keyed by the matrix's shape and bytes, so repeated
systems with the same matrix cost two products each, and a matrix edited in
place is factored afresh.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "matmul_mod2",
    "rank",
    "rref",
    "solve",
    "Gf2Solver",
]

_WORD = 64
# float32 holds every integer below 2^24 exactly, so a 0/1 product whose
# inner dimension stays below this bound has exact partial sums.
_EXACT_INNER = 1 << 24
# Byte tables whose entries Gf2Solver.solve_batch gathers per accumulation step.
_TABLE_GROUP = 8


def matmul_mod2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product ``a @ b`` over GF(2) of 0/1 arrays, as uint8.

    Runs as one float32 BLAS product, which is exact while the inner
    dimension is below 2^24; a larger one raises ValueError before any
    conversion.
    """
    inner = np.shape(a)[-1]
    if inner >= _EXACT_INNER:
        raise ValueError(f"inner dimension {inner} is not below 2^24; float32 sums would round")
    product = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    return (product.astype(np.int32) & 1).astype(np.uint8)


def _read_only(matrix, dtype=np.uint8) -> np.ndarray:
    """A read-only copy of ``matrix`` as ``dtype``, so a shared operand cannot be edited in place."""
    frozen = np.array(matrix, dtype=dtype)
    frozen.setflags(write=False)
    return frozen


def _as_bit_array(bits: Iterable[int] | np.ndarray, length: int | None = None) -> np.ndarray:
    """Coerce to a 1-D uint8 array of 0/1 values."""
    arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D bit vector, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("bit vector entries must be 0 or 1")
    if length is not None and arr.size != length:
        raise ValueError(f"expected length {length}, got {arr.size}")
    return arr


def _as_bit_matrix(M: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Coerce to a 2-D uint8 array of 0/1 values."""
    arr = np.asarray(M, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return arr


def _rref_words(words: np.ndarray, rows: int, cols: int) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    one = np.uint64(1)
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        w, b = divmod(c, _WORD)
        shift = np.uint64(b)
        col = (words[r:, w] >> shift) & one
        hits = np.nonzero(col)[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            words[[r, p]] = words[[p, r]]
        mask = ((words[:, w] >> shift) & one).astype(bool)
        mask[r] = False
        if mask.any():
            words[mask] ^= words[r]
        pivots.append(c)
        r += 1
    return pivots


def _reduce(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """RREF of a 0/1 matrix, row-reduced with each row packed into uint64 words."""
    rows, cols = M.shape
    padded = np.zeros((rows, max(1, -(-cols // _WORD)) * _WORD), dtype=np.uint8)
    padded[:, :cols] = M
    words = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
    pivots = _rref_words(words, rows, cols)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :cols], pivots


def rref(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
    return _reduce(_as_bit_matrix(M))


def rank(M: np.ndarray) -> int:
    """Dimension of the row space over GF(2)."""
    return len(rref(M)[1])


@lru_cache(maxsize=64)
def _cached_solver(shape: tuple[int, int], data: bytes) -> Gf2Solver:
    return Gf2Solver(np.frombuffer(data, dtype=np.uint8).reshape(shape))


def solve(M: np.ndarray, b: Iterable[int] | np.ndarray) -> np.ndarray | None:
    """Solve Mx = b over GF(2).

    Returns the canonical particular solution with all free variables fixed
    to 0 under RREF pivot ordering, or None if the system is inconsistent.
    The solution is a fresh array.  M is validated first, then solved by a
    :class:`Gf2Solver` cached per matrix contents (shape and bytes, not the
    object), so only the first call with a given matrix row-reduces it.
    """
    M = _as_bit_matrix(M)
    return _cached_solver(M.shape, M.tobytes()).solve(b)


class Gf2Solver:
    """Precomputed solver for repeated systems Mx = b with fixed M.

    Gives the canonical solution as a matrix product (:func:`solve` runs on
    a cached instance), so large batches of right-hand sides can be solved
    in one table pass.  Also provides a membership reducer for the row
    space.
    """

    def __init__(self, M: np.ndarray):
        M = _as_bit_matrix(M)
        self.rows, self.cols = M.shape
        # RREF of [M | I] = [R | T] with R = T M.
        dense, pivots = _reduce(np.hstack([M, np.eye(self.rows, dtype=np.uint8)]))
        self.pivots = _read_only([c for c in pivots if c < self.cols], np.intp)
        self.rank = self.pivots.size
        transform = dense[:, self.cols :]
        # x = S b: row of S at each pivot column copies the matching transformed row.
        scatter = np.zeros((self.cols, self.rows), dtype=np.uint8)
        scatter[self.pivots] = transform[: self.rank]
        self.solution_matrix = _read_only(scatter)
        # b is attainable iff the transformed rows below the rank are orthogonal to it.
        self.consistency_matrix = _read_only(transform[self.rank :])
        self._reduced_rows = _read_only(dense[: self.rank, : self.cols])

    # float32 copies of the fixed operands, made on first use so that each
    # product converts only its right-hand side; the uint8 sources are
    # read-only, so a copy cannot go stale.

    @cached_property
    def _solution_f32(self) -> np.ndarray:
        return _read_only(self.solution_matrix, np.float32)

    @cached_property
    def _consistency_f32(self) -> np.ndarray:
        return _read_only(self.consistency_matrix, np.float32)

    @cached_property
    def _reduced_f32(self) -> np.ndarray:
        return _read_only(self._reduced_rows, np.float32)

    @cached_property
    def _tables(self) -> np.ndarray:
        """Byte tables of ``[solution_matrix; consistency_matrix]`` for :meth:`solve_batch`.

        Entry ``[c, v]`` is the XOR of the stacked matrix's columns
        ``8c + i`` over the bits i set in byte v, packed into uint64 words
        (the "Method of Four Russians" product).  Shape (ceil(rows / 8),
        256, words) with 64 * words >= cols + rows - rank: 0.75 MiB for
        the pure-Y solver of a rotated 21x21 code.  Built on first use and
        read-only.
        """
        stacked = np.vstack([self.solution_matrix, self.consistency_matrix])
        chunks = -(-self.rows // 8)
        words = max(1, -(-stacked.shape[0] // _WORD))
        padded = np.zeros((chunks * 8, words * _WORD), dtype=np.uint8)
        padded[: self.rows, : stacked.shape[0]] = stacked.T
        packed = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
        rows = packed.reshape(chunks, 8, words)
        tables = np.zeros((chunks, 256, words), dtype=np.uint64)
        for bit in range(8):
            # Entries whose highest set bit is `bit` add that bit's row to an entry below 2**bit.
            np.bitwise_xor(tables[:, : 1 << bit], rows[:, bit, None], out=tables[:, 1 << bit : 2 << bit])
        tables.setflags(write=False)
        return tables

    def is_consistent(self, b: np.ndarray) -> bool:
        """Whether Mx = b has a solution; b must be a 0/1 vector of length rows."""
        return not matmul_mod2(self._consistency_f32, _as_bit_array(b, self.rows)).any()

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        vec = np.asarray(b if isinstance(b, np.ndarray) else list(b), dtype=np.uint8)
        if not self.is_consistent(vec):  # validates vec
            return None
        return matmul_mod2(self._solution_f32, vec)

    def solve_batch(self, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve for many right-hand sides at once; B is a 0/1 block of shape (count, rows).

        Returns ``(X, consistent)``: X of shape (count, cols) holds
        ``solution_matrix @ b`` per row (the canonical solution where the
        row is consistent), and the bool vector marks the consistent rows.
        Both come from one pass over the byte tables (built on the first
        call): each byte of a packed row picks one table entry, and the
        entries of a row are XORed into one (count, words) accumulator,
        ``_TABLE_GROUP`` bytes at a time, so the gathered entries never
        outgrow that many accumulators.  The results are fresh arrays.
        """
        if B.ndim != 2 or B.shape[1] != self.rows:
            raise ValueError(f"expected shape (count, {self.rows}), got {B.shape}")
        tables = self._tables
        chunks, _, words = tables.shape
        flat = tables.reshape(-1, words)
        # Byte c of each row indexes entry c * 256 + byte of the flattened tables.
        index = np.packbits(B, axis=1, bitorder="little").T + np.arange(0, 256 * chunks, 256)[:, None]
        summed = np.zeros((len(B), words), dtype=np.uint64)
        for lo in range(0, chunks, _TABLE_GROUP):
            picked = np.take(flat, index[lo : lo + _TABLE_GROUP], axis=0)
            summed ^= np.bitwise_xor.reduce(picked, axis=0)
        width = self.cols + len(self.consistency_matrix)
        bits = np.unpackbits(summed.view(np.uint8), axis=1, count=width, bitorder="little")
        return bits[:, : self.cols], ~bits[:, self.cols :].any(axis=1)

    def reduce_rowspace_batch(self, V: np.ndarray) -> np.ndarray:
        """Reduce vectors by the RREF rows; zero rows are exactly the row-space members.

        Each RREF row is zero in every other pivot column, so eliminating the
        pivots one by one adds exactly the rows picked by the input's own
        pivot bits: one product.
        """
        if V.ndim != 2 or V.shape[1] != self.cols:
            raise ValueError(f"expected shape (count, {self.cols}), got {V.shape}")
        V = V.astype(np.uint8, copy=False)
        return V ^ matmul_mod2(V[:, self.pivots], self._reduced_f32)
