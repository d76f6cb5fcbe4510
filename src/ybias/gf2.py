"""Linear algebra over GF(2): one dense product kernel plus bit-packed RREF.

Every mod-2 product in the package goes through :func:`matmul_mod2`.  Row
reduction keeps rows packed into 64-bit words, little-endian bit order
within each word.  All public operations are pure: they never mutate their
inputs, so matrices and the solver helpers built from them are safe to
share across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "matmul_mod2",
    "BitMatrix",
    "rank",
    "rref",
    "solve",
    "nullspace_basis",
    "in_rowspace",
    "Gf2Solver",
]

_WORD = 64
_ONE = np.uint64(1)
# float32 holds every integer below 2^24 exactly, so a 0/1 product whose
# inner dimension stays below this bound has exact partial sums.
_EXACT_INNER = 1 << 24


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


class BitMatrix:
    """Dense GF(2) matrix with rows packed into uint64 words.

    Treated as immutable; operations return new instances.
    """

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        expected = (rows, max(1, -(-cols // _WORD)))
        if words.shape != expected or words.dtype != np.uint64:
            raise ValueError(f"packed data shape {words.shape} != {expected}")
        self.rows = rows
        self.cols = cols
        self._words = words

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, max(1, -(-cols // _WORD))), dtype=np.uint64))

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]] | np.ndarray, cols: int | None = None) -> "BitMatrix":
        arr = np.asarray(dense, dtype=np.uint8)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise ValueError("matrix entries must be 0 or 1")
        rows, ncols = arr.shape
        if cols is None:
            cols = ncols
        elif cols != ncols:
            raise ValueError(f"cols={cols} does not match data width {ncols}")
        words = max(1, -(-cols // _WORD))
        padded = np.zeros((rows, words * _WORD), dtype=np.uint8)
        padded[:, :cols] = arr
        packed = np.packbits(padded, axis=1, bitorder="little")
        return cls(rows, cols, np.ascontiguousarray(packed).view(np.uint64).reshape(rows, words))

    # -- accessors ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        if self.rows == 0:
            return np.zeros((0, self.cols), dtype=np.uint8)
        as_bytes = np.ascontiguousarray(self._words).view(np.uint8).reshape(self.rows, -1)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        return bits[:, : self.cols].copy()

    def row(self, i: int) -> np.ndarray:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows}x{self.cols}")
        return self.to_dense()[i]

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r},{c}) out of range for {self.rows}x{self.cols}")
        w, b = divmod(c, _WORD)
        return int((self._words[r, w] >> np.uint64(b)) & _ONE)

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T, cols=self.rows)

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if other.cols != self.cols:
            raise ValueError(f"column mismatch: {self.cols} vs {other.cols}")
        return BitMatrix(self.rows + other.rows, self.cols, np.vstack([self._words, other._words]))

    def mul_vector(self, v: Iterable[int] | np.ndarray) -> np.ndarray:
        """Matrix-vector product over GF(2); returns a uint8 array of length rows."""
        return matmul_mod2(self.to_dense(), _as_bit_array(v, self.cols))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self._words, other._words))
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def __getstate__(self):
        return (self.rows, self.cols, self._words)

    def __setstate__(self, state):
        self.rows, self.cols, self._words = state


def _rref_words(words: np.ndarray, rows: int, cols: int) -> list[int]:
    """In-place reduced row echelon form; returns the pivot column list."""
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        w, b = divmod(c, _WORD)
        shift = np.uint64(b)
        col = (words[r:, w] >> shift) & _ONE
        hits = np.nonzero(col)[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            words[[r, p]] = words[[p, r]]
        mask = ((words[:, w] >> shift) & _ONE).astype(bool)
        mask[r] = False
        if mask.any():
            words[mask] ^= words[r]
        pivots.append(c)
        r += 1
    return pivots


def rref(M: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and pivot columns."""
    words = M._words.copy()
    pivots = _rref_words(words, M.rows, M.cols)
    return BitMatrix(M.rows, M.cols, words), pivots


def rank(M: BitMatrix) -> int:
    """Dimension of the row space over GF(2)."""
    words = M._words.copy()
    return len(_rref_words(words, M.rows, M.cols))


def solve(M: BitMatrix, b: Iterable[int] | np.ndarray) -> np.ndarray | None:
    """Solve Mx = b over GF(2).

    Returns the canonical particular solution with all free variables fixed
    to 0 under RREF pivot ordering, or None if the system is inconsistent.
    """
    vec = _as_bit_array(b, M.rows)
    aug = BitMatrix.from_dense(np.hstack([M.to_dense(), vec.reshape(-1, 1)]))
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == M.cols:
        return None  # a pivot in the augmented column: 0 = 1
    x = np.zeros(M.cols, dtype=np.uint8)
    dense = reduced.to_dense()
    for i, c in enumerate(pivots):
        x[c] = dense[i, M.cols]
    return x


def nullspace_basis(M: BitMatrix) -> list[np.ndarray]:
    """Basis of the kernel: cols - rank independent vectors, each with Mv = 0."""
    reduced, pivots = rref(M)
    dense = reduced.to_dense()
    pivot_set = set(pivots)
    basis: list[np.ndarray] = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = np.zeros(M.cols, dtype=np.uint8)
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = dense[i, free]
        basis.append(v)
    return basis


def in_rowspace(M: BitMatrix, v: Iterable[int] | np.ndarray) -> bool:
    """True iff v lies in the GF(2) row space of M."""
    vec = _as_bit_array(v, M.cols)
    return rank(M.stack(BitMatrix.from_dense(vec.reshape(1, -1)))) == rank(M)


class Gf2Solver:
    """Precomputed solver for repeated systems Mx = b with fixed M.

    Exposes the same canonical solution as :func:`solve` but as a matrix
    product, so large batches of right-hand sides can be solved with one
    mod-2 matmul.  Also provides a membership reducer for the row space.
    """

    def __init__(self, M: BitMatrix):
        self.rows = M.rows
        self.cols = M.cols
        # RREF of [M | I] = [R | T] with R = T M.
        aug = BitMatrix.from_dense(
            np.hstack([M.to_dense(), np.eye(M.rows, dtype=np.uint8)])
        )
        words = aug._words.copy()
        pivots = [c for c in _rref_words(words, aug.rows, aug.cols) if c < M.cols]
        dense = BitMatrix(aug.rows, aug.cols, words).to_dense()
        self.pivots = pivots
        self.rank = len(pivots)
        transform = dense[:, M.cols :]
        # x = S b: row of S at each pivot column copies the matching transformed row.
        scatter = np.zeros((M.cols, M.rows), dtype=np.uint8)
        for i, c in enumerate(pivots):
            scatter[c] = transform[i]
        self.solution_matrix = scatter
        # b is attainable iff the transformed rows below the rank are orthogonal to it.
        self.consistency_matrix = transform[self.rank :]
        self._reduced_rows = dense[: self.rank, : M.cols]

    def is_consistent(self, b: np.ndarray) -> bool:
        return not matmul_mod2(self.consistency_matrix, _as_bit_array(b, self.rows)).any()

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        vec = _as_bit_array(b, self.rows)
        if not self.is_consistent(vec):
            return None
        return matmul_mod2(self.solution_matrix, vec)

    def solve_batch(self, B: np.ndarray) -> np.ndarray:
        """Solve for many right-hand sides at once; B has shape (count, rows).

        Assumes every row is consistent (callers feed syndromes of real
        errors); returns an array of shape (count, cols).
        """
        if B.ndim != 2 or B.shape[1] != self.rows:
            raise ValueError(f"expected shape (count, {self.rows}), got {B.shape}")
        return matmul_mod2(B, self.solution_matrix.T)

    def reduce_rowspace_batch(self, V: np.ndarray) -> np.ndarray:
        """Reduce vectors by the RREF rows; zero rows are exactly the row-space members."""
        if V.ndim != 2 or V.shape[1] != self.cols:
            raise ValueError(f"expected shape (count, {self.cols}), got {V.shape}")
        out = V.astype(np.uint8).copy()
        for i, c in enumerate(self.pivots):
            hit = out[:, c] == 1
            if hit.any():
                out[hit] ^= self._reduced_rows[i]
        return out
