"""Surface-code construction: standard and rotated layouts, Y-type operators.

Standard layout conventions (all 1-based):
  * Horizontal-edge qubits H(i,c), i in 1..j, c in 1..k, at doubled
    coordinates (2i-1, 2c-1).
  * Vertical-edge qubits V(i,c), i in 2..j, c in 1..k-1, at (2i-2, 2c).
  * Vertex (X) checks at (2i-1, 2c) for i in 1..j, c in 1..k-1; plaquette
    (Z) checks at (2i, 2c-1) for i in 1..j-1, c in 1..k.
  * Qubits are indexed row-major by doubled coordinate, so serialized
    operators are bit-exact across runs.

Rotated layout conventions (j, k odd): qubits (r,c) on a j x k grid,
row-major; checks sit on faces (a,b) with a in 0..j, b in 0..k, touching the
grid corners of the face.  A face is X-type iff a+b is odd.  Interior faces
are always present; top/bottom boundary faces only when Z-type, left/right
only when X-type, so X strings terminate on the left/right boundaries.

Check matrices are read-only 2-D uint8 arrays of 0/1 entries, one row per
check and one column per qubit: ``x_checks``, ``z_checks`` and their stack
``y_checks`` (X rows first), which is the parity map seen by Y-type errors.
Syndromes are computed sparsely: ``support_index`` lists each check's few
qubits, and :func:`syndrome_batch` gathers and XORs those bits.

Pure-Y structure of the standard layout: the g+1 extended diagonals
(g = gcd(j,k)) are Y-configurations propagated down from fixed top-row
patterns; ``ycode`` reads the repetition blocks off them.  The Y logical
is extended diagonal 1, which is the corner-to-corner billiard path.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .gf2 import Gf2Solver, _read_only, matmul_mod2
from .pauli import PauliOperator

__all__ = [
    "StabilizerCode",
    "build_standard_code",
    "build_rotated_code",
    "syndrome",
    "syndrome_batch",
    "y_distance",
    "y_logical_count",
    "construct_y_logical",
    "propagate_y_from_top",
]


class StabilizerCode:
    """A surface code instance: check matrices, coordinates, and logicals."""

    def __init__(
        self,
        layout: str,
        j: int,
        k: int,
        qubit_coords: tuple[tuple[int, int], ...],
        x_checks: np.ndarray,
        z_checks: np.ndarray,
        logical_x: PauliOperator,
        logical_z: PauliOperator,
    ):
        self.layout = layout
        self.j = j
        self.k = k
        self.n = len(qubit_coords)
        self.qubit_coords = qubit_coords
        self.x_checks = _read_only(x_checks)
        self.z_checks = _read_only(z_checks)
        self.logical_x = logical_x
        self.logical_z = logical_z
        self.g = math.gcd(j, k)  # sets the standard layout's pure-Y block structure
        self._validate()

    # -- derived structure -------------------------------------------------

    @cached_property
    def y_checks(self) -> np.ndarray:
        """Incidence of every check on every qubit: the parity map seen by Y-type errors."""
        return _read_only(np.vstack([self.x_checks, self.z_checks]))

    @cached_property
    def support_index(self) -> np.ndarray:
        """Each check's qubits as columns of the block ``[z | x | 0]``, for :func:`syndrome_batch`.

        Shape (width, num_checks), width the largest check weight (4 on both
        layouts); column i lists check i's qubits, X checks (which read Z
        bits) at q and Z checks at n + q, padded with the zero column 2n.
        Read-only.
        """
        checks, qubits = np.nonzero(self.y_checks)  # row-major: grouped by check
        slots = np.arange(checks.size) - np.searchsorted(checks, checks)
        index = np.full((int(np.bincount(checks).max()), self.num_checks), 2 * self.n, dtype=np.intp)
        index[slots, checks] = qubits + self.n * (checks >= self.num_x_checks)
        index.setflags(write=False)
        return index

    @cached_property
    def x_solver(self) -> Gf2Solver:
        return Gf2Solver(self.x_checks)

    @cached_property
    def z_solver(self) -> Gf2Solver:
        return Gf2Solver(self.z_checks)

    @cached_property
    def y_solver(self) -> Gf2Solver:
        return Gf2Solver(self.y_checks)

    @cached_property
    def logical_y(self) -> PauliOperator:
        return construct_y_logical(self)

    @property
    def num_x_checks(self) -> int:
        return self.x_checks.shape[0]

    @property
    def num_z_checks(self) -> int:
        return self.z_checks.shape[0]

    @property
    def num_checks(self) -> int:
        return self.num_x_checks + self.num_z_checks

    @property
    def id(self) -> str:
        return f"{self.layout}-{self.j}x{self.k}"

    @property
    def x_distance(self) -> int:
        return self.k if self.layout == "rotated" else self.j

    @property
    def z_distance(self) -> int:
        return self.j if self.layout == "rotated" else self.k

    @property
    def y_dist(self) -> int:
        return y_distance(self.j, self.k, self.layout)

    def _validate(self) -> None:
        expected_n = self.j * self.k if self.layout == "rotated" else 2 * self.j * self.k - self.j - self.k + 1
        if self.n != expected_n:
            raise AssertionError(f"{self.id}: qubit count {self.n} != {expected_n}")
        if self.num_checks != self.n - 1:
            raise AssertionError(f"{self.id}: {self.num_checks} checks != n-1 = {self.n - 1}")
        # CSS commutation: every X-check support must overlap every Z-check evenly.
        if matmul_mod2(self.x_checks, self.z_checks.T).any():
            raise AssertionError(f"{self.id}: non-commuting check pair")
        if matmul_mod2(self.z_checks, self.logical_x.x_bits).any():
            raise AssertionError(f"{self.id}: logical X anticommutes with a Z check")
        if matmul_mod2(self.x_checks, self.logical_z.z_bits).any():
            raise AssertionError(f"{self.id}: logical Z anticommutes with an X check")
        if self.logical_x.commutes_with(self.logical_z):
            raise AssertionError(f"{self.id}: logical X and Z must anticommute")

    # -- standard-layout coordinate helpers --------------------------------

    def h_index(self, i: int, c: int) -> int:
        """Index of horizontal-edge qubit H(i,c) on a standard-layout code."""
        return self._h_index[(i, c)]

    def v_index(self, i: int, c: int) -> int:
        """Index of vertical-edge qubit V(i,c) on a standard-layout code."""
        return self._v_index[(i, c)]

    def qubit_index(self, r: int, c: int) -> int:
        """Index of qubit (r,c) on a rotated-layout code."""
        if self.layout != "rotated":
            raise ValueError("qubit_index is a rotated-layout accessor")
        return (r - 1) * self.k + (c - 1)

    def __repr__(self) -> str:
        return f"StabilizerCode({self.id}, n={self.n})"


def build_standard_code(j: int, k: int) -> StabilizerCode:
    """Standard j x k surface code with n = 2jk - j - k + 1 qubits."""
    if j < 2 or k < 2:
        raise ValueError(f"standard layout needs j, k >= 2, got ({j}, {k})")
    coords: list[tuple[int, int]] = []
    h_index: dict[tuple[int, int], int] = {}
    v_index: dict[tuple[int, int], int] = {}
    for dr in range(1, 2 * j):
        if dr % 2 == 1:
            i = (dr + 1) // 2
            for c in range(1, k + 1):
                h_index[(i, c)] = len(coords)
                coords.append((dr, 2 * c - 1))
        else:
            i = dr // 2 + 1
            for c in range(1, k):
                v_index[(i, c)] = len(coords)
                coords.append((dr, 2 * c))
    n = len(coords)

    x_rows = []
    for i in range(1, j + 1):
        for c in range(1, k):
            row = np.zeros(n, dtype=np.uint8)
            row[h_index[(i, c)]] = 1
            row[h_index[(i, c + 1)]] = 1
            if i >= 2:
                row[v_index[(i, c)]] = 1
            if i <= j - 1:
                row[v_index[(i + 1, c)]] = 1
            x_rows.append(row)

    z_rows = []
    for i in range(1, j):
        for c in range(1, k + 1):
            row = np.zeros(n, dtype=np.uint8)
            row[h_index[(i, c)]] = 1
            row[h_index[(i + 1, c)]] = 1
            if c >= 2:
                row[v_index[(i + 1, c - 1)]] = 1
            if c <= k - 1:
                row[v_index[(i + 1, c)]] = 1
            z_rows.append(row)

    lx = np.zeros(n, dtype=np.uint8)
    for i in range(1, j + 1):
        lx[h_index[(i, 1)]] = 1
    lz = np.zeros(n, dtype=np.uint8)
    for c in range(1, k + 1):
        lz[h_index[(1, c)]] = 1

    code = StabilizerCode(
        "standard",
        j,
        k,
        tuple(coords),
        np.array(x_rows, dtype=np.uint8),
        np.array(z_rows, dtype=np.uint8),
        PauliOperator.x_type(lx),
        PauliOperator.z_type(lz),
    )
    code._h_index = h_index
    code._v_index = v_index
    return code


def rotated_face_is_x(a: int, b: int) -> bool:
    return (a + b) % 2 == 1


def rotated_face_included(j: int, k: int, a: int, b: int) -> bool:
    """Whether face (a,b) hosts a check on the rotated j x k code."""
    x_type = rotated_face_is_x(a, b)
    if 1 <= a <= j - 1 and 1 <= b <= k - 1:
        return True
    if (a == 0 or a == j) and 1 <= b <= k - 1:
        return not x_type
    if (b == 0 or b == k) and 1 <= a <= j - 1:
        return x_type
    return False


def rotated_face_qubits(j: int, k: int, a: int, b: int) -> list[tuple[int, int]]:
    return [
        (r, c)
        for r in (a, a + 1)
        for c in (b, b + 1)
        if 1 <= r <= j and 1 <= c <= k
    ]


def build_rotated_code(j: int, k: int) -> StabilizerCode:
    """Rotated j x k surface code (j, k odd) with n = jk qubits."""
    if j < 3 or k < 3:
        raise ValueError(f"rotated layout needs j, k >= 3, got ({j}, {k})")
    if j % 2 == 0 or k % 2 == 0:
        raise ValueError(f"rotated layout needs odd dimensions, got ({j}, {k})")
    n = j * k
    coords = tuple((r, c) for r in range(1, j + 1) for c in range(1, k + 1))

    def qidx(r: int, c: int) -> int:
        return (r - 1) * k + (c - 1)

    x_rows, z_rows = [], []
    for a in range(j + 1):
        for b in range(k + 1):
            if not rotated_face_included(j, k, a, b):
                continue
            row = np.zeros(n, dtype=np.uint8)
            for r, c in rotated_face_qubits(j, k, a, b):
                row[qidx(r, c)] = 1
            (x_rows if rotated_face_is_x(a, b) else z_rows).append(row)

    lx = np.zeros(n, dtype=np.uint8)
    lx[[qidx(1, c) for c in range(1, k + 1)]] = 1
    lz = np.zeros(n, dtype=np.uint8)
    lz[[qidx(r, 1) for r in range(1, j + 1)]] = 1

    return StabilizerCode(
        "rotated",
        j,
        k,
        coords,
        np.array(x_rows, dtype=np.uint8),
        np.array(z_rows, dtype=np.uint8),
        PauliOperator.x_type(lx),
        PauliOperator.z_type(lz),
    )


def syndrome_batch(code: StabilizerCode, x_rows: np.ndarray, z_rows: np.ndarray) -> np.ndarray:
    """Syndromes of many Paulis, row i from X part ``x_rows[i]`` and Z part ``z_rows[i]``.

    Each row holds the anticommutation bit per generator: X-check bits
    first, then Z-check bits, as a fresh (count, num_checks) uint8 array.
    The bits are copied once into a transposed (2n + 1, count) byte block
    ``[z | x | 0]``; one gather by ``code.support_index`` picks each
    check's qubits (whole rows of the block), and an XOR over the support
    width gives the syndrome, so no product is taken.
    """
    shape, z_shape = np.shape(x_rows), np.shape(z_rows)
    if len(shape) != 2 or shape != z_shape or shape[1] != code.n:
        raise ValueError(f"expected two (count, {code.n}) bit blocks, got {shape} and {z_shape}")
    n, index = code.n, code.support_index
    block = np.empty((2 * n + 1, shape[0]), dtype=np.uint8)
    block[:n] = np.transpose(z_rows)
    block[n : 2 * n] = np.transpose(x_rows)
    block[2 * n] = 0
    picked = np.take(block, index.ravel(), axis=0).reshape(index.shape + (shape[0],))
    return np.ascontiguousarray(np.bitwise_xor.reduce(picked, axis=0).T)


def syndrome(code: StabilizerCode, e: PauliOperator) -> np.ndarray:
    """Anticommutation bit per generator: X-check bits first, then Z-check bits."""
    if e.n != code.n:
        raise ValueError(f"operator has {e.n} qubits, code has {code.n}")
    return syndrome_batch(code, e.x_bits[None], e.z_bits[None])[0]


def y_distance(j: int, k: int, layout: str) -> int:
    """Minimum weight of a Y-type logical operator."""
    _validate_dims(j, k, layout)
    if layout == "rotated":
        return j * k
    g = math.gcd(j, k)
    return (2 * g - 1) * (j * k) // (g * g)


def y_logical_count(j: int, k: int, layout: str) -> int:
    """Number of Y-type logical operators."""
    _validate_dims(j, k, layout)
    if layout == "rotated":
        return 1
    return 2 ** (math.gcd(j, k) - 1)


def _validate_dims(j: int, k: int, layout: str) -> None:
    if layout == "standard":
        if j < 2 or k < 2:
            raise ValueError(f"standard layout needs j, k >= 2, got ({j}, {k})")
    elif layout == "rotated":
        if j % 2 == 0 or k % 2 == 0 or j < 3 or k < 3:
            raise ValueError(f"rotated layout needs odd j, k >= 3, got ({j}, {k})")
    else:
        raise ValueError(f"unknown layout {layout!r}")


# -- zero-filled top-row propagation ---------------------------------------


def propagate_y_from_top(j: int, k: int, top_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill a Y-configuration downward from a given top row of H values.

    Row by row, each vertex check of row i determines the V qubit below it
    and each plaquette check of row i determines the H qubit below it, so
    the result flips no check except possibly the bottom row of vertex
    checks.

    Arrays are 1-based: returns (yH, yV) with yH[i][c] for i in 1..j,
    c in 1..k and yV[i][c] for i in 2..j, c in 1..k-1; row/column 0 unused.
    """
    yH = np.zeros((j + 1, k + 1), dtype=np.uint8)
    yV = np.zeros((j + 1, k), dtype=np.uint8)
    yH[1, 1:] = top_row
    for i in range(1, j):
        for c in range(1, k):
            above = yV[i, c] if i >= 2 else 0
            yV[i + 1, c] = yH[i, c] ^ yH[i, c + 1] ^ above
        for c in range(1, k + 1):
            left = yV[i + 1, c - 1] if c >= 2 else 0
            right = yV[i + 1, c] if c <= k - 1 else 0
            yH[i + 1, c] = yH[i, c] ^ left ^ right
    return yH, yV


def assemble_y_config(code: StabilizerCode, yH: np.ndarray, yV: np.ndarray) -> np.ndarray:
    """Pack 1-based (yH, yV) arrays into a flat qubit bit-vector."""
    y = np.zeros(code.n, dtype=np.uint8)
    for (i, c), q in code._h_index.items():
        y[q] = yH[i, c]
    for (i, c), q in code._v_index.items():
        y[q] = yV[i, c]
    return y


# -- extended diagonals ----------------------------------------------------


def _diagonal_pattern(g: int, m: int) -> set[int]:
    """Within-tile column offsets (1-based) of the top-row trace of diagonal m."""
    if m == 1:
        return {1}
    if m == g + 1:
        return {g}
    return {m - 1, m}


def extended_diagonal(code: StabilizerCode, i: int) -> PauliOperator:
    """Extended diagonal i (1..g+1): alternating tile patterns propagated down."""
    j, k, g = code.j, code.k, code.g
    top = np.zeros(k + 1, dtype=np.uint8)
    for c in range(1, k + 1):
        tile, offset = divmod(c - 1, g)
        m = i if tile % 2 == 0 else g + 2 - i
        if offset + 1 in _diagonal_pattern(g, m):
            top[c] = 1
    yH, yV = propagate_y_from_top(j, k, top[1:])
    op = PauliOperator.y_type(assemble_y_config(code, yH, yV))
    if syndrome(code, op).any():
        raise AssertionError(f"extended diagonal {i} on {code.id} has nonzero syndrome")
    return op


def construct_y_logical(code: StabilizerCode) -> PauliOperator:
    """A minimum-weight Y-type logical operator.

    Standard layout: extended diagonal 1, which is the billiard path from
    the top-left corner to the first corner it reaches.  Rotated layout:
    Y on every qubit.
    """
    if code.layout == "rotated":
        return PauliOperator.y_type(np.ones(code.n, dtype=np.uint8))
    op = extended_diagonal(code, 1)
    if op.weight != y_distance(code.j, code.k, code.layout):
        raise AssertionError(f"{code.id}: diagonal 1 weight {op.weight} != y-distance")
    return op
