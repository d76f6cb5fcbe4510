"""Block decomposition of the code seen by pure Y noise on standard layouts.

The qubit-bit code checked by all vertex/plaquette generators factors as a
cycle code on the complete graph K_{g+1} (g = gcd(j,k)) concatenated with
repetition blocks, plus boundary qubits pinned by weight-1 checks.  The
factorization is read here off the g+1 extended diagonals of ``codes``:
qubit q belongs to the block of edge (i1,i2) iff exactly diagonals i1 and
i2 cross q, and is a pinned boundary qubit iff no diagonal crosses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .codes import StabilizerCode, build_standard_code, extended_diagonal
from .pauli import PauliOperator

__all__ = ["YCodeStructure", "y_code_structure", "CycleCode", "cycle_code"]


@dataclass(frozen=True)
class CycleCode:
    """Classical code on the edges of K_m with one parity check per triangle."""

    m: int
    edges: tuple[tuple[int, int], ...]
    triangles: tuple[tuple[int, int, int], ...]
    # Read-only triangle x edge incidence; fixed by the triangles, and left
    # out of == and hash because an array supports neither.
    checks: np.ndarray = field(compare=False)
    # Read-only (T, 3) edge indices of each triangle abc (edges ab, bc, ac),
    # the same incidence as ``checks`` in index form.
    triangle_edges: np.ndarray = field(compare=False)

    @property
    def num_bits(self) -> int:
        return len(self.edges)

    @property
    def num_checks(self) -> int:
        return len(self.triangles)

    def edge_index(self, i: int, j: int) -> int:
        return self._edge_index[(i, j) if i < j else (j, i)]

    def __post_init__(self):
        object.__setattr__(
            self, "_edge_index", {e: idx for idx, e in enumerate(self.edges)}
        )


@lru_cache(maxsize=None)
def cycle_code(m: int) -> CycleCode:
    """The cycle code on K_m: m(m-1)/2 edge bits, a check per triangle.

    K_2 is the trivial single-edge code with no checks; it appears as the
    top level of the coprime-dimension decomposition.
    """
    if m < 2:
        raise ValueError(f"cycle code needs m >= 2, got {m}")
    edges = tuple(combinations(range(1, m + 1), 2))
    edge_index = {e: idx for idx, e in enumerate(edges)}
    triangles = tuple(combinations(range(1, m + 1), 3))
    rows = np.zeros((len(triangles), len(edges)), dtype=np.uint8)
    triangle_edges = np.empty((len(triangles), 3), dtype=np.intp)
    for t, (a, b, c) in enumerate(triangles):
        triangle_edges[t] = edge_index[(a, b)], edge_index[(b, c)], edge_index[(a, c)]
        rows[t, triangle_edges[t]] = 1
    rows.setflags(write=False)
    triangle_edges.setflags(write=False)
    return CycleCode(m, edges, triangles, rows, triangle_edges)


@dataclass(frozen=True)
class YCodeStructure:
    """Repetition-block / cycle-code factorization of a standard j x k code.

    ``repetition_blocks`` holds one (length, members) pair per edge of
    K_{g+1}, in ``cycle_code(g + 1).edges`` order (lexicographic vertex
    pairs).
    """

    j: int
    k: int
    g: int
    t: int
    repetition_blocks: tuple[tuple[int, tuple[int, ...]], ...]
    boundary_zero_qubits: tuple[int, ...]
    cycle_order: int
    extended_diagonals: tuple[PauliOperator, ...]

    @property
    def total_block_membership(self) -> int:
        return sum(length for length, _ in self.repetition_blocks)


def y_code_structure(j: int, k: int, code: StabilizerCode | None = None) -> YCodeStructure:
    """Extract the full block decomposition of the standard j x k code."""
    if code is None:
        code = build_standard_code(j, k)
    elif code.layout != "standard" or (code.j, code.k) != (j, k):
        raise ValueError(f"code {code.id} does not match requested ({j}, {k})")
    g = math.gcd(j, k)
    t = (j * k) // (g * g)

    diagonals = tuple(extended_diagonal(code, i) for i in range(1, g + 2))
    signatures = np.stack([d.x_bits for d in diagonals])  # (g+1, n)

    boundary: list[int] = []
    by_edge: dict[tuple[int, int], list[int]] = {}
    for q in range(code.n):
        crossing = tuple(int(i) + 1 for i in np.nonzero(signatures[:, q])[0])
        if len(crossing) == 0:
            boundary.append(q)
        elif len(crossing) == 2:
            by_edge.setdefault(crossing, []).append(q)
        else:
            raise AssertionError(
                f"qubit {q} of {code.id} crossed by {len(crossing)} diagonals"
            )

    edges = cycle_code(g + 1).edges
    if sorted(by_edge) != list(edges):
        raise AssertionError(f"{code.id}: blocks do not match the edges of K_(g+1) one to one")
    blocks = tuple((len(by_edge[e]), tuple(by_edge[e])) for e in edges)

    structure = YCodeStructure(j, k, g, t, blocks, tuple(boundary), g + 1, diagonals)
    _check_multiplicities(structure, code)
    return structure


def _check_multiplicities(structure: YCodeStructure, code: StabilizerCode) -> None:
    g, t = structure.g, structure.t
    expected = {t: 1}
    if g > 1:
        expected[2 * t] = 2 * (g - 1)
        four = g * (g + 1) // 2 - 2 * g + 1
        if four:
            expected[4 * t] = four
    observed: dict[int, int] = {}
    for length, _ in structure.repetition_blocks:
        observed[length] = observed.get(length, 0) + 1
    if observed != expected:
        raise AssertionError(
            f"{code.id}: block lengths {observed} != expected {expected}"
        )
    if structure.total_block_membership + len(structure.boundary_zero_qubits) != code.n:
        raise AssertionError(f"{code.id}: block membership does not cover the code")
