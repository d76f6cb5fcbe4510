import numpy as np
import pytest

import support
from support import nullspace_basis
from ybias.codes import build_standard_code, syndrome
from ybias.gf2 import rank
from ybias.ycode import cycle_code, extended_diagonal, y_code_structure


def block_multiset(structure):
    counts: dict[int, int] = {}
    for length, members in structure.repetition_blocks:
        assert length == len(members)
        counts[length] = counts.get(length, 0) + 1
    return counts


class TestCycleCode:
    @pytest.mark.parametrize(
        "m,bits,checks,independent",
        [(2, 1, 0, 0), (3, 3, 1, 1), (4, 6, 4, 3), (5, 10, 10, 6)],
    )
    def test_sizes(self, m, bits, checks, independent):
        code = cycle_code(m)
        assert code.num_bits == bits
        assert code.num_checks == checks
        assert rank(code.checks) == independent
        assert code.num_bits - (code.m - 1) == independent

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            cycle_code(1)

    def test_codewords_are_cuts(self):
        # The kernel of the triangle checks is the cut space: dimension m-1,
        # and every codeword is the edge boundary of a vertex subset.
        m = 5
        code = cycle_code(m)
        basis = nullspace_basis(code.checks)
        assert len(basis) == m - 1
        cut_rows = []
        for vertex_bits in range(1 << m):
            word = np.zeros(code.num_bits, dtype=np.uint8)
            for idx, (a, b) in enumerate(code.edges):
                side_a = (vertex_bits >> (a - 1)) & 1
                side_b = (vertex_bits >> (b - 1)) & 1
                word[idx] = side_a ^ side_b
            cut_rows.append(word)
        cuts = {row.tobytes() for row in cut_rows}
        assert len(cuts) == 1 << (m - 1)
        stack = np.stack(basis)
        subsets = (
            (np.arange(1 << len(basis), dtype=np.int64)[:, None] >> np.arange(len(basis))) & 1
        ).astype(np.uint8)
        kernel = {row.tobytes() for row in (subsets @ stack) & 1}
        assert kernel == cuts

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_triangle_edges_index_the_incidence_rows(self, m):
        code = cycle_code(m)
        assert code.triangle_edges.shape == (code.num_checks, 3)
        assert not code.triangle_edges.flags.writeable
        for t, (a, b, c) in enumerate(code.triangles):
            edges = [code.edge_index(a, b), code.edge_index(b, c), code.edge_index(a, c)]
            assert code.triangle_edges[t].tolist() == edges
            assert np.flatnonzero(code.checks[t]).tolist() == sorted(edges)

    def test_edge_index_order_insensitive(self):
        code = cycle_code(4)
        assert code.edge_index(1, 3) == code.edge_index(3, 1)


class TestStructureExamples:
    def test_square_4x4(self):
        structure = y_code_structure(4, 4)
        assert (structure.g, structure.t) == (4, 1)
        assert block_multiset(structure) == {1: 1, 2: 6, 4: 3}
        assert structure.total_block_membership == 25
        assert structure.boundary_zero_qubits == ()
        assert structure.cycle_order == 5

    def test_coprime_3x4(self):
        structure = y_code_structure(3, 4)
        assert (structure.g, structure.t) == (1, 12)
        assert block_multiset(structure) == {12: 1}
        assert structure.cycle_order == 2
        code = build_standard_code(3, 4)
        assert structure.total_block_membership + len(structure.boundary_zero_qubits) == code.n

    def test_8x12(self):
        structure = y_code_structure(8, 12)
        assert (structure.g, structure.t) == (4, 6)
        assert block_multiset(structure) == {6: 1, 12: 6, 24: 3}
        assert structure.total_block_membership == 150
        assert len(structure.boundary_zero_qubits) == 23
        assert 150 + 23 == build_standard_code(8, 12).n == 173

    def test_6x9(self):
        structure = y_code_structure(6, 9)
        assert (structure.g, structure.t) == (3, 6)
        assert block_multiset(structure) == {6: 1, 12: 4, 24: 1}

    @pytest.mark.parametrize("j,k", [(2, 2), (2, 4), (5, 5), (4, 6), (6, 4)])
    def test_membership_plus_boundary_covers_lattice(self, j, k):
        structure = y_code_structure(j, k)
        code = build_standard_code(j, k)
        seen = sorted(
            [q for _, members in structure.repetition_blocks for q in members]
            + list(structure.boundary_zero_qubits)
        )
        assert seen == list(range(code.n))


class TestExtendedDiagonals:
    @pytest.mark.parametrize("j,k", [(4, 4), (6, 4), (3, 4), (6, 9)])
    def test_syndrome_free_and_span_dimension(self, j, k):
        code = build_standard_code(j, k)
        g = np.gcd(j, k)
        diagonals = [extended_diagonal(code, i) for i in range(1, g + 2)]
        for op in diagonals:
            assert support.is_y_type(op)
            assert not syndrome(code, op).any()
        assert rank(np.stack([op.x_bits for op in diagonals])) == g

    @pytest.mark.parametrize("j,k", [(4, 4), (6, 4), (3, 4)])
    def test_span_splits_evenly_into_stabilizers_and_logicals(self, j, k):
        code = build_standard_code(j, k)
        g = int(np.gcd(j, k))
        stabs, logicals = support.split_y_span(code)
        assert len(stabs) == 1 << (g - 1)
        assert len(logicals) == 1 << (g - 1)

    def test_structure_diagonals_match_direct_construction(self):
        code = build_standard_code(4, 6)
        structure = y_code_structure(4, 6, code)
        for i, op in enumerate(structure.extended_diagonals, start=1):
            assert op == extended_diagonal(code, i)
