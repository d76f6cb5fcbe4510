import math

import numpy as np
import pytest

import support
from ybias.codes import (
    assemble_y_config,
    build_rotated_code,
    build_standard_code,
    construct_y_logical,
    extended_diagonal,
    propagate_y_from_top,
    syndrome,
    syndrome_batch,
    y_distance,
    y_logical_count,
)
from ybias.gf2 import rank
from ybias.pauli import PauliOperator
from ybias.sim import is_stabilizer


class TestStandardConstruction:
    @pytest.mark.parametrize(
        "j,k,n,x_count,z_count",
        [(4, 5, 32, 16, 15), (2, 2, 5, 2, 2), (3, 3, 13, 6, 6)],
    )
    def test_counts(self, j, k, n, x_count, z_count):
        code = build_standard_code(j, k)
        assert code.n == n
        assert code.num_x_checks == x_count
        assert code.num_z_checks == z_count
        assert code.num_checks == n - 1

    def test_all_checks_commute(self):
        code = build_standard_code(3, 3)
        ops = [PauliOperator.x_type(row) for row in code.x_checks]
        ops += [PauliOperator.z_type(row) for row in code.z_checks]
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                assert ops[a].commutes_with(ops[b])

    def test_check_matrices_are_read_only(self):
        code = build_standard_code(3, 3)
        with pytest.raises(ValueError):
            code.x_checks[0, 0] ^= 1

    @pytest.mark.parametrize("j,k", [(1, 3), (2, 1), (0, 0)])
    def test_rejects_small_dimensions(self, j, k):
        with pytest.raises(ValueError):
            build_standard_code(j, k)

    def test_logicals_commute_with_checks_and_anticommute(self):
        for j, k in [(2, 3), (4, 4), (3, 5)]:
            code = build_standard_code(j, k)
            assert not syndrome(code, code.logical_x).any()
            assert not syndrome(code, code.logical_z).any()
            assert not code.logical_x.commutes_with(code.logical_z)


class TestRotatedConstruction:
    @pytest.mark.parametrize(
        "j,k,n,x_count,z_count",
        [(5, 5, 25, 12, 12), (3, 3, 9, 4, 4)],
    )
    def test_counts(self, j, k, n, x_count, z_count):
        code = build_rotated_code(j, k)
        assert code.n == n
        assert code.num_x_checks == x_count
        assert code.num_z_checks == z_count

    def test_check_rank_is_n_minus_one(self):
        code = build_rotated_code(3, 5)
        assert code.n == 15
        assert rank(code.y_checks) == 14

    @pytest.mark.parametrize("j,k", [(4, 5), (3, 4), (2, 2)])
    def test_rejects_even_dimensions(self, j, k):
        with pytest.raises(ValueError):
            build_rotated_code(j, k)

    def test_qubit_index_is_row_major(self):
        code = build_rotated_code(3, 5)
        assert code.qubit_index(1, 1) == 0
        assert code.qubit_index(1, 5) == 4
        assert code.qubit_index(2, 1) == 5
        assert code.qubit_index(3, 5) == 14

    def test_check_weights_are_two_or_four(self):
        code = build_rotated_code(5, 5)
        weights = np.concatenate([code.x_checks.sum(axis=1), code.z_checks.sum(axis=1)])
        assert set(weights.tolist()) <= {2, 4}


class TestSyndrome:
    def test_identity_has_zero_syndrome(self):
        code = build_standard_code(3, 4)
        assert not syndrome(code, PauliOperator.identity(code.n)).any()

    def test_single_y_on_center_hits_adjacent_checks_only(self):
        code = build_standard_code(3, 3)
        # Center of the 3x3 lattice in doubled coordinates is H(2,2) at (3,4).
        q = code.h_index(2, 2)
        s = syndrome(code, PauliOperator.single(code.n, q, "Y"))
        x_checks, z_checks = code.x_checks, code.z_checks
        expected = np.concatenate([x_checks[:, q], z_checks[:, q]])
        assert np.array_equal(s, expected)
        assert s[: code.num_x_checks].sum() == x_checks[:, q].sum() > 0
        assert s[code.num_x_checks :].sum() == z_checks[:, q].sum() > 0

    def test_stabilizer_generators_have_zero_syndrome(self):
        for code in (build_standard_code(3, 3), build_rotated_code(3, 3)):
            for row in code.x_checks:
                assert not syndrome(code, PauliOperator.x_type(row)).any()
            for row in code.z_checks:
                assert not syndrome(code, PauliOperator.z_type(row)).any()

    def test_length_mismatch_rejected(self):
        code = build_standard_code(2, 2)
        with pytest.raises(ValueError):
            syndrome(code, PauliOperator.identity(code.n + 1))
        rows = np.zeros((3, code.n), dtype=np.uint8)
        for x, z in ((rows, rows[:2]), (rows[:, 1:], rows[:, 1:]), (rows[0], rows[0])):
            with pytest.raises(ValueError):
                syndrome_batch(code, x, z)

    # 2x3 standard and 3x3 rotated have weight-2 and weight-3 boundary checks.
    @pytest.mark.parametrize(
        "layout,j,k", [("standard", 4, 5), ("rotated", 9, 9), ("standard", 2, 3), ("rotated", 3, 3)]
    )
    def test_batch_rows_match_the_integer_product(self, layout, j, k):
        code = (build_rotated_code if layout == "rotated" else build_standard_code)(j, k)
        rng = np.random.default_rng(5)
        x, z = (rng.random((2, 50, code.n)) < 0.3).astype(np.uint8)
        got = syndrome_batch(code, x, z)
        assert got.dtype == np.uint8
        assert np.array_equal(got, support.batch_syndromes(code, x, z))
        for i in range(len(x)):
            assert np.array_equal(syndrome(code, PauliOperator(x[i], z[i])), got[i])

    def test_batch_accepts_bool_and_int_bits_and_empty_blocks(self):
        code = build_rotated_code(5, 5)
        rng = np.random.default_rng(11)
        x, z = (rng.random((2, 20, code.n)) < 0.4).astype(np.uint8)
        want = syndrome_batch(code, x, z)
        for dtype in (bool, np.int64):
            got = syndrome_batch(code, x.astype(dtype), z.astype(dtype))
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
        empty = syndrome_batch(code, x[:0], z[:0])
        assert empty.dtype == np.uint8 and empty.shape == (0, code.num_checks)

    def test_support_index_is_read_only(self):
        index = build_standard_code(3, 4).support_index
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0


class TestPureNoiseDistances:
    @pytest.mark.parametrize(
        "j,k,layout,expected",
        [
            (5, 5, "standard", 9),
            (4, 5, "standard", 20),
            (4, 6, "standard", 18),
            (5, 5, "rotated", 25),
        ],
    )
    def test_y_distance_examples(self, j, k, layout, expected):
        assert y_distance(j, k, layout) == expected

    @pytest.mark.parametrize(
        "j,k,layout,expected",
        [(5, 5, "standard", 16), (4, 5, "standard", 1), (7, 7, "rotated", 1)],
    )
    def test_y_logical_count_examples(self, j, k, layout, expected):
        assert y_logical_count(j, k, layout) == expected

    def test_rotated_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            y_distance(4, 5, "rotated")

    def test_xz_distances(self):
        std = build_standard_code(4, 6)
        assert (std.x_distance, std.z_distance) == (4, 6)
        rot = build_rotated_code(3, 5)
        assert (rot.x_distance, rot.z_distance) == (5, 3)


class TestYLogicalConstruction:
    def test_square_4x4_weight(self):
        code = build_standard_code(4, 4)
        op = construct_y_logical(code)
        assert op.weight == 7
        assert support.is_y_type(op)
        assert not syndrome(code, op).any()
        assert not is_stabilizer(code, op)

    def test_coprime_3x4_weight(self):
        code = build_standard_code(3, 4)
        op = construct_y_logical(code)
        assert op.weight == 12
        assert not syndrome(code, op).any()
        assert not is_stabilizer(code, op)

    def test_rotated_is_y_on_every_qubit(self):
        code = build_rotated_code(5, 5)
        op = construct_y_logical(code)
        assert op.weight == 25
        assert op.x_bits.all() and op.z_bits.all()
        assert not syndrome(code, op).any()
        assert not is_stabilizer(code, op)

    def test_weight_matches_distance_formula_up_to_8(self):
        for j in range(2, 9):
            for k in range(2, 9):
                code = build_standard_code(j, k)
                assert construct_y_logical(code).weight == y_distance(j, k, "standard")
        for j in (3, 5, 7):
            for k in (3, 5, 7):
                code = build_rotated_code(j, k)
                assert construct_y_logical(code).weight == j * k


# Coprime, square and mixed standard shapes.
BILLIARD_SHAPES = [(2, 3), (3, 4), (3, 7), (4, 4), (9, 9), (4, 6), (6, 4), (6, 9), (12, 8), (10, 15)]


class TestDiagonalsAreBilliardPaths:
    """The extended diagonals against the billiard walker, a second construction."""

    @pytest.mark.parametrize("j,k", BILLIARD_SHAPES)
    def test_logical_is_the_corner_path(self, j, k):
        code = build_standard_code(j, k)
        assert code.logical_y == PauliOperator.y_type(support.corner_path_support(code))

    @pytest.mark.parametrize("j,k", [(j, k) for j, k in BILLIARD_SHAPES if math.gcd(j, k) > 1])
    def test_inner_diagonals_are_the_top_row_orbits(self, j, k):
        code = build_standard_code(j, k)
        for i in range(2, code.g + 1):
            orbit = support.cyclic_path_support(code, (1, 2 * i - 1))
            assert extended_diagonal(code, i) == PauliOperator.y_type(orbit), i


class TestYStabilizerGroup:
    def test_square_4x4_has_three_generators(self):
        code = build_standard_code(4, 4)
        gens = support.construct_y_stabilizer_group(code)
        assert len(gens) == 3
        for gen in gens:
            assert support.is_y_type(gen)
            assert not syndrome(code, gen).any()
            assert is_stabilizer(code, gen)
        assert rank(np.stack([g.x_bits for g in gens])) == 3

    def test_coprime_has_none(self):
        assert support.construct_y_stabilizer_group(build_standard_code(3, 4)) == []

    def test_gcd2_product_with_logical_is_second_logical(self):
        code = build_standard_code(6, 4)
        gens = support.construct_y_stabilizer_group(code)
        assert len(gens) == 1
        logical = construct_y_logical(code)
        other = logical.mul(gens[0])
        assert not syndrome(code, other).any()
        assert not is_stabilizer(code, other)
        assert other.weight >= logical.weight


class TestYKernel:
    """The Y-restricted check matrix nullspace carries all zero-syndrome Y-configs."""

    @pytest.mark.parametrize("j,k", [(2, 2), (3, 4), (4, 4), (3, 3), (4, 6), (5, 5), (6, 6)])
    def test_standard_kernel_dimension_is_gcd(self, j, k):
        code = build_standard_code(j, k)
        assert len(support.y_kernel(code)) == math.gcd(j, k)

    @pytest.mark.parametrize("j,k", [(3, 3), (3, 5), (5, 5)])
    def test_rotated_kernel_is_all_ones_line(self, j, k):
        code = build_rotated_code(j, k)
        basis = support.y_kernel(code)
        assert len(basis) == 1
        assert basis[0].all()

    def test_minimum_weight_span_element_matches_distance(self):
        for j in range(2, 7):
            for k in range(2, 7):
                code = build_standard_code(j, k)
                span = support.y_kernel_span(code)
                weights = span.sum(axis=1)
                assert weights[weights > 0].min() == y_distance(j, k, "standard")


class TestPropagation:
    @pytest.mark.parametrize("j,k", [(3, 4), (4, 4), (5, 3)])
    def test_zero_syndrome_sweep_leaves_residual_on_bottom_row_only(self, j, k):
        code = build_standard_code(j, k)
        rng = np.random.default_rng(11)
        # Vertex checks are laid out row-major, so the bottom row occupies the
        # last k-1 flat indices of the X block.
        bottom_checks = set(range((j - 1) * (k - 1), j * (k - 1)))
        for _ in range(10):
            top = rng.integers(0, 2, size=k, dtype=np.uint8)
            yH, yV = propagate_y_from_top(j, k, top)
            op = PauliOperator.y_type(assemble_y_config(code, yH, yV))
            s = syndrome(code, op)
            hot = set(np.nonzero(s[: code.num_x_checks])[0].tolist())
            assert hot <= bottom_checks
            assert not s[code.num_x_checks :].any()


class TestSerialization:
    def test_code_id(self):
        assert build_standard_code(2, 2).id == "standard-2x2"
        assert build_rotated_code(3, 3).id == "rotated-3x3"
