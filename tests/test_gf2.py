import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import in_rowspace, nullspace_basis
from ybias import gf2
from ybias.gf2 import Gf2Solver, matmul_mod2, rank, rref, solve

# Row reduction packs rows into 64-bit words, so widths past 64 and 128
# columns exercise rows spanning two and three words.
matrices = st.tuples(
    st.integers(1, 12), st.one_of(st.integers(1, 12), st.integers(60, 140))
).flatmap(lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1)))


class TestInputChecks:
    def test_rejects_non_binary(self):
        for bad in ([[0, 2]], [0, 1], [[[0, 1]]]):  # a 2, then 1-D, then 3-D
            with pytest.raises(ValueError):
                rank(bad)
            misses = gf2._cached_solver.cache_info().misses
            with pytest.raises(ValueError):
                solve(bad, [0])
            assert gf2._cached_solver.cache_info().misses == misses  # nothing cached
            with pytest.raises(ValueError):
                Gf2Solver(bad)


class TestSolve:
    def test_underdetermined_takes_canonical_solution(self):
        # Free variables are fixed to zero, so x = (1, 0), not (0, 1).
        x = solve(np.array([[1, 1]], dtype=np.uint8), [1])
        assert np.array_equal(x, [1, 0])

    def test_inconsistent_returns_none(self):
        assert solve(np.array([[1], [1]], dtype=np.uint8), [1, 0]) is None

    def test_exact_square_system(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        b = [1, 0, 1]
        x = solve(m, b)
        assert np.array_equal(matmul_mod2(m, x), b)


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_rank_plus_nullity_is_cols(m):
    assert rank(m) + len(nullspace_basis(m)) == m.shape[1]


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_nullspace_vectors_are_kernel_members_and_independent(m):
    basis = nullspace_basis(m)
    for v in basis:
        assert not matmul_mod2(m, v).any()
    if basis:
        assert rank(np.stack(basis)) == len(basis)


@settings(max_examples=80, deadline=None)
@given(matrices, st.data())
def test_solve_satisfies_system_or_detects_inconsistency(m, data):
    b = data.draw(st.lists(st.integers(0, 1), min_size=m.shape[0], max_size=m.shape[0]))
    x = solve(m, b)
    if x is None:
        # b outside the column space: the transposed row-space test agrees.
        assert not in_rowspace(m.T, b)
    else:
        assert np.array_equal(matmul_mod2(m, x), np.asarray(b, dtype=np.uint8))


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_rref_is_idempotent(m):
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert pivots == pivots2
    assert np.array_equal(reduced, again)


@settings(max_examples=50, deadline=None)
@given(matrices)
def test_every_row_is_in_own_rowspace(m):
    for row in m:
        assert in_rowspace(m, row)


def _augmented_rref_solution(m, b):
    """Canonical solution read off a fresh RREF of [M | b]; None when inconsistent."""
    cols = m.shape[1]
    reduced, pivots = rref(np.hstack([m, b.reshape(-1, 1)]))
    if pivots and pivots[-1] == cols:
        return None  # a pivot in the augmented column: 0 = 1
    x = np.zeros(cols, dtype=np.uint8)
    x[pivots] = reduced[: len(pivots), cols]
    return x


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(0, 8), st.one_of(st.integers(0, 8), st.integers(60, 140))).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
    ),
    st.data(),
)
def test_solve_follows_matrix_contents(m, data):
    """solve's cached solvers answer for the matrix's current contents.

    The same writable matrix is solved twice, then edited in place and
    solved again; every answer must equal the canonical solution of a fresh
    RREF of [M | b].  Editing a returned solution must not reach the cache.
    """
    rows, cols = m.shape

    def rhs():
        if data.draw(st.booleans()):  # consistent by construction
            return matmul_mod2(m, data.draw(arrays(np.uint8, cols, elements=st.integers(0, 1))))
        return data.draw(arrays(np.uint8, rows, elements=st.integers(0, 1)))

    def check(b):
        want = _augmented_rref_solution(m, b)
        x = solve(m, b)
        if want is None:
            assert x is None
            return
        assert x is not None and x.flags.writeable
        assert np.array_equal(x, want)
        x ^= 1
        assert np.array_equal(solve(m, b), want)

    for _ in range(2):
        check(rhs())
    if m.size:
        m[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] ^= 1
        check(rhs())


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_solver_matches_one_shot_solve(m, data):
    solver = Gf2Solver(m)
    b = np.asarray(
        data.draw(st.lists(st.integers(0, 1), min_size=m.shape[0], max_size=m.shape[0])), dtype=np.uint8
    )
    x = solve(m, b)
    assert solver.is_consistent(b) == (x is not None)
    if x is not None:
        assert np.array_equal(solver.solve(b), x)
    else:
        assert solver.solve(b) is None


@settings(max_examples=40, deadline=None)
@given(matrices, st.data())
def test_solver_batch_matches_single(m, data):
    solver = Gf2Solver(m)
    rows = []
    for _ in range(5):
        b = data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1]))
        rows.append(matmul_mod2(m, b))  # guaranteed consistent
    batch, consistent = solver.solve_batch(np.stack(rows))
    assert consistent.all()
    for b, x in zip(rows, batch):
        assert np.array_equal(solver.solve(b), x)
        assert np.array_equal(matmul_mod2(m, x), b)


def _pivot_loop_reduce(solver, V):
    """Reference reducer: eliminate one pivot column at a time."""
    out = V.copy()
    for row, c in zip(solver._reduced_rows, solver.pivots):
        out[out[:, c] == 1] ^= row
    return out


@settings(max_examples=80, deadline=None)
@given(matrices, st.data())
def test_rowspace_reduction_flags_members(m, data):
    """Zero rows after reduction are exactly the row-space members.

    The batch mixes row-space members, arbitrary rows and zero rows, and the
    one-product reducer must equal eliminating pivot by pivot.
    """
    solver = Gf2Solver(m)
    rows, cols = m.shape

    def bits(width):
        count = data.draw(st.integers(0, 6))
        return data.draw(arrays(np.uint8, (count, width), elements=st.integers(0, 1)))

    coeffs, free = bits(rows), bits(cols)
    zeros = np.zeros((data.draw(st.integers(0, 2)), cols), dtype=np.uint8)
    V = np.vstack([matmul_mod2(coeffs, m), free, zeros])
    reduced = solver.reduce_rowspace_batch(V)
    assert reduced.dtype == np.uint8
    assert np.array_equal(reduced, _pivot_loop_reduce(solver, V))
    assert not reduced[: coeffs.shape[0]].any()
    for v, r in zip(V, reduced):
        assert (not r.any()) == in_rowspace(m, v)


@st.composite
def product_operands(draw):
    rows = draw(st.integers(0, 9))
    inner = draw(st.integers(0, 70))
    cols = draw(st.one_of(st.none(), st.integers(0, 9)))  # None: matrix x vector
    bits = st.integers(0, 1)
    a = draw(arrays(np.uint8, (rows, inner), elements=bits))
    b = draw(arrays(np.uint8, (inner,) if cols is None else (inner, cols), elements=bits))
    return a, b


@settings(max_examples=80, deadline=None)
@given(product_operands())
def test_matmul_mod2_matches_integer_reference(operands):
    a, b = operands
    got = matmul_mod2(a, b)
    want = (a.astype(np.uint64) @ b.astype(np.uint64)) & 1
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


def test_matmul_mod2_rejects_inexact_inner_dimension():
    # Zero-stride views: nothing of length 2^24 is allocated.
    a = np.broadcast_to(np.uint8(1), (1, 1 << 24))
    b = np.broadcast_to(np.uint8(1), (1 << 24,))
    with pytest.raises(ValueError):
        matmul_mod2(a, b)


def _rref_solution(m, b):
    """Canonical solution of m x = b from a fresh RREF of [m | b], or None if inconsistent."""
    cols = m.shape[1]
    reduced, pivots = rref(np.hstack([m, b[:, None]]))
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    x[pivots] = reduced[: len(pivots), cols]
    return x


# The tables split rows into bytes and pack columns into 64-bit words, so
# these shapes cross every byte edge up to two bytes and the word edges.
@pytest.mark.parametrize("rows", [*range(18), 63, 64, 65])
def test_solve_batch_table_product_matches_references(rows):
    rng = np.random.default_rng(rows)
    for cols in (0, 1, 2, 63, 64, 65, 127, 128, 129):
        m = (rng.random((rows, cols)) < 0.5).astype(np.uint8)
        if rows >= 3:
            m[-1] = m[0] ^ m[1]  # rank-deficient: some right-hand sides are inconsistent
        solver = Gf2Solver(m)
        attained = matmul_mod2((rng.random((4, cols)) < 0.5).astype(np.uint8), m.T)
        arbitrary = (rng.random((4, rows)) < 0.5).astype(np.uint8)
        for B in (np.vstack([attained, arbitrary]), np.zeros((0, rows), dtype=np.uint8)):
            X, consistent = solver.solve_batch(B)
            S = solver.solution_matrix.T.astype(np.uint64)
            C = solver.consistency_matrix.T.astype(np.uint64)
            assert X.dtype == np.uint8 and X.shape == (len(B), cols)
            assert np.array_equal(X, (B.astype(np.uint64) @ S) & 1)
            assert np.array_equal(consistent, ~((B.astype(np.uint64) @ C) & 1).any(axis=1))
            for b, x, ok in zip(B, X, consistent):
                want = _rref_solution(m, b)
                assert ok == (want is not None)
                if ok:
                    assert np.array_equal(x, want)
        assert not solver._tables.flags.writeable
        X, consistent = solver.solve_batch(arbitrary)
        assert X.flags.writeable and consistent.flags.writeable
        assert not np.shares_memory(X, solver._tables)
        X ^= 1
        consistent ^= True
        again, still = solver.solve_batch(arbitrary)
        assert np.array_equal(again ^ 1, X) and np.array_equal(~still, consistent)


def test_fixed_operands_are_read_only():
    # The float32 copies are made once from these arrays, so an in-place
    # edit would leave them stale; every fixed operand refuses one.
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    solver = Gf2Solver(m)
    assert solver.solve(np.array([0, 1, 1], dtype=np.uint8)) is not None
    solver.reduce_rowspace_batch(m)  # fills every float32 copy
    for name in ("solution_matrix", "consistency_matrix", "pivots", "_reduced_rows",
                 "_solution_f32", "_consistency_f32", "_reduced_f32"):
        operand = getattr(solver, name)
        with pytest.raises(ValueError, match="read-only"):
            operand[...] = 0
