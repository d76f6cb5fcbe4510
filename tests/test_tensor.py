"""Contraction network: exactness, the pure-Y product structure, wiring."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import coset_log_probability, sample_error
from ybias import tensor
from ybias.codes import build_rotated_code, build_standard_code, rotated_face_included, syndrome
from ybias.decoders import candidate_recovery, logical_class_representatives
from ybias.noise import BiasedNoiseModel
from ybias.pauli import PauliOperator
from ybias.sim import is_stabilizer
from ybias.tensor import (
    BoundaryMPS,
    apply_and_truncate,
    build_coset_network,
    contract_columns,
    initial_boundary,
    network_layout,
)


def sample_y_syndrome(code, p, rng):
    e = (rng.random(code.n) < p).astype(np.uint8)
    return e, syndrome(code, PauliOperator(e, e))


class TestNetworkStructure:
    def test_bond_dimensions_match_the_wiring_rules(self):
        for d in (3, 5, 7):
            code = build_rotated_code(d, d)
            layout = network_layout(code)
            assert len(layout.included_faces) == code.num_checks
            assert len(layout.columns) == code.k
            for c, col in enumerate(layout.columns, start=1):
                assert len(col) == code.j
                for r, site in enumerate(col, start=1):
                    up, down, left, right = site.mask.shape
                    # Horizontal bonds carry exactly one face, so dimension 2
                    # inside the lattice and 1 on the open boundary.
                    assert left == (2 if c >= 2 else 1)
                    assert right == (2 if c <= code.k - 1 else 1)
                    # Vertical bonds carry the up-to-two faces between rows.
                    assert up in (1, 2, 4) and down in (1, 2, 4)
                    if r == 1:
                        assert up == 1
                    if r == code.j:
                        assert down == 1
                    # Consistent assignments are one per joint state of the
                    # faces this site actually touches.
                    touching = [
                        f
                        for f in ((r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c))
                        if rotated_face_included(code.j, code.k, f[0], f[1])
                    ]
                    assert site.mask.sum() == 1 << len(touching)

    def test_standard_layout_rejected(self):
        with pytest.raises(ValueError):
            network_layout(build_standard_code(3, 3))

    @pytest.mark.parametrize("j,k", [(3, 3), (3, 5), (5, 3), (7, 9)])
    def test_last_column_z_string_is_a_logical_z(self, j, k):
        # The paired closing of build_coset_network relies on this.
        code = build_rotated_code(j, k)
        z_last = np.zeros(code.n, dtype=np.uint8)
        z_last[[code.qubit_index(r, k) for r in range(1, j + 1)]] = 1
        assert is_stabilizer(code, code.logical_z.mul(PauliOperator.z_type(z_last)))

    def test_second_closing_is_the_logical_z_coset(self):
        code = build_rotated_code(3, 5)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        rep = sample_error(model, code.n, np.random.default_rng(13))
        columns = build_coset_network(code, model, rep)
        assert [t.shape[3] for t in columns[-1]] == [2] * code.j
        with_z = coset_log_probability(code, model, rep.mul(code.logical_z), 64)
        assert contract_columns(columns, 64)[1] == pytest.approx(with_z, rel=1e-12)

    def test_mps_truncation_respects_chi(self):
        code = build_rotated_code(5, 5)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        columns = build_coset_network(code, model, PauliOperator.identity(code.n))
        stats: dict = {}
        contract_columns(columns, 3, stats)
        assert 1 <= stats["max_bond_dim"] <= 3

    def test_discarded_weight(self):
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        small = build_rotated_code(5, 5)
        stats: dict = {}
        coset_log_probability(small, model, PauliOperator.identity(small.n), 64, stats)
        assert stats["max_bond_dim"] < 64
        assert stats["discarded_weight"] == 0.0
        large = build_rotated_code(9, 9)
        stats = {}
        coset_log_probability(large, model, PauliOperator.identity(large.n), 4, stats)
        assert 0.0 < stats["discarded_weight"] < 1.0

    def test_chi_validation(self):
        mps = initial_boundary(3)
        with pytest.raises(ValueError):
            apply_and_truncate(mps, [np.ones((1, 1, 1, 1))] * 3, 0)


class TestExactValues:
    def test_noiseless_identity_coset_is_certain(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.0, eta=1.0)
        reps = logical_class_representatives(code)
        assert abs(coset_log_probability(code, model, PauliOperator.identity(code.n), 8)) <= 1e-12
        for label in ("X", "Y", "Z"):
            assert coset_log_probability(code, model, reps[label], 8) == -math.inf

    @pytest.mark.parametrize("p,eta", [(0.15, 0.5), (0.1, 10.0), (0.2, 1.0)])
    def test_3x3_cosets_match_full_enumeration(self, p, eta):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=p, eta=eta)
        reps = logical_class_representatives(code)
        rng = np.random.default_rng(11)
        syndromes = support.sample_syndromes(code, model, rng, 8)
        syndromes = np.unique(syndromes, axis=0)
        for s in syndromes:
            oracle, total = support.enumerate_coset_probs(code, model, s)
            assert total > 0.0
            f = candidate_recovery(code, s)
            for label, rep in reps.items():
                for chi in (16, 64):
                    got = coset_log_probability(code, model, f.mul(rep), chi)
                    assert math.isclose(math.exp(got), oracle[label], rel_tol=1e-10)

    def test_large_chi_values_are_chi_independent(self):
        # Bond growth caps well below 64 at this size, so these chis all
        # contract without ever truncating and must agree to rounding.
        code = build_rotated_code(5, 5)
        model = BiasedNoiseModel(p=0.15, eta=1.0)
        reps = logical_class_representatives(code)
        rng = np.random.default_rng(3)
        e = sample_error(model, code.n, rng)
        f = candidate_recovery(code, syndrome(code, e))
        for rep in reps.values():
            vals = [coset_log_probability(code, model, f.mul(rep), chi) for chi in (16, 64, 256)]
            assert math.isclose(vals[0], vals[1], rel_tol=1e-12)
            assert math.isclose(vals[1], vals[2], rel_tol=1e-12)


class TestPureYStructure:
    """Infinite bias collapses the boundary state to a product state."""

    def test_zero_syndrome_closed_form(self):
        code = build_rotated_code(5, 5)
        p = 0.3
        model = BiasedNoiseModel(p=p, eta=math.inf)
        n = code.n
        reps = logical_class_representatives(code)
        all_y = PauliOperator.y_type(np.ones(n, dtype=np.uint8))
        for chi in (1, 8):
            li = coset_log_probability(code, model, PauliOperator.identity(n), chi)
            ly = coset_log_probability(code, model, all_y, chi)
            # The only Y-type stabilizer is the identity and the all-site Y
            # operator is the Y logical, so the two cosets hold exactly one
            # contributing configuration each.
            assert math.isclose(li, n * math.log1p(-p), rel_tol=1e-12)
            assert math.isclose(ly, n * math.log(p), rel_tol=1e-12)
            for label in ("X", "Z"):
                got = coset_log_probability(code, model, reps[label], chi)
                # True value zero; SVD rounding may leave a residue dozens of
                # log-units below the dominant coset instead of exact -inf.
                assert got == -math.inf or got < li - 10.0

    @pytest.mark.parametrize("distance", [5, 7, 9])
    def test_boundary_state_is_rank_one(self, distance):
        code = build_rotated_code(distance, distance)
        model = BiasedNoiseModel(p=0.3, eta=math.inf)
        rng = np.random.default_rng(29)
        reps = logical_class_representatives(code)
        for _ in range(3):
            _, s = sample_y_syndrome(code, 0.3, rng)
            f = candidate_recovery(code, s)
            for rep in reps.values():
                stats: dict = {}
                coset_log_probability(code, model, f.mul(rep), 4, stats)
                assert stats.get("max_rank2_ratio", 0.0) <= 1e-12

    @pytest.mark.parametrize("distance", [5, 7, 9])
    def test_chi_one_matches_the_analytic_coset_values(self, distance):
        """chi = 1 is lossless under pure Y noise.

        Each attainable syndrome has exactly two Y-configurations, y and its
        complement, whose coset values are closed-form binomial terms.  The
        dominant one must come out exact at chi = 1.  The subdominant value
        sits a factor exp(-gap) below it, and float64 contraction noise is
        amplified by exp(gap), so it is only asserted where that amplification
        leaves clear headroom; the two empty cosets must land far below the
        dominant value (rounding residue) or at -inf.
        """
        code = build_rotated_code(distance, distance)
        p = 0.3
        model = BiasedNoiseModel(p=p, eta=math.inf)
        n = code.n
        rng = np.random.default_rng(17)
        reps = logical_class_representatives(code)
        for _ in range(4):
            _, s = sample_y_syndrome(code, p, rng)
            y = code.y_solver.solve(s)
            f = candidate_recovery(code, s)
            labels = {
                label: support.pauli_class_label(code, PauliOperator.y_type(bits).mul(f))
                for label, bits in (("near", y), ("far", y ^ 1))
            }
            assert labels["near"] != labels["far"]
            w = int(y.sum())
            analytic = {
                labels["near"]: w * math.log(p) + (n - w) * math.log1p(-p),
                labels["far"]: (n - w) * math.log(p) + w * math.log1p(-p),
            }
            dominant = max(analytic.values())
            gap = dominant - min(analytic.values())
            for chi in (1, 64):
                scores = {
                    label: coset_log_probability(code, model, f.mul(rep), chi)
                    for label, rep in reps.items()
                }
                for label, expected in analytic.items():
                    if expected == dominant or gap < 18.0:
                        assert math.isclose(scores[label], expected, rel_tol=1e-9)
                for label in set(reps) - set(analytic):
                    assert scores[label] == -math.inf or scores[label] < dominant - 10.0


class TestContractionMechanics:
    def test_scaling_one_site_shifts_the_log_value(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        columns = build_coset_network(code, model, PauliOperator.identity(code.n))
        base = contract_columns([list(col) for col in columns], 8)
        # Columns are immutable; an edited copy is contracted without the tables.
        columns[1] = list(columns[1])
        columns[1][2] = columns[1][2] * 3.5
        scaled = contract_columns(columns, 8)
        assert scaled.shape == (2,)
        np.testing.assert_allclose(scaled, base + math.log(3.5), rtol=1e-12)

    def test_zeroed_site_collapses_to_minus_infinity(self):
        code = build_rotated_code(3, 3)
        model = BiasedNoiseModel(p=0.15, eta=0.5)
        columns = build_coset_network(code, model, PauliOperator.identity(code.n))
        columns[0] = list(columns[0])
        columns[0][1] = columns[0][1] * 0.0
        assert (contract_columns(columns, 8) == -math.inf).all()

    def test_initial_boundary_is_trivial(self):
        mps = initial_boundary(4)
        assert len(mps.tensors) == 4
        assert mps.log_norm == 0.0 and not mps.is_zero
        assert tuple(t.shape[1] for t in mps.tensors[:-1]) == (1, 1, 1)

    def test_zero_state_short_circuits(self):
        mps = BoundaryMPS([np.ones((1, 1, 1))] * 2, is_zero=True)
        out = apply_and_truncate(mps, [np.ones((1, 1, 1, 1))] * 2, 4)
        assert out.is_zero


class TestLapackKernels:
    """The bare LAPACK wrappers behind the QR and SVD sweeps."""

    @pytest.mark.parametrize(
        "shape,rank",
        [((9, 4), 4), ((5, 5), 5), ((3, 8), 3), ((1, 1), 1), ((8, 6), 2), ((4, 7), 1)],
        ids=["tall", "square", "wide", "1x1", "tall-rank-2", "wide-rank-1"],
    )
    def test_qr_factors(self, shape, rank):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        q, r = tensor._qr(a)
        k = min(shape)
        assert q.shape == (shape[0], k) and r.shape == (k, shape[1])
        np.testing.assert_allclose(q @ r, a, rtol=0, atol=1e-12 * np.abs(a).max())
        np.testing.assert_allclose(q.T @ q, np.eye(k), rtol=0, atol=1e-12)
        assert not np.tril(r, -1).any()

    def test_qr_leaves_its_input_alone(self):
        a = np.asfortranarray(np.random.default_rng(6).standard_normal((6, 3)))
        before = a.copy()
        tensor._qr(a)
        assert np.array_equal(a, before)

    def test_svd_matches_scipy(self):
        a = np.random.default_rng(7).standard_normal((6, 9))
        u, s, vt = tensor._svd(a)
        _, ref_s, _ = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesdd")
        np.testing.assert_allclose(s, ref_s, rtol=1e-14)
        np.testing.assert_allclose((u * s) @ vt, a, rtol=0, atol=1e-12)

    def test_svd_falls_back_to_gesvd(self, monkeypatch):
        a = np.random.default_rng(8).standard_normal((7, 4))
        monkeypatch.setattr(tensor, "_gesdd", lambda m, **kw: (None, None, None, 1))
        got = tensor._svd(a)
        expected = tensor._gesvd(a, full_matrices=0)[:3]
        for x, y in zip(got, expected):
            assert np.array_equal(x, y)

    def test_svd_raises_when_both_drivers_fail(self, monkeypatch):
        a = np.random.default_rng(9).standard_normal((7, 4))
        for name in ("_gesdd", "_gesvd"):
            monkeypatch.setattr(tensor, name, lambda m, **kw: (None, None, None, 2))
        with pytest.raises(RuntimeError, match=r"\(7, 4\) block"):
            tensor._svd(a)

    def test_svd_illegal_argument_raises(self, monkeypatch):
        a = np.ones((3, 3))
        monkeypatch.setattr(tensor, "_gesdd", lambda m, **kw: (None, None, None, -4))
        with pytest.raises(ValueError, match="gesdd"):
            tensor._svd(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_raises(self, bad):
        a = np.ones((4, 5))
        a[2, 3] = bad
        with pytest.raises(ValueError):
            tensor._svd(a)


def _dense(tensors: list[np.ndarray]) -> np.ndarray:
    """The state an open-ended MPS chain encodes, as one vector over its physical indices."""
    out = np.ones((1, 1))
    for t in tensors:
        out = np.einsum("xa,abp->xpb", out, t).reshape(-1, t.shape[1])
    return out[:, 0]


@settings(max_examples=40, deadline=None)
@given(
    distance=st.sampled_from([3, 5]),
    eta=st.sampled_from([0.5, 3.0, math.inf]),
    p=st.floats(0.01, 0.4),
    seed=st.integers(0, 2**32 - 1),
)
def test_compression_without_truncation_keeps_the_state(distance, eta, p, seed):
    """With chi above every bond, compressing only re-gauges and rescales.

    After each column the dense state equals that of the uncompressed
    absorbed chain, and every tensor right of the first is right-orthonormal.
    """
    code = build_rotated_code(distance, distance)
    model = BiasedNoiseModel(p=p, eta=eta)
    rep = sample_error(model, code.n, np.random.default_rng(seed))
    columns = build_coset_network(code, model, rep)
    mps = initial_boundary(code.j)
    for col in columns[:-1]:
        exact = _dense(tensor._absorb(mps, col))
        nxt = apply_and_truncate(mps, col, 4**distance)
        assert not nxt.is_zero
        got = _dense(nxt.tensors) * math.exp(nxt.log_norm - mps.log_norm)
        assert np.linalg.norm(got - exact) <= 1e-12 * np.linalg.norm(exact)
        for t in nxt.tensors[1:]:
            m = t.reshape(t.shape[0], -1)
            np.testing.assert_allclose(m @ m.T, np.eye(m.shape[0]), rtol=0, atol=1e-12)
        mps = nxt


def test_truncation_stats_match_scipy_svd(monkeypatch):
    """The gesdd wrapper reports the same truncation stats as scipy.linalg.svd.

    At d = 9 no bond exceeds 2^4 = 16, so chi = 8 is needed to truncate.
    """
    code = build_rotated_code(9, 9)
    model = BiasedNoiseModel(p=0.19, eta=0.5)
    rep = sample_error(model, code.n, np.random.default_rng(31))
    columns = build_coset_network(code, model, rep)
    stats: dict = {}
    contract_columns(columns, 8, stats)
    monkeypatch.setattr(
        tensor,
        "_svd",
        lambda m: scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesdd"),
    )
    reference: dict = {}
    contract_columns(columns, 8, reference)
    assert stats.keys() == reference.keys() == {
        "max_bond_dim",
        "max_rank2_ratio",
        "discarded_weight",
    }
    assert stats["max_bond_dim"] == reference["max_bond_dim"] == 8
    assert reference["discarded_weight"] > 0.0
    for key in ("max_rank2_ratio", "discarded_weight"):
        assert stats[key] == pytest.approx(reference[key], rel=1e-12)


def _exact_chi(code) -> int:
    """The smallest chi at which contract_columns merges the boundary."""
    return 2 ** (code.j // 2)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(3, 3), (5, 5), (7, 7), (9, 9), (5, 7), (7, 5)]),
    eta=st.sampled_from([0.5, 3.0, math.inf]),
    p=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_boundary_matches_the_mps_chain(shape, eta, p, seed):
    """At chi = 2^floor(j/2) the merged contraction equals the untruncated chain.

    Both are exact there, so closings within 10 log-units of the dominant
    one agree to rounding; the others are zero in exact arithmetic and may
    only differ as residues at least 10 below the dominant score (or -inf).
    """
    code = build_rotated_code(*shape)
    model = BiasedNoiseModel(p=p, eta=eta)
    rep = sample_error(model, code.n, np.random.default_rng(seed))
    columns = build_coset_network(code, model, rep)
    chi = _exact_chi(code)
    merged = contract_columns(columns, chi)
    chain = support.mps_chain_scores(columns, chi)
    dominant = max(merged.max(), chain.max())
    assert math.isfinite(dominant)
    for a, b in zip(merged, chain):
        if max(a, b) >= dominant - 10.0:
            assert math.isclose(a, b, rel_tol=1e-9)


@pytest.mark.parametrize("distance", [5, 9])
def test_merged_boundary_stats_match_the_mps_chain(distance):
    code = build_rotated_code(distance, distance)
    model = BiasedNoiseModel(p=0.19, eta=0.5)
    rep = sample_error(model, code.n, np.random.default_rng(37))
    columns = build_coset_network(code, model, rep)
    chi = _exact_chi(code)
    merged: dict = {}
    chain: dict = {}
    scores = contract_columns(columns, chi, merged)
    support.mps_chain_scores(columns, chi, chain)
    assert merged.keys() == chain.keys() == {"max_bond_dim", "max_rank2_ratio", "discarded_weight"}
    assert merged["max_bond_dim"] == chain["max_bond_dim"] == chi
    assert merged["discarded_weight"] == chain["discarded_weight"] == 0.0
    assert merged["max_rank2_ratio"] == pytest.approx(chain["max_rank2_ratio"], rel=1e-9)
    # The stats are read off the state, never fed back into it.
    assert np.array_equal(scores, contract_columns(columns, chi))


def test_regime_is_chosen_from_rows_and_chi(monkeypatch):
    """9 rows: chi = 16 never reaches QR or SVD, chi = 15 needs both."""
    code = build_rotated_code(9, 9)
    model = BiasedNoiseModel(p=0.19, eta=0.5)
    columns = build_coset_network(code, model, PauliOperator.identity(code.n))

    def forbidden(m):
        raise AssertionError("QR/SVD sweep reached")

    monkeypatch.setattr(tensor, "_qr", forbidden)
    monkeypatch.setattr(tensor, "_svd", forbidden)
    assert np.isfinite(contract_columns(columns, 16)).all()
    with pytest.raises(AssertionError, match="sweep reached"):
        contract_columns(columns, 15)
    # A merged boundary refuses a chi it could not honour.
    with pytest.raises(ValueError, match="would truncate"):
        apply_and_truncate(BoundaryMPS([np.ones((1, 1, 1))]), columns[0], 15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_site_raises_in_the_merged_boundary(bad):
    code = build_rotated_code(5, 5)
    model = BiasedNoiseModel(p=0.15, eta=0.5)
    columns = build_coset_network(code, model, PauliOperator.identity(code.n))
    site = columns[1][2].copy()
    site[0, 0, 0, 0] = bad
    columns[1] = list(columns[1])
    columns[1][2] = site
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        contract_columns(columns, 64)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(3, 3), (5, 5), (7, 7), (9, 9), (11, 11), (5, 7), (7, 5)]),
    eta=st.sampled_from([0.5, 3.0, math.inf]),
    p=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    edit=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_blocks_match_row_by_row_absorption(shape, eta, p, edit, seed):
    """Absorbing a column in blocks of up to three rows equals absorbing it row by row.

    Columns from ``build_coset_network`` carry their blocks from the tables;
    an edited column is a plain list, whose blocks are contracted on the fly.
    Only the summation order differs, so closings within 10 log-units of the
    dominant one agree to rounding.
    """
    code = build_rotated_code(*shape)
    model = BiasedNoiseModel(p=p, eta=eta)
    rng = np.random.default_rng(seed)
    rep = sample_error(model, code.n, rng)
    columns = build_coset_network(code, model, rep)
    if edit:
        c, r = int(rng.integers(code.k)), int(rng.integers(code.j))
        columns[c] = list(columns[c])
        columns[c][r] = columns[c][r] * rng.uniform(0.5, 2.0, columns[c][r].shape)
    blocked = contract_columns(columns, _exact_chi(code))
    reference = support.merged_row_by_row_scores(columns)
    dominant = max(blocked.max(), reference.max())
    assert math.isfinite(dominant)
    for a, b in zip(blocked, reference):
        if max(a, b) >= dominant - 10.0:
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("rows", [9, 11])
def test_block_tables_do_not_grow_with_the_code(rows):
    """A few distinct read-only block stacks serve every column, however many there are."""
    model = BiasedNoiseModel(p=0.19, eta=0.5)

    def stacks(code):
        blocks = tensor._site_tables(code, model).blocks
        matrices = [m for column in blocks for block in column for m in block]
        assert all(not m.flags.writeable for m in matrices)
        return {id(m.base) for m in matrices}

    square = stacks(build_rotated_code(rows, rows))
    wide = stacks(build_rotated_code(rows, 2 * rows + 1))
    assert len(square) == len(wide) <= 16
