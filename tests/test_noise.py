import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import is_identity, is_y_type, sample_error, trial_generator
from ybias.noise import (
    BiasedNoiseModel,
    batch_uniforms,
    counters_per_trial,
    derive_key,
    hashing_bound,
    sample_error_classes_batch,
)

# Bias -> threshold pairs quoted to +-0.1 percentage point.
HASHING_REFERENCE = [
    (0.5, 0.189),
    (1.0, 0.194),
    (3.0, 0.222),
    (10.0, 0.278),
    (30.0, 0.335),
    (100.0, 0.390),
    (300.0, 0.428),
    (1000.0, 0.456),
]


class TestModel:
    def test_depolarizing_split(self):
        model = BiasedNoiseModel(p=0.3, eta=0.5)
        assert model.p_x == pytest.approx(0.1)
        assert model.p_y == pytest.approx(0.1)
        assert model.p_z == pytest.approx(0.1)

    def test_pure_y_limit(self):
        model = BiasedNoiseModel(p=0.2, eta=math.inf)
        assert model.p_x == 0.0
        assert model.p_y == 0.2
        assert model.class_probs[0] == pytest.approx(0.8)

    def test_components_sum_to_p(self):
        for eta in (0.5, 1.0, 7.0, 500.0):
            model = BiasedNoiseModel(p=0.17, eta=eta)
            assert model.p_x + model.p_y + model.p_z == pytest.approx(0.17)
            assert model.p_x == model.p_z

    def test_class_prob_order_is_i_x_z_y(self):
        model = BiasedNoiseModel(p=0.4, eta=2.0)
        assert np.allclose(
            model.class_probs, [0.6, model.p_x, model.p_z, model.p_y]
        )

    @pytest.mark.parametrize("p,eta", [(-0.1, 1.0), (1.2, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_invalid_parameters_rejected(self, p, eta):
        with pytest.raises(ValueError):
            BiasedNoiseModel(p=p, eta=eta)


class TestSampling:
    def test_p_zero_is_always_identity(self):
        model = BiasedNoiseModel(p=0.0, eta=1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert is_identity(sample_error(model, 12, rng))

    def test_pure_y_outputs_are_y_type(self):
        model = BiasedNoiseModel(p=0.3, eta=math.inf)
        rng = np.random.default_rng(4)
        op = sample_error(model, 4000, rng)
        assert is_y_type(op)
        assert op.weight > 0

    def test_depolarizing_fractions_within_5_sigma(self):
        model = BiasedNoiseModel(p=0.3, eta=0.5)
        n = 1_000_000
        rng = np.random.default_rng(9)
        op = sample_error(model, n, rng)
        counts = {
            "X": int((op.x_bits & ~op.z_bits).sum()),
            "Z": int((op.z_bits & ~op.x_bits).sum()),
            "Y": int((op.x_bits & op.z_bits).sum()),
        }
        sigma = math.sqrt(n * 0.1 * 0.9)
        for kind in ("X", "Y", "Z"):
            assert abs(counts[kind] - 0.1 * n) < 5 * sigma

    def test_batch_classes_match_thresholding(self):
        model = BiasedNoiseModel(p=0.5, eta=2.0)
        u = np.array([[0.0, 0.499, 0.5, 0.55, 0.62, 0.75, 0.99]])
        classes = sample_error_classes_batch(model, u)
        # p_X = p_Z = 1/12, p_Y = 1/3: cumulative edges 1/2 | 7/12 | 2/3, then Y.
        assert classes.tolist() == [[0, 0, 1, 1, 2, 3, 3]]


@settings(max_examples=150, deadline=None)
@given(
    eta=st.sampled_from([0.5, 3.0, math.inf]),
    p=st.sampled_from([0.0, 0.3, 1.0]),
    uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    on_edge=st.lists(st.integers(0, 2), max_size=6),
)
def test_classes_match_the_searchsorted_reference(eta, p, uniforms, on_edge):
    """Counting thresholds at or below u gives searchsorted's class, edges included.

    With p_X = p_Z = 0 (pure Y, or p = 0) two or three edges coincide, and a
    uniform placed exactly on an edge must land above every copy of it.
    """
    model = BiasedNoiseModel(p=p, eta=eta)
    edges = np.cumsum(model.class_probs)[:3]
    u = np.array(uniforms + [edges[i] for i in on_edge if edges[i] < 1.0], dtype=np.float64)
    # A strided 2-D block, like the column slice batch_uniforms returns.
    for block in (u, np.stack([u, u[::-1]])[:, ::2]):
        got = sample_error_classes_batch(model, block)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.searchsorted(edges, block, side="right"))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        model = BiasedNoiseModel(p=0.25, eta=3.0)
        key = derive_key(1234, (7,))
        a = batch_uniforms(key, 0, 50, 33)
        b = batch_uniforms(key, 0, 50, 33)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 4, 5, 33])
    def test_per_trial_generator_matches_batch_rows(self, n):
        key = derive_key(99, ())
        block = batch_uniforms(key, 0, 12, n)
        for trial in range(12):
            row = trial_generator(key, trial, n).random(n)
            assert np.array_equal(block[trial], row)

    def test_batch_offset_slices_same_stream(self):
        key = derive_key(5, (1, 2))
        full = batch_uniforms(key, 0, 40, 11)
        tail = batch_uniforms(key, 25, 15, 11)
        assert np.array_equal(full[25:], tail)

    def test_counters_per_trial(self):
        assert counters_per_trial(1) == 1
        assert counters_per_trial(4) == 1
        assert counters_per_trial(5) == 2
        assert counters_per_trial(33) == 9

    def test_distinct_spawn_keys_decorrelate(self):
        a = batch_uniforms(derive_key(7, (0,)), 0, 4, 16)
        b = batch_uniforms(derive_key(7, (1,)), 0, 4, 16)
        assert not np.array_equal(a, b)


class TestHashingBound:
    @pytest.mark.parametrize("eta,expected", HASHING_REFERENCE)
    def test_reference_values(self, eta, expected):
        assert abs(hashing_bound(eta) - expected) <= 1e-3

    def test_pure_y_is_one_half(self):
        assert hashing_bound(math.inf) == 0.5

    def test_monotone_in_bias(self):
        values = [hashing_bound(eta) for eta, _ in HASHING_REFERENCE]
        assert values == sorted(values)

    def test_invalid_eta_rejected(self):
        with pytest.raises(ValueError):
            hashing_bound(0.0)
