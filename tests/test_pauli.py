import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import is_identity, is_y_type, pauli_from_string
from ybias.pauli import PauliOperator

pauli_strings = st.text(alphabet="IXYZ", min_size=1, max_size=24)


def test_string_round_trip_examples():
    for s in ("I", "XYZI", "YYYY", "IZXY"):
        assert pauli_from_string(s).to_string() == s


def test_single_factory():
    op = PauliOperator.single(4, 2, "Y")
    assert op.to_string() == "IIYI"
    assert op.weight == 1
    with pytest.raises(ValueError):
        PauliOperator.single(4, 0, "Q")


def test_y_type_sets_both_bit_vectors():
    op = PauliOperator.y_type([1, 0, 1])
    assert np.array_equal(op.x_bits, op.z_bits)
    assert is_y_type(op)
    assert op.to_string() == "YIY"


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        PauliOperator([0, 1], [1])


@settings(max_examples=100, deadline=None)
@given(pauli_strings)
def test_round_trip(s):
    assert pauli_from_string(s).to_string() == s


@settings(max_examples=100, deadline=None)
@given(pauli_strings, st.data())
def test_product_is_bitwise_xor(s, data):
    t = data.draw(st.text(alphabet="IXYZ", min_size=len(s), max_size=len(s)))
    a, b = pauli_from_string(s), pauli_from_string(t)
    prod = a.mul(b)
    assert np.array_equal(prod.x_bits, a.x_bits ^ b.x_bits)
    assert np.array_equal(prod.z_bits, a.z_bits ^ b.z_bits)
    assert is_identity(a.mul(a))
    assert prod.mul(b) == a


@settings(max_examples=100, deadline=None)
@given(pauli_strings, st.data())
def test_commutation_is_symmetric_and_self_trivial(s, data):
    t = data.draw(st.text(alphabet="IXYZ", min_size=len(s), max_size=len(s)))
    a, b = pauli_from_string(s), pauli_from_string(t)
    assert a.commutes_with(b) == b.commutes_with(a)
    assert a.commutes_with(a)


def test_single_qubit_commutation_table():
    x, y, z = (pauli_from_string(c) for c in "XYZ")
    assert not x.commutes_with(y)
    assert not y.commutes_with(z)
    assert not x.commutes_with(z)
    identity = PauliOperator.identity(1)
    for op in (x, y, z):
        assert identity.commutes_with(op)


@settings(max_examples=60, deadline=None)
@given(pauli_strings)
def test_symplectic_layout_and_weight(s):
    op = pauli_from_string(s)
    v = op.symplectic()
    assert v.size == 2 * op.n
    assert np.array_equal(v[: op.n], op.x_bits)
    assert np.array_equal(v[op.n :], op.z_bits)
    assert op.weight == sum(ch != "I" for ch in s)


def test_immutability():
    op = pauli_from_string("XY")
    with pytest.raises(ValueError):
        op.x_bits[0] = 0
