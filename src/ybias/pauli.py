"""Pauli operators as paired X/Z bit-vectors (phases ignored throughout)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["PauliOperator"]

_CHARS = np.array(list("IXZY"))  # index = x + 2z


class PauliOperator:
    """An n-qubit Pauli, qubit i carrying X iff x_bits[i] and Z iff z_bits[i].

    Y on a qubit means both bits set.  Instances are immutable.
    """

    def __init__(self, x_bits: Iterable[int] | np.ndarray, z_bits: Iterable[int] | np.ndarray):
        x = np.asarray(x_bits, dtype=np.uint8).copy()
        z = np.asarray(z_bits, dtype=np.uint8).copy()
        if x.ndim != 1 or z.ndim != 1 or x.size != z.size:
            raise ValueError(f"x/z bit vectors must be 1-D of equal length, got {x.shape}, {z.shape}")
        if (x > 1).any() or (z > 1).any():
            raise ValueError("bit vectors must contain only 0/1")
        x.setflags(write=False)
        z.setflags(write=False)
        self.x_bits = x
        self.z_bits = z
        self.n = int(x.size)

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def y_type(cls, bits: Iterable[int] | np.ndarray) -> "PauliOperator":
        """Pauli with Y exactly on the set bits (x_bits = z_bits)."""
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(arr, arr)

    @classmethod
    def x_type(cls, bits: Iterable[int] | np.ndarray) -> "PauliOperator":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(arr, np.zeros_like(arr))

    @classmethod
    def z_type(cls, bits: Iterable[int] | np.ndarray) -> "PauliOperator":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls(np.zeros_like(arr), arr)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliOperator":
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        if kind in ("X", "Y"):
            x[qubit] = 1
        if kind in ("Z", "Y"):
            z[qubit] = 1
        if kind not in ("I", "X", "Y", "Z"):
            raise ValueError(f"unknown Pauli kind {kind!r}")
        return cls(x, z)

    @property
    def weight(self) -> int:
        return int((self.x_bits | self.z_bits).sum())

    def mul(self, other: "PauliOperator") -> "PauliOperator":
        """Group product up to phase: bitwise XOR of the symplectic parts."""
        if other.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        return PauliOperator(self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    def commutes_with(self, other: "PauliOperator") -> bool:
        if other.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        overlap = int((self.x_bits & other.z_bits).sum() + (self.z_bits & other.x_bits).sum())
        return overlap % 2 == 0

    def symplectic(self) -> np.ndarray:
        """Concatenated (x|z) bit-vector of length 2n."""
        return np.concatenate([self.x_bits, self.z_bits])

    def to_string(self) -> str:
        return "".join(_CHARS[self.x_bits + 2 * self.z_bits])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return bool(
            np.array_equal(self.x_bits, other.x_bits) and np.array_equal(self.z_bits, other.z_bits)
        )

    def __hash__(self) -> int:
        return hash((self.x_bits.tobytes(), self.z_bits.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 40:
            return f"PauliOperator({self.to_string()})"
        return f"PauliOperator(n={self.n}, weight={self.weight})"
