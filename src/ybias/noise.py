"""Biased Pauli channel: model, sampling, and the hashing-bound curve.

Randomness contract: all sampling uses the counter-based Philox generator.
A 128-bit key is derived from (master seed, spawn key) via SeedSequence, and
trial i of a run owns the counter block [i*C, (i+1)*C) with C = ceil(n/4)
(each Philox counter yields four uint64 words; one double consumes one
word).  Serial, batched, and process-parallel sampling therefore produce
bit-identical error streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import PauliOperator

__all__ = [
    "BiasedNoiseModel",
    "sample_error",
    "hashing_bound",
    "derive_key",
    "trial_generator",
    "batch_uniforms",
    "counters_per_trial",
]


@dataclass(frozen=True)
class BiasedNoiseModel:
    """I.i.d. Pauli channel with total error rate p and Y-bias eta.

    eta = p_Y / (p_X + p_Z) with p_X = p_Z, so p_X = p_Z = p/(2(1+eta)) and
    p_Y = p*eta/(1+eta).  eta = math.inf encodes pure Y noise; eta = 0.5 is
    the standard depolarizing channel.
    """

    p: float
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {self.p}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive (or inf), got {self.eta}")

    @property
    def p_x(self) -> float:
        if math.isinf(self.eta):
            return 0.0
        return self.p / (2.0 * (1.0 + self.eta))

    @property
    def p_y(self) -> float:
        if math.isinf(self.eta):
            return self.p
        return self.p * self.eta / (1.0 + self.eta)

    @property
    def p_z(self) -> float:
        return self.p_x

    @cached_property
    def class_probs(self) -> np.ndarray:
        """Probabilities indexed by Pauli class x + 2z: [I, X, Z, Y]."""
        arr = np.array([1.0 - self.p, self.p_x, self.p_z, self.p_y])
        arr.setflags(write=False)
        return arr

    @cached_property
    def log_class_probs(self) -> np.ndarray:
        """Natural-log class probabilities; exact zeros map to -inf."""
        with np.errstate(divide="ignore"):
            arr = np.log(self.class_probs)
        arr.setflags(write=False)
        return arr


def _classes_from_uniforms(model: BiasedNoiseModel, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0,1) to Pauli classes (x + 2z encoding).

    Thresholds are cumulative [1-p, 1-p+p_X, 1-p+p_X+p_Z], so the order of
    outcomes is I, X, Z, Y.  The class is the number of thresholds at or
    below u, the count ``searchsorted(edges, u, side="right")`` gives.
    """
    edges = np.cumsum(model.class_probs)[:3]
    classes = (u >= edges[0]).view(np.uint8)
    classes += u >= edges[1]
    classes += u >= edges[2]
    return classes


def sample_error(model: BiasedNoiseModel, n: int, rng: np.random.Generator) -> PauliOperator:
    """One i.i.d. channel sample on n qubits."""
    cls = _classes_from_uniforms(model, rng.random(n))
    return PauliOperator((cls & 1).astype(np.uint8), (cls >> 1).astype(np.uint8))


def sample_error_classes_batch(model: BiasedNoiseModel, uniforms: np.ndarray) -> np.ndarray:
    """Classes for a (trials, n) block of pre-drawn uniforms."""
    return _classes_from_uniforms(model, uniforms)


# -- deterministic stream plumbing -----------------------------------------


def derive_key(master_seed: int, spawn_key: tuple[int, ...] = ()) -> np.ndarray:
    """128-bit Philox key derived from a master seed and a job-specific spawn key."""
    ss = np.random.SeedSequence(master_seed, spawn_key=spawn_key)
    return ss.generate_state(2, np.uint64)


def counters_per_trial(n: int) -> int:
    return -(-n // 4)


def trial_generator(key: np.ndarray, trial_index: int, n: int) -> np.random.Generator:
    """Generator positioned at the start of the given trial's counter block."""
    c = counters_per_trial(n)
    return np.random.Generator(np.random.Philox(key=key, counter=trial_index * c))


def batch_uniforms(key: np.ndarray, start_trial: int, trials: int, n: int) -> np.ndarray:
    """Uniforms for trials [start, start+trials), shape (trials, n).

    Draws whole counter blocks so each row is bit-identical to what
    trial_generator(key, i, n).random(n) would produce.
    """
    c = counters_per_trial(n)
    gen = np.random.Generator(np.random.Philox(key=key, counter=start_trial * c))
    block = gen.random(trials * 4 * c).reshape(trials, 4 * c)
    return block[:, :n]


# -- hashing bound ---------------------------------------------------------


def _channel_entropy(model_probs: np.ndarray) -> float:
    nz = model_probs[model_probs > 0]
    return float(-(nz * np.log2(nz)).sum())


def hashing_bound(eta: float) -> float:
    """The p at which the channel's 4-outcome Shannon entropy reaches 1 bit.

    Solved by bisection to absolute tolerance 1e-6 on [0, p_peak], where
    p_peak = 1/(1 + 2^-H3) is the entropy maximum (H3 the entropy of the
    X:Z:Y ratio); the entropy is strictly increasing on that interval and
    reaches at least 1 at p_peak for every bias, so the bracket always
    contains exactly one crossing.  eta = inf returns 1/2 exactly.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive (or inf), got {eta}")
    if math.isinf(eta):
        return 0.5

    ratios = np.array([1.0, 1.0, 2.0 * eta]) / (2.0 * (1.0 + eta))
    h3 = _channel_entropy(ratios)
    p_peak = 1.0 / (1.0 + 2.0 ** (-h3))

    def entropy_at(p: float) -> float:
        return _channel_entropy(np.array([1.0 - p, *(p * ratios)]))

    lo, hi = 0.0, p_peak
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if entropy_at(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
