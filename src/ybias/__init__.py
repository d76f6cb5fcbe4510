"""Surface-code simulation toolkit for Y-biased Pauli noise.

Builds standard and rotated surface codes, analyzes their behavior under
Y-dominated noise (distances, logical-operator counts, concatenated code
structure), and estimates logical failure rates with exact, concatenated,
and tensor-network decoders.
"""

from .codes import (
    StabilizerCode,
    build_rotated_code,
    build_standard_code,
    syndrome,
)
from .decoders import (
    BruteForceDecoder,
    ConcatenatedYDecoder,
    DecodeOutcome,
    ExactYDecoder,
    MpsDecoder,
    UnattainableSyndromeError,
    cycle_failure_bound,
    decoder_from_name,
)
from .noise import BiasedNoiseModel, hashing_bound
from .pauli import PauliOperator
from .sim import (
    FailurePoint,
    FailureRateResult,
    ThresholdFit,
    convergence_study,
    estimate_failure_rate,
    fit_threshold,
)
from .ycode import CycleCode, YCodeStructure, cycle_code, y_code_structure

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "StabilizerCode",
    "build_standard_code",
    "build_rotated_code",
    "syndrome",
    "PauliOperator",
    "BiasedNoiseModel",
    "hashing_bound",
    "CycleCode",
    "YCodeStructure",
    "cycle_code",
    "y_code_structure",
    "DecodeOutcome",
    "UnattainableSyndromeError",
    "cycle_failure_bound",
    "decoder_from_name",
    "ExactYDecoder",
    "ConcatenatedYDecoder",
    "BruteForceDecoder",
    "MpsDecoder",
    "FailureRateResult",
    "FailurePoint",
    "ThresholdFit",
    "estimate_failure_rate",
    "convergence_study",
    "fit_threshold",
]
