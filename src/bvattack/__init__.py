"""Desk-scale classical simulation of structure-finding attacks on block
ciphers: exact spectral sampling, affine structure solvers over GF(2), six
attack drivers, and seeded experiments validating the analytic bounds."""

from .attacks import (
    DifferentialAttackReport,
    EmKeyRecoveryReport,
    FeistelDistinguishReport,
    ImpossibleCertificate,
    ImpossibleSieveReport,
    InsufficientDataError,
    SmallProbabilityReport,
    differential_attack,
    distinguish_feistel,
    impossible_attack,
    recover_em_key,
    small_probability_attack,
)
from .boolfn import (
    MAX_WIDTH,
    BooleanFunction,
    VectorFunction,
    WalshSpectrum,
    load_function,
    save_function,
    walsh_spectrum,
)
from .bv import BvSampler, QueryLedger
from .ciphers import EvenMansour, Feistel3, ToyCipher, load_cipher, save_cipher
from .experiments import ExperimentConfig, run_experiment
from .gf2 import AffineSolutionSet, EnumerationCapError, LinearSystem, solve
from .lsfind import (
    find_boolean_structures,
    find_common_zero_structure,
    find_vector_structures,
)
from .rng import seeded_rng

__version__ = "0.1.0"

__all__ = [
    "AffineSolutionSet",
    "BooleanFunction",
    "BvSampler",
    "DifferentialAttackReport",
    "EmKeyRecoveryReport",
    "EnumerationCapError",
    "EvenMansour",
    "ExperimentConfig",
    "Feistel3",
    "FeistelDistinguishReport",
    "ImpossibleCertificate",
    "ImpossibleSieveReport",
    "InsufficientDataError",
    "LinearSystem",
    "MAX_WIDTH",
    "QueryLedger",
    "SmallProbabilityReport",
    "ToyCipher",
    "VectorFunction",
    "WalshSpectrum",
    "differential_attack",
    "distinguish_feistel",
    "find_boolean_structures",
    "find_common_zero_structure",
    "find_vector_structures",
    "impossible_attack",
    "load_cipher",
    "load_function",
    "recover_em_key",
    "run_experiment",
    "save_cipher",
    "save_function",
    "seeded_rng",
    "small_probability_attack",
    "solve",
    "walsh_spectrum",
    "__version__",
]
