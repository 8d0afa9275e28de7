"""Conditioned photon statistics behind lossless linear interferometers.

The package models imperfect photon sources entering a passive linear
interferometer, with photon counters on all but the first output mode.
Conditioning on a detection pattern changes the photon statistics of the
kept mode; the modules here compute those conditional statistics exactly
(by creation-operator expansion), score them with figures of merit, build the
known improvement schemes, model imperfect detectors, and search for
better interferometers.
"""

from .conditioner import ConditionalResult, DetectionPattern, condition_mixed, condition_pure
from .detectors import (
    BUCKET,
    DetectorModel,
    ObservedPattern,
    observe,
    benchmark_detector_suite,
)
from .errors import (
    BadCount,
    BadDistributionShape,
    BadModeIndex,
    BadParameters,
    ConfigError,
    DegenerateTheta,
    DimensionMismatch,
    DimensionTooLarge,
    MismatchedTotals,
    NegativeWeight,
    NonSquare,
    NotNormalized,
    NotUnitary,
    PhotonPostError,
    ZeroProbabilityPattern,
)
from .fock import (
    InputSpec,
    PhotonConfig,
    distribution_moments,
    enumerate_inputs,
)
from .interferometer import (
    Interferometer,
    beam_splitter,
    compose,
    embed_two_mode,
    haar_random,
)
from .merit import (
    MeritReport,
    detection_coefficients,
    figures_of_merit,
    improvement_threshold,
)
from .permanent import permanent, permanent_with_multiplicity
from .schemes import (
    ChainScheme,
    build_chain,
    build_chain_from_elements,
    chain_asymptotics,
    chain_element_angles,
    pure_stage2_params,
    pure_success_probability,
    pure_three_mode_pipeline,
    purify_super_poissonian,
    run_chain,
)
from .search import (
    SearchReport,
    SearchTask,
    detector_patterns,
    evaluate_candidate,
    reevaluate,
    search_improvement,
    unitary_from_angles,
    verify_nogo_patterns,
    verify_nogo_small,
)

__version__ = "0.1.0"

__all__ = [
    "BUCKET",
    "BadCount",
    "BadDistributionShape",
    "BadModeIndex",
    "BadParameters",
    "ChainScheme",
    "ConditionalResult",
    "ConfigError",
    "DegenerateTheta",
    "DetectionPattern",
    "DetectorModel",
    "DimensionMismatch",
    "DimensionTooLarge",
    "InputSpec",
    "Interferometer",
    "MeritReport",
    "MismatchedTotals",
    "NegativeWeight",
    "NonSquare",
    "NotNormalized",
    "NotUnitary",
    "ObservedPattern",
    "PhotonConfig",
    "PhotonPostError",
    "SearchReport",
    "SearchTask",
    "ZeroProbabilityPattern",
    "beam_splitter",
    "build_chain",
    "build_chain_from_elements",
    "chain_asymptotics",
    "chain_element_angles",
    "compose",
    "condition_mixed",
    "condition_pure",
    "detection_coefficients",
    "detector_patterns",
    "distribution_moments",
    "embed_two_mode",
    "enumerate_inputs",
    "evaluate_candidate",
    "figures_of_merit",
    "haar_random",
    "improvement_threshold",
    "observe",
    "benchmark_detector_suite",
    "permanent",
    "permanent_with_multiplicity",
    "pure_stage2_params",
    "pure_success_probability",
    "pure_three_mode_pipeline",
    "purify_super_poissonian",
    "reevaluate",
    "run_chain",
    "search_improvement",
    "unitary_from_angles",
    "verify_nogo_patterns",
    "verify_nogo_small",
]
