"""Gaussian process regression three ways: exact, random Fourier features, and
a bit-faithful statevector simulation of the quantum-assisted pipeline."""

__version__ = "0.1.0"

from .errors import CapacityError, ConfigError, IoError, PostSelectionError, QrffError
from .kernel import (
    Dataset,
    KernelHyper,
    Posterior,
    exact_posterior,
    gram_matrix,
    rbf_kernel,
    spectral_density,
)
from .pipeline import (
    EncodingPlan,
    InversionConstants,
    PosteriorEstimate,
    PreparedPipeline,
    SpectralRegisters,
    expand_rows,
    invert_for_mean,
    invert_for_variance,
    plan_encoding,
    prepare_data_state,
    schmidt_rows,
    spectral_extraction,
)
from .rff import (
    FeatureModel,
    FrequencySet,
    build_feature_model,
    feature_map,
    rff_posterior,
    sample_frequencies,
    scaled_feature_vector,
)

__all__ = [
    "CapacityError",
    "ConfigError",
    "Dataset",
    "EncodingPlan",
    "FeatureModel",
    "FrequencySet",
    "InversionConstants",
    "IoError",
    "KernelHyper",
    "Posterior",
    "PosteriorEstimate",
    "PostSelectionError",
    "PreparedPipeline",
    "QrffError",
    "SpectralRegisters",
    "build_feature_model",
    "exact_posterior",
    "expand_rows",
    "feature_map",
    "gram_matrix",
    "invert_for_mean",
    "invert_for_variance",
    "plan_encoding",
    "prepare_data_state",
    "rbf_kernel",
    "rff_posterior",
    "sample_frequencies",
    "schmidt_rows",
    "scaled_feature_vector",
    "spectral_density",
    "spectral_extraction",
]
