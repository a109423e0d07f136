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
    InversionConstants,
    PosteriorEstimate,
    PreparedPipeline,
    dense_oracle,
    phase_table,
    prepare_data_state,
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
    "build_feature_model",
    "dense_oracle",
    "exact_posterior",
    "feature_map",
    "gram_matrix",
    "phase_table",
    "prepare_data_state",
    "rbf_kernel",
    "rff_posterior",
    "sample_frequencies",
    "scaled_feature_vector",
    "spectral_density",
]
