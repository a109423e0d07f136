"""Gaussian process regression three ways: exact, random Fourier features, and
the quantum-assisted pipeline, evaluated exactly in closed form and tested
against its circuits on the dense statevector simulator in ``qrff.qsim``."""

__version__ = "0.1.0"

from .errors import CapacityError, ConfigError, IoError, PostSelectionError, QrffError
from .kernel import (
    Dataset,
    KernelHyper,
    Posterior,
    exact_posterior,
)
from .pipeline import (
    PreparedPipeline,
    phase_table,
    spectral_setup,
)
from .rff import (
    FeatureModel,
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
    "IoError",
    "KernelHyper",
    "Posterior",
    "PostSelectionError",
    "PreparedPipeline",
    "QrffError",
    "build_feature_model",
    "exact_posterior",
    "feature_map",
    "phase_table",
    "rff_posterior",
    "sample_frequencies",
    "scaled_feature_vector",
    "spectral_setup",
]
