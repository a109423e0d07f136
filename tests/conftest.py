from __future__ import annotations

import numpy as np
import pytest

from qrff.cli import RunConfig, generate_dataset
from qrff.kernel import KernelHyper
from qrff.pipeline import PreparedPipeline, dense_oracle, prepare_data_state
from qrff.rff import build_feature_model, sample_frequencies


@pytest.fixture(scope="session")
def paper_hyper():
    return KernelHyper(signal_std=1.5, length_scale=1.0, noise_std=0.1)


@pytest.fixture(scope="session")
def paper_config():
    return RunConfig()


@pytest.fixture(scope="session")
def paper_dataset(paper_config):
    return generate_dataset(paper_config)


@pytest.fixture(scope="session")
def paper_feature_model(paper_dataset, paper_hyper, paper_config):
    freq = sample_frequencies(
        paper_config.n_frequencies, paper_hyper, paper_config.dim, paper_config.seed_freq
    )
    return build_feature_model(paper_dataset, freq, paper_hyper)


@pytest.fixture(scope="session")
def paper_pipeline(paper_feature_model, paper_hyper, paper_config):
    return PreparedPipeline(paper_feature_model, paper_hyper, paper_config.tau)


@pytest.fixture(scope="session")
def paper_oracle(paper_pipeline):
    """``dense_oracle`` on the paper pipeline's encoded state: the post-QPE
    state, the QPE ops, and each branch's un-computed state with its p."""
    return dense_oracle(prepare_data_state(paper_pipeline.plan), paper_pipeline.constants)


@pytest.fixture(scope="session")
def grid50(paper_config):
    return np.linspace(paper_config.grid_lo, paper_config.grid_hi, 50)
