from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qrff
from qrff.cli import RunConfig, generate_dataset
from qrff.kernel import KernelHyper
from qrff.pipeline import PreparedPipeline
from qrff.qsim import pipeline_oracle
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
def paper_pipeline(paper_feature_model, paper_config):
    return PreparedPipeline(paper_feature_model, paper_config.tau)


@pytest.fixture(scope="session")
def paper_oracle(paper_pipeline):
    """``dense_oracle`` on the paper pipeline's encoded state, with the rotation
    profiles of the pipeline's own c1 and c2: the post-QPE state, the QPE ops,
    and each branch's un-computed state with its p."""
    return pipeline_oracle(paper_pipeline)


@pytest.fixture(scope="session")
def grid50(paper_config):
    return np.linspace(paper_config.grid_lo, paper_config.grid_hi, 50)


@pytest.fixture(scope="session")
def fresh_python():
    """Runs ``python *args`` in a new interpreter that imports this package,
    under this process's environment at the call."""
    src = str(pathlib.Path(qrff.__file__).resolve().parents[1])

    def run(*args: str) -> subprocess.CompletedProcess:
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )

    return run
