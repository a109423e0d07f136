"""The pipeline's readout taken from the dense oracle's states.

``dense_oracle`` runs phase estimation, post-selection and un-compute as
circuits on the encoded state; ``qsim.pipeline_oracle`` runs it on a
pipeline's fit with the rotation profiles ``pipeline.rotation_profiles``
builds from the pipeline's c1 and c2. ``dense_twin`` reads the factors the
closed form's posterior uses (the per-component coefficients, from the mean
branch's phase-0 slice and the variance branch's rho_col, and p1 and p2) off
those states, so the twin's posterior is the dense-path readout.
``assert_matches_dense`` holds a pipeline to the oracle through
``qsim.closed_form_gaps`` and its posterior to the twin's, at 1e-12, and,
since the twin shares the pipeline's inversion bounds c1 and c2, its
posterior to ``BinnedPrediction`` at 1e-8 too; ``assert_encodes_design``
holds the encoding circuit to the scaled design through ``qsim.encoding_gap``.
"""

from __future__ import annotations

import copy

import numpy as np

from qrff import qsim
from qrff.pipeline import PreparedPipeline

from spectral_oracle import assert_matches_binned, left_singular_vectors

TOL = 1e-12


def dense_twin(pipe: PreparedPipeline, oracle=None) -> PreparedPipeline:
    """A copy of ``pipe`` whose readout factors come from ``dense_oracle``.

    ``oracle`` is ``qsim.pipeline_oracle(pipe)`` when given, and is run
    otherwise. The copy keeps the dense branch states
    (``mean_state``, ``variance_state``) and the padded ``rho_col``. Its
    coefficients are the diagonals of V^T S U and V^T rho_col V, with S the
    phase-0 slice, V the feature model's and U rebuilt from it as X V / s,
    both trimmed of the registers' padding and taken real, as the design
    is, times sqrt(p1) / (c1 |X|_F) and p2 / (c2^2 |X|_F^2) at the dense p1
    and p2; what the diagonals leave out, ``qsim.closed_form_gaps`` catches
    by comparing the untrimmed slice and rho_col.
    """
    if oracle is None:
        oracle = qsim.pipeline_oracle(pipe)
    _, _, ((mean, p1), (variance, p2)) = oracle
    n_rows, n_cols = pipe.fm.targets.size, 2 * pipe.fm.freq.shape[0]
    twin = copy.copy(pipe)
    twin.mean_state, twin.p1 = mean, p1
    twin.variance_state, twin.p2 = variance, p2
    v, u, fro = pipe.fm.v, left_singular_vectors(pipe.fm), pipe.fm.frobenius_norm
    # the phase register is the highest, so its |0> slice is the leading (col, row) block
    slice0 = mean.amplitudes.reshape(-1, mean.register("col").dim, mean.register("row").dim)[0]
    mean_diag = np.diag(v.T @ slice0[:n_cols, :n_rows].real @ u)
    twin.mean_coefficients = mean_diag * np.sqrt(p1) / (pipe.c1 * fro)
    twin.rho_col = qsim.partial_trace(variance, "col")
    variance_diag = np.diag(v.T @ twin.rho_col[:n_cols, :n_cols].real @ v)
    twin.variance_coefficients = variance_diag * p2 / (pipe.c2**2 * fro**2)
    return twin


def assert_matches_dense(pipe: PreparedPipeline, grid, oracle=None) -> None:
    """Slice, rho_col, p1, p2, leakages and grid posterior within 1e-12 of the
    oracle, and the grid posterior within 1e-8 of the binned spectral sums at
    the fit's own noise, targets, ``delta_r`` and ``tau``."""
    if oracle is None:
        oracle = qsim.pipeline_oracle(pipe)
    for name, gap in qsim.closed_form_gaps(pipe, oracle).items():
        assert gap <= TOL, name
    dense = dense_twin(pipe, oracle)
    (post, _), (post_dense, _) = pipe.posterior(grid), dense.posterior(grid)
    assert np.max(np.abs(post.mean - post_dense.mean)) <= TOL
    assert np.max(np.abs(post.variance - post_dense.variance)) <= TOL
    assert_matches_binned(pipe, grid)


def assert_encodes_design(fm) -> None:
    """The encoding circuit holds the zero-padded design.T / frobenius_norm, to 1e-12."""
    assert qsim.encoding_gap(fm) <= TOL
