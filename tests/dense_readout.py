"""The pipeline's readout taken from the dense oracle's states.

``dense_oracle`` runs phase estimation, post-selection and un-compute as
circuits on the encoded state. ``dense_twin`` reads the same factors the
closed form computes (the mean branch's phase-0 slice, the variance branch's
rho_col, p1, p2 and the leakages) off those states, so the twin's estimates
are the dense-path readout, and ``assert_matches_dense`` holds a pipeline to
it at 1e-12.
"""

from __future__ import annotations

import copy

import numpy as np

from qrff import qsim
from qrff.pipeline import PreparedPipeline, dense_oracle

TOL = 1e-12


def phase_zero_slice(sv: qsim.Statevector) -> np.ndarray:
    """Amplitudes with the phase register at |0>, shape (col dim, row dim)."""
    dims = [sv.register(name).dim for name in ("phase", "col", "row")]
    return sv.amplitudes.reshape(dims)[0]


def leakage(sv: qsim.Statevector) -> float:
    """1 - the phase register's mass at |0>."""
    amps = phase_zero_slice(sv)
    return float(1.0 - np.vdot(amps, amps).real)


def closed_form_rho_col(pipe: PreparedPipeline) -> np.ndarray:
    """The variance branch's column-register state from the closed-form factors."""
    w = pipe.col_basis
    return (w * pipe.variance_weights) @ w.conj().T


def dense_twin(pipe: PreparedPipeline, oracle=None) -> PreparedPipeline:
    """A copy of ``pipe`` whose readout factors come from ``dense_oracle``.

    ``oracle`` is ``dense_oracle(pipe.data_state, pipe.constants)`` when
    given, and is run otherwise. The copy keeps the dense branch states
    (``mean_state``, ``variance_state``) and their ``rho_col``; its
    ``mean_slice`` is over the original rows with an identity ``row_basis``,
    and its variance factors are the eigendecomposition of the dense rho_col.
    """
    if oracle is None:
        oracle = dense_oracle(pipe.data_state, pipe.constants)
    _, _, ((mean, p1), (variance, p2)) = oracle
    twin = copy.copy(pipe)
    twin.mean_state, twin.p1 = mean, p1
    twin.variance_state, twin.p2 = variance, p2
    twin.mean_slice = phase_zero_slice(mean)
    twin.row_basis = np.eye(twin.mean_slice.shape[1])
    twin.rho_col = qsim.partial_trace(variance, "col").matrix
    twin.variance_weights, twin.col_basis = np.linalg.eigh(twin.rho_col)
    twin.uncompute_leakage_mean = leakage(mean)
    twin.uncompute_leakage_variance = leakage(variance)
    return twin


def assert_matches_dense(pipe: PreparedPipeline, targets, grid, oracle=None) -> None:
    """Slice, rho_col, p1, p2, leakages and grid estimates within 1e-12 of the oracle."""
    dense = dense_twin(pipe, oracle)
    assert np.max(np.abs(pipe.mean_slice @ pipe.row_basis - dense.mean_slice)) <= TOL
    assert np.max(np.abs(closed_form_rho_col(pipe) - dense.rho_col)) <= TOL
    for name in ("p1", "p2", "uncompute_leakage_mean", "uncompute_leakage_variance"):
        assert abs(getattr(pipe, name) - getattr(dense, name)) <= TOL, name
    m, m_dense = pipe.mean_estimate(targets, grid), dense.mean_estimate(targets, grid)
    v, v_dense = pipe.variance_estimate(grid), dense.variance_estimate(grid)
    assert np.max(np.abs(m.mean - m_dense.mean)) <= TOL
    assert np.max(np.abs(v.variance - v_dense.variance)) <= TOL
