"""The pipeline's readout taken from the dense oracle's states.

``dense_oracle`` runs phase estimation, post-selection and un-compute as
circuits on the encoded state. ``dense_twin`` reads the same factors the
closed form computes (the per-component weights of the mean branch's phase-0
slice and of the variance branch's rho_col, p1, p2 and the leakages) off
those states, so the twin's posterior is the dense-path readout, and
``assert_matches_dense`` holds a pipeline to it, and its slice and rho_col to
the dense ones, at 1e-12. ``assert_encodes_design`` holds the encoding circuit to the
scaled design it stands for.
"""

from __future__ import annotations

import copy

import numpy as np

from qrff import qsim
from qrff.pipeline import PreparedPipeline
from qrff.qsim import dense_oracle, prepare_data_state

TOL = 1e-12


def phase_zero_slice(sv: qsim.Statevector) -> np.ndarray:
    """Amplitudes with the phase register at |0>, shape (col dim, row dim)."""
    dims = [sv.register(name).dim for name in ("phase", "col", "row")]
    return sv.amplitudes.reshape(dims)[0]


def leakage(sv: qsim.Statevector) -> float:
    """1 - the phase register's mass at |0>."""
    amps = phase_zero_slice(sv)
    return float(1.0 - np.vdot(amps, amps).real)


def padded(a: np.ndarray, shape) -> np.ndarray:
    """``a`` in the leading corner of a zero array of ``shape``."""
    out = np.zeros(shape)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def closed_form_slice(pipe: PreparedPipeline) -> np.ndarray:
    """The mean branch's phase-0 slice over (col, row) from the closed-form weights."""
    return (pipe.fm.v * pipe.mean_weights) @ pipe.fm.u.T


def closed_form_rho_col(pipe: PreparedPipeline) -> np.ndarray:
    """The variance branch's column-register state from the closed-form weights."""
    w = pipe.fm.v
    return (w * pipe.variance_weights) @ w.T


def dense_twin(pipe: PreparedPipeline, oracle=None) -> PreparedPipeline:
    """A copy of ``pipe`` whose readout factors come from ``dense_oracle``.

    ``oracle`` is ``dense_oracle(prepare_data_state(pipe.fm), pipe.constants)``
    when given, and is run otherwise. The copy keeps the dense branch states
    (``mean_state``, ``variance_state``) and the padded ``rho_col``. Its
    weights are the diagonals of V^T S U and V^T rho_col V, with S the
    phase-0 slice and V, U the feature model's SVD factors, both trimmed of
    the registers' padding and taken real, as the design is; what the
    diagonals leave out, ``assert_matches_dense`` catches by comparing the
    untrimmed slice and rho_col.
    """
    if oracle is None:
        oracle = dense_oracle(prepare_data_state(pipe.fm), pipe.constants)
    _, _, ((mean, p1), (variance, p2)) = oracle
    n_rows, n_cols = pipe.fm.design.shape
    twin = copy.copy(pipe)
    twin.mean_state, twin.p1 = mean, p1
    twin.variance_state, twin.p2 = variance, p2
    v, u = pipe.fm.v, pipe.fm.u
    twin.mean_weights = np.diag(v.T @ phase_zero_slice(mean)[:n_cols, :n_rows].real @ u)
    twin.rho_col = qsim.partial_trace(variance, "col")
    twin.variance_weights = np.diag(v.T @ twin.rho_col[:n_cols, :n_cols].real @ v)
    twin.uncompute_leakage_mean = leakage(mean)
    twin.uncompute_leakage_variance = leakage(variance)
    return twin


def assert_matches_dense(pipe: PreparedPipeline, targets, grid, oracle=None) -> None:
    """Slice, rho_col, p1, p2, leakages and grid posterior within 1e-12 of the oracle.

    The slice and rho_col are compared over the padded registers, so the
    oracle's padding and imaginary parts are held to 1e-12 as well.
    """
    dense = dense_twin(pipe, oracle)
    dense_slice = phase_zero_slice(dense.mean_state)
    mean_slice = padded(closed_form_slice(pipe), dense_slice.shape)
    assert np.max(np.abs(mean_slice - dense_slice)) <= TOL
    rho_col = padded(closed_form_rho_col(pipe), dense.rho_col.shape)
    assert np.max(np.abs(rho_col - dense.rho_col)) <= TOL
    for name in ("p1", "p2", "uncompute_leakage_mean", "uncompute_leakage_variance"):
        assert abs(getattr(pipe, name) - getattr(dense, name)) <= TOL, name
    (post, _), (post_dense, _) = pipe.posterior(targets, grid), dense.posterior(targets, grid)
    assert np.max(np.abs(post.mean - post_dense.mean)) <= TOL
    assert np.max(np.abs(post.variance - post_dense.variance)) <= TOL


def assert_encodes_design(sv: qsim.Statevector, fm) -> None:
    """``sv`` holds the zero-padded design.T / frobenius_norm over (col, row), to 1e-12."""
    dims = (sv.register("col").dim, sv.register("row").dim)
    target = padded(fm.design.T / fm.frobenius_norm, dims)
    assert np.max(np.abs(sv.amplitudes.reshape(dims) - target)) <= TOL
