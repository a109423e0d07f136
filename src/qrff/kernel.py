"""Exact Gaussian process regression with the squared-exponential kernel.

This module is the ground truth for everything else in the package: the
kernel, its spectral density, and the dense GP posterior computed through a
blocked Cholesky factorization in numpy alone. Inputs may live in any
dimension even though the bundled experiment is one-dimensional.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import qsim
from .errors import CapacityError

logger = logging.getLogger(__name__)

#: Column-block width of the exact baseline's Cholesky factorization. Each
#: block pays one numpy ``cholesky`` and one ``inv`` of a BLOCK x BLOCK matrix;
#: the rest of its work is matmuls. Measured with one OpenBLAS thread on a
#: 2-core x86-64 machine, 32 matches LAPACK's ``potrf`` plus triangular solves
#: at N=512 and beats them at N=1024; 64 is slower at N=512, where ``inv`` of a
#: 64 x 64 block takes 0.11-0.18 ms.
BLOCK = 32


@dataclass(frozen=True)
class KernelHyper:
    """Hyperparameters of the squared-exponential kernel plus observation noise.

    Attributes
    ----------
    signal_std : float
        Amplitude of the kernel; the prior standard deviation of the latent
        function. Must be positive.
    length_scale : float
        Length scale of the kernel. Must be positive.
    noise_std : float
        Standard deviation of the additive observation noise. Nonnegative.
    """

    signal_std: float
    length_scale: float
    noise_std: float

    def __post_init__(self):
        if not (np.isfinite(self.signal_std) and self.signal_std > 0):
            raise ValueError(f"signal_std must be positive, got {self.signal_std}")
        if not (np.isfinite(self.length_scale) and self.length_scale > 0):
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")


@dataclass(frozen=True)
class Dataset:
    """Observed inputs and noisy targets.

    ``inputs`` has shape (N, d) and ``targets`` shape (N,); both must be
    finite and of matching length.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float).ravel()
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"inputs ({inputs.shape[0]}) and targets ({targets.shape[0]}) disagree in length"
            )
        if inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if not np.isfinite(inputs).all() or not np.isfinite(targets).all():
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n_points(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class Posterior:
    """Predictive means and variances over a query grid, each of shape (G,)."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.variance) < 0):
            raise ValueError(f"negative posterior variance {np.min(self.variance)}")


def _as_point(x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


def _as_points(xs, dim: int, name: str = "xs") -> np.ndarray:
    """Query grid as a (G, dim) array; a flat input lists the points one after another."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim > 2 or pts.size == 0 or pts.size % dim or pts.ndim == 2 and pts.shape[1] != dim:
        raise ValueError(f"{name} of shape {pts.shape} is not a grid of {dim}-d points")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite values")
    return pts.reshape(-1, dim)


def rbf_kernel(xi, xj, h: KernelHyper) -> float:
    """Squared-exponential kernel value between two points.

    Returns ``signal_std**2 * exp(-||xi - xj||^2 / (2 * length_scale**2))``;
    symmetric in its arguments and bounded by ``signal_std**2``.
    """
    xi = _as_point(xi, "xi")
    xj = _as_point(xj, "xj")
    if xi.shape != xj.shape:
        raise ValueError(f"point dimensions disagree: {xi.shape} vs {xj.shape}")
    sq = float(np.sum((xi - xj) ** 2))
    return h.signal_std**2 * float(np.exp(-0.5 * sq / h.length_scale**2))


def _cross_kernel(a: np.ndarray, b: np.ndarray, h: KernelHyper, out=None) -> np.ndarray:
    """Kernel values between two point sets of shapes (A, d) and (B, d), shape (A, B).

    Built in place in the (A, B) result, ``out`` when given (for d = 1 no
    other (A, B) array). Between a point set and itself the result is exactly
    symmetric: a_i - a_j is exactly -(a_j - a_i).
    """
    K = np.subtract.outer(a[:, 0], b[:, 0], out=out)
    np.square(K, out=K)
    for j in range(1, a.shape[1]):
        K += np.subtract.outer(a[:, j], b[:, j]) ** 2
    K *= -0.5
    K /= h.length_scale**2
    np.exp(K, out=K)
    K *= h.signal_std**2
    return K


def gram_matrix(points, h: KernelHyper) -> np.ndarray:
    """Kernel matrix over a set of points, shape (N, N).

    Symmetric with ``signal_std**2`` on the diagonal; positive semi-definite
    up to numerical tolerance.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite values")
    return _cross_kernel(pts, pts, h)


def spectral_density(omega, h: KernelHyper) -> float:
    """Spectral density of the squared-exponential kernel at angular frequency ``omega``.

    Normalized so that integrating against ``(2*pi)**-d * domega`` recovers
    the kernel at lag zero, i.e. ``signal_std**2``.
    """
    w = _as_point(omega, "omega")
    d = w.size
    l2 = h.length_scale**2
    return (
        h.signal_std**2
        * float((2.0 * np.pi * l2) ** (d / 2.0))
        * float(np.exp(-0.5 * l2 * np.sum(w**2)))
    )


def _forward_solve_spd(points: np.ndarray, h: KernelHyper, rhs_rows: np.ndarray) -> np.ndarray:
    """Z^T for Z = L^-1 R, where L L^T = K + noise and R^T = ``rhs_rows``, shape (R, N).

    A left-looking blocked Cholesky (Golub & Van Loan, *Matrix Computations*,
    section 4.2) in one (N + R) x N array: its first N rows take L, on and
    below the diagonal blocks only, and its last R rows start as R^T. The
    Cholesky factor of [[K + noise, R], [R^T, .]] has Z^T as its lower-left
    block, so the block steps that factor K + noise carry the forward solve
    in the same matmuls. Block column k is built from the kernel on and below
    the diagonal, less one matmul against the columns already factored, and
    scaled by the inverse of its diagonal block's Cholesky factor. A
    non-positive-definite diagonal block raises ``LinAlgError``; the one
    retry adds a logged diagonal jitter.
    """
    n = points.shape[0]

    def factor(jitter: float) -> np.ndarray:
        L = np.empty((n + rhs_rows.shape[0], n))
        L[n:] = rhs_rows
        for k in range(0, n, BLOCK):
            e = min(k + BLOCK, n)
            panel = np.empty((L.shape[0] - k, e - k))
            _cross_kernel(points[k:], points[k:e], h, out=panel[: n - k])
            panel[n - k :] = L[n:, k:e]
            # flat indexing writes through whatever the memory layout
            panel[: e - k].flat[:: e - k + 1] += h.noise_std**2 + jitter
            if k:
                panel -= L[k:, :k] @ L[k:e, :k].T
            inverse = np.linalg.inv(np.linalg.cholesky(panel[: e - k]))
            np.matmul(panel, inverse.T, out=L[k:, k:e])
        return L[n:]

    try:
        return factor(0.0)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * h.signal_std**2
        logger.warning(
            "Cholesky of (K + noise) failed; retrying with diagonal jitter %.3e", jitter
        )
        try:
            return factor(jitter)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "kernel system is singular even after jitter; "
                "duplicate inputs with zero noise_std?"
            ) from exc


def exact_posterior(ds: Dataset, h: KernelHyper, xs) -> Posterior:
    """Dense GP posterior over the query grid ``xs`` (see ``_as_points``).

    mean = K*^T (K + noise_std^2 I)^{-1} y
    variance = k(x*, x*) - diag(K*^T (K + noise_std^2 I)^{-1} K*)

    With L L^T = K + noise_std^2 I and Z = L^-1 [y, K*], mean = Z*^T z_y and
    variance = k(x*, x*) - ||Z*||^2 per query: one forward solve, no
    back-substitution. Raises ``CapacityError`` before allocating when the
    N x N Gram matrix would take more bytes than one statevector at the
    simulator cap, 16 * 2^qsim.MAX_QUBITS.
    """
    gram_bytes, cap_bytes = 8 * ds.n_points**2, 16 << qsim.MAX_QUBITS
    if gram_bytes > cap_bytes:
        raise CapacityError(
            f"the exact baseline's {ds.n_points} x {ds.n_points} Gram matrix takes "
            f"{gram_bytes} bytes, more than a {qsim.MAX_QUBITS}-qubit state ({cap_bytes})"
        )
    pts = _as_points(xs, ds.dim)
    rhs_rows = np.vstack([ds.targets, _cross_kernel(pts, ds.inputs, h)])
    z = _forward_solve_spd(ds.inputs, h, rhs_rows)
    mean = z[1:] @ z[0]
    variance = h.signal_std**2 - np.einsum("gn,gn->g", z[1:], z[1:])
    # numerical round-off can leave a tiny negative residue
    return Posterior(mean=mean, variance=np.maximum(variance, 0.0))
