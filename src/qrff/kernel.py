"""Exact Gaussian process regression with the squared-exponential kernel.

This module is the ground truth for everything else in the package: the
kernel and the dense GP posterior computed through a blocked Cholesky
factorization in numpy alone. Inputs may live in any dimension even though
the bundled experiment is one-dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import CapacityError, ConfigError

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

    Each value's square must be a finite double, and a positive one for
    ``signal_std`` and ``length_scale``.
    """

    signal_std: float
    length_scale: float
    noise_std: float

    def __post_init__(self):
        for name in ("signal_std", "length_scale"):
            value = getattr(self, name)
            if not (value > 0 and 0 < value * value < np.inf):
                raise ConfigError(
                    f"{name} must be positive with a positive finite square, got {value}"
                )
        if not (self.noise_std >= 0 and self.noise_std * self.noise_std < np.inf):
            raise ConfigError(
                f"noise_std must be nonnegative with a finite square, got {self.noise_std}"
            )


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
            raise ConfigError(
                f"inputs ({inputs.shape[0]}) and targets ({targets.shape[0]}) disagree in length"
            )
        if inputs.shape[0] < 1:
            raise ConfigError("dataset must contain at least one point")
        if not np.isfinite(inputs).all() or not np.isfinite(targets).all():
            raise ConfigError("dataset contains non-finite values")
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


def _as_points(xs, dim: int, name: str = "xs") -> np.ndarray:
    """Query grid as a (G, dim) array; a flat input lists the points one after another."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim > 2 or pts.size == 0 or pts.size % dim or pts.ndim == 2 and pts.shape[1] != dim:
        raise ConfigError(f"{name} of shape {pts.shape} is not a grid of {dim}-d points")
    if not np.isfinite(pts).all():
        raise ConfigError(f"{name} contains non-finite values")
    return pts.reshape(-1, dim)


def _cross_kernel(a: np.ndarray, b: np.ndarray, h: KernelHyper, out=None) -> np.ndarray:
    """Kernel values between two point sets of shapes (A, d) and (B, d), shape (A, B).

    Built in place in the (A, B) result, ``out`` when given (for d = 1 no
    other (A, B) array). Between a point set and itself the result is exactly
    symmetric: a_i - a_j is exactly -(a_j - a_i).
    """
    with np.errstate(over="ignore"):  # an overflow here gives exp(-inf) = 0
        K = np.subtract.outer(a[:, 0], b[:, 0], out=out)
        np.square(K, out=K)
        for j in range(1, a.shape[1]):
            K += np.subtract.outer(a[:, j], b[:, j]) ** 2
        K *= -0.5
        K /= h.length_scale**2
    np.exp(K, out=K)
    K *= h.signal_std**2
    return K


def _forward_solve_spd(
    inputs: np.ndarray, queries: np.ndarray, targets: np.ndarray, h: KernelHyper
) -> np.ndarray:
    """[Z*^T; z_y^T] for [Z*, z_y] = L^-1 [K*, y], where L L^T = K + noise, shape (G + 1, N).

    A left-looking blocked Cholesky (Golub & Van Loan, *Matrix Computations*,
    section 4.2) in one (N + G + 1) x N array whose rows stand for inputs,
    queries and targets: its first N rows end as L, on and below the diagonal
    blocks only, and its last G + 1 as the answer. The Cholesky factor of [[K + noise, K*, y], [K*^T, ., .],
    [y^T, ., .]] has Z*^T and z_y^T as its lower-left block, so the block
    steps that factor K + noise carry the forward solve in the same matmuls.
    Block column k is built from one ``_cross_kernel`` call between rows k:
    of [inputs; queries] and inputs k:e (the Gram column on and below the
    diagonal, then the K* rows) above the targets' slice, less one matmul
    against the columns already factored, and scaled by the inverse of its
    diagonal block's Cholesky factor. A non-positive-definite diagonal block
    raises ``LinAlgError``; the one retry adds a logged diagonal jitter, and a
    second failure raises ``ConfigError``.
    """
    n = inputs.shape[0]
    rows = np.vstack([inputs, queries])

    def factor(jitter: float) -> np.ndarray:
        L = np.empty((rows.shape[0] + 1, n))
        for k in range(0, n, BLOCK):
            e = min(k + BLOCK, n)
            panel = np.empty((L.shape[0] - k, e - k))
            _cross_kernel(rows[k:], inputs[k:e], h, out=panel[:-1])
            panel[-1] = targets[k:e]
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
        # imported here, not at the top: after numpy, importing logging (with
        # string and traceback) costs every run 3-8 ms for this one warning
        import logging

        jitter = 1e-10 * h.signal_std**2
        logging.getLogger(__name__).warning(
            "Cholesky of (K + noise) failed; retrying with diagonal jitter %.3e", jitter
        )
        try:
            return factor(jitter)
        except np.linalg.LinAlgError as exc:
            raise ConfigError(
                "kernel system is singular even after jitter; "
                "duplicate inputs with zero noise_std?"
            ) from exc


def exact_posterior(ds: Dataset, h: KernelHyper, xs) -> Posterior:
    """Dense GP posterior over the query grid ``xs`` (see ``_as_points``).

    mean = K*^T (K + noise_std^2 I)^{-1} y
    variance = k(x*, x*) - diag(K*^T (K + noise_std^2 I)^{-1} K*)

    With L L^T = K + noise_std^2 I and [Z*, z_y] = L^-1 [K*, y], mean =
    Z*^T z_y and variance = k(x*, x*) - ||Z*||^2 per query: one forward
    solve, no back-substitution, in one (N + G + 1) x N array of doubles (see
    ``_forward_solve_spd``). Raises ``CapacityError`` before allocating when
    the N x N Gram matrix would take more bytes than one statevector at the
    qubit cap, 16 * 2^errors.MAX_QUBITS; that check counts only the N^2
    part of the array, not its G + 1 right-hand-side rows.
    """
    gram_bytes, cap_bytes = 8 * ds.n_points**2, 16 << errors.MAX_QUBITS
    if gram_bytes > cap_bytes:
        raise CapacityError(
            f"the exact baseline's {ds.n_points} x {ds.n_points} Gram matrix takes "
            f"{gram_bytes} bytes, more than a {errors.MAX_QUBITS}-qubit state ({cap_bytes})"
        )
    z = _forward_solve_spd(ds.inputs, _as_points(xs, ds.dim), ds.targets, h)
    z_star, z_y = z[:-1], z[-1]
    mean = z_star @ z_y
    variance = h.signal_std**2 - np.einsum("gn,gn->g", z_star, z_star)
    # numerical round-off can leave a tiny negative residue
    return Posterior(mean=mean, variance=np.maximum(variance, 0.0))
