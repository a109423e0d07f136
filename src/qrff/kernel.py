"""Exact Gaussian process regression with the squared-exponential kernel.

This module is the ground truth for everything else in the package: the
kernel and the GP posterior, in numpy alone. Inputs may live in any dimension
even though the bundled experiment is one-dimensional.

The posterior has two solves, each one function, over the N inputs stacked
above the G queries. ``_low_rank_posterior`` runs a pivoted Cholesky of the
noise-free kernel, one kernel row per pivot, to the rounding floor of one
kernel entry, and solves in the r pivots' weight space in O((N + G) r^2).
``_dense_posterior`` runs one blocked Cholesky in O(N^2 (N + G)).
``exact_posterior`` tries the first and states when the second answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_bytes

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


def _as_points(xs, dim: int) -> np.ndarray:
    """Query grid as a (G, dim) array; a flat input lists the points one after another."""
    pts = np.asarray(xs, dtype=float)
    if pts.ndim > 2 or pts.size == 0 or pts.size % dim or pts.ndim == 2 and pts.shape[1] != dim:
        raise ConfigError(f"xs of shape {pts.shape} is not a grid of {dim}-d points")
    if not np.isfinite(pts).all():
        raise ConfigError("xs contains non-finite values")
    return pts.reshape(-1, dim)


def _cross_kernel(a: np.ndarray, b: np.ndarray, h: KernelHyper, out=None) -> np.ndarray:
    """Kernel values between two point sets of shapes (A, d) and (B, d), shape (A, B).

    Built in place in the (A, B) result, ``out`` when given (for d = 1 no
    other (A, B) array). Between a point set and itself the result is exactly
    symmetric: a_i - a_j is exactly -(a_j - a_i). Callers hold
    ``np.errstate(over="ignore")``, under which an overflowing squared
    distance gives exp(-inf) = 0. Entering that context here, once per pivot
    row, made the low-rank solve 5-8% slower (N = 512-2048, one BLAS
    thread, 2-core x86-64).
    """
    K = np.subtract(a[:, :1], b[:, 0], out=out)
    np.square(K, out=K)
    for j in range(1, a.shape[1]):
        K += (a[:, j : j + 1] - b[:, j]) ** 2
    K *= -0.5
    K /= h.length_scale**2
    np.exp(K, out=K)
    K *= h.signal_std**2
    return K


def _dense_posterior(points: np.ndarray, targets: np.ndarray, h: KernelHyper) -> Posterior:
    """The posterior by one blocked Cholesky: mean = Z*^T z_y, variance = s^2 - ||Z*||^2.

    ``points`` holds the N = ``targets.size`` inputs, then the G queries.
    [Z*, z_y] = L^-1 [K*, y], where L L^T = K + noise. A left-looking
    blocked Cholesky (Golub & Van Loan, *Matrix Computations*, section 4.2)
    in one (N + G + 1) x N array, checked by ``errors.check_bytes`` before
    it is allocated, whose rows stand for the points and targets: its
    first N rows end as L, on and below the diagonal blocks only, and its
    last G + 1 as [Z*^T; z_y^T]. The Cholesky factor of
    [[K + noise, K*, y], [K*^T, ., .], [y^T, ., .]] has Z*^T and z_y^T as its
    lower-left block, so the block steps that factor K + noise carry the
    forward solve in the same matmuls. Block column k is built from one
    ``_cross_kernel`` call between points k: and inputs k:e (the Gram
    column on and below the diagonal, then the K* rows) above the targets'
    slice, less one matmul against the columns already factored, and scaled
    by the inverse of its diagonal block's Cholesky factor. A
    non-positive-definite diagonal block raises ``LinAlgError``; the one
    retry adds a logged diagonal jitter, and a second failure raises
    ``ConfigError``.
    """
    n = targets.size
    check_bytes(f"the exact baseline's dense factor at N = {n}", 8 * n * (len(points) + 1))

    def factor(jitter: float) -> np.ndarray:
        L = np.empty((len(points) + 1, n))
        for k in range(0, n, BLOCK):
            e = min(k + BLOCK, n)
            panel = np.empty((L.shape[0] - k, e - k))
            with np.errstate(over="ignore"):  # as _cross_kernel requires
                _cross_kernel(points[k:], points[k:e], h, out=panel[:-1])
            panel[-1] = targets[k:e]
            # flat indexing writes through whatever the memory layout
            panel[: e - k].flat[:: e - k + 1] += h.noise_std**2 + jitter
            if k:
                panel -= L[k:, :k] @ L[k:e, :k].T
            inverse = np.linalg.inv(np.linalg.cholesky(panel[: e - k]))
            np.matmul(panel, inverse.T, out=L[k:, k:e])
        return L[n:]

    try:
        z = factor(0.0)
    except np.linalg.LinAlgError:
        # imported here, not at the top: after numpy, importing logging (with
        # string and traceback) costs every run 3-8 ms for this one warning
        import logging

        jitter = 1e-10 * h.signal_std**2
        logging.getLogger(__name__).warning(
            "Cholesky of (K + noise) failed; retrying with diagonal jitter %.3e", jitter
        )
        try:
            z = factor(jitter)
        except np.linalg.LinAlgError as exc:
            raise ConfigError(
                "kernel system is singular even after jitter; "
                "duplicate inputs with zero noise_std?"
            ) from exc
    z_star, z_y = z[:-1], z[-1]
    variance = h.signal_std**2 - np.einsum("gn,gn->g", z_star, z_star)
    # numerical round-off can leave a tiny negative residue
    return Posterior(mean=z_star @ z_y, variance=np.maximum(variance, 0.0))


def _pivot_cap(n: int, g: int) -> int:
    """Most pivots the low-rank solve tries, priced at 10% of the dense solve's cost.

    The dense solve's matmuls take n^2 (n / 3 + g) / 2 multiply-adds for n
    inputs and g queries; r pivot steps take (n + g) r^2 / 2 in matrix-vector
    products, at about 5 times the cost per multiply-add with the kernel row
    and vector passes (one BLAS thread, 2-core x86-64). Each step's fixed
    ~15 numpy calls (20-25 us) are left out: a failed try added 4-10% to the
    dense solve's time at n = 1024 and 2048 (g = 64) but 10-18% at n = 512.
    A per-step term would send n = 512, g = 2, the benchmark's ``wide_n512``
    (40 pivots of a cap of 41), to the dense solve.
    """
    return math.isqrt(n * n * (n + 3 * g) // (150 * (n + g)))


def _low_rank_posterior(
    points: np.ndarray, targets: np.ndarray, h: KernelHyper, cap: int
) -> Posterior | None:
    """The posterior from at most ``cap`` pivots of a pivoted Cholesky, or None.

    ``points`` holds the N = ``targets.size`` inputs, then the G queries. A
    greedy pivoted Cholesky of the noise-free kernel over these P points
    (Harbrecht, Peters & Schneider, *Appl. Numer. Math.* 62, 2012) builds a
    factor F of shape (r, P) with K ~ F^T F: step j pivots on the largest
    residual diagonal of K - F^T F, and F's row j is the pivot's kernel row
    less a (j x P) matrix-vector product, scaled by the pivot's root. It
    stops once every residual is at most eps * signal_std^2. The residual
    kernel is positive semi-definite, so none of its entries is then larger
    than the rounding error of evaluating one kernel entry.

    F's columns are the training rows Phi (N x r) and the query rows Phi*
    (G x r). With C = Phi^T Phi + noise_std^2 I_r = R R^T (the weight-space
    form of Foster et al., *JMLR* 10, 2009):

    mean = Phi* C^-1 Phi^T y = (R^-1 Phi*^T)^T (R^-1 Phi^T y)
    variance = d* + noise_std^2 ||R^-1 phi*^T||^2

    where d* is each query's residual diagonal, so the variance has no
    s^2 - (...) cancellation. One row loop forward-substitutes R^-1 Phi^T y
    and, over F's query columns, R^-1 Phi*^T, so the path holds one
    cap x (N + G) array. None when the pivots reach ``cap``, or when C's
    Cholesky fails or a step overflows.
    """
    n = targets.size
    try:
        # an overflow anywhere here (at extreme scales) leaves the answer to
        # the dense solve
        with np.errstate(all="raise", under="ignore"):
            floor = np.finfo(float).eps * h.signal_std**2
            factor = np.empty((cap, len(points)))
            residual = np.full(len(points), h.signal_std**2)
            with np.errstate(over="ignore"):  # as _cross_kernel requires
                for r in range(cap + 1):
                    p = residual.argmax()
                    pivot = residual[p]
                    if pivot <= floor:
                        break
                    if r == cap:
                        return None
                    row = _cross_kernel(points[p : p + 1], points, h, out=factor[r : r + 1])[0]
                    row -= factor[:r, p] @ factor[:r]
                    row /= math.sqrt(pivot)
                    residual -= row * row
                    residual[p] = 0.0
            phi, z_star = factor[:r, :n], factor[:r, n:]
            system = phi @ phi.T
            system.flat[:: r + 1] += h.noise_std**2
            lower = np.linalg.cholesky(system)
            z_y = phi @ targets
            for i in range(r):
                z_y[i] -= lower[i, :i] @ z_y[:i]
                z_y[i] /= lower[i, i]
                z_star[i] -= lower[i, :i] @ z_star[:i]
                z_star[i] /= lower[i, i]
            mean = z_star.T @ z_y
            # the residual's round-off can leave a tiny negative entry
            variance = np.maximum(residual[n:], 0.0)
            variance += h.noise_std**2 * np.einsum("rg,rg->g", z_star, z_star)
    except (FloatingPointError, np.linalg.LinAlgError):
        return None
    return Posterior(mean=mean, variance=variance)


def exact_posterior(ds: Dataset, h: KernelHyper, xs) -> Posterior:
    """GP posterior over the query grid ``xs`` (see ``_as_points``).

    mean = K*^T (K + noise_std^2 I)^{-1} y
    variance = k(x*, x*) - diag(K*^T (K + noise_std^2 I)^{-1} K*)

    Both solves take the inputs stacked above the queries. First the
    low-rank solve, ``_low_rank_posterior``, in O((N + G) r^2) for r
    pivots, stopped once every residual diagonal is at most
    eps * signal_std^2, the rounding error of one kernel entry: its answer
    is the exact posterior of a kernel matrix within rounding of the one
    the dense solve factors, a backward error no larger than the dense
    solve's own. On the CLI's 1-D inputs with G from 2 to 64, r is 37-48
    for N from 512 to 4096: 40 of a cap of 41 at N = 512, G = 2, one pivot
    short of the dense fallback, and 44 of 88 at N = 1024, G = 64. At
    N = 256 the pivots reach the cap of 21-24 first and the dense solve
    answers.

    The dense solve (``_dense_posterior``) answers instead, with exactly
    its own arrays, when N <= BLOCK, when noise_std is 0 (its jitter retry
    handles a singular K), when the pivots reach ``_pivot_cap`` first, which
    bounds what a failed try costs to 4-18% of the dense solve, or when
    the weight-space Cholesky fails or a low-rank step overflows.

    Refuses, before allocating, an N x N Gram matrix over
    ``errors.check_bytes``' cap. The G + 1 right-hand-side rows of the dense
    solve's array are counted only when that solve runs: counted here, they
    would refuse runs that the low-rank solve answers.
    """
    check_bytes(f"the exact baseline's Gram matrix at N = {ds.n_points}", 8 * ds.n_points**2)
    queries = _as_points(xs, ds.dim)
    points = np.vstack([ds.inputs, queries])
    if ds.n_points > BLOCK and h.noise_std > 0:
        cap = _pivot_cap(ds.n_points, len(queries))
        post = _low_rank_posterior(points, ds.targets, h, cap)
        if post is not None:
            return post
    return _dense_posterior(points, ds.targets, h)
