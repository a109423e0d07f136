"""Pointwise reference forms of the squared-exponential kernel and its spectrum,
and a reference GP solve.

The package evaluates the kernel only in bulk (``kernel._cross_kernel``) and
never needs its spectral density; these one-point forms are what the tests
check the bulk code, the random features and the exact baseline against.
``solve_reference`` is the posterior by ``np.linalg.solve``, independent of
both of the exact baseline's solves.
"""

from __future__ import annotations

import numpy as np

from qrff.kernel import KernelHyper


def _as_point(x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


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


def solve_reference(x, y, xs, h: KernelHyper):
    """Mean and variance by ``np.linalg.solve`` on the dense noisy Gram matrix,
    for (N, d) inputs ``x``, targets ``y`` and (G, d) queries ``xs``."""

    def gram(a, b):
        sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return h.signal_std**2 * np.exp(-0.5 * sq / h.length_scale**2)

    k_star = gram(x, xs)
    alpha = np.linalg.solve(
        gram(x, x) + h.noise_std**2 * np.eye(len(x)), np.column_stack([y, k_star])
    )
    return k_star.T @ alpha[:, 0], h.signal_std**2 - np.sum(k_star * alpha[:, 1:], axis=0)
