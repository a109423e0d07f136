"""Pointwise reference forms of the squared-exponential kernel and its spectrum.

The package evaluates the kernel only in bulk (``kernel._cross_kernel``) and
never needs its spectral density; these one-point forms are what the tests
check the bulk code, the random features and the exact baseline against.
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
