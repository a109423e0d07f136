"""Closed-form predictions for the phase-estimation pipeline.

Everything here is derived analytically from the classical SVD of the design
matrix and the exact phase-estimation bin distribution; no statevector is
ever constructed, so these values are an independent check on the simulated
pipeline. The feature model keeps neither the design nor its left singular
vectors, so ``design_matrix`` and ``left_singular_vectors`` rebuild them from
the fit, and ``direct_svd_fit`` refits it from the design's own thin SVD, the
reference that ``assert_matches_direct_svd`` holds the fit's posteriors to.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qrff.errors import ConfigError, PostSelectionError
from qrff.kernel import _as_points
from qrff.pipeline import PreparedPipeline, default_delta_r
from qrff.rff import RANK_CUTOFF, rff_posterior, scaled_feature_vector


def design_matrix(fm) -> np.ndarray:
    """The fit's scaled design matrix X (N x 2M), rebuilt from its inputs."""
    return scaled_feature_vector(fm.inputs, fm.freq, fm.hyper)


def left_singular_vectors(fm) -> np.ndarray:
    """The fit's U (N x R), rebuilt as X V / s."""
    return design_matrix(fm) @ fm.v / fm.singular_values


def direct_svd_fit(fm):
    """``fm`` refitted from ``np.linalg.svd`` of its design, with U^T y from that U."""
    u, s, vt = np.linalg.svd(design_matrix(fm), full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return dataclasses.replace(
        fm,
        singular_values=s[:rank],
        v=vt[:rank].T,
        projected_targets=u[:, :rank].T @ fm.targets,
    )


def outcome(build):
    """``build()`` and None, or None and the type of the refusal it raised."""
    try:
        return build(), None
    except (ConfigError, PostSelectionError) as exc:
        return None, type(exc)


def assert_matches_direct_svd(fm, grid, tau: int, delta_r: float | None = None) -> None:
    """The fit's rank equals the direct SVD's, and its RFF and exact-mode
    quantum posteriors over ``grid`` are within max(1e-12, kappa eps |ref|) of
    the direct fit's, or both are refused alike: at noise 0 the solve is
    unregularised, so the two SVDs' rounding is scaled by the design's kappa
    (over the kept rank) and by the compared array's largest magnitude |ref|.
    Both pipelines take ``delta_r``, by default ``fm``'s."""
    ref = direct_svd_fit(fm)
    assert fm.rank == ref.rank
    kappa_eps = ref.singular_values[0] / ref.singular_values[-1] * np.finfo(float).eps
    delta_r = default_delta_r(fm) if delta_r is None else delta_r
    for run in (
        lambda f: rff_posterior(f, grid),
        lambda f: PreparedPipeline(f, tau, delta_r).posterior(grid)[0],
    ):
        post, refused = outcome(lambda: run(fm))
        post_ref, refused_ref = outcome(lambda: run(ref))
        assert refused is refused_ref
        if not refused:
            for got, want in ((post.mean, post_ref.mean), (post.variance, post_ref.variance)):
                bound = max(1e-12, kappa_eps * np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= bound


def assert_matches_binned(pipe: PreparedPipeline, grid) -> None:
    """The pipeline's exact-mode posterior over ``grid`` is within 1e-8 of
    ``BinnedPrediction`` at the fit's own noise, targets, ``delta_r`` and ``tau``."""
    fm = pipe.fm
    pred = BinnedPrediction(fm, fm.hyper.noise_std, pipe.delta_r, pipe.tau)
    post, _ = pipe.posterior(grid)
    phis = [scaled_feature_vector(x, fm.freq, fm.hyper) for x in _as_points(grid, fm.freq.shape[1])]
    assert post.mean == pytest.approx([pred.mean(phi, fm.targets) for phi in phis], abs=1e-8)
    assert post.variance == pytest.approx([pred.variance(phi) for phi in phis], abs=1e-8)


def qpe_bin_weights(theta: float, tau: int) -> np.ndarray:
    """Probability of each phase-register value for eigenphase ``theta``.

    Fejer-kernel form: w_b = (sin(pi T d) / (T sin(pi d)))^2 with
    d = theta - b/T and T = 2^tau; a Kronecker delta at exact bins.
    """
    T = 1 << tau
    delta = theta - np.arange(T) / T
    den = T * np.sin(np.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (np.sin(np.pi * T * delta) / den) ** 2
    return np.where(np.abs(np.sin(np.pi * delta)) < 1e-14, 1.0, w)


class BinnedPrediction:
    """Spectral-sum posterior and acceptance probabilities with binned eigenvalues.

    A component whose squared singular value rounds to bin 0 sits where both
    rotation profiles vanish, so the inversion filters it: the bounds c1 and
    c2 are minima over the components in bins >= 1 only, and a filtered
    component, which the mean all but loses, keeps its prior variance
    (phi^T v_k)^2, as the feature-space null space does. Its QPE mass
    smeared into bins >= 1 still enters the sums, as on the circuit.
    """

    def __init__(self, fm, noise_std: float, delta_r: float, tau: int):
        self.fm = fm
        self.tau = tau
        self.delta_r = delta_r
        fro = fm.frobenius_norm
        self.lam_t = np.asarray(fm.singular_values) / fro
        lam_t2 = self.lam_t**2
        self.sigma_t2 = noise_std**2 / fro**2
        self.noise_std = noise_std
        T = 1 << tau
        bins = np.round(lam_t2 / delta_r * T).astype(int)
        self.filtered = bins == 0
        lam_hat2 = bins[~self.filtered] * delta_r / T
        self.c1 = float(np.min(lam_hat2 + self.sigma_t2))
        self.c2 = float(np.min(np.sqrt(lam_hat2 * (lam_hat2 + self.sigma_t2))))
        grid = np.arange(T) * delta_r / T
        with np.errstate(divide="ignore"):
            prof1 = np.minimum(1.0, self.c1 / (grid + self.sigma_t2))
            prof2 = np.minimum(1.0, self.c2 / np.sqrt(grid * (grid + self.sigma_t2)))
        prof1[0] = prof2[0] = 0.0
        self.weights = np.array([qpe_bin_weights(t2 / delta_r, tau) for t2 in lam_t2])
        self.mean_factor = self.weights @ prof1          # E[f1] per component
        self.mean_factor_sq = self.weights @ prof1**2    # E[f1^2]
        self.var_factor_sq = self.weights @ prof2**2     # E[f2^2]

    def p1(self) -> float:
        return float(np.sum(self.lam_t**2 * self.mean_factor_sq))

    def p2(self) -> float:
        return float(np.sum(self.lam_t**2 * self.var_factor_sq))

    def mean(self, phi_star: np.ndarray, y: np.ndarray) -> float:
        pv = self.fm.v.T @ phi_star
        uy = left_singular_vectors(self.fm).T @ np.asarray(y, dtype=float)
        return float(
            np.sum(self.lam_t * self.mean_factor * pv * uy)
            / (self.c1 * self.fm.frobenius_norm)
        )

    def variance(self, phi_star: np.ndarray) -> float:
        pv = self.fm.v.T @ phi_star
        spectral = (
            self.noise_std**2
            / (self.c2**2 * self.fm.frobenius_norm**2)
            * np.sum(self.lam_t**2 * self.var_factor_sq * pv**2)
        )
        null_sq = max(float(phi_star @ phi_star - pv @ pv), 0.0)
        null_sq += float(pv[self.filtered] @ pv[self.filtered])
        return float(spectral + null_sq)

    def modal_bins(self) -> np.ndarray:
        return np.round(self.lam_t**2 / self.delta_r * (1 << self.tau)).astype(int)
