"""Random Fourier feature approximation of the squared-exponential kernel.

Frequencies are sampled from the kernel's normalized spectrum, features are
interleaved cos/sin pairs evaluated at ``2*pi*s.x``, and the scaled design
matrix X carries the ``signal_std**2 / M`` kernel prefactor so that
``X^T X`` approximates the Gram matrix directly. ``FeatureModel`` is the
fit: X's singular values and right singular vectors and the projected
targets U^T y, all from the R factor of one QR of [X y] (Golub & Van Loan,
*Matrix Computations*, section 5.3), but neither X nor U. Its reduced-rank
posterior is evaluated in SVD form and is the classical twin of the
quantum pipeline. Both take the variance's null-space term as a sum of
squares, the query features' residual after projection onto V's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_bytes
from .kernel import Dataset, KernelHyper, Posterior, _as_points

#: singular values below this fraction of the largest are dropped from the rank
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class FeatureModel:
    """The reduced-rank fit: the rank-truncated SVD of the scaled design, without its U.

    The design X (N x 2M) has rows ``sqrt(signal_std**2 / M) *
    feature_map(x_i)``, columns alternating cos/sin per frequency, and
    X = U diag(singular_values) V^T with ``v`` of shape (2M, R).
    ``projected_targets`` is U^T y, length R, for the fit's ``targets`` y.
    Every posterior of the fit reads its ``hyper`` and ``targets`` from
    here; code that needs X rebuilds it as ``scaled_feature_vector(inputs,
    freq, hyper)``, and U as X V / singular_values.
    """

    freq: np.ndarray
    hyper: KernelHyper
    inputs: np.ndarray
    targets: np.ndarray
    frobenius_norm: float
    singular_values: np.ndarray
    v: np.ndarray
    projected_targets: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.size

    @property
    def normalized_singular_values(self) -> np.ndarray:
        """Singular values of design / frobenius_norm; their squares sum to <= 1."""
        return self.singular_values / self.frobenius_norm


def _as_frequencies(freq) -> np.ndarray:
    """Spectral frequencies as an (M, d) float array; a flat input is one frequency."""
    freq = np.atleast_2d(np.asarray(freq, dtype=float))
    if freq.shape[0] < 1:
        raise ConfigError("need at least one frequency")
    if not np.isfinite(freq).all():
        raise ConfigError("frequencies contain non-finite values")
    return freq


def sample_frequencies(M: int, h: KernelHyper, d: int, seed: int) -> np.ndarray:
    """Draw M i.i.d. frequencies, an (M, d) array, from the normalized kernel spectrum.

    In the ``2*pi*s.x`` feature convention each coordinate is
    Normal(0, (1 / (2*pi*length_scale))**2). Deterministic given the seed.
    """
    if M < 1:
        raise ConfigError(f"M must be >= 1, got {M}")
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / (2.0 * np.pi * h.length_scale)
    return rng.normal(0.0, scale, size=(M, d))


def feature_map(x, freq) -> np.ndarray:
    """Unscaled features (cos, sin interleaved), norm sqrt(M) per point.

    A single point of shape (d,) gives a vector of length 2M; a grid of shape
    (G, d) gives one row per point, shape (G, 2M), for frequencies ``freq``
    of shape (M, d). Refuses (ConfigError) a phase 2*pi*x.s that overflows.
    """
    freq = _as_frequencies(freq)
    m, d = freq.shape
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.ndim > 2 or xv.shape[-1] != d:
        raise ConfigError(f"point shape {xv.shape} does not match frequency dimension {d}")
    if not np.isfinite(xv).all():
        raise ConfigError("x contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        phase = 2.0 * np.pi * (xv @ freq.T)
    if not np.isfinite(phase).all():
        raise ConfigError("the feature phase 2*pi*x.s overflows a double; x or freq is too large")
    out = np.empty(phase.shape[:-1] + (2 * m,))
    out[..., 0::2] = np.cos(phase)
    out[..., 1::2] = np.sin(phase)
    return out


def scaled_feature_vector(x, freq, h: KernelHyper) -> np.ndarray:
    """Features carrying the kernel prefactor: sqrt(signal_std**2 / M) * phi(x)."""
    phi = feature_map(x, freq)
    return np.sqrt(h.signal_std**2 / (phi.shape[-1] // 2)) * phi


def build_feature_model(ds: Dataset, freq, h: KernelHyper) -> FeatureModel:
    """Fit ``ds`` at ``h``: the rank-truncated SVD of the scaled design X and U^T y.

    ``freq`` holds the M frequencies as an (M, d) array; a flat list is one
    frequency. One R-only QR of [X y] gives R = [R_X r_y] with at most 2M + 1
    rows; the SVD R_X = U_R diag(s) V^T gives X's s and V, and U^T y =
    U_R^T r_y, so neither Q nor U is formed. The fit keeps ``h``,
    ``ds.inputs`` and ``ds.targets`` themselves, not copies. Refuses
    (CapacityError) an N x (2M + 1) [X y] over ``errors.byte_cap`` before X
    is built, and (ConfigError) a design whose Frobenius norm has no
    positive finite square, and targets so large that U^T y is not finite.
    """
    freq = _as_frequencies(freq)
    if ds.dim != freq.shape[1]:
        raise ConfigError(f"dataset dimension {ds.dim} != frequency dimension {freq.shape[1]}")
    n, m = ds.n_points, freq.shape[0]
    check_bytes(f"the fit's stacked [X y] at N = {n}, M = {m}", 8 * n * (2 * m + 1))
    X = scaled_feature_vector(ds.inputs, freq, h)
    with np.errstate(over="ignore"):  # an overflowing sum of squares gives inf, refused below
        fro = float(np.linalg.norm(X))
    # it underflows to 0 for signal_std near 2.3e-162, overflows from ~1.34e154 / sqrt(N)
    if not 0.0 < fro * fro < np.inf:
        raise ConfigError(
            f"the design's Frobenius norm {fro} has no positive finite square; "
            "signal_std is too small or too large for this dataset"
        )
    stacked = np.column_stack([X, ds.targets])
    del X  # np.linalg.qr copies its input, so X alive would make a third N x 2M array
    r = np.linalg.qr(stacked, mode="r")
    u_r, s, vt = np.linalg.svd(r[:, :-1], full_matrices=False)
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    # targets near the double range give U^T y entries of inf or nan, refused here
    with np.errstate(over="ignore", invalid="ignore"):
        projected = u_r[:, :rank].T @ r[:, -1]
    if not np.isfinite(projected).all():
        raise ConfigError("the projected targets U^T y are not finite; the targets are too large")
    return FeatureModel(
        freq=freq,
        hyper=h,
        inputs=ds.inputs,
        targets=ds.targets,
        frobenius_norm=fro,
        singular_values=s[:rank],
        v=vt[:rank].T,
        projected_targets=projected,
    )


def spectral_sums(fm: FeatureModel, phi: np.ndarray, a, b, kept=slice(None)):
    """The SVD spectral sums both posteriors read, one entry per row of ``phi``.

    Returns sum_k a_k (phi^T v_k) (u_k^T y), with u_k^T y read from the fit's
    ``projected_targets``, sum_k b_k (phi^T v_k)^2 and the null-space term
    ||phi - V_kept V_kept^T phi||^2, phi's squared residual outside the span
    of V's ``kept`` columns (all by default), for per-component coefficients
    ``a`` and ``b`` of length ``fm.rank`` in design units; the caller
    multiplies the variance sum by noise^2, leaving ``b`` finite at noise 0.
    """
    pv = phi @ fm.v
    residual = phi - pv[:, kept] @ fm.v[:, kept].T
    return pv @ (a * fm.projected_targets), pv**2 @ b, np.einsum("gk,gk->g", residual, residual)


def rff_posterior(fm: FeatureModel, xs) -> Posterior:
    """The fit's reduced-rank posterior over the query grid ``xs`` via the spectral sum.

    mean      = sum_r lam_r / (lam_r^2 + noise^2) * (phi*^T v_r) (u_r^T y)
    variance  = noise^2 * sum_r (phi*^T v_r)^2 / (lam_r^2 + noise^2)
                + ||phi* - V V^T phi*||^2

    The trailing term, phi*'s squared residual outside span(V), makes the
    result match the direct weight-space solve of (X^T X + noise^2 I). The
    targets y and the noise come from the fit. Refuses (ConfigError) a mean
    or variance that is not finite, which targets near the double range give.
    """
    h = fm.hyper
    if h.noise_std == 0.0 and fm.rank < 2 * fm.freq.shape[0]:
        raise ConfigError("rank-deficient design with zero noise_std: posterior is singular")
    phi_star = scaled_feature_vector(_as_points(xs, fm.freq.shape[1]), fm.freq, h)
    lam = fm.singular_values
    denom = lam**2 + h.noise_std**2
    with np.errstate(over="ignore", invalid="ignore"):
        mean, spectral, null_sq = spectral_sums(fm, phi_star, lam / denom, 1.0 / denom)
        variance = h.noise_std**2 * spectral + null_sq
    if not np.isfinite([mean, variance]).all():
        raise ConfigError("the RFF posterior is not finite; the targets are too large")
    return Posterior(mean=mean, variance=variance)
