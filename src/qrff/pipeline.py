"""End-to-end quantum estimation of the reduced-rank GP posterior.

Stages: encode the scaled design matrix as amplitudes over (column, row)
registers; extract the squared normalized singular values by phase
estimation of exp(i * rho * t) with rho the column-register reduced density
operator; apply an eigenvalue-conditioned inversion profile with
post-selection (the flag qubit's rotation and projection folded into a
per-bin weight); un-compute the phase register; and read posterior
quantities off the closed-form outcome probabilities of a Hadamard test
(mean) and a SWAP test (variance), for a whole grid of query points at once;
``PreparedPipeline.posterior`` returns both as one ``kernel.Posterior``, as
the exact and reduced-rank methods do, with the readout they came from.
The encoded amplitudes are design.T / frobenius_norm, so their Schmidt basis
is the feature model's SVD, and everything after the encoding is
block-diagonal in it. This module evaluates those steps exactly there, from
the QPE outcome distribution per eigenvalue (``phase_table``), and builds no
state or gate; ``spectral_setup`` is that evaluation, one pure function of
the spectrum, which reduces the inversion's rotation profiles
(``rotation_profiles``, their one home) against the phase table.
``qsim.prepare_data_state`` and ``qsim.dense_oracle``, on those profiles,
run the same steps as circuits for the tests. This module's one capacity
check is ``spectral_setup``'s ``errors.check_bytes`` call; the dense
circuits count their own states.

The recovered posterior is the classical spectral-sum posterior with
bin-discretized eigenvalues: both read ``rff.spectral_sums`` with
per-component coefficients in design units, which alone differ. A component
whose eigenvalue rounds to bin 0 sits where both rotation profiles vanish, so
the inversion filters it, as HHL's filter does an ill-conditioned eigenvalue;
the posterior gives it its prior variance, as the null space has. The overlaps
the tests read rescale those sums by the Frobenius, target and query feature
norms, the flag acceptance probability and the inversion bound.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, PostSelectionError, check_bytes
from .kernel import Posterior, _as_points
from .rff import FeatureModel, scaled_feature_vector, spectral_sums

#: default headroom of the phase-window parameter over the top squared singular value
DELTA_R_HEADROOM = 1.05


# ---------------------------------------------------------------------------
# phase estimation and inversion
# ---------------------------------------------------------------------------


def default_delta_r(fm: FeatureModel) -> float:
    return DELTA_R_HEADROOM * float(fm.normalized_singular_values[0] ** 2)


def phase_table(theta: np.ndarray, tau: int) -> np.ndarray:
    """Phase-register distribution |a_k(b)|^2 after QPE of eigenphase ``theta[k]``.

    The Fejer kernel sin^2(pi T theta) / (T sin(pi (theta - b/T)))^2 with
    T = 2^tau, one row per eigenphase in [0, 1) and one column per bin b; a
    row whose phase sits on a bin is one-hot there. Built in place in one
    float64 array of shape (len(theta), T).
    """
    T = 1 << tau
    u = np.asarray(theta, dtype=float) * T
    nearest = np.round(u)
    # sin^2(pi (u - b)) is the same for every integer b
    num = np.sin(np.pi * (u - nearest)) ** 2
    table = np.subtract.outer(u, np.arange(T, dtype=float))
    table *= np.pi / T
    np.sin(table, out=table)
    table *= T
    np.square(table, out=table)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num[:, None], table, out=table)
    # 0/0 where u sits on bin b (or its square underflows): every other entry is 0
    on_bin = np.flatnonzero(num == 0)
    table[on_bin, nearest[on_bin].astype(int) % T] = 1.0
    return table


def rotation_profiles(
    c1: float, c2: float, sigma_tilde_sq: float, delta_r: float, tau: int
) -> tuple[np.ndarray, np.ndarray]:
    """The mean and variance branches' flag-qubit |1> amplitude per phase-register
    value b, at lam^2 = b delta_r / 2^tau: min(1, c1 / (lam^2 + sigma~^2)) and
    min(1, c2 / (lam sqrt(lam^2 + sigma~^2))), both 0 at bin 0."""
    lam2 = np.arange(1 << tau) * delta_r / (1 << tau)
    # inf at bin 0 (zeroed below) and where a tiny sigma~^2 overflows it: min(1, inf) = 1
    with np.errstate(divide="ignore", over="ignore"):
        profiles = (
            np.minimum(1.0, c1 / (lam2 + sigma_tilde_sq)),
            np.minimum(1.0, c2 / np.sqrt(lam2 * (lam2 + sigma_tilde_sq))),
        )
    for prof in profiles:
        prof[0] = 0.0  # below-resolution bins are excluded from the inversion
    return profiles


def spectral_setup(s: np.ndarray, sigma_tilde_sq: float, delta_r: float, tau: int) -> dict:
    """Phase estimation and both inversion branches in closed form, for the
    normalized singular values ``s`` (descending); ``PreparedPipeline`` gives
    the branch sums.

    Refuses (ConfigError) tau < 1, a sigma~^2 outside [0, inf) and a delta_r
    that is NaN or at most s_0^2 (phase wraparound), then its peak
    (``errors.check_bytes``) before building any of it, then a top component
    whose bin round(s_0^2 / delta_r * 2^tau) reads as 0: it wraps past 2^tau,
    or it and so every smaller one rounds to 0. Any other component in bin 0
    is filtered, ``kept`` False: the circuit's profiles drop it, and the
    bounds skip it. With lam_hat^2 the kept components' decoded eigenvalues,
    c1 = min(lam_hat^2 + sigma~^2) and c2 =
    min(lam_hat sqrt(lam_hat^2 + sigma~^2)) keep both ``rotation_profiles``
    within [0, 1]; both constants cancel out of the recovered posterior. The
    profiles are reduced against the phase table here and not returned.
    Returns c1, c2, ``kept``, p1 and p2 (clamped to 1), the two un-compute
    leakages and the per-component coefficients per unit Frobenius norm,
    ``mean_coefficients`` s c / c1 and ``variance_coefficients`` s^2 g /
    c2^2, for every component as the circuit gives them, a filtered one's
    from its QPE mass outside bin 0, keyed by the names of
    ``PreparedPipeline``'s attributes.
    """
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if not 0 <= sigma_tilde_sq < np.inf:
        raise ConfigError(
            f"sigma~^2 = noise_std**2 / frobenius_norm**2 = {sigma_tilde_sq:.6g} is not a "
            "finite double >= 0; it overflows when signal_std is too small for noise_std"
        )
    s2 = s**2
    if not delta_r > s2[0]:
        raise ConfigError(
            f"delta_r={delta_r:.6g} must exceed the top squared normalized "
            f"singular value {s2[0]:.6g} (phase wraparound)"
        )
    check_bytes("the phase table and its three profiles", 8 * (s.size + 3), tau)
    bins = np.round(s2 / delta_r * (1 << tau)).astype(int)
    # bin 2^tau wraps: the tau-qubit phase register reads it as bin 0; s is
    # descending, so a top bin of 0 also leaves no component kept
    if bins[0] % (1 << tau) == 0:
        raise ConfigError(
            "a retained singular value decodes to eigenvalue bin 0 "
            f"(or rounds up to 2^tau = {1 << tau}, which wraps to 0); "
            "increase tau or change delta_r"
        )
    kept = bins > 0
    lam_hat2 = bins[kept] * delta_r / (1 << tau)
    c1 = float(np.min(lam_hat2 + sigma_tilde_sq))
    c2 = float(np.min(np.sqrt(lam_hat2) * np.sqrt(lam_hat2 + sigma_tilde_sq)))
    profiles = rotation_profiles(c1, c2, sigma_tilde_sq, delta_r, tau)
    table = phase_table(s2 / delta_r, tau)
    (c_mean, g_mean), (c_var, g_var) = ((table @ prof, table @ prof**2) for prof in profiles)
    p1, p2 = float(s2 @ g_mean), float(s2 @ g_var)
    return {
        "c1": c1,
        "c2": c2,
        "kept": kept,
        "p1": min(p1, 1.0),
        "p2": min(p2, 1.0),
        "mean_coefficients": s * c_mean / c1,
        "variance_coefficients": s2 * g_var / c2**2,
        # 1 - phase-register mass at |0> after the inverse QPE, per branch
        "uncompute_leakage_mean": 1.0 - float(s2 @ c_mean**2) / p1,
        "uncompute_leakage_variance": 1.0 - float(s2 @ c_var**2) / p2,
    }


# ---------------------------------------------------------------------------
# posterior estimation
# ---------------------------------------------------------------------------


def _sampled_overlaps(p_accept: float, p0: np.ndarray, shots: int, seed):
    """Draw the accepted shots and then the test-qubit readout for a whole grid.

    One generator, ``default_rng(seed)``, serves the grid: first the accepted
    shots out of ``shots`` at acceptance ``p_accept`` for every point, then the
    count of test-qubit 0 outcomes among them at probability ``p0`` clamped to
    [0, 1]. Handing that generator, after the accepted counts, to
    ``qsim.hadamard_test``/``swap_test`` point by point in grid order draws the
    same numbers. Returns the sampled ``2 P(0) - 1`` and the accepted shots.
    """
    rng = np.random.default_rng(seed)
    accepted = rng.binomial(shots, p_accept, size=p0.size)
    if not accepted.all():
        raise PostSelectionError(
            f"no accepted shots out of {shots} at acceptance probability {p_accept:.3e}"
        )
    zeros = rng.binomial(accepted, np.clip(p0, 0.0, 1.0))
    return 2.0 * zeros / accepted - 1.0, accepted


class PreparedPipeline:
    """Query-independent pipeline state, reusable across query grids.

    The encoded amplitudes over (col, row) are A = design.T / frobenius_norm
    = W diag(s) Vh with W = ``fm.v``, s = ``fm.normalized_singular_values``
    and Vh = U^T, the design's left singular vectors, which only enter
    through ``fm.projected_targets``, so neither Vh nor a state is built.
    Then rho_col = W diag(s^2) W^T, and phase estimation, both inversion
    branches and the un-compute act on each Schmidt component k alone: QPE
    leaves its phase register with the distribution ``phase_table`` gives
    for theta_k = s_k^2 / delta_r, and a branch with rotation profile w keeps
    c_k = sum_b w_b |a_k(b)|^2 of it at phase 0 and g_k = sum_b w_b^2 |a_k(b)|^2
    in all. Hence p = sum_k s_k^2 g_k, the mean branch's phase-0 slice
    W diag(s c / sqrt(p1)) Vh, the variance branch's rho_col
    W diag(s^2 g / p2) W^T, and the leakage 1 - sum_k s_k^2 c_k^2 / p.
    ``spectral_setup`` computes these, and the pipeline keeps all its outputs
    as attributes of the same names, with ``sigma_tilde_sq``: scalars, the
    ``kept`` mask and two length-rank coefficient vectors, put in design
    units as ``rff.rff_posterior``'s: ``mean_coefficients`` s c / (c1 |X|_F) ~ lam /
    (lam^2 + noise^2) and ``variance_coefficients`` s^2 g / (c2^2 |X|_F^2)
    ~ 1 / (lam^2 + noise^2), for the design X's singular values lam.
    ``qsim.pipeline_oracle`` builds the profiles from the kept c1 and c2
    (``rotation_profiles``) and runs the dense circuits these are tested
    against. The setup refuses its inputs and its own peak; after it the
    pipeline refuses a branch accepted with probability below 1e-12, then
    the fit's targets if all zero or if their norm, kept as ``target_norm``,
    overflows.

    ``posterior`` answers a whole grid of query points as
    ``rff.rff_posterior`` does, from ``rff.spectral_sums`` on these
    coefficients and the ``kept`` mask, so the null-space term is the query
    features' residual after projection onto the kept columns of W alone.
    Only the tests' readout is in overlap units: the Hadamard
    test's Re<b|a> = 2 P(0) - 1 is the mean sum over sqrt(p1) / c1 |phi| |y|
    / |X|_F and the SWAP test's <q|rho_col|q> the variance sum over p2 /
    c2^2 |phi|^2 / |X|_F^2, for the fit's targets y; ``qsim.hadamard_test``
    and ``qsim.swap_test`` are the circuits these are tested against.
    """

    def __init__(self, fm: FeatureModel, tau: int, delta_r: float | None = None):
        self.fm = fm
        self.tau = tau
        self.delta_r = default_delta_r(fm) if delta_r is None else delta_r
        sigma_tilde_sq = fm.hyper.noise_std**2 / fm.frobenius_norm**2
        setup = spectral_setup(fm.normalized_singular_values, sigma_tilde_sq, self.delta_r, tau)
        for branch, prob in (("mean", setup["p1"]), ("variance", setup["p2"])):
            if prob < 1e-12:
                raise PostSelectionError(
                    f"post-selection of the {branch} branch has probability {prob:.3e}"
                )
        # c1, c2, kept, p1, p2, both leakages and both coefficient vectors, put in design units
        setup["mean_coefficients"] /= fm.frobenius_norm
        setup["variance_coefficients"] /= fm.frobenius_norm**2
        vars(self).update(setup, sigma_tilde_sq=sigma_tilde_sq)
        with np.errstate(over="ignore"):  # an overflowing sum of squares gives inf
            self.target_norm = float(np.linalg.norm(fm.targets))
        if self.target_norm == 0:
            raise ConfigError("targets must not be identically zero")
        if self.target_norm == np.inf:
            raise ConfigError("the targets' norm overflows a double; noise_std is too large")

    def posterior(self, xs, shots: int = 0, seed=None) -> tuple[Posterior, dict]:
        """Posterior means and variances over the grid ``xs``, and their readout.

        With ``shots`` the readout is sampled: ``SeedSequence(seed).spawn(2)``
        gives the mean branch (Hadamard test) the first generator and the
        variance branch (SWAP test) the second, each serving the whole grid.
        ``readout`` holds each test's ``2 P(0) - 1`` (``mean_overlap``,
        ``variance_overlap``) and the accepted shots per point
        (``mean_accepted``, ``variance_accepted``, zeros in exact mode); in
        sampled mode the posterior scales the sampled overlaps back, the
        variance's clipped to [0, 1], and ``readout`` also holds the exact
        mode's ``exact_mean`` and ``exact_variance``. Refuses (ConfigError)
        ``shots`` that are not an integer in [0, 2**63) before any draw.

        A component the setup filtered joins the null-space term with its
        (phi^T v_k)^2: the mean all but drops it, and its prior variance is
        what the variance keeps, in both modes. Its spectral-sum term, from
        its QPE mass outside bin 0, stays as the circuit gives it.
        """
        if not 0 <= shots < 2**63 or shots != int(shots):
            raise ConfigError(f"shots must be an integer in [0, 2**63), got {shots!r}")
        fm, a, b = self.fm, self.mean_coefficients, self.variance_coefficients
        phi = scaled_feature_vector(_as_points(xs, fm.freq.shape[1]), fm.freq, fm.hyper)
        phi_norm = np.linalg.norm(phi, axis=1)
        mean, spectral, null_sq = spectral_sums(fm, phi, a, b, self.kept)
        exact = Posterior(mean, fm.hyper.noise_std**2 * spectral + null_sq)
        fro = fm.frobenius_norm
        mean_unit = np.sqrt(self.p1) / self.c1 * phi_norm * self.target_norm / fro
        accepted = np.zeros(phi.shape[0], dtype=int)
        readout = {
            "mean_overlap": mean / mean_unit,
            "variance_overlap": spectral / (self.p2 / self.c2**2 * phi_norm**2 / fro**2),
            "mean_accepted": accepted,
            "variance_accepted": accepted,
        }
        if not shots:
            return exact, readout
        mean_seed, variance_seed = np.random.SeedSequence(seed).spawn(2)
        readout["mean_overlap"], readout["mean_accepted"] = _sampled_overlaps(
            self.p1, 0.5 + 0.5 * readout["mean_overlap"], shots, mean_seed
        )
        readout["variance_overlap"], readout["variance_accepted"] = _sampled_overlaps(
            self.p2, 0.5 + 0.5 * readout["variance_overlap"], shots, variance_seed
        )
        readout.update(exact_mean=exact.mean, exact_variance=exact.variance)
        spectral_scale = fm.hyper.noise_std**2 * self.p2 / self.c2**2 * phi_norm**2 / fro**2
        variance = spectral_scale * np.clip(readout["variance_overlap"], 0.0, 1.0) + null_sq
        return Posterior(mean_unit * readout["mean_overlap"], variance), readout
