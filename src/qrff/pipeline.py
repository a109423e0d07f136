"""End-to-end quantum estimation of the reduced-rank GP posterior.

Stages: encode the scaled design matrix as amplitudes over (column, row)
registers, extract the squared normalized singular values by phase estimation
of exp(i * rho * t) with rho the column-register reduced density operator,
apply an eigenvalue-conditioned inversion profile with post-selection (the
flag qubit's rotation and projection folded into a per-bin weight),
un-compute the phase register, and read posterior quantities off
the closed-form outcome probabilities of a Hadamard test (mean) and a SWAP
test (variance), for a whole grid of query points at once.

All amplitudes are normalized by the design's Frobenius norm, so classical
scale recovery multiplies estimated overlaps back by the Frobenius norm, the
target norm, the query feature norm, the flag acceptance probability, and the
inversion bound; the recovered numbers equal the classical spectral-sum
posterior evaluated with bin-discretized eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qsim
from .errors import CapacityError, ConfigError, PostSelectionError
from .kernel import KernelHyper, _as_points
from .qsim import GateOp, Statevector
from .rff import FeatureModel, scaled_feature_vector

#: default headroom of the phase-window parameter over the top squared singular value
DELTA_R_HEADROOM = 1.05


@dataclass(frozen=True)
class EncodingPlan:
    """Rotation angles turning a design matrix into register amplitudes.

    ``angles[j, r]`` rotates the cos/sin qubit (lowest column bit) where the
    row register reads ``j`` and the frequency-pair qubits read ``r``.
    """

    n_row_qubits: int
    n_col_qubits: int
    padded_rows: int
    padded_cols: int
    row_count: int
    freq_count: int
    angles: np.ndarray = field(repr=False)
    frobenius_norm: float


@dataclass(frozen=True)
class SpectralRegisters:
    """Statevector after phase estimation, the QPE ops that made it (which
    ``qsim.inverse_qpe`` un-computes), and the parameters that shaped them."""

    sv: Statevector
    circuit: tuple[GateOp, ...] = field(repr=False)
    tau: int
    delta_r: float
    t: float


@dataclass(frozen=True)
class InversionConstants:
    """Bounds and scale factors for the eigenvalue-conditioned rotations.

    ``c1 / (lam^2 + sigma^2)`` and ``c2 / (lam * sqrt(lam^2 + sigma^2))`` stay
    within [0, 1] for every retained bin-decoded eigenvalue; both constants
    cancel out of the recovered posterior, so only boundedness matters.
    """

    c1: float
    c2: float
    sigma_tilde_sq: float
    delta_r: float
    tau: int
    bins: tuple[int, ...]

    @classmethod
    def from_feature_model(
        cls, fm: FeatureModel, noise_std: float, delta_r: float, tau: int
    ) -> InversionConstants:
        lam_t2 = fm.normalized_singular_values**2
        if delta_r <= lam_t2[0]:
            raise ConfigError(
                f"delta_r={delta_r:.6g} must exceed the top squared normalized "
                f"singular value {lam_t2[0]:.6g} (phase wraparound)"
            )
        st2 = noise_std**2 / fm.frobenius_norm**2
        bins = np.round(lam_t2 / delta_r * (1 << tau)).astype(int)
        # bin 2^tau wraps: the tau-qubit phase register reads it as bin 0
        if (bins % (1 << tau) == 0).any():
            raise ConfigError(
                "a retained singular value decodes to eigenvalue bin 0 "
                f"(or rounds up to 2^tau = {1 << tau}, which wraps to 0); "
                "increase tau or change delta_r"
            )
        lam_hat2 = bins * delta_r / (1 << tau)
        c1 = float(np.min(lam_hat2 + st2))
        c2 = float(np.min(np.sqrt(lam_hat2) * np.sqrt(lam_hat2 + st2)))
        return cls(
            c1=c1,
            c2=c2,
            sigma_tilde_sq=st2,
            delta_r=delta_r,
            tau=tau,
            bins=tuple(int(b) for b in bins),
        )

    def decoded_eigenvalue_sq(self, bin_value: int) -> float:
        return bin_value * self.delta_r / (1 << self.tau)

    def mean_rotation_profile(self) -> np.ndarray:
        """Flag-qubit |1> amplitude per phase-register value (mean branch)."""
        lam_hat2 = np.arange(1 << self.tau) * self.delta_r / (1 << self.tau)
        with np.errstate(divide="ignore"):
            prof = np.minimum(1.0, self.c1 / (lam_hat2 + self.sigma_tilde_sq))
        prof[0] = 0.0  # below-resolution bins are excluded from the inversion
        return prof

    def variance_rotation_profile(self) -> np.ndarray:
        """Flag-qubit |1> amplitude per phase-register value (variance branch)."""
        lam_hat2 = np.arange(1 << self.tau) * self.delta_r / (1 << self.tau)
        with np.errstate(divide="ignore"):
            prof = np.minimum(
                1.0, self.c2 / np.sqrt(lam_hat2 * (lam_hat2 + self.sigma_tilde_sq))
            )
        prof[0] = 0.0
        return prof


@dataclass(frozen=True)
class PosteriorEstimate:
    """One branch of the quantum posterior over a query grid.

    ``mean`` or ``variance`` holds one value per grid point, and
    ``shots_used`` the accepted shots per point (zero in exact mode).
    """

    mean: np.ndarray | None
    variance: np.ndarray | None
    p1: float | None
    p2: float | None
    shots_used: np.ndarray
    mode: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def plan_encoding(fm: FeatureModel) -> EncodingPlan:
    """Derive the rotation angles from the design matrix.

    Angles are read back from each (cos, sin) pair, which reproduces the
    original feature phases modulo 2*pi and keeps the plan self-contained.
    """
    n_rows, n_cols = fm.design.shape
    m_freq = fm.freq.n_frequencies
    n_row_qubits = max(int(np.ceil(np.log2(n_rows))), 0)
    n_col_qubits = int(np.ceil(np.log2(n_cols)))
    return EncodingPlan(
        n_row_qubits=n_row_qubits,
        n_col_qubits=n_col_qubits,
        padded_rows=1 << n_row_qubits,
        padded_cols=1 << n_col_qubits,
        row_count=n_rows,
        freq_count=m_freq,
        angles=np.arctan2(fm.design[:, 1::2], fm.design[:, 0::2]),
        frobenius_norm=fm.frobenius_norm,
    )


def prepare_data_state(plan: EncodingPlan) -> Statevector:
    """Deterministically prepare the normalized design matrix as amplitudes.

    Registers: ``row`` (low bits) and ``col``; the amplitude at column m,
    row j equals ``design[j, m] / frobenius_norm``, zero on padding.
    """
    if plan.row_count * plan.freq_count == 0:
        raise ValueError("empty encoding plan")
    sv = Statevector.zero([("row", plan.n_row_qubits), ("col", plan.n_col_qubits)])
    row_qubits = sv.register("row").qubits()
    col = sv.register("col")
    trig_qubit = col.offset
    pair_qubits = col.qubits()[1:]
    ops = qsim.uniform_prep_ops(plan.row_count, row_qubits)
    ops += qsim.uniform_prep_ops(plan.freq_count, pair_qubits)
    # control value v = row + padded_rows * pair, zero angles on padding
    theta = np.zeros((1 << len(pair_qubits), plan.padded_rows))
    theta[: plan.freq_count, : plan.row_count] = plan.angles.T
    ops.append(GateOp.ry(theta.ravel(), trig_qubit, row_qubits + pair_qubits))
    return qsim.apply_circuit(sv, ops)


# ---------------------------------------------------------------------------
# spectral extraction and inversion
# ---------------------------------------------------------------------------


def default_delta_r(fm: FeatureModel) -> float:
    return DELTA_R_HEADROOM * float(fm.normalized_singular_values[0] ** 2)


def spectral_extraction(
    sv: Statevector, fm: FeatureModel, tau: int, delta_r: float
) -> SpectralRegisters:
    """Phase-estimate the column-register density operator.

    Appends the ``phase`` register; eigenvalue mass concentrates on bins near
    ``round(lam_tilde^2 * 2^tau / delta_r)``.
    """
    lam_max2 = float(fm.normalized_singular_values[0] ** 2)
    if delta_r <= lam_max2:
        raise ConfigError(
            f"delta_r={delta_r:.6g} must exceed the top squared normalized "
            f"singular value {lam_max2:.6g} (phase wraparound)"
        )
    rho = qsim.partial_trace(sv, "col")
    t = 2.0 * np.pi / delta_r
    # exp(+i*rho*t): eigenphases lam~^2/delta_r grow with the eigenvalue, so
    # the phase register decodes directly as lam_hat^2 = b * delta_r / 2^tau
    circuit = tuple(qsim.qpe_circuit(sv, rho.matrix, t, "col", tau))
    out = qsim.qpe(sv, circuit, tau, phase_register="phase")
    return SpectralRegisters(sv=out, circuit=circuit, tau=tau, delta_r=delta_r, t=t)


def _conditional_inversion(
    sr: SpectralRegisters, profile: np.ndarray
) -> tuple[Statevector, float]:
    """Post-select on the per-bin profile, then un-compute the phase register.

    The paper's circuit rotates a flag qubit by Ry(arcsin profile[b]) where
    the phase register reads b and post-selects the flag on |1>; that equals
    scaling each bin's slice by ``profile[b]`` and renormalizing, which
    ``qsim.postselect`` does without the flag. Returns the renormalized state
    (still carrying the phase register, which the un-computation leaves
    approximately at |0>) and the exact acceptance probability.
    """
    sv, prob = qsim.postselect(sr.sv, "phase", profile)
    sv = qsim.inverse_qpe(sv, sr.circuit)
    return sv, prob


def invert_for_mean(
    sr: SpectralRegisters, ic: InversionConstants
) -> tuple[Statevector, float]:
    """Apply the mean-branch inversion ``c1 / (lam_hat^2 + sigma~^2)``."""
    return _conditional_inversion(sr, ic.mean_rotation_profile())


def invert_for_variance(
    sr: SpectralRegisters, ic: InversionConstants
) -> tuple[Statevector, float]:
    """Apply the variance-branch inversion ``c2 / (lam_hat * sqrt(lam_hat^2 + sigma~^2))``."""
    return _conditional_inversion(sr, ic.variance_rotation_profile())


# ---------------------------------------------------------------------------
# posterior estimation
# ---------------------------------------------------------------------------


def _phase_zero_slice(sv: Statevector) -> np.ndarray:
    """Amplitudes with the phase register at |0>, shape (col dim, row dim)."""
    dims = [sv.register(name).dim for name in ("phase", "col", "row")]
    return sv.amplitudes.reshape(dims)[0]


def _leakage(sv: Statevector) -> float:
    amps = _phase_zero_slice(sv)
    return float(1.0 - np.vdot(amps, amps).real)


def _sampled_overlaps(p_accept: float, p0: np.ndarray, shots: int, seeds):
    """Draw, per point, the accepted shots and then the test-qubit readout.

    Point i uses ``default_rng(seeds[i])``: first the accepted shots out of
    ``shots`` at acceptance ``p_accept``, then the count of test-qubit 0
    outcomes among them at probability ``p0[i]`` clamped to [0, 1]. This is
    the draw order of ``qsim.hadamard_test``/``swap_test`` when handed the
    same generator. Returns the sampled ``2 P(0) - 1`` and the accepted shots.
    """
    if seeds is None:
        seeds = [None] * p0.size
    if len(seeds) != p0.size:
        raise ValueError(f"{len(seeds)} seeds for {p0.size} query points")
    overlaps = np.empty(p0.size)
    accepted = np.empty(p0.size, dtype=int)
    for i, (seed, p) in enumerate(zip(seeds, p0)):
        rng = np.random.default_rng(seed)
        n = int(rng.binomial(shots, p_accept))
        if n == 0:
            raise PostSelectionError(
                f"no accepted shots out of {shots} at acceptance probability {p_accept:.3e}"
            )
        overlaps[i] = 2.0 * (rng.binomial(n, min(max(p, 0.0), 1.0)) / n) - 1.0
        accepted[i] = n
    return overlaps, accepted


class PreparedPipeline:
    """Query-independent pipeline state, reusable across query grids.

    Runs encoding, phase estimation, and both inversion branches once. A
    posterior call then answers a whole grid of G query points by reading
    the Hadamard- and SWAP-test probabilities in closed form:
    P(0) = 1/2 + Re<b|a>/2 for the mean, and P(0) = 1/2 + <q|rho_col|q>/2 for
    the variance, with rho_col the column-register state of the variance
    branch. ``qsim.hadamard_test`` and ``qsim.swap_test`` are the circuits
    these values are tested against.
    """

    def __init__(
        self,
        fm: FeatureModel,
        h: KernelHyper,
        tau: int,
        delta_r: float | None = None,
    ):
        self.fm = fm
        self.hyper = h
        self.tau = tau
        self.delta_r = default_delta_r(fm) if delta_r is None else delta_r
        self.plan = plan_encoding(fm)
        col = self.plan.n_col_qubits
        width = self.plan.n_row_qubits + col + tau + 1
        if width > qsim.MAX_QUBITS:
            raise CapacityError(
                f"pipeline needs {width} qubits (row + col + tau + flag), "
                f"cap {qsim.MAX_QUBITS}"
            )
        # rho and its eigenbasis are d x d with d = 2^col: no bigger than a state
        if 2 * col > qsim.MAX_QUBITS:
            raise CapacityError(
                f"the {1 << col} x {1 << col} matrices of the col register hold "
                f"2^{2 * col} entries, more than a state at the cap of {qsim.MAX_QUBITS} qubits"
            )
        self.constants = InversionConstants.from_feature_model(
            fm, h.noise_std, self.delta_r, tau
        )
        self.data_state = prepare_data_state(self.plan)
        self.spectral = spectral_extraction(self.data_state, fm, tau, self.delta_r)
        self.mean_state, self.p1 = invert_for_mean(self.spectral, self.constants)
        self.variance_state, self.p2 = invert_for_variance(self.spectral, self.constants)
        #: 1 - phase-register mass at |0> after the inverse QPE, per branch
        self.uncompute_leakage_mean = _leakage(self.mean_state)
        self.uncompute_leakage_variance = _leakage(self.variance_state)

    def _grid_features(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Scaled query features (G, 2M) and their norms (G,)."""
        freq = self.fm.freq
        phi = scaled_feature_vector(_as_points(xs, freq.dim), freq, self.hyper)
        return phi, np.linalg.norm(phi, axis=1)

    def mean_estimate(self, y, xs, shots: int = 0, seeds=None) -> PosteriorEstimate:
        """Posterior means over the grid ``xs``; ``seeds`` holds one seed per point."""
        y = np.asarray(y, dtype=float).ravel()
        n_rows, n_cols = self.fm.design.shape
        if y.shape[0] != n_rows:
            raise ValueError(f"target length {y.shape[0]} != design rows {n_rows}")
        y_norm = float(np.linalg.norm(y))
        if y_norm == 0:
            raise ValueError("targets must not be identically zero")
        phi, phi_norm = self._grid_features(xs)
        amps = _phase_zero_slice(self.mean_state)[:n_cols, :n_rows]
        overlap = np.einsum(
            "cr,gc,r->g", amps, phi / phi_norm[:, None], y / y_norm
        ).real
        shots_used = np.zeros(overlap.size, dtype=int)
        if shots:
            overlap, shots_used = _sampled_overlaps(
                self.p1, 0.5 + 0.5 * overlap, shots, seeds
            )
        scale = (
            np.sqrt(self.p1)
            / self.constants.c1
            * phi_norm
            * y_norm
            / self.fm.frobenius_norm
        )
        return PosteriorEstimate(
            mean=scale * overlap,
            variance=None,
            p1=self.p1,
            p2=None,
            shots_used=shots_used,
            mode="exact" if shots == 0 else "sampled",
            diagnostics={"overlap": overlap},
        )

    def variance_estimate(self, xs, shots: int = 0, seeds=None) -> PosteriorEstimate:
        """Posterior variances over the grid ``xs``; ``seeds`` holds one seed per point."""
        phi, phi_norm = self._grid_features(xs)
        n_cols = self.fm.design.shape[1]
        rho = qsim.partial_trace(self.variance_state, "col").matrix[:n_cols, :n_cols]
        q = phi / phi_norm[:, None]
        raw = np.einsum("gk,km,gm->g", q, rho, q).real
        shots_used = np.zeros(raw.size, dtype=int)
        if shots:
            raw, shots_used = _sampled_overlaps(self.p2, 0.5 + 0.5 * raw, shots, seeds)
        overlap = np.clip(raw, 0.0, 1.0)
        pv = phi @ self.fm.v
        null_sq = np.maximum(
            np.einsum("gk,gk->g", phi, phi) - np.einsum("gr,gr->g", pv, pv), 0.0
        )
        spectral_var = (
            self.hyper.noise_std**2
            * self.p2
            / self.constants.c2**2
            * phi_norm**2
            / self.fm.frobenius_norm**2
            * overlap
        )
        return PosteriorEstimate(
            mean=None,
            variance=np.maximum(spectral_var + null_sq, 0.0),
            p1=None,
            p2=self.p2,
            shots_used=shots_used,
            mode="exact" if shots == 0 else "sampled",
            diagnostics={"overlap_raw": raw, "null_space_variance": null_sq},
        )
