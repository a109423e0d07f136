"""End-to-end quantum estimation of the reduced-rank GP posterior.

Stages: encode the scaled design matrix as amplitudes over (column, row)
registers, simulated gate by gate; extract the squared normalized singular
values by phase estimation of exp(i * rho * t) with rho the column-register
reduced density operator; apply an eigenvalue-conditioned inversion profile
with post-selection (the flag qubit's rotation and projection folded into a
per-bin weight); un-compute the phase register; and read posterior
quantities off the closed-form outcome probabilities of a Hadamard test
(mean) and a SWAP test (variance), for a whole grid of query points at once.
Everything after the encoding is block-diagonal in rho's eigenbasis, so it is
evaluated exactly there, from one SVD of the encoded amplitudes and the QPE
outcome distribution per eigenvalue (``phase_table``); ``dense_oracle`` runs
the same steps as circuits for the tests.

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


def dense_oracle(
    sv: Statevector, ic: InversionConstants
) -> tuple[Statevector, list[GateOp], list[tuple[Statevector, float]]]:
    """The spectral steps as circuits on an encoded state: the test oracle.

    Phase-estimates exp(i * rho * t), t = 2 pi / delta_r, with rho the
    ``col`` register's reduced state (``qsim.qpe_circuit``, ``qsim.qpe``);
    then per branch post-selects on the rotation profile (``qsim.postselect``,
    the flag qubit folded into per-bin weights) and un-computes the phase
    register (``qsim.inverse_qpe``). Returns the post-QPE state, the QPE ops,
    and ``[(mean_state, p1), (variance_state, p2)]``.
    """
    rho = qsim.partial_trace(sv, "col")
    # exp(+i*rho*t): eigenphases lam~^2/delta_r grow with the eigenvalue, so
    # the phase register decodes directly as lam_hat^2 = b * delta_r / 2^tau
    circuit = qsim.qpe_circuit(sv, rho.matrix, 2.0 * np.pi / ic.delta_r, "col", ic.tau)
    spectral = qsim.qpe(sv, circuit, ic.tau, phase_register="phase")
    branches = []
    for profile in (ic.mean_rotation_profile(), ic.variance_rotation_profile()):
        state, prob = qsim.postselect(spectral, "phase", profile)
        branches.append((qsim.inverse_qpe(state, circuit), prob))
    return spectral, circuit, branches


# ---------------------------------------------------------------------------
# posterior estimation
# ---------------------------------------------------------------------------


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

    Simulates the encoding gate by gate (``prepare_data_state``), then takes
    one SVD of the encoded amplitudes over (col, row), A = W diag(s) Vh, and
    drops the encoded state. So rho_col = W diag(s^2) W^dagger, and phase
    estimation, both inversion branches and the un-compute act on each
    Schmidt component k alone: QPE leaves its phase register with the
    distribution ``phase_table`` gives for
    theta_k = s_k^2 / delta_r, and a branch with rotation profile w keeps
    c_k = sum_b w_b |a_k(b)|^2 of it at phase 0 and g_k = sum_b w_b^2 |a_k(b)|^2
    in all. Hence p = sum_k s_k^2 g_k, the mean branch's phase-0 slice
    W diag(s c) / sqrt(p), the variance branch's rho_col
    W diag(s^2 g / p) W^dagger, and the leakage 1 - sum_k s_k^2 c_k^2 / p;
    ``dense_oracle`` on ``prepare_data_state(plan)`` is what these are
    tested against.

    A posterior call answers a whole grid of G query points by reading the
    Hadamard- and SWAP-test probabilities in closed form: P(0) = 1/2 +
    Re<b|a>/2 for the mean, with the targets mapped through ``row_basis``
    (Vh), and P(0) = 1/2 + <q|rho_col|q>/2 for the variance.
    ``qsim.hadamard_test`` and ``qsim.swap_test`` are the circuits these
    values are tested against.
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
        row, col = self.plan.n_row_qubits, self.plan.n_col_qubits
        if row + col > qsim.MAX_QUBITS:
            raise CapacityError(
                f"encoding needs {row + col} qubits (row + col), cap {qsim.MAX_QUBITS}"
            )
        # the phase table has one row per Schmidt component, at most 2^min(row, col)
        if min(row, col) + tau > qsim.MAX_QUBITS:
            raise CapacityError(
                f"the phase table holds 2^{min(row, col) + tau} entries "
                f"(min(row, col) + tau), cap {qsim.MAX_QUBITS}"
            )
        ic = self.constants = InversionConstants.from_feature_model(
            fm, h.noise_std, self.delta_r, tau
        )
        w, s, self.row_basis = np.linalg.svd(
            prepare_data_state(self.plan).amplitudes.reshape(1 << col, -1),
            full_matrices=False,
        )
        s2 = s**2
        table = phase_table(s2 / self.delta_r, tau)
        (c1, g1), (c2, g2) = (
            (table @ prof, table @ prof**2)
            for prof in (ic.mean_rotation_profile(), ic.variance_rotation_profile())
        )
        p1, p2 = float(s2 @ g1), float(s2 @ g2)
        for branch, prob in (("mean", p1), ("variance", p2)):
            if prob < 1e-12:
                raise PostSelectionError(
                    f"post-selection of the {branch} branch has probability {prob:.3e}"
                )
        #: phase-0 slice of the mean branch after un-compute, over (col, Schmidt row)
        self.mean_slice = w * (s * c1 / np.sqrt(p1))
        #: the variance branch's rho_col is col_basis diag(variance_weights) col_basis^dagger
        self.col_basis, self.variance_weights = w, s2 * g2 / p2
        self.p1, self.p2 = min(p1, 1.0), min(p2, 1.0)
        #: 1 - phase-register mass at |0> after the inverse QPE, per branch
        self.uncompute_leakage_mean = 1.0 - float(s2 @ c1**2) / p1
        self.uncompute_leakage_variance = 1.0 - float(s2 @ c2**2) / p2

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
        amps = self.mean_slice[:n_cols]
        y_rows = self.row_basis[:, :n_rows] @ (y / y_norm)
        overlap = np.einsum("ck,gc,k->g", amps, phi / phi_norm[:, None], y_rows).real
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
        q_w = (phi / phi_norm[:, None]) @ self.col_basis[:n_cols]
        raw = (q_w.real**2 + q_w.imag**2) @ self.variance_weights
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
