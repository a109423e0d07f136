from __future__ import annotations

import numpy as np
import pytest

from qrff import qsim
from qrff.cli import RunConfig
from qrff.errors import CapacityError, ConfigError, PostSelectionError
from qrff.kernel import Dataset, KernelHyper
from qrff.pipeline import (
    InversionConstants,
    PreparedPipeline,
    default_delta_r,
    dense_oracle,
    phase_table,
    plan_encoding,
    prepare_data_state,
)
from qrff.rff import (
    FeatureModel,
    FrequencySet,
    build_feature_model,
    rff_posterior,
    sample_frequencies,
    scaled_feature_vector,
)

from dense_readout import assert_matches_dense, dense_twin
from spectral_oracle import BinnedPrediction, qpe_bin_weights


def small_model(n_points=4, m_freq=2, seed_data=3, seed_freq=5, noise=0.1):
    h = KernelHyper(1.5, 1.0, noise)
    x = np.linspace(0, 2 * np.pi, n_points)
    rng = np.random.default_rng(seed_data)
    y = np.sin(x) + noise * rng.normal(size=n_points)
    ds = Dataset(x[:, None], y)
    fm = build_feature_model(ds, sample_frequencies(m_freq, h, 1, seed_freq), h)
    return h, ds, fm


def resolved_small_model(tau, n_points=4, m_freq=2, seed_data=3, seed_freq=5, noise=0.1):
    """First frequency seed >= seed_freq whose spectrum is resolvable at tau.

    Random tiny designs can have squared singular values below the phase
    register's bin width, which the pipeline rejects by design; screening
    keeps these tests on the supported path deterministically.
    """
    for trial in range(seed_freq, seed_freq + 100):
        h, ds, fm = small_model(n_points, m_freq, seed_data, trial, noise)
        lam_t2 = fm.normalized_singular_values**2
        bins = np.round(lam_t2 / (1.05 * lam_t2[0]) * (1 << tau))
        if bins.min() >= 2:
            return h, ds, fm
    raise AssertionError("no resolvable design found")


def vectorized_design(fm: FeatureModel, plan) -> np.ndarray:
    """Column-major vectorization of the zero-padded design over (col, row)."""
    padded = np.zeros((plan.padded_cols, plan.padded_rows))
    padded[: fm.design.shape[1], : fm.design.shape[0]] = fm.design.T
    return padded.ravel() / fm.frobenius_norm


class TestEncoding:
    def test_single_point_zero_phase(self):
        h = KernelHyper(1.0, 1.0, 0.1)
        ds = Dataset(np.array([[0.0]]), np.array([1.0]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 0), h)
        plan = plan_encoding(fm)
        assert plan.n_row_qubits == 0
        assert plan.n_col_qubits == 1
        assert plan.angles.shape == (1, 1)
        assert plan.angles[0, 0] == pytest.approx(0.0, abs=1e-15)
        sv = prepare_data_state(plan)
        assert np.allclose(sv.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_single_point_third_pi_phase(self):
        # frequency and input chosen so the feature phase is exactly pi/3
        h = KernelHyper(1.0, 1.0, 0.1)
        freq = FrequencySet(frequencies=np.array([[1.0 / 6.0]]), seed=0)
        ds = Dataset(np.array([[1.0]]), np.array([0.3]))
        fm = build_feature_model(ds, freq, h)
        sv = prepare_data_state(plan_encoding(fm))
        assert sv.amplitudes[0].real == pytest.approx(0.5, abs=1e-12)
        assert sv.amplitudes[1].real == pytest.approx(0.8660254037844386, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_by_two_matches_vectorization(self, seed):
        h, ds, fm = small_model(n_points=2, m_freq=2, seed_data=seed, seed_freq=seed + 9)
        plan = plan_encoding(fm)
        sv = prepare_data_state(plan)
        target = vectorized_design(fm, plan)
        fidelity = abs(np.vdot(target, sv.amplitudes)) ** 2
        assert fidelity >= 1 - 1e-10

    def test_schedule_enumerates_all_pairs(self, paper_feature_model):
        plan = plan_encoding(paper_feature_model)
        assert plan.angles.shape == (16, 2)
        assert plan.padded_rows == 16 and plan.padded_cols == 4

    def test_preparation_is_deterministic(self, paper_feature_model):
        plan = plan_encoding(paper_feature_model)
        a = prepare_data_state(plan)
        b = prepare_data_state(plan)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_unit_norm(self, paper_feature_model):
        sv = prepare_data_state(plan_encoding(paper_feature_model))
        assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-10

    def test_row_permutation_permutes_row_register(self):
        h, ds, fm = small_model(n_points=4, m_freq=1)
        perm = np.array([2, 0, 3, 1])
        ds_perm = Dataset(ds.inputs[perm], ds.targets[perm])
        fm_perm = build_feature_model(ds_perm, fm.freq, h)
        a = prepare_data_state(plan_encoding(fm)).amplitudes.reshape(-1, 4)
        b = prepare_data_state(plan_encoding(fm_perm)).amplitudes.reshape(-1, 4)
        # row j of the permuted state holds what row perm[j] held before
        assert np.allclose(b[:, np.argsort(perm)], a, atol=1e-12)

    def test_padding_rows_are_zero(self):
        h, ds, fm = small_model(n_points=3, m_freq=2)
        plan = plan_encoding(fm)
        assert plan.padded_rows == 4
        sv = prepare_data_state(plan)
        grid = sv.amplitudes.reshape(plan.padded_cols, plan.padded_rows)
        assert np.max(np.abs(grid[:, 3])) == 0.0


def dense_spectral_state(fm, tau, delta_r):
    """The encoded design after the dense QPE of exp(i rho 2 pi / delta_r), as in
    ``dense_oracle`` but with no inversion constants, which refuse unresolved bins."""
    sv = prepare_data_state(plan_encoding(fm))
    rho = qsim.partial_trace(sv, "col").matrix
    return qsim.qpe(sv, qsim.qpe_circuit(sv, rho, 2.0 * np.pi / delta_r, "col", tau), tau)


class TestSpectralExtraction:
    def test_rank_one_single_bin(self):
        h = KernelHyper(1.5, 1.0, 0.1)
        ds = Dataset(np.array([[0.4]]), np.array([1.0]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 2), h)
        tau = 5
        sv = dense_spectral_state(fm, tau, delta_r=2.0)
        probs = qsim._marginal_probabilities(sv, sv.register("phase"))
        # lam~^2 = 1, phase 1/2 -> bin 2^(tau-1) with certainty
        assert probs[1 << (tau - 1)] == pytest.approx(1.0, abs=1e-10)
        table = phase_table(np.array([0.5]), tau)
        assert table[0, 1 << (tau - 1)] == 1.0 and table.sum() == 1.0

    def test_wraparound_rejected(self, paper_feature_model, paper_hyper):
        lam_max2 = float(paper_feature_model.normalized_singular_values[0] ** 2)
        with pytest.raises(ConfigError):
            PreparedPipeline(paper_feature_model, paper_hyper, 6, delta_r=0.5 * lam_max2)

    @pytest.mark.parametrize("tau", [5, 6, 7])
    def test_resolution_law(self, tau):
        # modal-bin decode error is bounded by half a bin, which halves with tau
        h, ds, fm = small_model()
        delta_r = 1.05 * float(fm.normalized_singular_values[0] ** 2)
        lam_t2 = fm.normalized_singular_values**2
        half_bin = delta_r / (1 << (tau + 1))
        for t2 in lam_t2:
            decoded = round(float(t2 / delta_r * (1 << tau))) * delta_r / (1 << tau)
            assert abs(decoded - t2) <= half_bin

    def test_mass_concentration_small_design(self):
        h, ds, fm = small_model(seed_data=1, seed_freq=8)
        tau = 8
        delta_r = 1.05 * float(fm.normalized_singular_values[0] ** 2)
        sv = dense_spectral_state(fm, tau, delta_r)
        preg = sv.register("phase")
        nr = sv.register("row").width
        nc = sv.register("col").width
        cube = sv.amplitudes.reshape(preg.dim, 1 << nc, 1 << nr)
        for r in range(fm.rank):
            v = np.zeros(1 << nc)
            v[: fm.v.shape[0]] = fm.v[:, r]
            cond = np.einsum("ecr,c->er", cube, v)
            mass = np.sum(np.abs(cond) ** 2, axis=1)
            mass = mass / mass.sum()
            predicted = qpe_bin_weights(
                float(fm.normalized_singular_values[r] ** 2 / delta_r), tau
            )
            assert np.max(np.abs(mass - predicted)) < 1e-10

    @pytest.mark.parametrize("design", range(6))
    def test_phase_table_is_the_dense_per_component_marginal(self, design):
        # project the dense post-QPE state on each Schmidt pair (w_k, Vh_k):
        # what remains on the phase register is s_k a_k(b). At tau 13 the
        # circuit's own kicks, lam * t * 2^12 ~ 1e5 rad, round to ~1e-12 in a
        # peak bin, so the designs stay at tau <= 8.
        if design < 5:
            h, ds, fm, tau = _schmidt_designs()[design]
        else:
            h, ds, fm = small_model(n_points=16, m_freq=2, seed_freq=21)
            tau = 8
        pipe = PreparedPipeline(fm, h, tau)
        sv = dense_spectral_state(fm, tau, pipe.delta_r)
        w, s, vh = np.linalg.svd(
            prepare_data_state(pipe.plan).amplitudes.reshape(pipe.col_basis.shape[0], -1),
            full_matrices=False,
        )
        cube = sv.amplitudes.reshape(1 << tau, w.shape[0], vh.shape[1])
        amps = np.einsum("bcr,ck,kr->kb", cube, w.conj(), vh.conj())
        kept = s > 1e-8
        table = phase_table(s[kept] ** 2 / pipe.delta_r, tau)
        marginal = np.abs(amps[kept]) ** 2 / s[kept, None] ** 2
        assert np.max(np.abs(table - marginal)) <= 1e-12

    @pytest.mark.parametrize("tau", [1, 6, 13])
    def test_phase_table_matches_the_fejer_oracle(self, tau):
        theta = np.array([0.0, 0.3, 1.0 / 3.0, 0.5, 0.999, 2.0**-40])
        table = phase_table(theta, tau)
        for k, t in enumerate(theta):
            assert np.max(np.abs(table[k] - qpe_bin_weights(t, tau))) <= 1e-12
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-12


class TestInversionConstants:
    def test_boundedness_invariant(self, paper_feature_model, paper_hyper):
        ic = InversionConstants.from_feature_model(
            paper_feature_model, paper_hyper.noise_std, 0.4, 13
        )
        for b in ic.bins:
            lam_hat2 = ic.decoded_eigenvalue_sq(b)
            assert ic.c1 / (lam_hat2 + ic.sigma_tilde_sq) <= 1 + 1e-12
            assert ic.c2 / np.sqrt(lam_hat2 * (lam_hat2 + ic.sigma_tilde_sq)) <= 1 + 1e-12

    def test_below_resolution_raises(self):
        # two nearly identical rows give a tiny retained singular value
        h = KernelHyper(1.5, 1.0, 0.1)
        ds = Dataset(np.array([[0.5], [0.5 + 1e-5]]), np.array([0.2, 0.2]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 4), h)
        assert fm.rank == 2  # above the rank cutoff, below bin resolution
        with pytest.raises(ConfigError):
            InversionConstants.from_feature_model(fm, h.noise_std, 1.05, 6)

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_top_bin_wrapping_to_zero_raises(self, tau, paper_feature_model, paper_hyper):
        # default delta_r = 1.05 lam~0^2 rounds the top component to bin 2^tau
        # for tau <= 3, which the tau-qubit phase register reads as bin 0
        with pytest.raises(ConfigError):
            PreparedPipeline(paper_feature_model, paper_hyper, tau)

    def test_tau_four_resolves_paper_config(self, paper_feature_model, paper_hyper):
        pipe = PreparedPipeline(paper_feature_model, paper_hyper, 4)
        assert max(pipe.constants.bins) < 1 << 4
        assert min(pipe.constants.bins) > 0

    def test_profile_excludes_bin_zero(self, paper_feature_model, paper_hyper):
        ic = InversionConstants.from_feature_model(
            paper_feature_model, paper_hyper.noise_std, 0.4, 6
        )
        assert ic.mean_rotation_profile()[0] == 0.0
        assert ic.variance_rotation_profile()[0] == 0.0
        assert np.all(ic.mean_rotation_profile() <= 1.0)
        assert np.all(ic.variance_rotation_profile() <= 1.0)


class TestInversionBranches:
    def test_single_eigenvalue_unit_acceptance(self):
        # rank-1 design, zero noise, dyadic phase: rotation amplitude exactly 1
        h = KernelHyper(1.5, 1.0, 0.0)
        ds = Dataset(np.array([[0.3]]), np.array([0.7]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 2), h)
        pipe = PreparedPipeline(fm, h, tau=5, delta_r=2.0)
        assert pipe.constants.c1 == pytest.approx(1.0, abs=1e-12)
        assert pipe.p1 == pytest.approx(1.0, abs=1e-10)
        assert pipe.p2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_acceptance_probabilities_match_oracle(self, seed):
        tau = 6
        h, ds, fm = resolved_small_model(tau, seed_data=seed, seed_freq=seed + 20)
        pipe = PreparedPipeline(fm, h, tau)
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        assert pipe.p1 == pytest.approx(pred.p1(), abs=1e-10)
        assert pipe.p2 == pytest.approx(pred.p2(), abs=1e-10)

    def test_acceptance_never_exceeds_one(self):
        # rank-one design on an exact bin: the raw branch mass rounds above 1
        h = KernelHyper(1.5, 1.0, 0.1)
        ds = Dataset(np.array([[0.3]]), np.array([0.7]))
        fm = build_feature_model(ds, sample_frequencies(2, h, 1, 2), h)
        pipe = PreparedPipeline(fm, h, tau=6, delta_r=2.0)
        assert 0 < pipe.p1 <= 1.0 and 0 < pipe.p2 <= 1.0
        est = pipe.mean_estimate(ds.targets, [1.1], shots=1000, seeds=[3])
        assert est.shots_used[0] == 1000

    @pytest.mark.parametrize("branch", ["mean", "variance"])
    def test_vanishing_acceptance_refused_like_the_dense_path(self, branch, monkeypatch):
        # a profile of 1e-7 keeps about 1e-14 of the state, below the 1e-12 floor
        h, ds, fm = resolved_small_model(6)
        name = f"{branch}_rotation_profile"
        profile = getattr(InversionConstants, name)
        monkeypatch.setattr(InversionConstants, name, lambda ic: 1e-7 * profile(ic))
        with pytest.raises(PostSelectionError, match=branch):
            PreparedPipeline(fm, h, 6)
        ic = InversionConstants.from_feature_model(fm, h.noise_std, default_delta_r(fm), 6)
        with pytest.raises(PostSelectionError):
            dense_oracle(prepare_data_state(plan_encoding(fm)), ic)

    def test_uncompute_leakage_is_phase_register_mass(self, paper_pipeline, paper_oracle):
        _, _, ((mean_state, _), (variance_state, _)) = paper_oracle
        for sv, leakage in (
            (mean_state, paper_pipeline.uncompute_leakage_mean),
            (variance_state, paper_pipeline.uncompute_leakage_variance),
        ):
            # the marginal renormalises; the state's norm drifts ~1e-12 over the circuits
            mass0 = qsim._marginal_probabilities(sv, sv.register("phase"))[0]
            assert leakage == pytest.approx(1.0 - mass0, abs=1e-10)
            assert 0.0 < leakage < 1e-3

    def test_mean_state_matches_classical_target(
        self, paper_pipeline, paper_oracle, paper_feature_model
    ):
        fm = paper_feature_model
        ic = paper_pipeline.constants
        lam_t = fm.normalized_singular_values
        lam_hat2 = np.array([ic.decoded_eigenvalue_sq(b) for b in ic.bins])
        weights = lam_t * ic.c1 / (lam_hat2 + ic.sigma_tilde_sq)
        mean_state = paper_oracle[2][0][0]
        nr = mean_state.register("row").width
        nc = mean_state.register("col").width
        target = np.zeros((1 << nc, 1 << nr))
        for r in range(fm.rank):
            v = np.zeros(1 << nc)
            v[: fm.v.shape[0]] = fm.v[:, r]
            u = np.zeros(1 << nr)
            u[: fm.u.shape[0]] = fm.u[:, r]
            target += weights[r] * np.outer(v, u)
        target = target.ravel() / np.linalg.norm(target)
        full = np.zeros_like(mean_state.amplitudes)
        full[: target.size] = target
        fidelity = abs(np.vdot(full, mean_state.amplitudes)) ** 2
        assert fidelity >= 0.99


class TestPosteriorEstimates:
    def test_rank_one_closed_form_mean(self):
        h = KernelHyper(1.5, 1.0, 0.1)
        ds = Dataset(np.array([[0.3]]), np.array([0.7]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 2), h)
        pipe = PreparedPipeline(fm, h, tau=6, delta_r=2.0)
        x_star = 1.1
        est = pipe.mean_estimate(ds.targets, [x_star])
        phi1 = fm.design[0]
        phi_star = scaled_feature_vector([x_star], fm.freq, h)
        lam1 = fm.singular_values[0]
        expected = (
            lam1
            / (lam1**2 + h.noise_std**2)
            * float(phi_star @ (phi1 / np.linalg.norm(phi1)))
            * ds.targets[0]
        )
        assert est.mean[0] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_mode_equals_binned_oracle(self, seed):
        tau = 7
        h, ds, fm = resolved_small_model(tau, seed_data=seed + 7, seed_freq=seed + 40)
        pipe = PreparedPipeline(fm, h, tau)
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        grid = np.linspace(0.3, 5.9, 5)
        m = pipe.mean_estimate(ds.targets, grid)
        v = pipe.variance_estimate(grid)
        for i, x in enumerate(grid):
            phi_star = scaled_feature_vector([x], fm.freq, h)
            assert m.mean[i] == pytest.approx(pred.mean(phi_star, ds.targets), abs=1e-8)
            assert v.variance[i] == pytest.approx(pred.variance(phi_star), abs=1e-8)

    def test_orthogonal_query_leaves_null_space_variance(self):
        # engineered so the query features are exactly orthogonal to the design
        h = KernelHyper(1.5, 1.0, 0.1)
        freq = FrequencySet(frequencies=np.array([[0.25]]), seed=0)
        ds = Dataset(np.array([[0.0]]), np.array([0.5]))
        fm = build_feature_model(ds, freq, h)
        pipe = PreparedPipeline(fm, h, tau=5, delta_r=2.0)
        est = pipe.variance_estimate([1.0])  # phase = pi/2: features (0, sigma)
        assert est.diagnostics["overlap_raw"][0] == pytest.approx(0.0, abs=1e-10)
        assert est.variance[0] == pytest.approx(h.signal_std**2, abs=1e-10)
        direct = rff_posterior(fm, ds.targets, [1.0], h)
        assert est.variance[0] == pytest.approx(direct.variance[0], abs=1e-10)

    def test_zero_targets_rejected(self, paper_pipeline):
        with pytest.raises(ValueError):
            paper_pipeline.mean_estimate(np.zeros(16), [1.0])

    def test_sampled_mode_deterministic(self):
        h, ds, fm = resolved_small_model(6, seed_data=0, seed_freq=21)
        pipe = PreparedPipeline(fm, h, tau=6)
        a = pipe.mean_estimate(ds.targets, [1.0], shots=10_000, seeds=[5])
        b = pipe.mean_estimate(ds.targets, [1.0], shots=10_000, seeds=[5])
        c = pipe.mean_estimate(ds.targets, [1.0], shots=10_000, seeds=[6])
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.shots_used, b.shots_used)
        assert c.mean[0] != a.mean[0]
        va = pipe.variance_estimate([1.0], shots=10_000, seeds=[5])
        vb = pipe.variance_estimate([1.0], shots=10_000, seeds=[5])
        assert np.array_equal(va.variance, vb.variance)

    def test_sampled_variance_nonnegative(self):
        h, ds, fm = resolved_small_model(6, seed_data=2, seed_freq=6)
        pipe = PreparedPipeline(fm, h, tau=6)
        est = pipe.variance_estimate([4.0] * 10, shots=200, seeds=range(10))
        assert np.all(est.variance >= 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(tau=0)
        with pytest.raises(ConfigError):
            RunConfig(tau=5, mode="sampled", shots=0)
        with pytest.raises(ConfigError):
            RunConfig(tau=5, mode="nope")

    def test_grid_estimates_shapes_and_acceptance(self):
        h, ds, fm = resolved_small_model(6, seed_data=1, seed_freq=21)
        pipe = PreparedPipeline(fm, h, tau=6)
        grid = np.linspace(0.0, 6.0, 7)
        m = pipe.mean_estimate(ds.targets, grid)
        v = pipe.variance_estimate(grid)
        assert m.mean.shape == (7,) and m.variance is None and m.p2 is None
        assert v.variance.shape == (7,) and v.mean is None and v.p1 is None
        assert 0 < m.p1 <= 1 and 0 < v.p2 <= 1
        assert not m.shots_used.any() and not v.shots_used.any()


def _oracle_designs():
    """Small resolved designs, the N=1 (M > N) design and the orthogonal-query design."""
    designs = []
    for seed in range(3):
        h, ds, fm = resolved_small_model(6, seed_data=seed, seed_freq=seed + 30)
        designs.append((h, ds, fm, 6, None, np.linspace(0.0, 6.0, 5)))
    h = KernelHyper(1.5, 1.0, 0.1)
    ds = Dataset(np.array([[0.3]]), np.array([0.7]))
    fm = build_feature_model(ds, sample_frequencies(2, h, 1, 2), h)
    designs.append((h, ds, fm, 6, 2.0, np.array([0.0, 1.1, 4.0])))
    freq = FrequencySet(frequencies=np.array([[0.25]]), seed=0)
    ds = Dataset(np.array([[0.0]]), np.array([0.5]))
    fm = build_feature_model(ds, freq, h)
    designs.append((h, ds, fm, 5, 2.0, np.array([1.0, 0.4])))
    return designs


def _circuit_references(pipe, y, x):
    """Reference states of the Hadamard test (mean) and SWAP test (variance) at one point."""
    col_w = pipe.mean_state.register("col").width
    row_w = pipe.mean_state.register("row").width
    phase_dim = pipe.mean_state.register("phase").dim
    phi = scaled_feature_vector([x], pipe.fm.freq, pipe.hyper)
    col = np.zeros(1 << col_w)
    col[: phi.size] = phi / np.linalg.norm(phi)
    row = np.zeros(1 << row_w)
    row[: y.size] = y / np.linalg.norm(y)
    phase = np.zeros(phase_dim)
    phase[0] = 1.0
    reference = qsim.Statevector(
        amplitudes=np.kron(phase, np.kron(col, row)), registers=pipe.mean_state.registers
    )
    query = qsim.Statevector.from_amplitudes(col, [("query", col_w)])
    return reference, query


class TestBatchedReadoutMatchesCircuits:
    @pytest.mark.parametrize("design", range(5))
    def test_exact_overlaps(self, design):
        h, ds, fm, tau, delta_r, grid = _oracle_designs()[design]
        pipe = PreparedPipeline(fm, h, tau, delta_r)
        dense = dense_twin(pipe)
        m = pipe.mean_estimate(ds.targets, grid)
        v = pipe.variance_estimate(grid)
        for i, x in enumerate(grid):
            reference, query = _circuit_references(dense, ds.targets, x)
            hadamard = qsim.hadamard_test(dense.mean_state, reference)
            swap = qsim.swap_test(dense.variance_state, query, subsystem="col")
            assert abs(m.diagnostics["overlap"][i] - hadamard) <= 1e-12
            assert abs(np.clip(v.diagnostics["overlap_raw"][i], 0, 1) - swap) <= 1e-12

    @pytest.mark.parametrize("design", range(5))
    def test_sampled_draws(self, design):
        h, ds, fm, tau, delta_r, grid = _oracle_designs()[design]
        pipe = PreparedPipeline(fm, h, tau, delta_r)
        dense = dense_twin(pipe)
        shots = 5_000
        seeds = np.random.SeedSequence(design).spawn(2 * grid.size)
        m = pipe.mean_estimate(ds.targets, grid, shots, seeds[: grid.size])
        v = pipe.variance_estimate(grid, shots, seeds[grid.size :])
        for i, x in enumerate(grid):
            reference, query = _circuit_references(dense, ds.targets, x)
            rng = np.random.default_rng(seeds[i])
            accepted = int(rng.binomial(shots, min(pipe.p1, 1.0)))
            hadamard = qsim.hadamard_test(dense.mean_state, reference, accepted, rng)
            assert m.shots_used[i] == accepted
            assert m.diagnostics["overlap"][i] == hadamard
            rng = np.random.default_rng(seeds[grid.size + i])
            accepted = int(rng.binomial(shots, min(pipe.p2, 1.0)))
            swap = qsim.swap_test(
                dense.variance_state, query, subsystem="col", shots=accepted, seed=rng
            )
            assert v.shots_used[i] == accepted
            assert np.clip(v.diagnostics["overlap_raw"][i], 0, 1) == swap


def _schmidt_designs():
    """Designs with more rows than features, fewer (N=3, M=4) and a single row."""
    designs = []
    for n_points, m_freq, tau in ((64, 2, 6), (5, 1, 6), (3, 4, 6), (1, 3, 6), (1, 1, 5)):
        h, ds, fm = resolved_small_model(tau, n_points=n_points, m_freq=m_freq)
        designs.append((h, ds, fm, tau))
    return designs


class TestSchmidtRowsMatchDense:
    """The closed form in the Schmidt basis against every step applied to
    ``prepare_data_state(pipe.plan)`` as circuits (``dense_oracle``)."""

    def test_paper_config(self, paper_pipeline, paper_oracle, paper_dataset, grid50):
        row, col = paper_pipeline.plan.n_row_qubits, paper_pipeline.plan.n_col_qubits
        # the encoded state is released after setup
        assert not any(isinstance(v, qsim.Statevector) for v in vars(paper_pipeline).values())
        assert paper_pipeline.row_basis.shape == (1 << min(row, col), 1 << row)
        assert paper_pipeline.tau == 13
        assert_matches_dense(paper_pipeline, paper_dataset.targets, grid50, paper_oracle)

    @pytest.mark.parametrize("design", range(5))
    def test_small_designs(self, design):
        h, ds, fm, tau = _schmidt_designs()[design]
        pipe = PreparedPipeline(fm, h, tau)
        row, col = pipe.plan.n_row_qubits, pipe.plan.n_col_qubits
        assert pipe.row_basis.shape == (1 << min(row, col), 1 << row)
        assert_matches_dense(pipe, ds.targets, np.linspace(0.0, 6.0, 7))


class TestCapacityPlan:
    def test_phase_estimation_counts_the_schmidt_rows(self, monkeypatch):
        # N=64, M=2: the phase table has min(6 row, 2 col) + 6 phase = 8 qubits'
        # worth of entries, which fits a cap of 8 (as does encoding, 6 + 2);
        # a table over the full row register would need 6 + 6 = 12
        tau = 6
        h, ds, fm = resolved_small_model(tau, n_points=64, m_freq=2)
        monkeypatch.setattr(qsim, "MAX_QUBITS", 8)
        pipe = PreparedPipeline(fm, h, tau)
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        grid = np.linspace(0.0, 6.0, 4)
        m = pipe.mean_estimate(ds.targets, grid)
        v = pipe.variance_estimate(grid)
        for i, x in enumerate(grid):
            phi_star = scaled_feature_vector([x], fm.freq, h)
            assert m.mean[i] == pytest.approx(pred.mean(phi_star, ds.targets), abs=1e-8)
            assert v.variance[i] == pytest.approx(pred.variance(phi_star), abs=1e-8)

    def test_encoding_refused_before_encoding(self, monkeypatch):
        # N=64, M=1: 6 row + 1 col = 7 qubits to encode against a cap of 6, while
        # the phase table would need only min(6, 1) + 2 phase = 3
        h, ds, fm = small_model(n_points=64, m_freq=1)
        prep_calls = []
        monkeypatch.setattr(qsim, "MAX_QUBITS", 6)
        monkeypatch.setattr(qsim, "apply_circuit", lambda *args: prep_calls.append(args))
        with pytest.raises(CapacityError, match="encoding"):
            PreparedPipeline(fm, h, tau=2)
        assert prep_calls == []

    def test_refused_before_encoding(self, monkeypatch):
        # N=16, M=2: min(4 row, 2 col) + 11 phase = 13 against a cap of 12,
        # while encoding needs only 4 + 2 = 6
        h, ds, fm = small_model(n_points=16, m_freq=2)
        circuit_calls = []
        monkeypatch.setattr(qsim, "MAX_QUBITS", 12)
        monkeypatch.setattr(qsim, "apply_circuit", lambda *args: circuit_calls.append(args))
        with pytest.raises(CapacityError, match="phase table"):
            PreparedPipeline(fm, h, tau=11)
        assert circuit_calls == []

    def test_wide_column_register_runs_without_column_matrices(self, monkeypatch):
        # N=1, M=64: 0 row + 7 col to encode and min(0, 7) + 4 phase for the
        # table fit a cap of 12; no 128 x 128 matrix of the col register is built
        h, ds, fm = small_model(n_points=1, m_freq=64)
        monkeypatch.setattr(qsim, "MAX_QUBITS", 12)
        tau = 4
        pipe = PreparedPipeline(fm, h, tau)
        assert pipe.col_basis.shape == (128, 1)
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        grid = np.array([0.5, 2.0])
        m = pipe.mean_estimate(ds.targets, grid)
        v = pipe.variance_estimate(grid)
        for i, x in enumerate(grid):
            phi_star = scaled_feature_vector([x], fm.freq, h)
            assert m.mean[i] == pytest.approx(pred.mean(phi_star, ds.targets), abs=1e-8)
            assert v.variance[i] == pytest.approx(pred.variance(phi_star), abs=1e-8)

    def test_column_matrices_at_the_cap_fit(self, monkeypatch):
        # N=1, M=32: the readout factors span a 64-dimensional col register
        h, ds, fm = small_model(n_points=1, m_freq=32)
        monkeypatch.setattr(qsim, "MAX_QUBITS", 12)
        pipe = PreparedPipeline(fm, h, tau=4)
        assert pipe.col_basis.shape == (64, 1) and pipe.mean_slice.shape == (64, 1)
        assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1

    def test_wide_column_register_keeps_the_ladder_small(self):
        # M >> N: a 7-qubit col register (d = 128) under a 10-qubit phase
        # register; a stack of every power U^v would take 2^10 * 128^2 * 16 B
        h, ds, fm = small_model(n_points=2, m_freq=64)
        tau = 10
        pipe = PreparedPipeline(fm, h, tau)
        sv, circuit, _ = dense_oracle(prepare_data_state(pipe.plan), pipe.constants)
        ladder_bytes = sum(op.matrices.nbytes for op in circuit)
        assert ladder_bytes <= sv.amplitudes.nbytes // 4
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        grid = np.array([0.5, 2.0])
        m = pipe.mean_estimate(ds.targets, grid)
        v = pipe.variance_estimate(grid)
        assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1
        for i, x in enumerate(grid):
            phi_star = scaled_feature_vector([x], fm.freq, h)
            assert m.mean[i] == pytest.approx(pred.mean(phi_star, ds.targets), abs=1e-8)
            assert v.variance[i] == pytest.approx(pred.variance(phi_star), abs=1e-8)


class TestNoDenseStepsInTheRunPath:
    def test_pipeline_runs_without_qpe_postselect_or_partial_trace(self, monkeypatch):
        h, ds, fm = resolved_small_model(6, n_points=8, m_freq=2)

        def refuse(*args, **kwargs):
            raise AssertionError("a dense step ran in the pipeline")

        dense_steps = ("qpe_circuit", "qpe", "inverse_qpe", "postselect", "partial_trace")
        for name in (*dense_steps, "apply_gate"):
            monkeypatch.setattr(qsim, name, refuse)
        circuits = []
        apply_circuit = qsim.apply_circuit
        monkeypatch.setattr(
            qsim, "apply_circuit", lambda *args: circuits.append(args) or apply_circuit(*args)
        )
        pipe = PreparedPipeline(fm, h, 6)
        grid = np.linspace(0.0, 6.0, 3)
        for shots in (0, 1000):
            seeds = range(grid.size) if shots else None
            pipe.mean_estimate(ds.targets, grid, shots, seeds)
            pipe.variance_estimate(grid, shots, seeds)
        assert len(circuits) == 1  # the encoding


class TestGaugeInvariance:
    def test_svd_sign_flip_does_not_change_predictions(self):
        tau = 6
        h, ds, fm = resolved_small_model(tau, seed_data=4, seed_freq=11)
        signs = np.where(np.arange(fm.rank) % 2 == 0, -1.0, 1.0)
        flipped = FeatureModel(
            freq=fm.freq,
            design=fm.design,
            frobenius_norm=fm.frobenius_norm,
            u=fm.u * signs,
            singular_values=fm.singular_values,
            v=fm.v * signs,
        )
        delta_r = 1.05 * float(fm.normalized_singular_values[0] ** 2)
        a = BinnedPrediction(fm, h.noise_std, delta_r, tau)
        b = BinnedPrediction(flipped, h.noise_std, delta_r, tau)
        phi_star = scaled_feature_vector([1.7], fm.freq, h)
        assert a.mean(phi_star, ds.targets) == pytest.approx(
            b.mean(phi_star, ds.targets), abs=1e-14
        )
        assert a.variance(phi_star) == pytest.approx(b.variance(phi_star), abs=1e-14)
        assert a.p1() == b.p1() and a.p2() == b.p2()


class TestTauMonotonicity:
    def test_mean_deviation_non_increasing(
        self, paper_feature_model, paper_dataset, paper_hyper, paper_pipeline
    ):
        grid = np.linspace(0, 2 * np.pi, 10)
        rff_means = rff_posterior(
            paper_feature_model, paper_dataset.targets, grid, paper_hyper
        ).mean

        def max_dev(pipe):
            q = pipe.mean_estimate(paper_dataset.targets, grid).mean
            return np.max(np.abs(q - rff_means))

        devs = []
        for tau in (8, 10):
            devs.append(max_dev(PreparedPipeline(paper_feature_model, paper_hyper, tau)))
        devs.append(max_dev(paper_pipeline))  # tau = 13
        assert devs[0] >= devs[1] >= devs[2]
