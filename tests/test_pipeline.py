from __future__ import annotations

import copy
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qrff import errors, pipeline, qsim
from qrff.cli import RunConfig, generate_dataset
from qrff.errors import CapacityError, ConfigError, PostSelectionError
from qrff.kernel import Dataset, KernelHyper
from qrff.pipeline import (
    PreparedPipeline,
    default_delta_r,
    phase_table,
    rotation_profiles,
    spectral_setup,
)
from qrff.qsim import dense_oracle, prepare_data_state
from qrff.rff import (
    FeatureModel,
    build_feature_model,
    rff_posterior,
    sample_frequencies,
    scaled_feature_vector,
    spectral_sums,
)

from dense_readout import assert_encodes_design, assert_matches_dense, dense_twin
from spectral_oracle import (
    BinnedPrediction,
    assert_matches_binned,
    assert_matches_direct_svd,
    left_singular_vectors,
    qpe_bin_weights,
)


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
    register's bin width, which the pipeline filters out; screening keeps
    these tests on designs whose every component is inverted.
    """
    for trial in range(seed_freq, seed_freq + 100):
        h, ds, fm = small_model(n_points, m_freq, seed_data, trial, noise)
        lam_t2 = fm.normalized_singular_values**2
        bins = np.round(lam_t2 / (1.05 * lam_t2[0]) * (1 << tau))
        if bins.min() >= 2:
            return h, ds, fm
    raise AssertionError("no resolvable design found")


class TestEncoding:
    def test_single_point_zero_phase(self):
        h = KernelHyper(1.0, 1.0, 0.1)
        ds = Dataset(np.array([[0.0]]), np.array([1.0]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 0), h)
        sv = prepare_data_state(fm)
        assert sv.register("row").width == 0
        assert sv.register("col").width == 1
        # one row and one frequency: a single (cos, sin) pair at phase 0
        assert sv.amplitudes.shape == (2,)
        assert abs(sv.amplitudes[1]) == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(sv.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_single_point_third_pi_phase(self):
        # frequency and input chosen so the feature phase is exactly pi/3
        h = KernelHyper(1.0, 1.0, 0.1)
        freq = np.array([[1.0 / 6.0]])
        ds = Dataset(np.array([[1.0]]), np.array([0.3]))
        fm = build_feature_model(ds, freq, h)
        sv = prepare_data_state(fm)
        assert sv.amplitudes[0].real == pytest.approx(0.5, abs=1e-12)
        assert sv.amplitudes[1].real == pytest.approx(0.8660254037844386, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_by_two_matches_vectorization(self, seed):
        h, ds, fm = small_model(n_points=2, m_freq=2, seed_data=seed, seed_freq=seed + 9)
        assert_encodes_design(fm)

    def test_schedule_enumerates_all_pairs(self, paper_feature_model):
        sv = prepare_data_state(paper_feature_model)
        assert sv.register("row").dim == 16 and sv.register("col").dim == 4
        # each of the 16 x 2 (row, frequency) pairs holds a (cos, sin) pair of
        # mass 1 / (N M): every pair got its rotation
        pairs = np.abs(sv.amplitudes.reshape(2, 2, 16)) ** 2
        assert np.allclose(pairs.sum(axis=1), 1.0 / 32, atol=1e-12)

    def test_preparation_is_deterministic(self, paper_feature_model):
        a = prepare_data_state(paper_feature_model)
        b = prepare_data_state(paper_feature_model)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_unit_norm(self, paper_feature_model):
        sv = prepare_data_state(paper_feature_model)
        assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-10

    def test_row_permutation_permutes_row_register(self):
        h, ds, fm = small_model(n_points=4, m_freq=1)
        perm = np.array([2, 0, 3, 1])
        ds_perm = Dataset(ds.inputs[perm], ds.targets[perm])
        fm_perm = build_feature_model(ds_perm, fm.freq, h)
        a = prepare_data_state(fm).amplitudes.reshape(-1, 4)
        b = prepare_data_state(fm_perm).amplitudes.reshape(-1, 4)
        # row j of the permuted state holds what row perm[j] held before
        assert np.allclose(b[:, np.argsort(perm)], a, atol=1e-12)

    def test_padding_rows_are_zero(self):
        h, ds, fm = small_model(n_points=3, m_freq=2)
        sv = prepare_data_state(fm)
        assert sv.register("row").dim == 4
        grid = sv.amplitudes.reshape(sv.register("col").dim, sv.register("row").dim)
        assert np.max(np.abs(grid[:, 3])) == 0.0


def dense_spectral_state(fm, tau, delta_r):
    """The encoded design after the dense QPE of exp(i rho 2 pi / delta_r), as in
    ``dense_oracle`` before its rotation profiles, so with no ``spectral_setup``
    bounds and no refusal of unresolved bins: rho's eigenbasis and eigenphases
    s^2 / delta_r from one SVD of the amplitudes."""
    sv = prepare_data_state(fm)
    col, row = sv.register("col"), sv.register("row")
    basis, s, _ = np.linalg.svd(sv.amplitudes.reshape(col.dim, row.dim))
    theta = np.zeros(col.dim)
    theta[: s.size] = s**2 / delta_r
    return qsim.qpe(sv, qsim.qpe_circuit(sv, "col", basis, theta, tau), tau)


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

    def test_wraparound_rejected(self, paper_feature_model):
        lam_max2 = float(paper_feature_model.normalized_singular_values[0] ** 2)
        with pytest.raises(ConfigError):
            PreparedPipeline(paper_feature_model, 6, delta_r=0.5 * lam_max2)

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
        # what remains on the phase register is s_k a_k(b). At tau 13 kicks
        # from eigh(rho)'s eigenvalues left gaps of 1.6e-13 to 3.46e-12 over
        # these designs: the kick powers multiply the eigenvalue error by up
        # to 2^(tau-1). Kicks exp(2 pi i (theta_k 2^j mod 1)) with theta_k =
        # s_k^2 / delta_r from an SVD of the amplitudes leave 2.3e-15 to 6.0e-15.
        tau = 13
        if design < 5:
            h, ds, fm, _ = _schmidt_designs()[design]
        else:
            h, ds, fm = small_model(n_points=16, m_freq=2, seed_freq=21)
        pipe = PreparedPipeline(fm, tau)
        sv = dense_spectral_state(fm, tau, pipe.delta_r)
        w, s, vh = np.linalg.svd(
            prepare_data_state(fm).amplitudes.reshape(sv.register("col").dim, -1),
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


def _pipeline_on_targets(pipe, ds, y):
    """``pipe`` rebuilt on a fit of ``ds``'s inputs with targets ``y``."""
    fm = build_feature_model(Dataset(ds.inputs, y), pipe.fm.freq, pipe.fm.hyper)
    return PreparedPipeline(fm, pipe.tau, pipe.delta_r)


def sigma_tilde_sq(fm, h):
    return h.noise_std**2 / fm.frobenius_norm**2


def decoded_bins(fm, delta_r, tau):
    return np.round(fm.normalized_singular_values**2 / delta_r * (1 << tau))


class TestSpectralSetup:
    def test_boundedness_invariant(self, paper_feature_model, paper_hyper):
        fm = paper_feature_model
        st2 = sigma_tilde_sq(fm, paper_hyper)
        setup = spectral_setup(fm.normalized_singular_values, st2, 0.4, 13)
        for b in decoded_bins(fm, 0.4, 13):
            lam_hat2 = b * 0.4 / 2**13
            assert setup["c1"] / (lam_hat2 + st2) <= 1 + 1e-12
            assert setup["c2"] / np.sqrt(lam_hat2 * (lam_hat2 + st2)) <= 1 + 1e-12

    def test_below_resolution_component_is_filtered(self):
        # two nearly identical rows give a tiny retained singular value, which
        # rounds to bin 0 where both profiles vanish: the run drops it, as the
        # circuit does, and the variance gives it back its prior (phi^T v_1)^2
        h = KernelHyper(1.5, 1.0, 0.1)
        ds = Dataset(np.array([[0.5], [0.5 + 1e-5]]), np.array([0.2, 0.2]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 4), h)
        assert fm.rank == 2  # above the rank cutoff, below bin resolution
        pipe = PreparedPipeline(fm, 6, 1.05)
        assert pipe.kept.tolist() == [True, False]
        assert max(qsim.closed_form_gaps(pipe).values()) <= 1e-12
        assert_matches_dense(pipe, np.linspace(0.0, 2 * np.pi, 7))

    def test_top_bin_below_resolution_raises(self, paper_feature_model):
        # at delta_r = 1e3 even the top component rounds to bin 0 at tau 6,
        # so no component would be kept
        assert decoded_bins(paper_feature_model, 1e3, 6)[0] == 0
        with pytest.raises(ConfigError, match="decodes to eigenvalue bin 0"):
            PreparedPipeline(paper_feature_model, 6, 1e3)

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_top_bin_wrapping_to_zero_raises(self, tau, paper_feature_model):
        # default delta_r = 1.05 lam~0^2 rounds the top component to bin 2^tau
        # for tau <= 3, which the tau-qubit phase register reads as bin 0
        with pytest.raises(ConfigError):
            PreparedPipeline(paper_feature_model, tau)

    def test_tau_four_resolves_paper_config(self, paper_feature_model):
        pipe = PreparedPipeline(paper_feature_model, 4)
        bins = decoded_bins(paper_feature_model, pipe.delta_r, 4)
        assert max(bins) < 1 << 4
        assert min(bins) > 0

    def test_profile_excludes_bin_zero(self, paper_feature_model, paper_hyper):
        fm = paper_feature_model
        st2 = sigma_tilde_sq(fm, paper_hyper)
        setup = spectral_setup(fm.normalized_singular_values, st2, 0.4, 6)
        for profile in rotation_profiles(setup["c1"], setup["c2"], st2, 0.4, 6):
            assert profile[0] == 0.0
            assert np.all(profile <= 1.0)

    def test_profiles_keep_their_arithmetic(self, paper_pipeline):
        # bit for bit: a reciprocal form moves the last digit of the leakage
        pipe = paper_pipeline
        st2 = sigma_tilde_sq(pipe.fm, pipe.fm.hyper)
        lam_hat2 = np.arange(1 << pipe.tau) * pipe.delta_r / (1 << pipe.tau)
        with np.errstate(divide="ignore"):
            mean = np.minimum(1.0, pipe.c1 / (lam_hat2 + st2))
            variance = np.minimum(1.0, pipe.c2 / np.sqrt(lam_hat2 * (lam_hat2 + st2)))
        mean[0] = variance[0] = 0.0
        profiles = rotation_profiles(pipe.c1, pipe.c2, pipe.sigma_tilde_sq, pipe.delta_r, pipe.tau)
        assert np.array_equal(profiles[0], mean)
        assert np.array_equal(profiles[1], variance)

    @pytest.mark.parametrize("tau", [8, 10, 13])
    def test_runs_without_a_pipeline(self, tau, paper_feature_model, paper_hyper):
        fm = paper_feature_model
        pipe = PreparedPipeline(fm, tau)
        assert pipe.sigma_tilde_sq == sigma_tilde_sq(fm, paper_hyper)
        setup = spectral_setup(
            fm.normalized_singular_values, pipe.sigma_tilde_sq, pipe.delta_r, tau
        )
        assert sorted(setup) == [
            "c1",
            "c2",
            "kept",
            "mean_coefficients",
            "p1",
            "p2",
            "uncompute_leakage_mean",
            "uncompute_leakage_variance",
            "variance_coefficients",
        ]
        # the pipeline keeps every key, with the coefficients per unit
        # Frobenius norm put in design units
        setup["mean_coefficients"] /= fm.frobenius_norm
        setup["variance_coefficients"] /= fm.frobenius_norm**2
        for key, value in setup.items():
            assert np.array_equal(getattr(pipe, key), value), key

    def test_oracle_runs_no_second_setup(self, paper_pipeline, paper_oracle, monkeypatch):
        # the oracle builds its profiles from the pipeline's own c1 and c2
        def refuse(*args):
            raise AssertionError("the oracle reran the setup")

        monkeypatch.setattr(pipeline, "phase_table", refuse)
        monkeypatch.setattr(pipeline, "spectral_setup", refuse)
        spectral, _, branches = qsim.pipeline_oracle(paper_pipeline)
        assert np.array_equal(spectral.amplitudes, paper_oracle[0].amplitudes)
        for (state, p), (want, p_want) in zip(branches, paper_oracle[2]):
            assert np.array_equal(state.amplitudes, want.amplitudes)
            assert p == p_want

    def test_setup_peak_counts_the_table_and_three_profiles(self):
        # the rank x 2^tau table, both rotation profiles and one squared profile
        h = KernelHyper(1.5, 1.0, 0.1)
        fm = build_feature_model(Dataset([[0.5]], [0.7]), sample_frequencies(1, h, 1, 21), h)
        tau = 20
        tracemalloc.start()
        try:
            PreparedPipeline(fm, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**tau * (fm.rank + 3) + 2**20


class TestInversionBranches:
    def test_single_eigenvalue_unit_acceptance(self):
        # rank-1 design, zero noise, dyadic phase: rotation amplitude exactly 1
        h = KernelHyper(1.5, 1.0, 0.0)
        ds = Dataset(np.array([[0.3]]), np.array([0.7]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, 2), h)
        pipe = PreparedPipeline(fm, tau=5, delta_r=2.0)
        assert pipe.c1 == pytest.approx(1.0, abs=1e-12)
        assert pipe.p1 == pytest.approx(1.0, abs=1e-10)
        assert pipe.p2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_acceptance_probabilities_match_oracle(self, seed):
        tau = 6
        h, ds, fm = resolved_small_model(tau, seed_data=seed, seed_freq=seed + 20)
        pipe = PreparedPipeline(fm, tau)
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        assert pipe.p1 == pytest.approx(pred.p1(), abs=1e-10)
        assert pipe.p2 == pytest.approx(pred.p2(), abs=1e-10)

    def test_acceptance_never_exceeds_one(self):
        # rank-one design on an exact bin: the raw branch mass rounds above 1
        h = KernelHyper(1.5, 1.0, 0.1)
        ds = Dataset(np.array([[0.3]]), np.array([0.7]))
        fm = build_feature_model(ds, sample_frequencies(2, h, 1, 2), h)
        pipe = PreparedPipeline(fm, tau=6, delta_r=2.0)
        assert 0 < pipe.p1 <= 1.0 and 0 < pipe.p2 <= 1.0
        _, readout = pipe.posterior([1.1], shots=1000, seed=3)
        assert readout["mean_accepted"][0] == 1000

    @pytest.mark.parametrize("branch", ["mean", "variance"])
    def test_vanishing_acceptance_refused_like_the_dense_path(self, branch, monkeypatch):
        # a profile of 1e-7 keeps about 1e-14 of the state, below the 1e-12 floor
        h, ds, fm = resolved_small_model(6)
        k = ("mean", "variance").index(branch)

        def faint(*args):
            # the branch's profile times 1e-7, which the setup's table @ prof**2
            # turns into its p times 1e-14
            profiles = list(rotation_profiles(*args))
            profiles[k] = 1e-7 * profiles[k]
            return tuple(profiles)

        monkeypatch.setattr(pipeline, "rotation_profiles", faint)
        with pytest.raises(PostSelectionError, match=branch):
            PreparedPipeline(fm, 6)
        delta_r, st2 = default_delta_r(fm), sigma_tilde_sq(fm, h)
        setup = spectral_setup(fm.normalized_singular_values, st2, delta_r, 6)
        profiles = faint(setup["c1"], setup["c2"], st2, delta_r, 6)
        with pytest.raises(PostSelectionError):
            dense_oracle(prepare_data_state(fm), delta_r, 6, profiles)

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
        fm, pipe = paper_feature_model, paper_pipeline
        lam_t = fm.normalized_singular_values
        lam_hat2 = decoded_bins(fm, pipe.delta_r, pipe.tau) * pipe.delta_r / 2**pipe.tau
        weights = lam_t * pipe.c1 / (lam_hat2 + sigma_tilde_sq(fm, fm.hyper))
        mean_state = paper_oracle[2][0][0]
        nr = mean_state.register("row").width
        nc = mean_state.register("col").width
        target = np.zeros((1 << nc, 1 << nr))
        fm_u = left_singular_vectors(fm)
        for r in range(fm.rank):
            v = np.zeros(1 << nc)
            v[: fm.v.shape[0]] = fm.v[:, r]
            u = np.zeros(1 << nr)
            u[: fm_u.shape[0]] = fm_u[:, r]
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
        pipe = PreparedPipeline(fm, tau=6, delta_r=2.0)
        x_star = 1.1
        est, _ = pipe.posterior([x_star])
        phi1 = scaled_feature_vector(ds.inputs[0], fm.freq, h)
        phi_star = scaled_feature_vector([x_star], fm.freq, h)
        lam1 = fm.singular_values[0]
        expected = (
            lam1
            / (lam1**2 + h.noise_std**2)
            * float(phi_star @ (phi1 / np.linalg.norm(phi1)))
            * ds.targets[0]
        )
        assert est.mean[0] == pytest.approx(expected, abs=1e-10)

    def test_coefficients_tend_to_rffs_as_tau_grows(self, paper_feature_model):
        # bin rounding and the phase spread shrink as the phase register grows
        fm = paper_feature_model
        lam = fm.singular_values
        denom = lam**2 + fm.hyper.noise_std**2
        gaps = {}
        for tau in (13, 20):
            pipe = PreparedPipeline(fm, tau)
            gaps[tau] = (
                np.max(np.abs(pipe.mean_coefficients / (lam / denom) - 1.0)),
                np.max(np.abs(pipe.variance_coefficients / (1.0 / denom) - 1.0)),
            )
        assert max(gaps[13]) < 1e-3
        assert max(gaps[20]) < 1e-5
        assert gaps[20][0] < gaps[13][0] and gaps[20][1] < gaps[13][1]

    @pytest.mark.parametrize("shots", [0, 1_000_000])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_zero_noise_variance_is_the_null_space_term(self, shots, filtered):
        # the spectral term carries noise_std^2 outside its coefficients, so at
        # noise_std 0 it vanishes and the SWAP-test overlap stays finite; a
        # component filtered below the phase resolution (two nearly identical
        # rows, as in TestSpectralSetup) joins the residual with its (phi^T v_k)^2
        cfg = RunConfig(noise_std=0.0)
        if filtered:
            ds = Dataset(np.array([[0.5], [0.5 + 1e-5]]), np.array([0.2, 0.2]))
            freq, tau, delta_r = sample_frequencies(1, cfg.hyper, 1, 4), 6, 1.05
        else:
            ds = generate_dataset(cfg)
            freq = sample_frequencies(cfg.n_frequencies, cfg.hyper, cfg.dim, cfg.seed_freq)
            tau, delta_r = cfg.tau, None
        fm = build_feature_model(ds, freq, cfg.hyper)
        pipe = PreparedPipeline(fm, tau, delta_r)
        assert pipe.kept.all() != filtered
        grid = cfg.diagonal(cfg.grid_count)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post, readout = pipe.posterior(grid, shots, cfg.seed_shots)
        phi = scaled_feature_vector(grid, fm.freq, fm.hyper)
        a, b = pipe.mean_coefficients, pipe.variance_coefficients
        _, _, null_sq = spectral_sums(fm, phi, a, b, pipe.kept)
        assert np.array_equal(post.variance, null_sq)
        dropped = phi @ fm.v[:, ~pipe.kept]
        rff_null_sq = spectral_sums(fm, phi, a, b)[2]
        assert np.abs(null_sq - rff_null_sq - np.sum(dropped**2, axis=1)).max() <= 1e-14
        assert np.isfinite(readout["mean_overlap"]).all()
        assert np.isfinite(readout["variance_overlap"]).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_mode_equals_binned_oracle(self, seed):
        tau = 7
        h, ds, fm = resolved_small_model(tau, seed_data=seed + 7, seed_freq=seed + 40)
        pipe = PreparedPipeline(fm, tau)
        assert_matches_binned(pipe, np.linspace(0.3, 5.9, 5))

    def test_orthogonal_query_leaves_null_space_variance(self):
        # engineered so the query features are exactly orthogonal to the design
        h = KernelHyper(1.5, 1.0, 0.1)
        freq = np.array([[0.25]])
        ds = Dataset(np.array([[0.0]]), np.array([0.5]))
        fm = build_feature_model(ds, freq, h)
        pipe = PreparedPipeline(fm, tau=5, delta_r=2.0)
        est, readout = pipe.posterior([1.0])  # phase = pi/2: features (0, sigma)
        assert readout["variance_overlap"][0] == pytest.approx(0.0, abs=1e-10)
        assert est.variance[0] == pytest.approx(h.signal_std**2, abs=1e-10)
        direct = rff_posterior(fm, [1.0])
        assert est.variance[0] == pytest.approx(direct.variance[0], abs=1e-10)

    def test_zero_targets_rejected(self, paper_pipeline, paper_dataset):
        with pytest.raises(ValueError):
            _pipeline_on_targets(paper_pipeline, paper_dataset, np.zeros(16))

    def test_sampled_mode_deterministic(self):
        h, ds, fm = resolved_small_model(6, seed_data=0, seed_freq=21)
        pipe = PreparedPipeline(fm, tau=6)
        a, a_readout = pipe.posterior([1.0], shots=10_000, seed=5)
        b, b_readout = pipe.posterior([1.0], shots=10_000, seed=5)
        c, _ = pipe.posterior([1.0], shots=10_000, seed=6)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a_readout["mean_accepted"], b_readout["mean_accepted"])
        assert c.mean[0] != a.mean[0]
        assert np.array_equal(a.variance, b.variance)

    def test_sampled_variance_nonnegative(self):
        h, ds, fm = resolved_small_model(6, seed_data=2, seed_freq=6)
        pipe = PreparedPipeline(fm, tau=6)
        est, _ = pipe.posterior([4.0] * 10, shots=200, seed=10)
        assert np.all(est.variance >= 0.0)

    @pytest.mark.parametrize("branch", ["mean", "variance"])
    def test_sampled_mode_refuses_a_point_with_no_accepted_shot(
        self, branch, paper_pipeline, paper_dataset
    ):
        # one shot per point at p < 1: some of 64 points draw 0 accepted shots
        pipe = _pipeline_on_targets(paper_pipeline, paper_dataset, np.ones(16))
        assert pipe.p1 < 1.0 and pipe.p2 < 1.0
        if branch == "variance":
            # the mean branch then accepts every shot, so only the SWAP test can refuse
            pipe.p1 = 1.0
        grid = np.linspace(0.0, 6.0, 64)
        with pytest.raises(PostSelectionError, match="no accepted shots out of 1 "):
            pipe.posterior(grid, shots=1, seed=0)

    @pytest.mark.parametrize("branch", ["mean", "variance"])
    def test_sampled_grid_builds_one_generator(
        self, branch, paper_pipeline, paper_dataset, monkeypatch
    ):
        pipe = _pipeline_on_targets(paper_pipeline, paper_dataset, np.ones(16))
        calls = []
        default_rng = np.random.default_rng

        def counting_rng(seed=None):
            calls.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        grid = np.linspace(0.0, 6.0, 1000)
        _, readout = pipe.posterior(grid, shots=1000, seed=7)
        # the mean branch's generator, then the variance branch's, both spawned from 7
        assert [(c.entropy, c.spawn_key) for c in calls] == [(7, (0,)), (7, (1,))]
        # one generator serves the branch's whole grid, so each point has a count
        assert readout[f"{branch}_accepted"].shape == (1000,)
        spawn_key = {"mean": (0,), "variance": (1,)}[branch]
        assert [c.spawn_key for c in calls].count(spawn_key) == 1

    def test_sampled_mode_keeps_the_exact_readout(self, paper_pipeline, paper_dataset, grid50):
        _, readout = paper_pipeline.posterior(grid50, 1000, seed=1)
        exact, exact_readout = paper_pipeline.posterior(grid50)
        assert np.array_equal(readout["exact_mean"], exact.mean)
        assert np.array_equal(readout["exact_variance"], exact.variance)
        assert "exact_mean" not in exact_readout

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_one_call_evaluates_the_query_features_once(self, shots, monkeypatch):
        h, ds, fm = resolved_small_model(6, seed_data=1, seed_freq=21)
        pipe = PreparedPipeline(fm, tau=6)
        calls = []

        def counting_features(*args):
            calls.append(args)
            return scaled_feature_vector(*args)

        monkeypatch.setattr(pipeline, "scaled_feature_vector", counting_features)
        pipe.posterior(np.linspace(0.0, 6.0, 7), shots, seed=3)
        assert len(calls) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(tau=0)
        with pytest.raises(ConfigError):
            RunConfig(tau=5, mode="sampled", shots=0)
        with pytest.raises(ConfigError):
            RunConfig(tau=5, mode="nope")

    def test_grid_estimates_shapes_and_acceptance(self):
        h, ds, fm = resolved_small_model(6, seed_data=1, seed_freq=21)
        pipe = PreparedPipeline(fm, tau=6)
        grid = np.linspace(0.0, 6.0, 7)
        post, readout = pipe.posterior(grid)
        assert post.mean.shape == (7,) and post.variance.shape == (7,)
        assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1
        assert not readout["mean_accepted"].any() and not readout["variance_accepted"].any()


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
    freq = np.array([[0.25]])
    ds = Dataset(np.array([[0.0]]), np.array([0.5]))
    fm = build_feature_model(ds, freq, h)
    designs.append((h, ds, fm, 5, 2.0, np.array([1.0, 0.4])))
    return designs


def _circuit_references(pipe, y, x):
    """Reference states of the Hadamard test (mean) and SWAP test (variance) at one point."""
    col_w = pipe.mean_state.register("col").width
    row_w = pipe.mean_state.register("row").width
    phase_dim = pipe.mean_state.register("phase").dim
    phi = scaled_feature_vector([x], pipe.fm.freq, pipe.fm.hyper)
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
        pipe = PreparedPipeline(fm, tau, delta_r)
        dense = dense_twin(pipe)
        _, readout = pipe.posterior(grid)
        for i, x in enumerate(grid):
            reference, query = _circuit_references(dense, ds.targets, x)
            hadamard = qsim.hadamard_test(dense.mean_state, reference)
            swap = qsim.swap_test(dense.variance_state, query, subsystem="col")
            assert abs(readout["mean_overlap"][i] - hadamard) <= 1e-12
            assert abs(np.clip(readout["variance_overlap"][i], 0, 1) - swap) <= 1e-12

    @pytest.mark.parametrize("design", range(5))
    def test_sampled_draws(self, design):
        h, ds, fm, tau, delta_r, grid = _oracle_designs()[design]
        pipe = PreparedPipeline(fm, tau, delta_r)
        dense = dense_twin(pipe)
        shots = 5_000
        _, readout = pipe.posterior(grid, shots, seed=design)
        mean_seed, var_seed = np.random.SeedSequence(design).spawn(2)
        # each branch draws every point's accepted shots, then the readouts in grid order
        mean_rng = np.random.default_rng(mean_seed)
        mean_accepted = mean_rng.binomial(shots, min(pipe.p1, 1.0), size=grid.size)
        var_rng = np.random.default_rng(var_seed)
        var_accepted = var_rng.binomial(shots, min(pipe.p2, 1.0), size=grid.size)
        assert np.array_equal(readout["mean_accepted"], mean_accepted)
        assert np.array_equal(readout["variance_accepted"], var_accepted)
        for i, x in enumerate(grid):
            reference, query = _circuit_references(dense, ds.targets, x)
            hadamard = qsim.hadamard_test(
                dense.mean_state, reference, int(mean_accepted[i]), mean_rng
            )
            assert readout["mean_overlap"][i] == hadamard
            swap = qsim.swap_test(
                dense.variance_state,
                query,
                subsystem="col",
                shots=int(var_accepted[i]),
                seed=var_rng,
            )
            assert np.clip(readout["variance_overlap"][i], 0, 1) == swap


def _schmidt_designs():
    """Designs with more rows than features, fewer (N=3, M=4) and a single row,
    then one fit at hyperparameters other than the paper's."""
    designs = []
    for n_points, m_freq, tau in ((64, 2, 6), (5, 1, 6), (3, 4, 6), (1, 3, 6), (1, 1, 5)):
        h, ds, fm = resolved_small_model(tau, n_points=n_points, m_freq=m_freq)
        designs.append((h, ds, fm, tau))
    h = KernelHyper(3.0, 0.7, 0.2)
    x = np.linspace(0, 2 * np.pi, 8)
    ds = Dataset(x[:, None], np.sin(x))
    designs.append((h, ds, build_feature_model(ds, sample_frequencies(3, h, 1, 5), h), 6))
    return designs


class TestSchmidtRowsMatchDense:
    """The closed form in the Schmidt basis against every step applied to
    ``prepare_data_state(fm)`` as circuits (``dense_oracle``), that state
    against the scaled design, and the fit against the design's direct SVD."""

    def test_paper_config(self, paper_pipeline, paper_oracle, grid50):
        assert_encodes_design(paper_pipeline.fm)
        # the pipeline holds no encoded state
        assert not any(isinstance(v, qsim.Statevector) for v in vars(paper_pipeline).values())
        assert paper_pipeline.mean_coefficients.shape == (paper_pipeline.fm.rank,)
        # beyond the feature model it keeps per-component coefficients, no basis matrix
        arrays = [v for v in vars(paper_pipeline).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.size <= paper_pipeline.fm.rank for a in arrays)
        assert paper_pipeline.tau == 13
        assert_matches_dense(paper_pipeline, grid50, paper_oracle)
        assert_matches_direct_svd(paper_pipeline.fm, grid50, paper_pipeline.tau)

    @pytest.mark.parametrize("design", range(6))
    def test_small_designs(self, design):
        _, _, fm, tau = _schmidt_designs()[design]
        assert_encodes_design(fm)
        pipe = PreparedPipeline(fm, tau)
        assert pipe.mean_coefficients.shape == (fm.rank,)
        grid = np.linspace(0.0, 6.0, 7)
        assert_matches_dense(pipe, grid)
        assert_matches_direct_svd(fm, grid, tau)

    @pytest.mark.parametrize("layout", ["uniform", "random"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_driver_fits_in_more_dimensions(self, dim, layout):
        # the circuits see only the design, so d reaches them through the features
        cfg = RunConfig(n_points=8, n_frequencies=3, dim=dim, tau=7, input_layout=layout)
        freq = sample_frequencies(cfg.n_frequencies, cfg.hyper, dim, cfg.seed_freq)
        fm = build_feature_model(generate_dataset(cfg), freq, cfg.hyper)
        assert_encodes_design(fm)
        assert_matches_dense(PreparedPipeline(fm, cfg.tau), cfg.diagonal(5))

    @pytest.mark.parametrize(
        "name",
        ["mean_coefficients", "variance_coefficients", "p1", "p2"]
        + ["uncompute_leakage_mean", "uncompute_leakage_variance"],
    )
    def test_gaps_see_each_perturbed_quantity(self, paper_pipeline, paper_oracle, name):
        pipe = copy.copy(paper_pipeline)
        setattr(pipe, name, getattr(pipe, name) + 1e-9)
        gaps = qsim.closed_form_gaps(pipe, paper_oracle)
        assert gaps[name] > 1e-12
        assert all(gap <= 1e-12 for key, gap in gaps.items() if key != name)


class TestCapacityPlan:
    def test_phase_estimation_counts_the_schmidt_rows(self, monkeypatch):
        # N=64, M=2, tau 6: the rank-4 table and three profiles take
        # 8 x (4 + 3) x 2^6 = 3,584 bytes, within the 4,096 of one 8-qubit
        # state; a table over the 64 rows would take 8 x 67 x 2^6 = 34,304
        tau = 6
        h, ds, fm = resolved_small_model(tau, n_points=64, m_freq=2)
        monkeypatch.setattr(errors, "MAX_QUBITS", 8)
        pipe = PreparedPipeline(fm, tau)
        assert_matches_binned(pipe, np.linspace(0.0, 6.0, 4))

    def test_run_counts_no_encoded_state(self, monkeypatch):
        # N=64, M=1: the encoded state has 6 row + 1 col = 7 qubits, over a cap
        # of 6, but the run never builds it; its rank-2 setup takes
        # 8 x (2 + 3) x 2^4 = 640 of 1,024 bytes. The dense oracle refuses it.
        tau = 4
        h, ds, fm = resolved_small_model(tau, n_points=64, m_freq=1)
        monkeypatch.setattr(errors, "MAX_QUBITS", 6)
        pipe = PreparedPipeline(fm, tau)
        assert_matches_binned(pipe, np.linspace(0.0, 6.0, 4))
        with pytest.raises(CapacityError, match="a 7-qubit state"):
            qsim.prepare_data_state(fm)

    def test_setup_refused_before_its_table(self, monkeypatch):
        # N=16, M=2, tau 11: the rank-4 table and three profiles take
        # 8 x (4 + 3) x 2^11 bytes = 112 KiB against the 64 KiB of one 12-qubit state
        h, ds, fm = small_model(n_points=16, m_freq=2)
        table_calls = []
        monkeypatch.setattr(errors, "MAX_QUBITS", 12)
        monkeypatch.setattr(pipeline, "phase_table", lambda *args: table_calls.append(args))
        with pytest.raises(CapacityError, match="phase table"):
            PreparedPipeline(fm, tau=11)
        assert table_calls == []

    def test_setup_counts_the_fits_rank_and_three_profiles(self, monkeypatch):
        # N=1, M=1: min(0 row, 1 col) + 10 phase = 10 qubits would fit a cap of
        # 10, but the rank-1 table and three profiles, (1 + 3) x 2^10 doubles,
        # take 32 KiB against the 16 KiB of one 10-qubit state
        h, ds, fm = small_model(n_points=1, m_freq=1)
        table_calls = []
        monkeypatch.setattr(errors, "MAX_QUBITS", 10)
        monkeypatch.setattr(pipeline, "phase_table", lambda *args: table_calls.append(args))
        with pytest.raises(CapacityError, match="phase table"):
            PreparedPipeline(fm, tau=10)
        assert table_calls == []

    def test_setup_refuses_a_huge_tau_without_forming_its_power(self):
        with pytest.raises(CapacityError, match="phase table"):
            spectral_setup(np.array([0.5]), 0.01, 1.0, 10**20)

    def test_check_bytes_allows_exactly_one_state(self, monkeypatch):
        # cap 4: one state is 16 * 2^4 = 256 bytes, counted plainly or shifted
        monkeypatch.setattr(errors, "MAX_QUBITS", 4)
        errors.check_bytes("x", 256)
        errors.check_bytes("x", 32, 3)
        with pytest.raises(CapacityError, match=r"^x: 257 x 2\^0 bytes, .* \(256\)$"):
            errors.check_bytes("x", 257)
        with pytest.raises(CapacityError, match=r"^x: 33 x 2\^3 bytes"):
            errors.check_bytes("x", 33, 3)

    def test_wide_column_register_runs_without_column_matrices(self, monkeypatch):
        # N=1, M=64: 0 row + 7 col to encode and min(0, 7) + 4 phase for the
        # table fit a cap of 12; no 128 x 128 matrix of the col register is built
        h, ds, fm = small_model(n_points=1, m_freq=64)
        monkeypatch.setattr(errors, "MAX_QUBITS", 12)
        tau = 4
        pipe = PreparedPipeline(fm, tau)
        assert pipe.variance_coefficients.shape == (1,)
        assert_matches_binned(pipe, np.array([0.5, 2.0]))

    def test_column_matrices_at_the_cap_fit(self, monkeypatch):
        # N=1, M=32: the readout factors span a 64-dimensional col register
        h, ds, fm = small_model(n_points=1, m_freq=32)
        monkeypatch.setattr(errors, "MAX_QUBITS", 12)
        pipe = PreparedPipeline(fm, tau=4)
        assert pipe.variance_coefficients.shape == (1,) and pipe.mean_coefficients.shape == (1,)
        assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1

    def test_wide_column_register_keeps_the_ladder_small(self):
        # M >> N: a 7-qubit col register (d = 128) under a 10-qubit phase
        # register; a stack of every power U^v would take 2^10 * 128^2 * 16 B
        h, ds, fm = small_model(n_points=2, m_freq=64)
        tau = 10
        pipe = PreparedPipeline(fm, tau)
        sv, circuit, _ = qsim.pipeline_oracle(pipe)
        ladder_bytes = sum(op.matrices.nbytes for op in circuit)
        assert ladder_bytes <= sv.amplitudes.nbytes // 4
        assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1
        assert_matches_binned(pipe, np.array([0.5, 2.0]))


# builds a pipeline, runs its posterior exactly and sampled, then the CLI's
# compare (exact and sampled) and fit-exact; prints the exit codes and whether
# the simulator module or logging was ever imported
_RUN_PATH = """
import json, sys
from qrff.cli import RunConfig, generate_dataset, main
from qrff.pipeline import PreparedPipeline
from qrff.rff import build_feature_model, sample_frequencies

config, out = sys.argv[1:]
with open(config) as fh:
    cfg = RunConfig(**json.load(fh))
ds = generate_dataset(cfg)
freq = sample_frequencies(cfg.n_frequencies, cfg.hyper, cfg.dim, cfg.seed_freq)
pipe = PreparedPipeline(build_feature_model(ds, freq, cfg.hyper), cfg.tau)
for shots in (0, 1000):
    pipe.posterior(cfg.diagonal(cfg.grid_count), shots, seed=1)
commands = (["compare"], ["compare", "--mode", "sampled", "--shots", "1000"], ["fit-exact"])
codes = [main([*args, "--config", config, "--out", out]) for args in commands]
loaded = {name: name in sys.modules for name in ("qrff.qsim", "logging")}
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


class TestNoDenseStepsInTheRunPath:
    def test_run_path_never_loads_the_simulator(self, fresh_python, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(dict(n_points=4, n_frequencies=2, tau=8, grid_count=6, seed_freq=1))
        )
        run = fresh_python("-c", _RUN_PATH, str(config), str(tmp_path / "out"))
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == {
            "codes": [0, 0, 0],
            "loaded": {"qrff.qsim": False, "logging": False},
        }

    def test_package_import_leaves_the_simulator_unloaded(self, fresh_python):
        code = "import sys, qrff; print('qrff.qsim' in sys.modules)"
        assert fresh_python("-c", code).stdout == "False\n"
        # the error types alone load neither the simulator nor numpy
        code = "import sys, qrff.errors; print('qrff.qsim' in sys.modules, 'numpy' in sys.modules)"
        assert fresh_python("-c", code).stdout == "False False\n"


class TestGaugeInvariance:
    def test_svd_sign_flip_does_not_change_predictions(self):
        tau = 6
        h, ds, fm = resolved_small_model(tau, seed_data=4, seed_freq=11)
        signs = np.where(np.arange(fm.rank) % 2 == 0, -1.0, 1.0)
        # flipping v_k flips u_k = X v_k / s_k, and so u_k^T y
        flipped = FeatureModel(
            freq=fm.freq,
            hyper=fm.hyper,
            inputs=fm.inputs,
            targets=fm.targets,
            frobenius_norm=fm.frobenius_norm,
            singular_values=fm.singular_values,
            v=fm.v * signs,
            projected_targets=fm.projected_targets * signs,
        )
        delta_r = 1.05 * float(fm.normalized_singular_values[0] ** 2)
        a = BinnedPrediction(fm, h.noise_std, delta_r, tau)
        b = BinnedPrediction(flipped, h.noise_std, delta_r, tau)
        phi_star = scaled_feature_vector([1.7], fm.freq, h)
        assert a.mean(phi_star, ds.targets) == pytest.approx(
            b.mean(phi_star, ds.targets), abs=1e-14
        )
        assert a.variance(phi_star) == pytest.approx(b.variance(phi_star), abs=1e-14)
        for post_a, post_b in (
            (rff_posterior(fm, [1.7]), rff_posterior(flipped, [1.7])),
            (
                PreparedPipeline(fm, tau, delta_r).posterior([1.7])[0],
                PreparedPipeline(flipped, tau, delta_r).posterior([1.7])[0],
            ),
        ):
            assert post_a.mean == pytest.approx(post_b.mean, abs=1e-14)
            assert post_a.variance == pytest.approx(post_b.variance, abs=1e-14)
        assert a.p1() == b.p1() and a.p2() == b.p2()


class TestTauMonotonicity:
    def test_mean_deviation_non_increasing(self, paper_feature_model, paper_pipeline):
        grid = np.linspace(0, 2 * np.pi, 10)
        rff_means = rff_posterior(paper_feature_model, grid).mean

        def max_dev(pipe):
            q = pipe.posterior(grid)[0].mean
            return np.max(np.abs(q - rff_means))

        devs = []
        for tau in (8, 10):
            devs.append(max_dev(PreparedPipeline(paper_feature_model, tau)))
        devs.append(max_dev(paper_pipeline))  # tau = 13
        assert devs[0] >= devs[1] >= devs[2]
