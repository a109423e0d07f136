from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qrff import errors
from qrff.cli import RunConfig, generate_dataset
from qrff.errors import CapacityError, ConfigError
from qrff.kernel import Dataset, KernelHyper
from qrff.rff import (
    RANK_CUTOFF,
    build_feature_model,
    feature_map,
    rff_posterior,
    sample_frequencies,
    scaled_feature_vector,
    spectral_sums,
)

from kernel_reference import rbf_kernel
from spectral_oracle import design_matrix, left_singular_vectors


class TestSampleFrequencies:
    def test_deterministic(self, paper_hyper):
        a = sample_frequencies(64, paper_hyper, 2, seed=7)
        b = sample_frequencies(64, paper_hyper, 2, seed=7)
        assert np.array_equal(a, b)

    def test_large_sample_std(self, paper_hyper):
        freq = sample_frequencies(100_000, paper_hyper, 1, seed=3)
        std = freq.std()
        target = 1.0 / (2.0 * np.pi)
        assert abs(std - target) / target < 0.02

    def test_length_scale_halves_spectral_width(self):
        h1 = KernelHyper(1.5, 1.0, 0.1)
        h2 = KernelHyper(1.5, 2.0, 0.1)
        s1 = sample_frequencies(100_000, h1, 1, seed=5).std()
        s2 = sample_frequencies(100_000, h2, 1, seed=6).std()
        assert 0.48 <= s2 / s1 <= 0.52


class TestFeatureMap:
    def test_zero_input_alternates_one_zero(self, paper_hyper):
        freq = sample_frequencies(4, paper_hyper, 1, seed=0)
        phi = feature_map([0.0], freq)
        assert np.array_equal(phi, np.tile([1.0, 0.0], 4))

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_squared_equals_m(self, seed, paper_hyper):
        rng = np.random.default_rng(seed)
        freq = sample_frequencies(17, paper_hyper, 3, seed=seed)
        phi = feature_map(rng.normal(size=3), freq)
        assert phi @ phi == pytest.approx(17.0, abs=1e-12)

    def test_flat_frequency_list_is_one_frequency(self, paper_hyper):
        x = np.array([0.3, 1.1])
        assert np.array_equal(feature_map(x, [1, 2]), feature_map(x, np.array([[1.0, 2.0]])))
        fm = build_feature_model(Dataset(x[None, :], np.ones(1)), [1, 2], paper_hyper)
        assert fm.freq.shape == (1, 2) and fm.freq.dtype == float

    def test_monte_carlo_kernel_convergence(self, paper_hyper):
        # average the feature inner product over independent frequency draws
        rng = np.random.default_rng(42)
        pairs = rng.uniform(0, 2 * np.pi, size=(5, 2))
        for xi, xj in pairs:
            estimates = []
            for reseed in range(50):
                freq = sample_frequencies(256, paper_hyper, 1, seed=1000 + reseed)
                fi = feature_map([xi], freq)
                fj = feature_map([xj], freq)
                estimates.append(paper_hyper.signal_std**2 / 256 * (fi @ fj))
            expected = rbf_kernel([xi], [xj], paper_hyper)
            assert abs(np.mean(estimates) - expected) < 0.05


class TestFeatureModel:
    def test_single_zero_point(self):
        h = KernelHyper(1.0, 1.0, 0.1)
        ds = Dataset(np.array([[0.0]]), np.array([1.0]))
        fm = build_feature_model(ds, sample_frequencies(1, h, 1, seed=0), h)
        assert np.allclose(design_matrix(fm), [[1.0, 0.0]], atol=1e-14)
        assert fm.singular_values == pytest.approx([1.0], abs=1e-12)

    def test_frobenius_norm_identity(self, paper_feature_model, paper_dataset):
        fro_sq = paper_feature_model.frobenius_norm**2
        assert fro_sq == pytest.approx(paper_dataset.n_points * 1.5**2, abs=1e-10)

    def test_svd_invariants(self, paper_feature_model):
        fm = paper_feature_model
        r, u = fm.rank, left_singular_vectors(fm)
        assert np.max(np.abs(u.T @ u - np.eye(r))) < 1e-10
        assert np.max(np.abs(fm.v.T @ fm.v - np.eye(r))) < 1e-10
        assert np.all(np.diff(fm.singular_values) <= 0)
        assert fm.singular_values[-1] > 0
        assert np.sum(fm.singular_values**2) == pytest.approx(
            fm.frobenius_norm**2, abs=1e-10
        )

    def test_svd_reconstruction(self, paper_feature_model):
        fm = paper_feature_model
        rebuilt = left_singular_vectors(fm) @ np.diag(fm.singular_values) @ fm.v.T
        assert np.max(np.abs(design_matrix(fm) - rebuilt)) < 1e-10

    def test_large_fit_keeps_only_what_the_posteriors_read(self, paper_hyper):
        # 1-D, N = 65536, M = 32: the design alone is 32 MiB; the fit keeps
        # s, V and U^T y, a few KiB, and peaks at the stacked [X y] and the
        # copy np.linalg.qr factors
        x = np.linspace(0.0, 2.0 * np.pi, 65536)
        ds = Dataset(x[:, None], np.sin(x))
        freq = sample_frequencies(32, paper_hyper, 1, seed=21)
        tracemalloc.start()
        try:
            fm = build_feature_model(ds, freq, paper_hyper)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 2**20
        assert peak <= 66 * 2**20
        s = np.linalg.svd(design_matrix(fm), compute_uv=False)
        assert fm.rank == int(np.sum(s > RANK_CUTOFF * s[0]))

    def test_stacked_design_is_refused_before_it_is_built(self, paper_hyper, monkeypatch):
        # cap 16 * 2^4 = 256 bytes: [X y] at M = 2 takes 8 * 5 = 40 bytes a row,
        # so 6 rows fit and 7 are refused before the features or [X y] exist
        freq = sample_frequencies(2, paper_hyper, 1, seed=21)
        x = np.linspace(0.0, 2.0 * np.pi, 7)
        fits, over = Dataset(x[:6, None], np.sin(x[:6])), Dataset(x[:, None], np.sin(x))
        default = build_feature_model(fits, freq, paper_hyper)
        monkeypatch.setattr(errors, "MAX_QUBITS", 4)
        built, empty, column_stack = [], np.empty, np.column_stack

        def spy(make):
            def call(*args, **kwargs):
                out = make(*args, **kwargs)
                built.append(out.shape)
                return out

            return call

        monkeypatch.setattr(np, "empty", spy(empty))
        monkeypatch.setattr(np, "column_stack", spy(column_stack))
        with pytest.raises(CapacityError, match=r"\[X y\] at N = 7, M = 2: 280 x 2\^0 bytes"):
            build_feature_model(over, freq, paper_hyper)
        assert built == []
        fm = build_feature_model(fits, freq, paper_hyper)
        assert (6, 5) in built
        assert np.array_equal(fm.singular_values, default.singular_values)
        assert np.array_equal(fm.projected_targets, default.projected_targets)

    def test_interleaved_cos_sin_layout(self, paper_hyper):
        # column 2r holds cos, 2r+1 holds sin of the same phase
        freq = np.array([[0.25]])
        ds = Dataset(np.array([[1.0]]), np.array([0.0]))
        fm = build_feature_model(ds, freq, paper_hyper)
        phase = 2 * np.pi * 0.25 * 1.0
        scale = np.sqrt(paper_hyper.signal_std**2)
        X = design_matrix(fm)
        assert X[0, 0] == pytest.approx(scale * np.cos(phase), abs=1e-12)
        assert X[0, 1] == pytest.approx(scale * np.sin(phase), abs=1e-12)


class TestRffPosterior:
    def test_zero_targets_give_zero_mean(self, paper_feature_model, paper_dataset, paper_hyper):
        ds = Dataset(paper_dataset.inputs, np.zeros(16))
        fm = build_feature_model(ds, paper_feature_model.freq, paper_hyper)
        post = rff_posterior(fm, [0.0, 1.0, 4.4])
        assert np.all(post.mean == 0.0)

    def test_spectral_sum_matches_dense_solve(
        self, paper_feature_model, paper_dataset, paper_hyper, grid50
    ):
        # the paper design has full rank; with more features than rows (N, M) =
        # (3, 4) and (1, 3) the null-space term carries part of the variance;
        # a fit at other hyperparameters must answer with its own
        models = [(paper_feature_model, paper_dataset, paper_hyper)]
        for n_points, m_freq in ((3, 4), (1, 3)):
            x = np.linspace(0.5, 5.0, n_points)
            ds = Dataset(x[:, None], np.sin(x))
            fm = build_feature_model(
                ds, sample_frequencies(m_freq, paper_hyper, 1, seed=n_points), paper_hyper
            )
            assert fm.rank < 2 * m_freq
            models.append((fm, ds, paper_hyper))
        h = KernelHyper(3.0, 0.7, 0.2)
        fm = build_feature_model(paper_dataset, sample_frequencies(2, h, 1, seed=21), h)
        models.append((fm, paper_dataset, h))
        for fm, ds, h in models:
            # independent oracle: direct weight-space solve
            X = design_matrix(fm)
            A = X.T @ X + h.noise_std**2 * np.eye(X.shape[1])
            post = rff_posterior(fm, grid50)
            for i, x in enumerate(grid50):
                phi = scaled_feature_vector([x], fm.freq, h)
                w = np.linalg.solve(A, X.T @ ds.targets)
                mean_direct = float(phi @ w)
                var_direct = float(h.noise_std**2 * phi @ np.linalg.solve(A, phi))
                assert post.mean[i] == pytest.approx(mean_direct, abs=1e-8)
                assert post.variance[i] == pytest.approx(var_direct, abs=1e-8)

    @pytest.mark.parametrize("n_points, n_frequencies", [(16, 2), (65536, 32)])
    def test_null_space_term_vanishes_at_the_fits_inputs(self, n_points, n_frequencies):
        # each input's features are a row of the design, in span(V) but for the
        # components below the rank cutoff, so the term is a residual at rounding;
        # the difference ||phi||^2 - ||V^T phi||^2 would leave ~1e-15 signal_std^2
        cfg = RunConfig(n_points=n_points, n_frequencies=n_frequencies)
        ds = generate_dataset(cfg)
        freq = sample_frequencies(n_frequencies, cfg.hyper, cfg.dim, cfg.seed_freq)
        fm = build_feature_model(ds, freq, cfg.hyper)
        phi = scaled_feature_vector(ds.inputs, fm.freq, fm.hyper)
        zeros = np.zeros(fm.rank)
        _, _, null_sq = spectral_sums(fm, phi, zeros, zeros)
        assert null_sq.max() < 1e-20 * cfg.signal_std**2

    def test_permutation_invariance(self, paper_dataset, paper_hyper):
        freq = sample_frequencies(2, paper_hyper, 1, seed=21)
        fm = build_feature_model(paper_dataset, freq, paper_hyper)
        rng = np.random.default_rng(2)
        perm = rng.permutation(16)
        shuffled = Dataset(paper_dataset.inputs[perm], paper_dataset.targets[perm])
        fm_perm = build_feature_model(shuffled, freq, paper_hyper)
        a = rff_posterior(fm, [0.7, 3.1])
        b = rff_posterior(fm_perm, [0.7, 3.1])
        assert a.mean == pytest.approx(b.mean, abs=1e-10)
        assert a.variance == pytest.approx(b.variance, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_variance_nonnegative(self, seed, paper_dataset, paper_hyper):
        freq = sample_frequencies(3, paper_hyper, 1, seed=seed)
        fm = build_feature_model(paper_dataset, freq, paper_hyper)
        rng = np.random.default_rng(seed)
        post = rff_posterior(fm, rng.uniform(-2, 9, size=8))
        assert np.all(post.variance >= 0.0)

    def test_zero_noise_rank_deficient_raises(self, paper_dataset):
        h = KernelHyper(1.5, 1.0, 0.0)
        freq = sample_frequencies(32, h, 1, seed=0)  # 64 features > 16 rows
        fm = build_feature_model(paper_dataset, freq, h)
        with pytest.raises(ConfigError, match="posterior is singular"):
            rff_posterior(fm, [1.0])
