from __future__ import annotations

import csv
import logging
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad

from qrff.kernel import (
    BLOCK,
    Dataset,
    KernelHyper,
    Posterior,
    exact_posterior,
    gram_matrix,
    rbf_kernel,
    spectral_density,
)

DATA = pathlib.Path(__file__).parent / "data"


class TestHyperAndTypes:
    def test_rejects_bad_hyper(self):
        with pytest.raises(ValueError):
            KernelHyper(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            KernelHyper(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            KernelHyper(1.0, 1.0, -0.1)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0], [1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([1.0]))

    def test_posterior_variance_nonnegative(self):
        with pytest.raises(ValueError):
            Posterior(mean=0.0, variance=-1e-3)


class TestRbfKernel:
    def test_zero_distance_gives_signal_variance(self, paper_hyper):
        x = np.array([0.3, -1.2])
        assert rbf_kernel(x, x, paper_hyper) == pytest.approx(1.5**2, abs=1e-14)

    def test_unit_separation_value(self, paper_hyper):
        # 2.25 * exp(-1/2), evaluated independently
        assert rbf_kernel([0.0], [1.0], paper_hyper) == pytest.approx(
            1.3646939843534251, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry(self, seed, paper_hyper):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert rbf_kernel(a, b, paper_hyper) == rbf_kernel(b, a, paper_hyper)

    def test_nonfinite_input_raises(self, paper_hyper):
        with pytest.raises(ValueError):
            rbf_kernel([np.nan], [0.0], paper_hyper)


class TestGramMatrix:
    def test_single_point(self, paper_hyper):
        K = gram_matrix([[0.5]], paper_hyper)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(2.25, abs=1e-14)

    def test_duplicate_points_rank_one(self, paper_hyper):
        K = gram_matrix([[1.0], [1.0]], paper_hyper)
        assert np.allclose(K, 2.25 * np.ones((2, 2)), atol=1e-14)

    def test_psd_on_paper_inputs(self, paper_dataset, paper_hyper):
        K = gram_matrix(paper_dataset.inputs, paper_hyper)
        assert np.allclose(K, K.T)
        assert np.diag(K) == pytest.approx(np.full(16, 2.25), abs=1e-12)
        assert np.linalg.eigvalsh(K).min() >= -1e-10 * 2.25


class TestSpectralDensity:
    def test_value_at_zero(self, paper_hyper):
        # 2.25 * sqrt(2*pi), evaluated independently
        assert spectral_density([0.0], paper_hyper) == pytest.approx(
            5.639913617919751, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_spectrum(self, seed, paper_hyper):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=2)
        assert spectral_density(w, paper_hyper) == spectral_density(-w, paper_hyper)

    @pytest.mark.parametrize("lag", [0.0, 0.5, 1.7, 3.0, 5.0])
    def test_quadrature_recovers_kernel(self, lag, paper_hyper):
        # numerical inverse Fourier transform as an independent oracle
        val, _ = quad(
            lambda w: spectral_density([w], paper_hyper) * np.cos(w * lag) / (2 * np.pi),
            -np.inf,
            np.inf,
        )
        expected = rbf_kernel([0.0], [lag], paper_hyper)
        assert val == pytest.approx(expected, rel=1e-6, abs=1e-12)


class TestExactPosterior:
    def test_far_query_recovers_prior(self, paper_dataset, paper_hyper):
        post = exact_posterior(paper_dataset, paper_hyper, [200.0])
        assert post.mean[0] == pytest.approx(0.0, abs=1e-8)
        assert post.variance[0] == pytest.approx(2.25, abs=1e-8)

    def test_interpolation_limit(self, paper_dataset):
        h = KernelHyper(1.5, 1.0, 1e-7)
        x0 = paper_dataset.inputs[3]
        post = exact_posterior(paper_dataset, h, x0)
        assert post.mean[0] == pytest.approx(paper_dataset.targets[3], abs=1e-5)

    def test_reference_curve_fixture(self, paper_dataset, paper_hyper):
        # frozen oracle computed by a dense np.linalg.solve implementation
        with open(DATA / "exact_gpr_reference.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        post = exact_posterior(paper_dataset, paper_hyper, [float(row["x"]) for row in rows])
        for i, row in enumerate(rows):
            assert post.mean[i] == pytest.approx(float(row["mean"]), abs=1e-10)
            assert post.variance[i] == pytest.approx(float(row["variance"]), abs=1e-10)

    def test_variance_bounds_over_grid(self, paper_dataset, paper_hyper):
        post = exact_posterior(paper_dataset, paper_hyper, np.linspace(-3, 10, 40))
        assert np.all((-1e-10 <= post.variance) & (post.variance <= 2.25 + 1e-10))

    def test_permutation_invariance(self, paper_dataset, paper_hyper):
        rng = np.random.default_rng(11)
        perm = rng.permutation(paper_dataset.n_points)
        shuffled = Dataset(paper_dataset.inputs[perm], paper_dataset.targets[perm])
        a = exact_posterior(paper_dataset, paper_hyper, [0.3, 2.2, 5.0])
        b = exact_posterior(shuffled, paper_hyper, [0.3, 2.2, 5.0])
        assert a.mean == pytest.approx(b.mean, abs=1e-10)
        assert a.variance == pytest.approx(b.variance, abs=1e-10)

    def test_duplicate_inputs_zero_noise_uses_logged_jitter(self, caplog):
        h = KernelHyper(1.5, 1.0, 0.0)
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([0.5, 0.5]))
        with caplog.at_level(logging.WARNING, logger="qrff.kernel"):
            post = exact_posterior(ds, h, [1.0])
        assert "jitter" in caplog.text
        assert np.isfinite(post.mean).all()

    def test_several_blocks_with_a_ragged_end_match_a_dense_solve(self, paper_hyper):
        # 3 full column blocks and a 5-wide one, inputs in random order
        rng = np.random.default_rng(5)
        n = 3 * BLOCK + 5
        x = rng.uniform(0.0, 12.0, size=(n, 2))
        ds = Dataset(x, rng.normal(size=n))
        xs = rng.uniform(-1.0, 13.0, size=(9, 2))
        post = exact_posterior(ds, paper_hyper, xs)
        A = gram_matrix(x, paper_hyper) + paper_hyper.noise_std**2 * np.eye(n)
        k_star = np.array([[rbf_kernel(a, b, paper_hyper) for b in xs] for a in x])
        alpha = np.linalg.solve(A, np.column_stack([ds.targets, k_star]))
        assert post.mean == pytest.approx(k_star.T @ alpha[:, 0], abs=1e-10)
        variance = 2.25 - np.sum(k_star * alpha[:, 1:], axis=0)
        assert post.variance == pytest.approx(variance, abs=1e-10)

    def test_duplicate_pair_across_blocks_uses_logged_jitter(self, caplog):
        # kernel values between distinct inputs underflow to exactly 0, so the
        # pair's second pivot is exactly 2.25 - 1.5^2 = 0 in the third block
        h = KernelHyper(1.5, 0.01, 0.0)
        n = 2 * BLOCK + 7
        x = np.random.default_rng(6).permutation(n).astype(float)
        i, j = 3, 2 * BLOCK + 1
        x[j] = x[i]
        y = np.linspace(-1.0, 1.0, n)
        with caplog.at_level(logging.WARNING, logger="qrff.kernel"):
            post = exact_posterior(Dataset(x[:, None], y), h, [x[i]])
        assert "jitter" in caplog.text
        assert post.mean[0] == pytest.approx((y[i] + y[j]) / 2, abs=1e-8)
        assert post.variance[0] == pytest.approx(0.0, abs=1e-8)
