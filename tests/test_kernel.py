from __future__ import annotations

import csv
import logging
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qrff import kernel
from qrff.kernel import (
    BLOCK,
    Dataset,
    KernelHyper,
    Posterior,
    _cross_kernel,
    _dense_posterior,
    _low_rank_posterior,
    _pivot_cap,
    exact_posterior,
)

from kernel_reference import rbf_kernel, spectral_density

DATA = pathlib.Path(__file__).parent / "data"


def _solve_reference(x, y, xs, h):
    """Mean and variance by ``np.linalg.solve`` on the dense noisy Gram matrix."""

    def gram(a, b):
        sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return h.signal_std**2 * np.exp(-0.5 * sq / h.length_scale**2)

    k_star = gram(x, xs)
    alpha = np.linalg.solve(
        gram(x, x) + h.noise_std**2 * np.eye(len(x)), np.column_stack([y, k_star])
    )
    return k_star.T @ alpha[:, 0], h.signal_std**2 - np.sum(k_star * alpha[:, 1:], axis=0)


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
        x = np.array([[0.5]])
        K = _cross_kernel(x, x, paper_hyper)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(2.25, abs=1e-14)

    def test_duplicate_points_rank_one(self, paper_hyper):
        x = np.array([[1.0], [1.0]])
        K = _cross_kernel(x, x, paper_hyper)
        assert np.allclose(K, 2.25 * np.ones((2, 2)), atol=1e-14)

    def test_psd_on_paper_inputs(self, paper_dataset, paper_hyper):
        x = paper_dataset.inputs
        K = _cross_kernel(x, x, paper_hyper)
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
        K = np.array([[rbf_kernel(a, b, paper_hyper) for b in x] for a in x])
        A = K + paper_hyper.noise_std**2 * np.eye(n)
        k_star = np.array([[rbf_kernel(a, b, paper_hyper) for b in xs] for a in x])
        alpha = np.linalg.solve(A, np.column_stack([ds.targets, k_star]))
        assert post.mean == pytest.approx(k_star.T @ alpha[:, 0], abs=1e-10)
        variance = 2.25 - np.sum(k_star * alpha[:, 1:], axis=0)
        assert post.variance == pytest.approx(variance, abs=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        # fewer points than one block, exact multiples of it and ragged ends
        n=st.integers(1, 3 * BLOCK + 5) | st.sampled_from([BLOCK, 2 * BLOCK, 3 * BLOCK]),
        g=st.integers(1, 12),
        d=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_dense_solve_over_block_edges_and_dimensions(self, n, g, d, seed):
        h = KernelHyper(1.5, 1.0, 0.1)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 12.0, size=(n, d))
        xs = rng.uniform(0.0, 12.0, size=(g, d))
        ds = Dataset(x, rng.normal(size=n))
        post = exact_posterior(ds, h, xs)
        mean, variance = _solve_reference(x, ds.targets, xs, h)
        assert post.mean == pytest.approx(mean, abs=1e-10)
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

    def test_answer_is_built_in_the_one_factor_array(self):
        # the (N + G + 1) x N factor array is 34 MiB here; a separate right-hand
        # side (G + 1) x N and a G x N cross kernel took the peak to 70.3 MiB.
        # At length scale 0.05 the low-rank try stops at its cap and frees its
        # rows before the dense solve starts.
        h = KernelHyper(1.5, 0.05, 0.1)
        n, g = 512, 8192
        x = np.linspace(0.0, 2.0 * np.pi, n)
        ds = Dataset(x[:, None], np.sin(x))
        grid = np.linspace(0.0, 2.0 * np.pi, g)
        tracemalloc.start()
        try:
            exact_posterior(ds, h, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * n * (n + g + 1)


def _inputs_1d(n, layout, seed=0):
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        x = np.linspace(0.0, 2.0 * np.pi, n)
    elif layout == "random":
        x = rng.uniform(0.0, 2.0 * np.pi, n)
    else:  # each point four times over
        x = np.repeat(np.linspace(0.0, 2.0 * np.pi, -(-n // 4)), 4)[:n]
    return x[:, None], np.sin(x) + 0.1 * rng.normal(size=n)


class TestLowRankPath:
    """The pivoted-Cholesky solve that ``exact_posterior`` tries before the dense one."""

    @pytest.mark.parametrize("n", [BLOCK + 1, 100, 512, 1024])
    @pytest.mark.parametrize("layout", ["uniform", "random", "duplicates"])
    def test_matches_a_dense_solve_on_1d_inputs(self, n, layout, paper_hyper):
        x, y = _inputs_1d(n, layout)
        # a grid, queries on the inputs, and far queries, which recover the prior
        xs = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 23), x[::37, 0], [200.0, -150.0]])
        mean, variance = _solve_reference(x, y, xs[:, None], paper_hyper)
        # with no binding cap, the low-rank path answers at every N
        low = _low_rank_posterior(np.vstack([x, xs[:, None]]), y, paper_hyper, n + len(xs))
        for post in (low, exact_posterior(Dataset(x, y), paper_hyper, xs)):
            assert post.mean == pytest.approx(mean, abs=1e-10)
            assert post.variance == pytest.approx(variance, abs=1e-10)
        assert low.mean[-2:] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert low.variance[-2:] == pytest.approx([2.25, 2.25], abs=1e-12)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        n=st.integers(BLOCK + 1, 400),
        length_scale=st.floats(0.05, 3.0),
        noise_std=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_a_dense_solve_over_size_length_scale_and_noise(
        self, n, length_scale, noise_std, seed
    ):
        h = KernelHyper(1.5, length_scale, noise_std)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
        xs = rng.uniform(-1.0, 2.0 * np.pi + 1.0, size=(9, 1))
        y = np.sin(x[:, 0]) + noise_std * rng.normal(size=n)
        mean, variance = _solve_reference(x, y, xs, h)
        post = _low_rank_posterior(np.vstack([x, xs]), y, h, n + 9)
        assert post.mean == pytest.approx(mean, abs=1e-10)
        assert post.variance == pytest.approx(variance, abs=1e-10)

    @pytest.mark.parametrize("layout", ["uniform", "random"])
    def test_agrees_with_the_blocked_forward_solve(self, layout, paper_hyper):
        x, y = _inputs_1d(1024, layout, seed=3)
        xs = np.linspace(-1.0, 2.0 * np.pi + 1.0, 64)[:, None]
        points = np.vstack([x, xs])
        dense = _dense_posterior(points, y, paper_hyper)
        low = _low_rank_posterior(points, y, paper_hyper, _pivot_cap(1024, 64))
        assert low.mean == pytest.approx(dense.mean, abs=1e-10)
        assert low.variance == pytest.approx(dense.variance, abs=1e-10)

    @pytest.mark.parametrize("n, g", [(512, 2), (1024, 64), (4096, 64)])
    def test_the_drivers_inputs_fit_under_the_cap(self, n, g, paper_hyper, monkeypatch):
        # the benchmark's wide_n512 and classical_n1024 sizes, and N = 4096
        monkeypatch.setattr(kernel, "_dense_posterior", None)
        x = np.linspace(0.0, 2.0 * np.pi, n)
        post = exact_posterior(Dataset(x[:, None], np.sin(x)), paper_hyper, x[:: n // g])
        assert post.variance.shape == (g,)

    def test_holds_only_the_pivot_rows(self, paper_hyper):
        # the input of test_answer_is_built_in_the_one_factor_array at length
        # scale 1: its 8,192 queries reach the rounding floor only when the
        # pivots run over them too
        n, g = 512, 8192
        x = np.linspace(0.0, 2.0 * np.pi, n)
        ds = Dataset(x[:, None], np.sin(x))
        grid = np.linspace(0.0, 2.0 * np.pi, g)
        tracemalloc.start()
        try:
            post = exact_posterior(ds, paper_hyper, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 8 * (n + g) * _pivot_cap(n, g)
        mean, variance = _solve_reference(ds.inputs, ds.targets, grid[::64, None], paper_hyper)
        assert post.mean[::64] == pytest.approx(mean, abs=1e-10)
        assert post.variance[::64] == pytest.approx(variance, abs=1e-10)


class TestDenseFallback:
    @pytest.mark.parametrize(
        "dim, length_scale, span", [(1, 0.05, 2.0 * np.pi), (2, 1.0, 12.0)], ids=["1d", "2d"]
    )
    def test_high_rank_input_returns_the_dense_arrays(
        self, dim, length_scale, span, monkeypatch
    ):
        n, g = 1024, 64
        rng = np.random.default_rng(8)
        if dim == 1:
            x = np.linspace(0.0, span, n)[:, None]
        else:
            x = rng.uniform(0.0, span, size=(n, dim))
        xs = rng.uniform(0.0, span, size=(g, dim))
        ds = Dataset(x, rng.normal(size=n))
        h = KernelHyper(1.5, length_scale, 0.1)
        tries = []
        low_rank, exp = kernel._low_rank_posterior, np.exp

        def counted(points, targets, hyper, cap):
            # one exp call per pivot: its kernel row
            rows = []
            with monkeypatch.context() as m:
                m.setattr(np, "exp", lambda *a, **kw: rows.append(1) or exp(*a, **kw))
                found = low_rank(points, targets, hyper, cap)
            tries.append((cap, found, len(rows)))
            return found

        monkeypatch.setattr(kernel, "_low_rank_posterior", counted)
        post = exact_posterior(ds, h, xs)
        [(cap, found, pivots)] = tries
        assert found is None
        assert cap == _pivot_cap(n, g) and pivots == cap
        dense = _dense_posterior(np.vstack([x, xs]), ds.targets, h)
        assert np.array_equal(post.mean, dense.mean)
        assert np.array_equal(post.variance, dense.variance)

    def test_an_overflowing_step_hands_the_solve_to_the_dense_path(self, paper_hyper):
        # at signal_std 1.3e154 the weight-space matrix Phi^T Phi overflows
        x, y = _inputs_1d(200, "uniform")
        xs = np.linspace(0.0, 2.0 * np.pi, 7)[:, None]
        scale = 1.3e154 / paper_hyper.signal_std
        h = KernelHyper(1.3e154, 1.0, scale * paper_hyper.noise_std)
        assert _low_rank_posterior(np.vstack([x, xs]), scale * y, h, 207) is None
        post = exact_posterior(Dataset(x, scale * y), h, xs)
        unit = _dense_posterior(np.vstack([x, xs]), y, paper_hyper)
        assert post.mean / scale == pytest.approx(unit.mean, rel=1e-10, abs=1e-10)
        assert post.variance / scale**2 == pytest.approx(unit.variance, rel=1e-10, abs=1e-10)

    def test_zero_noise_takes_the_logged_jitter_path(self, caplog, monkeypatch):
        monkeypatch.setattr(kernel, "_low_rank_posterior", None)
        h = KernelHyper(1.5, 1.0, 0.0)
        x = np.linspace(0.0, 2.0 * np.pi, 512)
        x[7] = x[6]
        with caplog.at_level(logging.WARNING, logger="qrff.kernel"):
            post = exact_posterior(Dataset(x[:, None], np.sin(x)), h, [1.0, 2.0])
        assert "jitter" in caplog.text
        assert np.isfinite(post.mean).all()

    def test_at_most_one_block_of_inputs_runs_the_dense_solve_alone(
        self, paper_dataset, paper_hyper, monkeypatch
    ):
        monkeypatch.setattr(kernel, "_low_rank_posterior", None)
        assert paper_dataset.n_points <= BLOCK
        post = exact_posterior(paper_dataset, paper_hyper, [0.3, 2.2])
        assert post.variance.shape == (2,)
