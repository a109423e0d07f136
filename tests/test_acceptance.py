"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured values.
The reference configuration is the package default: 16 uniformly spaced
points on [0, 2*pi] with sine targets, noise 0.1, signal 1.5, length scale 1,
two spectral frequencies, a 13-qubit eigenvalue register, and a million shots
in sampled mode.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np
import pytest

from qrff import qsim
from qrff.cli import RunConfig, _run_stages, emit_outputs
from qrff.kernel import Dataset, KernelHyper, exact_posterior
from qrff.pipeline import PreparedPipeline, rotation_profiles, spectral_setup
from qrff.qsim import GateOp, Statevector, dense_oracle, prepare_data_state
from qrff.rff import (
    build_feature_model,
    feature_map,
    rff_posterior,
    sample_frequencies,
)

from kernel_reference import rbf_kernel
from spectral_oracle import BinnedPrediction, design_matrix


def one_pattern_ry(theta, target, control, bit):
    """Ry(theta) on ``target`` where ``control`` reads ``bit``, identity otherwise."""
    angles = np.zeros(2)
    angles[bit] = theta
    return GateOp.ry(angles, target, [control])


def x_gate(qubit):
    return GateOp(np.eye(2, dtype=complex)[[1, 0]][None], (qubit,))


@pytest.fixture(scope="module")
def paper_exact_report(paper_config):
    """The reference comparison in exact-amplitude mode, with its wall time."""
    t0 = time.perf_counter()
    columns, summary = _run_stages(paper_config, "compare")
    elapsed = time.perf_counter() - t0
    return columns, summary, elapsed


def test_criterion_1_mean_oracle_equivalence(paper_exact_report):
    col, summary, elapsed = paper_exact_report
    gaps = np.abs(col["mean_qrff"] - col["mean_rff"])
    rmse = summary["rmse_mean_qrff_vs_rff"]
    assert len(col["x"]) == 50
    assert gaps.max() <= 0.05
    assert rmse <= 0.02
    assert elapsed <= 300.0
    print(
        f"\nPASS criterion 1: max |mean_qrff - mean_rff| = {gaps.max():.2e} (<= 0.05), "
        f"RMSE = {rmse:.2e} (<= 0.02), runtime = {elapsed:.1f}s (<= 300s)"
    )


def test_criterion_2_variance_oracle_equivalence(paper_exact_report):
    col, _, _ = paper_exact_report
    gaps = np.abs(col["var_qrff"] - col["var_rff"])
    assert gaps.max() <= 0.05
    assert np.all(col["var_qrff"] >= 0.0)
    print(
        f"\nPASS criterion 2: max |var_qrff - var_rff| = {gaps.max():.2e} (<= 0.05), "
        "all variances nonnegative"
    )


def test_criterion_3_sampled_mode_statistics(paper_pipeline, paper_feature_model, grid50):
    rff_means = rff_posterior(paper_feature_model, grid50).mean
    rmses = []
    for shot_seed in range(5):
        sampled = paper_pipeline.posterior(grid50, shots=1_000_000, seed=shot_seed)[0].mean
        rmse = float(np.sqrt(np.mean((sampled - rff_means) ** 2)))
        rmses.append(rmse)
        assert rmse <= 0.1
    print(
        f"\nPASS criterion 3: sampled mean RMSE vs reduced-rank oracle over 5 shot "
        f"seeds in [{min(rmses):.2e}, {max(rmses):.2e}] (<= 0.1 each)"
    )


def test_criterion_4_state_preparation_exactness():
    rng = np.random.default_rng(2024)
    h = KernelHyper(1.5, 1.0, 0.1)
    worst = 1.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 5))
        x = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        y = np.sin(x) + 0.1 * rng.normal(size=n)
        fm = build_feature_model(
            Dataset(x[:, None], y),
            sample_frequencies(m, h, 1, seed=int(rng.integers(1 << 31))),
            h,
        )
        sv = prepare_data_state(fm)
        padded = np.zeros((sv.register("col").dim, sv.register("row").dim))
        padded[: 2 * m, :n] = design_matrix(fm).T
        target = padded.ravel() / fm.frobenius_norm
        worst = min(worst, abs(np.vdot(target, sv.amplitudes)) ** 2)
    assert worst >= 1 - 1e-10
    print(f"\nPASS criterion 4: 100 random designs, min fidelity = {1 - worst:.1e} below 1")


def _per_component_bin_mass(sv, fm):
    """Phase-register distribution conditioned on each right singular vector."""
    preg = sv.register("phase")
    nc = sv.register("col").width
    nr = sv.register("row").width
    cube = sv.amplitudes.reshape(preg.dim, 1 << nc, 1 << nr)
    masses = []
    for r in range(fm.rank):
        v = np.zeros(1 << nc)
        v[: fm.v.shape[0]] = fm.v[:, r]
        cond = np.einsum("ecr,c->er", cube, v)
        mass = np.sum(np.abs(cond) ** 2, axis=1)
        masses.append(mass / mass.sum())
    return masses


def _worst_windowed_mass(sv, fm, delta_r):
    """Worst mass within +-1 bin of the modal bin, over the components of the
    post-QPE state ``sv``."""
    lam_t2 = fm.normalized_singular_values**2
    masses = _per_component_bin_mass(sv, fm)
    dim = sv.register("phase").dim
    worst = 1.0
    for r, mass in enumerate(masses):
        center = int(round(float(lam_t2[r] / delta_r * dim)))
        window = [b % dim for b in (center - 1, center, center + 1)]
        worst = min(worst, float(sum(mass[b] for b in window)))
    return worst


def test_criterion_5_qpe_spectral_accuracy(
    paper_pipeline, paper_oracle, paper_feature_model, paper_hyper
):
    fm = paper_feature_model
    delta_r = paper_pipeline.delta_r
    worst_13 = _worst_windowed_mass(paper_oracle[0], fm, delta_r)
    assert worst_13 >= 0.90
    st2 = paper_hyper.noise_std**2 / fm.frobenius_norm**2
    setup8 = spectral_setup(fm.normalized_singular_values, st2, delta_r, 8)
    profiles8 = rotation_profiles(setup8["c1"], setup8["c2"], st2, delta_r, 8)
    dense_8 = dense_oracle(prepare_data_state(fm), delta_r, 8, profiles8)
    worst_8 = _worst_windowed_mass(dense_8[0], fm, delta_r)
    assert worst_13 >= worst_8
    print(
        f"\nPASS criterion 5: worst +-1-bin mass {worst_13:.4f} at tau=13 (>= 0.90), "
        f"improved from {worst_8:.4f} at tau=8"
    )


def test_criterion_6_post_selection_bookkeeping():
    rng = np.random.default_rng(777)
    h = KernelHyper(1.5, 1.0, 0.1)
    tau = 6
    worst = 0.0
    # components below the bin resolution are filtered, not refused, so
    # every drawn design is checked
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        x = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        y = np.sin(x) + 0.1 * rng.normal(size=n)
        fm = build_feature_model(
            Dataset(x[:, None], y),
            sample_frequencies(m, h, 1, seed=int(rng.integers(1 << 31))),
            h,
        )
        pipe = PreparedPipeline(fm, tau)
        pred = BinnedPrediction(fm, h.noise_std, pipe.delta_r, tau)
        worst = max(worst, abs(pipe.p1 - pred.p1()), abs(pipe.p2 - pred.p2()))
    assert worst <= 1e-6
    print(
        f"\nPASS criterion 6: p1/p2 vs spectral-sum predictions on 20 designs, "
        f"worst |diff| = {worst:.1e} (<= 1e-6)"
    )


def test_criterion_7_rff_convergence(paper_dataset, paper_hyper, grid50):
    rng = np.random.default_rng(123)
    pairs = rng.uniform(0, 2 * np.pi, size=(25, 2))

    def mean_abs_error(m, seed):
        freq = sample_frequencies(m, paper_hyper, 1, seed=seed)
        errs = []
        for xi, xj in pairs:
            approx = (
                paper_hyper.signal_std**2
                / m
                * (feature_map([xi], freq) @ feature_map([xj], freq))
            )
            errs.append(abs(approx - rbf_kernel([xi], [xj], paper_hyper)))
        return np.mean(errs)

    ratios = [
        mean_abs_error(400, 3000 + s) / mean_abs_error(100, 2000 + s) for s in range(50)
    ]
    ratio = float(np.median(ratios))
    assert 0.35 <= ratio <= 0.70

    exact_means = exact_posterior(paper_dataset, paper_hyper, grid50).mean
    curves = []
    for s in range(20):
        fm = build_feature_model(
            paper_dataset, sample_frequencies(256, paper_hyper, 1, seed=4000 + s), paper_hyper
        )
        curves.append(rff_posterior(fm, grid50).mean)
    rmse = float(np.sqrt(np.mean((np.mean(curves, axis=0) - exact_means) ** 2)))
    assert rmse <= 0.05
    print(
        f"\nPASS criterion 7: kernel-error median ratio (M=400/M=100) = {ratio:.3f} "
        f"(in [0.35, 0.70]); M=256 mean RMSE vs exact = {rmse:.3f} (<= 0.05)"
    )


def test_criterion_8_simulator_micro_contracts():
    rng = np.random.default_rng(55)
    # overlap circuits against direct amplitude arithmetic
    for seed in range(10):
        a = rng.normal(size=16)
        a = a / np.linalg.norm(a)
        b = rng.normal(size=16)
        b = b / np.linalg.norm(b)
        sa = Statevector.from_amplitudes(a, [("r", 4)])
        sb = Statevector.from_amplitudes(b, [("r", 4)])
        assert abs(qsim.hadamard_test(sa, sb) - float(b @ a)) <= 1e-10
        assert abs(qsim.swap_test(sa, sb) - float(b @ a) ** 2) <= 1e-10
    # gate unitarity and norm preservation over randomized depth-100 circuits
    for trial in range(3):
        amps = np.zeros(32, dtype=complex)
        amps[0] = 1.0
        for _ in range(100):
            kind = rng.integers(3)
            q = int(rng.integers(5))
            if kind == 0:
                gate = GateOp.h(q)
            elif kind == 1:
                gate = GateOp.ry(float(rng.uniform(0, 2 * np.pi)), q)
            else:
                ctrl = int(rng.integers(5))
                gate = (
                    x_gate(q)
                    if ctrl == q
                    else one_pattern_ry(
                        float(rng.uniform(0, np.pi)), q, ctrl, int(rng.integers(2))
                    )
                )
            mat = qsim.realized_matrix(gate, 5)
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(32))) <= 1e-10
            qsim._apply_inplace(amps, 5, gate)
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-10
    # partial trace of the Bell state
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    sv = Statevector.from_amplitudes(bell, [("a", 1), ("b", 1)])
    rho = qsim.partial_trace(sv, "a")
    assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-10
    print("\nPASS criterion 8: overlap circuits, unitarity, norm preservation, Bell trace")


def test_criterion_9_byte_identical_outputs(tmp_path):
    base = dict(n_points=16, n_frequencies=2, tau=10, grid_count=20, shots=100_000)
    for mode in ("exact", "sampled"):
        blobs = []
        for run in range(2):
            cfg = RunConfig(**base, mode=mode, out_dir=str(tmp_path / f"{mode}{run}"))
            emit_outputs(*_run_stages(cfg, "compare"), cfg.out_dir)
            blobs.append((pathlib.Path(cfg.out_dir) / "results.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{mode} mode CSVs differ between identical runs"
    print("\nPASS criterion 9: byte-identical CSVs across repeated runs in both modes")
