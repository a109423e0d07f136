"""Property tests over the pipeline's edge cases.

Draws tiny designs with duplicate inputs, more frequencies than points
(M > N, including N = 1 with a width-0 row register), one-qubit phase
registers and zero noise, at the default phase window and at twice the top
squared singular value (where tau = 1 can resolve a rank-one design). The
fit must keep the rank of the design's direct SVD and give RFF and quantum
posteriors within 1e-12 of it (kappa(X) eps of their size, when larger), or
the same refusal, and the encoding circuit must give each design's
zero-padded design.T / frobenius_norm to 1e-12. Each design must then
either be refused with ``ConfigError`` or ``PostSelectionError`` before any
posterior is read, exactly when the dense circuits refuse it and with the
same error, or give exact-mode means and variances equal to the binned
spectral-sum oracle and, to 1e-12, to the dense circuits' readout.

Every library input check raises ``ConfigError``, which ``except ValueError``
also catches; the one internal invariant, a non-negative posterior variance,
stays a plain ``ValueError``.

The sampled-mode test draws the same kind of designs with 1 to 64 shots and
one shot seed: each is refused, or gives accepted shots in [1, shots],
overlaps on the 2k/n - 1 grid of n accepted shots, non-negative variances,
and the same arrays again for the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qrff.errors import ConfigError, PostSelectionError, QrffError
from qrff.kernel import Dataset, KernelHyper, Posterior, _as_points
from qrff.pipeline import DELTA_R_HEADROOM, PreparedPipeline, rotation_profiles, spectral_setup
from qrff.qsim import dense_oracle, prepare_data_state
from qrff.rff import build_feature_model, feature_map, rff_posterior, sample_frequencies

from dense_readout import assert_encodes_design, assert_matches_dense
from spectral_oracle import BinnedPrediction, assert_matches_direct_svd, outcome


#: a small input set, so that drawn designs repeat points
INPUTS = (0.0, 0.4, 1.9, 3.1, 5.2)
GRID = np.array([0.3, 2.5, 5.0])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    xs=st.lists(st.sampled_from(INPUTS), min_size=1, max_size=6),
    m_freq=st.integers(1, 3),
    tau=st.integers(1, 6),
    noise=st.sampled_from([0.0, 0.1]),
    seed_freq=st.integers(0, 20),
    headroom=st.sampled_from([DELTA_R_HEADROOM, 2.0]),
)
@example(xs=[0.4], m_freq=3, tau=6, noise=0.1, seed_freq=0, headroom=DELTA_R_HEADROOM)
# kappa(X) = 1.0e5 at noise 0: the RFF mean is 1.4e-12 off the direct-SVD refit
@example(
    xs=[1.9, 3.1, 0, 0, 0, 0.4], m_freq=2, tau=6, noise=0.0, seed_freq=0, headroom=DELTA_R_HEADROOM
)
def test_pipeline_refuses_or_matches_binned_oracle(
    xs, m_freq, tau, noise, seed_freq, headroom
):
    h = KernelHyper(1.5, 1.0, noise)
    x = np.array(xs)
    y = np.sin(x) + 0.5  # never identically zero
    ds = Dataset(x[:, None], y)
    fm = build_feature_model(ds, sample_frequencies(m_freq, h, 1, seed_freq), h)
    delta_r = headroom * float(fm.normalized_singular_values[0] ** 2)
    assert_matches_direct_svd(fm, GRID, tau, delta_r)
    state = prepare_data_state(fm)
    assert_encodes_design(fm)
    pipe, refused = outcome(lambda: PreparedPipeline(fm, tau, delta_r))

    def dense_path():
        # the bounds from a setup of its own, so the pipeline's refusals are not shared
        st2 = noise**2 / fm.frobenius_norm**2
        setup = spectral_setup(fm.normalized_singular_values, st2, delta_r, tau)
        profiles = rotation_profiles(setup["c1"], setup["c2"], st2, delta_r, tau)
        return dense_oracle(state, delta_r, tau, profiles)

    oracle, dense_refused = outcome(dense_path)
    assert refused is dense_refused
    if refused:
        event(f"refused: {refused.__name__}")
        return
    event("estimated")
    assert_matches_dense(pipe, GRID, oracle)
    pred = BinnedPrediction(fm, noise, delta_r, tau)
    assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1
    assert pipe.p1 == pytest.approx(pred.p1(), abs=1e-10)
    assert pipe.p2 == pytest.approx(pred.p2(), abs=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    xs=st.lists(st.sampled_from(INPUTS), min_size=1, max_size=6),
    m_freq=st.integers(1, 3),
    tau=st.integers(4, 6),
    shots=st.integers(1, 64),
    seed_freq=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_mode_with_few_shots(xs, m_freq, tau, shots, seed_freq, seed):
    h = KernelHyper(1.5, 1.0, 0.1)
    x = np.array(xs)
    y = np.sin(x) + 0.5
    fm = build_feature_model(
        Dataset(x[:, None], y), sample_frequencies(m_freq, h, 1, seed_freq), h
    )

    def estimate():
        return PreparedPipeline(fm, tau).posterior(GRID, shots, seed)

    try:
        post, readout = estimate()
    except (ConfigError, PostSelectionError) as exc:
        event(f"refused: {type(exc).__name__}")
        return
    event("estimated")
    for branch in ("mean", "variance"):
        n, overlap = readout[f"{branch}_accepted"], readout[f"{branch}_overlap"]
        assert np.all((1 <= n) & (n <= shots))
        # 2k/n - 1 for k test-qubit zeros out of n accepted shots
        k = (overlap + 1.0) * n / 2.0
        assert np.max(np.abs(k - np.round(k))) <= 1e-9
        assert np.all(np.abs(overlap) <= 1.0)
    assert np.all(post.variance >= 0.0)
    post2, readout2 = estimate()
    assert np.array_equal(post.mean, post2.mean)
    assert np.array_equal(readout["mean_accepted"], readout2["mean_accepted"])
    assert np.array_equal(post.variance, post2.variance)
    assert np.array_equal(readout["variance_accepted"], readout2["variance_accepted"])


def _fm_at_0(pipe, signal_std: float = 1.5, target: float = 1.0):
    """The feature model of two points at 0, both with ``target``, under ``pipe``'s frequencies."""
    h = KernelHyper(signal_std, 1.0, 0.1)
    return build_feature_model(Dataset(np.zeros((2, 1)), np.full(2, target)), pipe.fm.freq, h)


#: each input check in kernel, rff and pipeline, called on the paper pipeline
INPUT_CHECKS = {
    "signal-std-not-positive": lambda pipe: KernelHyper(0.0, 1.0, 0.1),
    "noise-std-negative": lambda pipe: KernelHyper(1.5, 1.0, -0.1),
    "noise-std-square-overflows": lambda pipe: KernelHyper(1.5, 1.0, 1e200),
    "dataset-lengths-disagree": lambda pipe: Dataset(np.zeros((2, 1)), np.zeros(1)),
    "dataset-empty": lambda pipe: Dataset(np.zeros((0, 1)), np.zeros(0)),
    "dataset-non-finite": lambda pipe: Dataset(np.array([[np.nan]]), np.zeros(1)),
    "grid-shape": lambda pipe: _as_points(np.zeros((2, 3)), 1),
    "grid-non-finite": lambda pipe: _as_points([np.inf], 1),
    "no-frequencies": lambda pipe: build_feature_model(
        Dataset(np.zeros((2, 1)), np.ones(2)), np.zeros((0, 1)), pipe.fm.hyper
    ),
    "frequencies-non-finite": lambda pipe: feature_map([1.0], [[np.nan]]),
    "sample-no-frequencies": lambda pipe: sample_frequencies(0, pipe.fm.hyper, 1, 0),
    "sample-no-dimensions": lambda pipe: sample_frequencies(2, pipe.fm.hyper, 0, 0),
    "feature-point-shape": lambda pipe: feature_map(np.zeros((2, 2)), pipe.fm.freq),
    "feature-point-non-finite": lambda pipe: feature_map([np.nan], pipe.fm.freq),
    "feature-phase-overflows": lambda pipe: feature_map([1e308], [[1.0]]),
    "design-dimension-mismatch": lambda pipe: build_feature_model(
        Dataset(np.zeros((2, 2)), np.ones(2)), pipe.fm.freq, pipe.fm.hyper
    ),
    "projected-targets-non-finite": lambda pipe: build_feature_model(
        Dataset(np.arange(3.0)[:, None], [1.7e308, -1.7e308, 1.7e308]), pipe.fm.freq, pipe.fm.hyper
    ),
    "rff-posterior-non-finite": lambda pipe: rff_posterior(
        build_feature_model(
            Dataset(np.arange(3.0)[:, None], [1e308, -1e308, 1e308]),
            sample_frequencies(8, pipe.fm.hyper, 1, 0),
            pipe.fm.hyper,
        ),
        [0.5, 1.0],
    ),
    "all-zero-targets": lambda pipe: PreparedPipeline(_fm_at_0(pipe, target=0.0), 6),
    "design-norm-underflows": lambda pipe: _fm_at_0(pipe, 2.3e-162),
    "sigma-tilde-overflows": lambda pipe: PreparedPipeline(_fm_at_0(pipe, 1e-158), 6),
    "targets-norm-overflows": lambda pipe: PreparedPipeline(_fm_at_0(pipe, target=1e154), 6),
    "setup-tau-below-1": lambda pipe: spectral_setup(
        pipe.fm.normalized_singular_values, pipe.sigma_tilde_sq, pipe.delta_r, -1
    ),
    "setup-delta-r-nan": lambda pipe: spectral_setup(
        pipe.fm.normalized_singular_values, pipe.sigma_tilde_sq, np.nan, pipe.tau
    ),
    "setup-sigma-tilde-nan": lambda pipe: spectral_setup(
        pipe.fm.normalized_singular_values, np.nan, pipe.delta_r, pipe.tau
    ),
    "shots-negative": lambda pipe: pipe.posterior([0.5], shots=-1),
    "shots-fractional": lambda pipe: pipe.posterior([0.5], shots=1.5),
    "shots-past-int64": lambda pipe: pipe.posterior([0.5], shots=2**63),
}


@pytest.mark.parametrize("check", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_checks_raise_config_error(paper_pipeline, check):
    with pytest.raises(ValueError) as info:
        check(paper_pipeline)
    assert isinstance(info.value, ConfigError) and isinstance(info.value, QrffError)


def test_internal_invariants_stay_value_errors():
    with pytest.raises(ValueError) as info:
        Posterior(np.zeros(1), -np.ones(1))
    assert not isinstance(info.value, QrffError)
