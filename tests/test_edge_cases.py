"""Property tests over the pipeline's edge cases.

Draws tiny designs with duplicate inputs, more frequencies than points
(M > N, including N = 1 with a width-0 row register), one-qubit phase
registers and zero noise, at the default phase window and at twice the top
squared singular value (where tau = 1 can resolve a rank-one design). Each must either be refused with ``ConfigError``
or ``PostSelectionError`` before any estimate is made, or give exact-mode
means and variances equal to the binned spectral-sum oracle.

The sampled-mode test draws the same kind of designs with 1 to 64 shots and
a seed per query point: each is refused, or gives accepted shots in
[1, shots], overlaps on the 2k/n - 1 grid of n accepted shots, non-negative
variances, and the same arrays again for the same seeds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qrff.errors import ConfigError, PostSelectionError
from qrff.kernel import Dataset, KernelHyper
from qrff.pipeline import DELTA_R_HEADROOM, PreparedPipeline
from qrff.rff import build_feature_model, sample_frequencies, scaled_feature_vector

from spectral_oracle import BinnedPrediction

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
def test_pipeline_refuses_or_matches_binned_oracle(
    xs, m_freq, tau, noise, seed_freq, headroom
):
    h = KernelHyper(1.5, 1.0, noise)
    x = np.array(xs)
    y = np.sin(x) + 0.5  # never identically zero
    ds = Dataset(x[:, None], y)
    fm = build_feature_model(ds, sample_frequencies(m_freq, h, 1, seed_freq), h)
    delta_r = headroom * float(fm.normalized_singular_values[0] ** 2)
    try:
        pipe = PreparedPipeline(fm, h, tau, delta_r)
    except (ConfigError, PostSelectionError) as exc:
        event(f"refused: {type(exc).__name__}")
        return
    event("estimated")
    pred = BinnedPrediction(fm, noise, delta_r, tau)
    assert 0 < pipe.p1 <= 1 and 0 < pipe.p2 <= 1
    assert pipe.p1 == pytest.approx(pred.p1(), abs=1e-10)
    assert pipe.p2 == pytest.approx(pred.p2(), abs=1e-10)
    m = pipe.mean_estimate(y, GRID)
    v = pipe.variance_estimate(GRID)
    for i, x_star in enumerate(GRID):
        phi_star = scaled_feature_vector([x_star], fm.freq, h)
        assert m.mean[i] == pytest.approx(pred.mean(phi_star, y), abs=1e-8)
        assert v.variance[i] == pytest.approx(pred.variance(phi_star), abs=1e-8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    xs=st.lists(st.sampled_from(INPUTS), min_size=1, max_size=6),
    m_freq=st.integers(1, 3),
    tau=st.integers(4, 6),
    shots=st.integers(1, 64),
    seed_freq=st.integers(0, 20),
    seeds=st.lists(
        st.integers(0, 2**32 - 1), min_size=2 * GRID.size, max_size=2 * GRID.size
    ),
)
def test_sampled_mode_with_few_shots(xs, m_freq, tau, shots, seed_freq, seeds):
    h = KernelHyper(1.5, 1.0, 0.1)
    x = np.array(xs)
    y = np.sin(x) + 0.5
    fm = build_feature_model(
        Dataset(x[:, None], y), sample_frequencies(m_freq, h, 1, seed_freq), h
    )

    def estimate():
        pipe = PreparedPipeline(fm, h, tau)
        return (
            pipe.mean_estimate(y, GRID, shots, seeds[: GRID.size]),
            pipe.variance_estimate(GRID, shots, seeds[GRID.size :]),
        )

    try:
        m, v = estimate()
    except (ConfigError, PostSelectionError) as exc:
        event(f"refused: {type(exc).__name__}")
        return
    event("estimated")
    for est, overlap in ((m, m.diagnostics["overlap"]), (v, v.diagnostics["overlap_raw"])):
        n = est.shots_used
        assert np.all((1 <= n) & (n <= shots))
        # 2k/n - 1 for k test-qubit zeros out of n accepted shots
        k = (overlap + 1.0) * n / 2.0
        assert np.max(np.abs(k - np.round(k))) <= 1e-9
        assert np.all(np.abs(overlap) <= 1.0)
    assert np.all(v.variance >= 0.0)
    m2, v2 = estimate()
    assert np.array_equal(m.mean, m2.mean) and np.array_equal(m.shots_used, m2.shots_used)
    assert np.array_equal(v.variance, v2.variance) and np.array_equal(v.shots_used, v2.shots_used)
