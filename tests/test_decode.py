"""Tests for order-constrained Viterbi decoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from totseg import encoder
from totseg.dataio import SyntheticSpec, generate_synthetic
from totseg.decode import (
    PROBABILITY_FLOOR,
    segments_from_labels,
    viterbi_fixed_order,
)
from totseg.numerics import log_softmax_rows
from totseg.trainer import embed_dataset, forward

import oracles


def random_feasible_labels(num_frames, num_clusters, rng):
    """A random monotone path visiting every cluster in order."""
    cuts = np.sort(rng.choice(np.arange(1, num_frames), num_clusters - 1, replace=False))
    labels = np.zeros(num_frames, dtype=np.int64)
    for cluster, cut in enumerate(cuts, start=1):
        labels[cut:] = cluster
    return labels


class TestLogProbabilities:
    """The lattice embed_dataset hands the decoder: floored log-softmax."""

    def lattice_and_log_softmax(self, temperature):
        catalog = generate_synthetic(
            SyntheticSpec(num_videos=1, num_actions=3, dim=8, mean_segment_len=30, seed=4)
        )
        params = encoder.init_params(8, 12, 6, 3, np.random.default_rng(4))
        [(_, lattice)] = embed_dataset(params, catalog, temperature=temperature)
        video = catalog.videos[0]
        scores = forward(params, video.load_features(), video.num_frames, True).scores
        return lattice, log_softmax_rows(scores, temperature)[0]

    def test_exact_above_the_floor(self):
        lattice, log_p = self.lattice_and_log_softmax(0.1)
        assert (log_p > math.log(PROBABILITY_FLOOR)).all()
        np.testing.assert_array_equal(lattice, log_p)

    def test_zero_clamped_to_floor(self):
        # At temperature 1e-3 the cosine scores span hundreds of nats, so
        # most probabilities underflow; their frames sit on the floor.
        lattice, log_p = self.lattice_and_log_softmax(1e-3)
        below = log_p < math.log(PROBABILITY_FLOOR)
        assert below.sum() > lattice.shape[0]
        assert (lattice[below] == math.log(PROBABILITY_FLOOR)).all()
        np.testing.assert_array_equal(lattice[~below], log_p[~below])


class TestSegmentsFromLabels:
    def test_two_runs(self):
        assert segments_from_labels([0, 0, 1]) == [(0, 0, 2), (1, 2, 3)]

    def test_constant_sequence(self):
        assert segments_from_labels([5, 5, 5]) == [(5, 0, 3)]

    def test_single_frame(self):
        assert segments_from_labels([2]) == [(2, 0, 1)]

    def test_labels_rebuild_from_segments(self):
        rng = np.random.default_rng(0)
        labels = random_feasible_labels(40, 5, rng)
        rebuilt = np.empty(40, dtype=np.int64)
        for cluster, start, end in segments_from_labels(labels):
            rebuilt[start:end] = cluster
        np.testing.assert_array_equal(rebuilt, labels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty label sequence"):
            segments_from_labels([])


class TestViterbiFixedOrder:
    def test_single_cluster_takes_every_frame(self):
        lp = np.log(np.full((6, 1), 0.5))
        result = viterbi_fixed_order(lp)
        np.testing.assert_array_equal(result.labels, np.zeros(6, dtype=np.int64))
        assert result.log_score == pytest.approx(6 * math.log(0.5), rel=1e-14)
        assert result.segments == [(0, 0, 6)]

    def test_clean_block_structure_recovers_the_boundary(self):
        probs = np.full((10, 2), 0.1)
        probs[:5, 0] = 0.9
        probs[5:, 1] = 0.9
        lp = np.log(probs)
        result = viterbi_fixed_order(lp)
        np.testing.assert_array_equal(result.labels, [0] * 5 + [1] * 5)
        assert result.log_score == pytest.approx(10 * math.log(0.9), rel=1e-14)

    def test_score_equals_path_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = int(rng.integers(4, 15))
            k = int(rng.integers(1, min(f, 5) + 1))
            lp = rng.normal(size=(f, k))
            result = viterbi_fixed_order(lp)
            path_sum = float(lp[np.arange(f), result.labels].sum())
            assert result.log_score == pytest.approx(path_sum, rel=1e-12)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = int(rng.integers(3, 13))
            k = int(rng.integers(2, min(f, 4) + 1))
            lp = rng.normal(size=(f, k))
            result = viterbi_fixed_order(lp)
            want_labels, want_score = oracles.viterbi_bruteforce(lp)
            np.testing.assert_array_equal(result.labels, want_labels)
            assert result.log_score == pytest.approx(want_score, rel=1e-9)

    def test_uniform_lattice_puts_boundaries_last(self):
        # Every monotone path scores the same on a constant lattice; the
        # decoder stays in its current cluster on ties, so each advance
        # happens at the last feasible frame.
        result = viterbi_fixed_order(np.zeros((3, 2)))
        np.testing.assert_array_equal(result.labels, [0, 0, 1])
        result = viterbi_fixed_order(np.zeros((5, 3)))
        np.testing.assert_array_equal(result.labels, [0, 0, 0, 1, 2])

    def test_constant_shift_leaves_labels_alone(self):
        rng = np.random.default_rng(3)
        lp = rng.normal(size=(9, 3))
        base = viterbi_fixed_order(lp)
        shifted = viterbi_fixed_order(lp + 7.5)
        np.testing.assert_array_equal(shifted.labels, base.labels)
        assert shifted.log_score == pytest.approx(base.log_score + 9 * 7.5, rel=1e-12)

    def test_beats_random_feasible_paths(self):
        rng = np.random.default_rng(4)
        lp = rng.normal(size=(20, 4))
        optimum = viterbi_fixed_order(lp).log_score
        even = np.arange(20) * 4 // 20
        assert float(lp[np.arange(20), even].sum()) <= optimum + 1e-12
        for _ in range(200):
            labels = random_feasible_labels(20, 4, rng)
            score = float(lp[np.arange(20), labels].sum())
            assert score <= optimum + 1e-12

    def test_result_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = int(rng.integers(5, 40))
            k = int(rng.integers(2, 6))
            result = viterbi_fixed_order(rng.normal(size=(f, k)))
            labels = result.labels
            assert np.all(np.diff(labels) >= 0)
            assert np.all(np.diff(labels) <= 1)
            assert labels[0] == 0
            assert labels[-1] == k - 1
            np.testing.assert_array_equal(np.unique(labels), np.arange(k))
            covered = np.zeros(f, dtype=bool)
            for cluster, start, end in result.segments:
                assert end > start
                assert not covered[start:end].any()
                covered[start:end] = True
                assert (labels[start:end] == cluster).all()
            assert covered.all()

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="2 frames cannot cover 3 clusters"):
            viterbi_fixed_order(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_lattice_rejected(self, bad):
        lp = np.zeros((4, 2))
        lp[1, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            viterbi_fixed_order(lp)


def peaked_log_probs(frames, clusters, boost, rng):
    """Floored log softmax rows peaked on one cluster per run of frames.

    Runs of 1..39 frames share a random peak cluster; ``boost`` (one value
    per frame) is added to the peak's standard-normal logit.
    """
    peaks = np.repeat(rng.integers(0, clusters, size=frames), rng.integers(1, 40, size=frames))
    logits = rng.normal(size=(frames, clusters))
    logits[np.arange(frames), peaks[:frames]] += boost
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = weights / weights.sum(axis=1, keepdims=True)
    return np.log(np.maximum(probs, PROBABILITY_FLOOR))


def seeded_lattice(kind, rng):
    """F x K lattice with K in 1..8 and F log-uniform in [K, 3000)."""
    clusters = int(rng.integers(1, 9))
    frames = clusters + int(np.expm1(rng.uniform(0, np.log(3001 - clusters))))
    if kind == "normal":
        return rng.normal(size=(frames, clusters))
    if kind == "integer":
        return rng.integers(-2, 3, size=(frames, clusters)).astype(np.float64)
    # Four rows in five are one-hot to the last bit: the peak probability
    # rounds to exactly 1 and every other entry sits on the floor, so
    # boundaries inside floored stretches tie exactly. The rest are soft.
    hard = rng.random(frames) < 0.8
    boost = np.where(hard, rng.uniform(60, 80, frames), rng.uniform(4, 12, frames))
    return peaked_log_probs(frames, clusters, boost, rng)


@pytest.mark.parametrize("kind", ["normal", "integer", "near_one_hot"])
def test_matches_the_frame_loop_reference(kind):
    rng = np.random.default_rng(["normal", "integer", "near_one_hot"].index(kind))
    floored = 0
    for _ in range(100):
        lp = seeded_lattice(kind, rng)
        result = viterbi_fixed_order(lp)
        want_labels, want_score = oracles.viterbi_loop(lp)
        np.testing.assert_array_equal(result.labels, want_labels)
        assert result.log_score == pytest.approx(want_score, rel=1e-12)
        floored += bool((lp == math.log(PROBABILITY_FLOOR)).any())
    if kind == "near_one_hot":
        assert floored >= 80


def test_sub_rounding_peaks_still_give_an_optimal_path():
    # Peak probabilities 1 - delta with 0 < delta < 1e-11 put log terms far
    # below the rounding unit of the path sums. Paths that differ only by
    # such terms are ordered by rounding, differently in any two orders of
    # summation, so the labels may differ from the reference; the path's
    # exact score may fall short of the reference path's only by rounding.
    rng = np.random.default_rng(3)
    for _ in range(100):
        frames = int(rng.integers(8, 400))
        lp = peaked_log_probs(frames, 7, rng.uniform(30, 36, frames), rng)
        peaks = lp.max(axis=1)
        assert ((peaks < 0) & (peaks > -1e-11)).mean() > 0.5
        result = viterbi_fixed_order(lp)
        want_labels, _ = oracles.viterbi_loop(lp)
        got = math.fsum(lp[np.arange(frames), result.labels])
        want = math.fsum(lp[np.arange(frames), want_labels])
        assert got >= want - 1e-12 * abs(want)
        assert result.log_score == pytest.approx(got, rel=1e-12)


@st.composite
def finite_lattices(draw):
    clusters = draw(st.integers(1, 6))
    frames = draw(st.integers(clusters, 40))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (frames, clusters), elements=values))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(finite_lattices())
def test_any_finite_lattice_gives_a_monotone_covering_path(lattice):
    frames, clusters = lattice.shape
    result = viterbi_fixed_order(lattice)
    steps = np.diff(result.labels)
    assert result.labels[0] == 0 and result.labels[-1] == clusters - 1
    assert np.all((steps == 0) | (steps == 1))
    path_sum = lattice[np.arange(frames), result.labels].sum()
    assert result.log_score == pytest.approx(path_sum, rel=1e-12, abs=1e-9)
