"""Tests for the clustering and temporal coherence losses."""

import dataclasses
import math

import numpy as np
import pytest

from totseg.losses import (
    LossConfig,
    cross_entropy,
    temporal_coherence,
    total_loss,
)
from totseg.numerics import row_softmax

import oracles


class TestCrossEntropy:
    def test_uniform_two_way_is_log_two(self):
        s = np.array([[0.3, 0.3]])
        q = np.array([[0.5, 0.5]])
        loss, _ = cross_entropy(s, q, 0.1)
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

    def test_codes_proportional_to_predictions_give_scaled_entropy(self):
        # With codes = predictions / B (each code row carrying mass 1/B),
        # the loss reduces to the mean row entropy divided by B, and the
        # score gradient vanishes: the predictions already match the codes.
        rng = np.random.default_rng(3)
        b, tau = 5, 0.1
        s = tau * rng.normal(size=(b, 4))
        p = row_softmax(s, tau)
        q = p / b
        loss, grad = cross_entropy(s, q, tau)
        entropy = -(p * np.log(p)).sum(axis=1).mean()
        assert loss == pytest.approx(entropy / b, rel=1e-12)
        np.testing.assert_allclose(grad, np.zeros_like(p), atol=1e-16)

    def test_scalar_minimum_sits_at_the_code_ratio(self):
        # One frame, two clusters, codes (0.3, 0.7): the loss over the
        # prediction simplex is minimized where the prediction equals the
        # code ratio. Scores tau * log(x, 1 - x) predict exactly (x, 1 - x).
        q = np.array([[0.3, 0.7]])
        grid = np.linspace(0.01, 0.99, 9801)
        losses = [
            cross_entropy(0.1 * np.log([[x, 1.0 - x]]), q, 0.1)[0] for x in grid
        ]
        assert grid[int(np.argmin(losses))] == pytest.approx(0.3, abs=1e-4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        b, k, tau = 6, 4, 0.1
        scores = rng.normal(size=(b, k))
        q = rng.dirichlet(np.ones(k), size=b) / b

        def fn(s):
            return cross_entropy(s, q, tau)[0]

        _, grad = cross_entropy(scores, q, tau)
        numeric = oracles.finite_difference(fn, scores)
        assert oracles.max_relative_error(grad, numeric) < 1e-6

    def test_gradient_formula_direct(self):
        rng = np.random.default_rng(5)
        b, k, tau = 8, 3, 0.25
        s = rng.normal(size=(b, k))
        q = rng.uniform(size=(b, k))
        _, grad = cross_entropy(s, q, tau)
        p = row_softmax(s, tau)
        row_mass = q.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(grad, (row_mass * p - q) / (b * tau), rtol=1e-14)

    def test_far_apart_scores_give_the_exact_loss(self):
        # softmax([0, 100] / 0.1) underflows to (0, 1), yet the loss is the
        # exact -0.5 * log p_0 = 0.5 * 1000 from the log-softmax.
        s = np.array([[0.0, 100.0]])
        q = np.array([[0.5, 0.5]])
        loss, grad = cross_entropy(s, q, 0.1)
        assert loss == pytest.approx(500.0, rel=1e-15)
        np.testing.assert_allclose(grad, [[-5.0, 5.0]], rtol=1e-15)

    def test_target_columns_match_one_hot_codes(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(5, 4))
        targets = np.array([3, 0, 0, 2, 1])
        loss, grad = cross_entropy(s, targets, 0.5)
        want_loss, want_grad = cross_entropy(s, np.eye(4)[targets], 0.5)
        assert loss == pytest.approx(want_loss, rel=1e-14)
        np.testing.assert_array_equal(grad, want_grad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            cross_entropy(np.ones((2, 3)), np.ones((2, 2)), 0.1)
        with pytest.raises(ValueError, match="differ in shape"):
            cross_entropy(np.ones((2, 3)), np.zeros(3, dtype=int), 0.1)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            cross_entropy(np.ones((1, 2)), np.ones((1, 2)), 0.0)


class TestTemporalCoherence:
    def test_single_pair_is_free(self):
        z = np.array([[0.6, 0.8]])
        m = np.array([[1.0, 0.0]])
        loss, ga, gm = temporal_coherence(z, m)
        assert loss == 0.0
        np.testing.assert_array_equal(ga, np.zeros_like(z))
        np.testing.assert_array_equal(gm, np.zeros_like(m))

    def test_identical_rows_cost_log_n(self):
        # When every similarity is the same constant, each row's softmax is
        # uniform and the loss is exactly log N.
        n = 7
        v = np.array([1.0, 0.0, 0.0])
        z = np.tile(v, (n, 1))
        loss, _, _ = temporal_coherence(z, z)
        assert loss == pytest.approx(math.log(n), rel=1e-14)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        n, d = 5, 4
        z = rng.normal(size=(n, d))
        m = rng.normal(size=(n, d))
        loss, ga, gm = temporal_coherence(z, m)
        assert loss > 0
        numeric_a = oracles.finite_difference(
            lambda a: temporal_coherence(a, m)[0], z
        )
        numeric_m = oracles.finite_difference(
            lambda p: temporal_coherence(z, p)[0], m
        )
        assert oracles.max_relative_error(ga, numeric_a) < 1e-6
        assert oracles.max_relative_error(gm, numeric_m) < 1e-6

    def test_row_permutation_equivariance(self):
        # Permuting anchors and positives together relabels the pairs but
        # changes nothing else: same loss, permuted gradients.
        rng = np.random.default_rng(7)
        n, d = 6, 3
        z = rng.normal(size=(n, d))
        m = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        loss, ga, gm = temporal_coherence(z, m)
        loss_p, ga_p, gm_p = temporal_coherence(z[perm], m[perm])
        assert loss_p == pytest.approx(loss, rel=1e-13)
        np.testing.assert_allclose(ga_p, ga[perm], rtol=1e-12)
        np.testing.assert_allclose(gm_p, gm[perm], rtol=1e-12)

    def test_separated_pairs_beat_clumped_pairs(self):
        # Anchors matched to their own positives and orthogonal to the rest
        # should cost less than everyone sharing one direction.
        eye = np.eye(4)
        clumped = np.tile(eye[0], (4, 1))
        loss_sep, _, _ = temporal_coherence(eye, eye)
        loss_clump, _, _ = temporal_coherence(clumped, clumped)
        assert loss_sep < loss_clump

    def test_equals_cross_entropy_against_the_identity(self):
        rng = np.random.default_rng(9)
        n, d = 6, 4
        z = rng.normal(size=(n, d))
        m = rng.normal(size=(n, d))
        sims = z @ m.T
        loss, ga, gm = temporal_coherence(z, m)
        want_loss, dsims = cross_entropy(sims, np.eye(n), 1.0)
        assert loss == pytest.approx(want_loss, rel=1e-14)
        np.testing.assert_allclose(ga, dsims @ m, rtol=1e-14)
        np.testing.assert_allclose(gm, dsims.T @ z, rtol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            temporal_coherence(np.ones((3, 2)), np.ones((2, 2)))


class TestTotalLoss:
    def test_zero_alpha_drops_coherence(self):
        assert total_loss(1.5, 99.0, 0.0) == 1.5

    def test_weighted_sum(self):
        assert total_loss(2.0, 3.0, 0.5) == pytest.approx(3.5)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            total_loss(1.0, 1.0, -0.1)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.temperature == 0.1
        assert cfg.alpha == 1.0
        assert cfg.window == 30
        assert cfg.renormalize_codes is False

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            LossConfig().temperature = 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"alpha": -0.5},
            {"window": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)
