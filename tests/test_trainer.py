"""Tests for the training loop, its gradients, and dataset embedding."""

import io

import numpy as np
import pytest

from totseg import encoder, transport
from totseg.dataio import SyntheticSpec, generate_synthetic
from totseg.errors import NumericalError
from totseg.losses import LossConfig
from totseg.numerics import row_softmax
from totseg.trainer import (
    LOG_HEADER,
    MODES,
    MatrixLedger,
    TrainConfig,
    embed_dataset,
    loss_and_grads,
    solve_codes,
    train,
)
from totseg.transport import TransportConfig
from totseg import trainer
from totseg.sampler import build_batch

import oracles


def small_catalog(seed=0, num_videos=6):
    return generate_synthetic(
        SyntheticSpec(
            num_videos=num_videos,
            num_actions=3,
            dim=8,
            mean_segment_len=30,
            seed=seed,
        )
    )


def small_config(**kwargs):
    defaults = dict(
        mode="tot",
        iterations=5,
        batch_size=32,
        videos_per_batch=2,
        freeze_iterations=2,
        embed_dim=6,
        loss=LossConfig(window=10),
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_mode_switches(self):
        assert [TrainConfig(mode=m).uses_prior for m in MODES] == [
            False,
            False,
            True,
            True,
        ]
        assert [TrainConfig(mode=m).uses_coherence for m in MODES] == [
            False,
            True,
            False,
            True,
        ]

    def test_mode_is_case_insensitive(self):
        assert TrainConfig(mode="TOT+TCL").mode == "tot+tcl"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "kmeans"},
            {"epochs": 0},
            {"iterations": 0},
            {"freeze_iterations": -1},
            {"embed_dim": 0},
            {"hidden_dim": 0},
            {"prior_scope": "video"},
            {"videos_per_batch": 0},
            {"batch_size": 0},
            {"batch_size": 7},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestMatrixLedger:
    def test_tracks_peak_per_name(self):
        ledger = MatrixLedger()
        ledger.record("a", np.zeros((4, 2)))
        ledger.record("a", np.zeros((10, 3)))
        ledger.record("a", np.zeros((2, 2)))
        ledger.record("b", np.zeros(7))
        assert ledger.shape("a") == (10, 3)
        assert ledger.peak_bytes("a") == 10 * 3 * 8
        assert ledger.max_dimension() == 10

    def test_empty_ledger(self):
        assert MatrixLedger().max_dimension() == 0


class TestSolveCodes:
    def config(self, mode="tot", scope="block", tolerance=0.0, iterations=3):
        return small_config(
            mode=mode,
            prior_scope=scope,
            transport=TransportConfig(
                iterations=iterations, marginal_tolerance=tolerance
            ),
        )

    def test_single_block_equals_direct_solve(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(-1, 1, size=(8, 3))
        config = self.config()
        codes, row_err, col_err = solve_codes(scores, [("v", 0, 8)], config)
        prior = transport.temporal_prior(8, 3, config.transport.sigma)
        direct = transport.sinkhorn_tot(scores, prior, config.transport.rho)
        np.testing.assert_array_equal(codes, direct.values)
        assert row_err == direct.row_error
        assert col_err == direct.col_error

    def test_blocks_assemble_onto_the_batch_polytope(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-1, 1, size=(12, 3))
        blocks = [("a", 0, 6), ("b", 6, 6)]
        config = self.config(tolerance=1e-12, iterations=100000)
        codes, row_err, col_err = solve_codes(scores, blocks, config)
        np.testing.assert_allclose(codes.sum(axis=1), 1.0 / 12.0, atol=1e-12)
        np.testing.assert_allclose(codes.sum(axis=0), 1.0 / 3.0, atol=1e-12)
        assert row_err < 1e-11
        assert col_err < 1e-11

    def test_blocks_are_independent_scaled_solves(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(-1, 1, size=(10, 4))
        blocks = [("a", 0, 4), ("b", 4, 6)]
        config = self.config()
        codes, _, _ = solve_codes(scores, blocks, config)
        for _, start, length in blocks:
            prior = transport.temporal_prior(length, 4, config.transport.sigma)
            part = transport.sinkhorn_tot(
                scores[start : start + length], prior, config.transport.rho
            )
            np.testing.assert_allclose(
                codes[start : start + length],
                part.values * (length / 10),
                rtol=1e-15,
            )

    def test_batch_scope_solves_the_batch_as_one_sequence(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-1, 1, size=(12, 3))
        blocks = [("a", 0, 6), ("b", 6, 6)]
        config = self.config(scope="batch")
        codes, _, _ = solve_codes(scores, blocks, config)
        prior = transport.temporal_prior(12, 3, config.transport.sigma)
        direct = transport.sinkhorn_tot(scores, prior, config.transport.rho)
        np.testing.assert_array_equal(codes, direct.values)

    def test_ot_mode_ignores_the_prior(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-1, 1, size=(8, 3))
        config = self.config(mode="ot")
        codes, _, _ = solve_codes(scores, [("v", 0, 8)], config)
        direct = transport.sinkhorn_ot(scores, config.transport.epsilon)
        np.testing.assert_array_equal(codes, direct.values)

    def test_ledger_sees_prior_and_codes(self):
        ledger = MatrixLedger()
        scores = np.zeros((6, 3))
        solve_codes(scores, [("v", 0, 6)], self.config(), ledger)
        assert ledger.shape("prior") == (6, 3)
        assert ledger.shape("codes") == (6, 3)


class TestLossAndGrads:
    def setup_problem(self, seed=5, batch=8, clusters=3):
        rng = np.random.default_rng(seed)
        params = encoder.init_params(4, 5, 4, clusters, rng)
        anchors = rng.normal(size=(batch, 4))
        positives = rng.normal(size=(batch, 4))
        codes = rng.dirichlet(np.ones(clusters), size=batch) / batch
        blocks = [("a", 0, batch // 2), ("b", batch // 2, batch // 2)]
        return params, anchors, positives, codes, blocks

    def check_gradients(self, positives, normalize, alpha=0.7):
        params, anchors, pos, codes, blocks = self.setup_problem()
        positives = pos if positives else None
        loss_config = LossConfig(temperature=0.2, alpha=alpha, window=5)
        clustering, coherence, grads = loss_and_grads(
            params, anchors, positives, codes, blocks, loss_config, normalize
        )

        def objective(key, value):
            trial = encoder.EncoderParams(**{**params.as_dict(), key: value})
            c, t, _ = loss_and_grads(
                trial, anchors, positives, codes, blocks, loss_config, normalize
            )
            return c + alpha * t

        for key in encoder.PARAM_KEYS:
            numeric = oracles.finite_difference(
                lambda v, key=key: objective(key, v), getattr(params, key)
            )
            err = oracles.max_relative_error(grads[key], numeric)
            assert err < 1e-5, f"{key}: {err}"
        if positives is None:
            assert coherence == 0.0
        else:
            assert coherence > 0.0
        assert clustering > 0.0

    def test_gradients_with_coherence_and_normalization(self):
        self.check_gradients(positives=True, normalize=True)

    def test_gradients_without_positives(self):
        self.check_gradients(positives=False, normalize=True)

    def test_gradients_without_normalization(self):
        self.check_gradients(positives=True, normalize=False)

    def test_zero_alpha_still_returns_coherence_value(self):
        params, anchors, positives, codes, blocks = self.setup_problem()
        loss_config = LossConfig(alpha=0.0)
        _, coherence, grads_zero = loss_and_grads(
            params, anchors, positives, codes, blocks, loss_config
        )
        assert coherence > 0.0
        _, _, grads_without = loss_and_grads(
            params, anchors, None, codes, blocks, loss_config
        )
        for key in encoder.PARAM_KEYS:
            np.testing.assert_allclose(
                grads_zero[key], grads_without[key], atol=1e-15
            )

    def test_renormalized_codes_change_the_loss(self):
        params, anchors, _, codes, blocks = self.setup_problem()
        plain, _, _ = loss_and_grads(
            params, anchors, None, codes, blocks, LossConfig()
        )
        renorm, _, _ = loss_and_grads(
            params, anchors, None, codes, blocks, LossConfig(renormalize_codes=True)
        )
        # Row masses go from 1/B to 1, scaling the loss accordingly.
        assert renorm == pytest.approx(8 * plain, rel=1e-12)


class TestTrainRunsTheOracleStep:
    """The gradients train() steps with are exactly loss_and_grads' output."""

    @pytest.mark.parametrize("mode", ["tot", "tot+tcl"])
    def test_first_step_gradients_match_bit_for_bit(self, mode, monkeypatch):
        seen = {}
        real_build, real_solve, real_adam = build_batch, solve_codes, encoder.adam_step

        def spy_build(*args, **kwargs):
            batch = real_build(*args, **kwargs)
            seen.setdefault("batch", batch)
            return batch

        def spy_solve(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            seen.setdefault("codes", out[0].copy())
            return out

        def spy_adam(params, grads, state):
            seen.setdefault(
                "params",
                encoder.EncoderParams(
                    **{k: v.copy() for k, v in params.as_dict().items()}
                ),
            )
            seen.setdefault("grads", {k: v.copy() for k, v in grads.items()})
            real_adam(params, grads, state)

        monkeypatch.setattr(trainer, "build_batch", spy_build)
        monkeypatch.setattr(trainer, "solve_codes", spy_solve)
        monkeypatch.setattr(encoder, "adam_step", spy_adam)
        config = small_config(mode=mode, iterations=2)
        train(small_catalog(), config)

        batch = seen["batch"]
        positives = batch.positive_features if config.uses_coherence else None
        _, _, want = loss_and_grads(
            seen["params"],
            batch.features,
            positives,
            seen["codes"],
            batch.blocks,
            config.loss,
            config.normalize,
        )
        assert sorted(seen["grads"]) == sorted(want)
        for key, grad in want.items():
            np.testing.assert_array_equal(seen["grads"][key], grad)


class TestTrain:
    def test_log_is_reproducible_bit_for_bit(self):
        catalog = small_catalog()
        config = small_config(iterations=8)
        streams = []
        results = []
        for _ in range(2):
            stream = io.StringIO()
            results.append(train(catalog, config, log_stream=stream))
            streams.append(stream.getvalue())
        assert streams[0] == streams[1]
        lines = streams[0].splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + 8
        for key in encoder.PARAM_KEYS:
            np.testing.assert_array_equal(
                getattr(results[0].params, key), getattr(results[1].params, key)
            )

    def test_log_lines_parse(self):
        catalog = small_catalog()
        stream = io.StringIO()
        result = train(catalog, small_config(iterations=3), log_stream=stream)
        for line, record in zip(stream.getvalue().splitlines()[1:], result.records):
            fields = line.split(",")
            assert len(fields) == 6
            assert int(fields[0]) == record.iteration
            assert float(fields[1]) == pytest.approx(record.clustering_loss, abs=1e-6)
            assert float(fields[3]) == pytest.approx(record.total_loss, abs=1e-6)

    def test_ot_mode_never_touches_sigma(self):
        catalog = small_catalog()
        logs = []
        for sigma in (0.5, 25.0):
            config = small_config(
                mode="ot", transport=TransportConfig(sigma=sigma)
            )
            stream = io.StringIO()
            train(catalog, config, log_stream=stream)
            logs.append(stream.getvalue())
        assert logs[0] == logs[1]

    def test_zero_alpha_coherence_matches_plain_tot(self):
        # The sampler draws positives either way, so the random streams
        # align and alpha = 0 must reproduce the no-coherence run exactly.
        catalog = small_catalog()
        base = train(catalog, small_config(mode="tot"))
        with_tcl = train(
            catalog, small_config(mode="tot+tcl", loss=LossConfig(window=10, alpha=0.0))
        )
        for key in encoder.PARAM_KEYS:
            np.testing.assert_array_equal(
                getattr(base.params, key), getattr(with_tcl.params, key)
            )
        for a, b in zip(base.records, with_tcl.records):
            assert a.clustering_loss == b.clustering_loss
            assert a.coherence_loss == 0.0
            assert b.coherence_loss > 0.0

    def test_clustering_loss_decreases(self):
        catalog = generate_synthetic(
            SyntheticSpec(num_videos=12, num_actions=3, dim=8, mean_segment_len=40)
        )
        config = small_config(
            iterations=150,
            batch_size=64,
            freeze_iterations=30,
            transport=TransportConfig(sigma=1.0),
        )
        result = train(catalog, config)
        early = np.mean([r.clustering_loss for r in result.records[5:15]])
        late = np.mean([r.clustering_loss for r in result.records[-10:]])
        assert late < 0.7 * early

    def test_frozen_prototypes_keep_their_initialization(self):
        catalog = small_catalog()
        config = small_config(iterations=4, freeze_iterations=4)
        result = train(catalog, config)
        rng = np.random.default_rng(config.seed)
        hidden = config.hidden_dim or 2 * config.embed_dim
        reference = encoder.init_params(
            catalog.dim, hidden, config.embed_dim, catalog.num_actions, rng
        )
        np.testing.assert_array_equal(
            result.params.prototypes, reference.prototypes
        )
        assert not np.array_equal(result.params.w1, reference.w1)

        thawed = train(catalog, small_config(iterations=4, freeze_iterations=0))
        assert not np.array_equal(thawed.params.prototypes, reference.prototypes)

    def test_iteration_budget_from_epochs(self):
        catalog = small_catalog(num_videos=5)
        config = small_config(iterations=None, epochs=3)
        result = train(catalog, config)
        assert len(result.records) == 3 * (5 // 2)

    def test_ledger_shapes_stay_batch_sized(self):
        catalog = small_catalog()
        config = small_config(mode="tot+tcl", iterations=3)
        result = train(catalog, config)
        ledger = result.ledger
        assert ledger.shape("embeddings") == (32, 6)
        assert ledger.shape("codes") == (32, 3)
        assert ledger.shape("scores") == (32, 3)
        assert ledger.shape("batch_features") == (32, 8)
        # Stacked anchor+positive activations are the largest anything gets.
        assert ledger.max_dimension() == 64
        assert ledger.max_dimension() < catalog.total_frames

    def test_num_clusters_mismatch_rejected(self):
        catalog = small_catalog()
        with pytest.raises(ValueError, match="4 prototypes but catalog"):
            train(catalog, small_config(num_clusters=4))

    def test_matching_num_clusters_accepted(self):
        catalog = small_catalog()
        result = train(catalog, small_config(iterations=1, num_clusters=3))
        assert result.params.prototypes.shape == (3, 6)

    def test_pool_too_small_rejected(self):
        catalog = small_catalog(num_videos=2)
        config = small_config(videos_per_batch=3, batch_size=33)
        with pytest.raises(ValueError, match="need 3 videos"):
            train(catalog, config)

    def test_nan_features_raise_numerical_error(self):
        catalog = small_catalog()
        for video in catalog.videos:
            video.array[:] = np.nan
        with pytest.raises(NumericalError):
            train(catalog, small_config(iterations=2))


class TestEmbedDataset:
    def trained(self):
        catalog = small_catalog()
        result = train(catalog, small_config(iterations=10))
        return catalog, result.params

    def test_rows_are_probabilities(self):
        catalog, params = self.trained()
        outputs = dict(embed_dataset(params, catalog))
        assert list(outputs) == [v.video_id for v in catalog.videos]
        for video in catalog.videos:
            probs = outputs[video.video_id]
            assert probs.shape == (video.num_frames, 3)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            assert probs.min() >= 0.0

    def test_chunking_does_not_change_results(self):
        catalog, params = self.trained()
        small = dict(embed_dataset(params, catalog, chunk_size=7))
        large = dict(embed_dataset(params, catalog, chunk_size=100000))
        for video_id, probs in small.items():
            np.testing.assert_allclose(probs, large[video_id], atol=1e-12)

    def test_matches_manual_forward(self):
        catalog, params = self.trained()
        video = catalog.videos[0]
        probs = next(iter(embed_dataset(params, catalog, temperature=0.1)))[1]
        embeddings, _ = encoder.forward(params, video.load_features())
        normalized, _ = encoder.normalize_rows(embeddings)
        protos, _ = encoder.normalize_rows(params.prototypes)
        want = row_softmax(normalized @ protos.T, 0.1)
        np.testing.assert_allclose(probs, want, atol=1e-13)

    def test_normalize_flag_changes_the_scores(self):
        catalog, params = self.trained()
        with_norm = next(iter(embed_dataset(params, catalog, normalize=True)))[1]
        without = next(iter(embed_dataset(params, catalog, normalize=False)))[1]
        assert not np.allclose(with_norm, without)

    def test_bad_chunk_size_rejected(self):
        catalog, params = self.trained()
        with pytest.raises(ValueError, match="chunk_size"):
            next(embed_dataset(params, catalog, chunk_size=0))
