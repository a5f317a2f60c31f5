"""Tests for the training loop, its gradients, and dataset embedding."""

import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from totseg import dataio, decode, encoder, losses, transport
from totseg.dataio import (
    DatasetCatalog,
    FeatureSequence,
    LabelMapping,
    SyntheticSpec,
    generate_synthetic,
    load_catalog,
    write_catalog,
    write_features,
)
from totseg.errors import DataError, NumericalError
from totseg.losses import LossConfig
from totseg.numerics import log_softmax_rows
from totseg.trainer import (
    LOG_HEADER,
    MODES,
    TrainConfig,
    Workspace,
    backward,
    embed_dataset,
    forward,
    solve_codes,
    train,
)
from totseg.transport import TransportConfig
from totseg import trainer
from totseg.sampler import Batch, build_batch

import oracles


SRC = Path(__file__).resolve().parent.parent / "src"


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


def log_text(result):
    """The train.log text of a run: LOG_HEADER, then one line per record."""
    lines = [LOG_HEADER, *(record.to_line() for record in result.records)]
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "kmeans"},
            {"mode": "TOT"},
            {"epochs": 0},
            {"iterations": 0},
            {"freeze_iterations": -1},
            {"embed_dim": 0},
            {"videos_per_batch": 0},
            {"batch_size": 0},
            {"batch_size": 7},
            {"learning_rate": 0.0},
            {"weight_decay": -1.0},
            {"learning_rate": -1e-3},
            {"batch_size": 512, "videos_per_batch": 3},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestSolveCodes:
    def config(self, mode="tot", tolerance=0.0, iterations=3):
        return small_config(
            mode=mode,
            transport=TransportConfig(
                iterations=iterations, marginal_tolerance=tolerance
            ),
        )

    def test_single_block_equals_direct_solve(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(-1, 1, size=(8, 3))
        config = self.config()
        prior = transport.temporal_prior(8, 3, config.transport.sigma)
        codes, row_err, col_err = solve_codes(scores, 1, config, prior)
        direct = transport.sinkhorn_tot(scores, prior, config.transport.rho)
        np.testing.assert_array_equal(codes, direct.values)
        assert row_err == direct.row_error
        assert col_err == direct.col_error

    def test_blocks_assemble_onto_the_batch_polytope(self):
        # Each block of 6 rows comes back on its own polytope, unscaled:
        # rows sum to 1/6 and each block's columns to 1/3.
        rng = np.random.default_rng(1)
        scores = rng.uniform(-1, 1, size=(12, 3))
        config = self.config(tolerance=1e-12, iterations=100000)
        prior = transport.temporal_prior(6, 3, config.transport.sigma)
        codes, row_err, col_err = solve_codes(scores, 2, config, prior)
        np.testing.assert_allclose(codes.sum(axis=1), 1.0 / 6.0, atol=1e-12)
        for block in (codes[:6], codes[6:]):
            np.testing.assert_allclose(block.sum(axis=0), 1.0 / 3.0, atol=1e-12)
        assert row_err < 1e-11
        assert col_err < 1e-11

    def test_blocks_are_independent_scaled_solves(self):
        # Three blocks of 5 rows, solved as one stack: each equals its own
        # solve, bit for bit and unscaled.
        rng = np.random.default_rng(2)
        scores = rng.uniform(-1, 1, size=(15, 4))
        cases = [("tot", 0.0, 3), ("tot", 1e-9, 500), ("ot", 1e-9, 500)]
        for mode, tolerance, iterations in cases:
            config = self.config(mode=mode, tolerance=tolerance, iterations=iterations)
            cfg = config.transport
            prior = transport.temporal_prior(5, 4, cfg.sigma)
            codes, row_err, col_err = solve_codes(scores, 3, config, prior)
            errors = []
            for start in range(0, 15, 5):
                block = scores[start : start + 5]
                if mode == "tot":
                    part = transport.sinkhorn_tot(block, prior, cfg.rho, iterations, tolerance)
                else:
                    part = transport.sinkhorn_ot(block, cfg.epsilon, iterations, tolerance)
                np.testing.assert_array_equal(codes[start : start + 5], part.values)
                errors.append((part.row_error, part.col_error))
            assert row_err == max(row for row, _ in errors)
            assert col_err == max(col for _, col in errors)

    @pytest.mark.parametrize("mode", ["tot", "ot"])
    def test_one_solve_per_block_length(self, mode, monkeypatch):
        name = "sinkhorn_tot" if mode == "tot" else "sinkhorn_ot"
        real = getattr(transport, name)
        stacks = []

        def spy(scores, *args, **kwargs):
            stacks.append(scores)
            return real(scores, *args, **kwargs)

        monkeypatch.setattr(transport, name, spy)
        scores = np.random.default_rng(5).uniform(-1, 1, size=(12, 3))
        config = self.config(mode=mode)
        prior = transport.temporal_prior(4, 3, config.transport.sigma)
        solve_codes(scores, 3, config, prior)
        [stack] = stacks
        assert stack.shape == (3, 4, 3)
        assert np.shares_memory(stack, scores)

        stacks.clear()
        config = small_config(mode=mode, iterations=5)
        train(small_catalog(), config)
        block = config.batch_size // config.videos_per_batch
        shapes = [stack.shape for stack in stacks]
        assert shapes == [(config.videos_per_batch, block, 3)] * 5

    def test_ot_mode_ignores_the_prior(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-1, 1, size=(8, 3))
        config = self.config(mode="ot")
        codes, _, _ = solve_codes(scores, 1, config)
        direct = transport.sinkhorn_ot(scores, config.transport.epsilon)
        np.testing.assert_array_equal(codes, direct.values)

    def test_train_builds_the_prior_once(self, monkeypatch):
        built = []
        real_prior = transport.temporal_prior

        def spy_prior(*args):
            built.append(args)
            return real_prior(*args)

        monkeypatch.setattr(transport, "temporal_prior", spy_prior)
        config = small_config(mode="tot", iterations=4)
        train(small_catalog(), config)
        block = config.batch_size // config.videos_per_batch
        assert built == [(block, 3, config.transport.sigma)]


def step_losses(params, anchors, positives, codes, loss_config, normalize=True):
    """Both halves of a training step over two video blocks, codes held fixed."""
    rows = anchors if positives is None else np.concatenate([anchors, positives])
    step = forward(params, rows, len(anchors), normalize)
    return backward(step, codes, 2, loss_config)


class TestLossAndGrads:
    def setup_problem(self, seed=5, batch=8, clusters=3):
        rng = np.random.default_rng(seed)
        params = encoder.init_params(4, 5, 4, clusters, rng)
        anchors = rng.normal(size=(batch, 4))
        positives = rng.normal(size=(batch, 4))
        codes = rng.dirichlet(np.ones(clusters), size=batch) / batch
        return params, anchors, positives, codes

    def check_gradients(self, positives, normalize, alpha=0.7):
        params, anchors, pos, codes = self.setup_problem()
        positives = pos if positives else None
        loss_config = LossConfig(temperature=0.2, alpha=alpha, window=5)
        clustering, coherence, grads = step_losses(
            params, anchors, positives, codes, loss_config, normalize
        )

        def objective(key, value):
            trial = encoder.EncoderParams(**{**params, key: value})
            c, t, _ = step_losses(
                trial, anchors, positives, codes, loss_config, normalize
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
        params, anchors, positives, codes = self.setup_problem()
        loss_config = LossConfig(alpha=0.0)
        _, coherence, grads_zero = step_losses(
            params, anchors, positives, codes, loss_config
        )
        assert coherence > 0.0
        _, _, grads_without = step_losses(params, anchors, None, codes, loss_config)
        for key in encoder.PARAM_KEYS:
            np.testing.assert_allclose(
                grads_zero[key], grads_without[key], atol=1e-15
            )

    def test_clustering_loss_reads_each_code_row_as_a_distribution(self):
        # Only each code row's proportions matter: positive row factors
        # change neither the loss nor any gradient, and against unit-sum
        # rows the loss is the mean over frames of -sum_j q_ij log p_ij.
        params, anchors, _, codes = self.setup_problem()
        loss_config = LossConfig(temperature=0.2)
        unit = codes / codes.sum(axis=1, keepdims=True)
        factors = np.random.default_rng(6).uniform(0.01, 100.0, size=(8, 1))
        loss, _, grads = step_losses(params, anchors, None, unit, loss_config)
        scaled_loss, _, scaled_grads = step_losses(
            params, anchors, None, unit * factors, loss_config
        )
        assert scaled_loss == pytest.approx(loss, rel=1e-12)
        for key in encoder.PARAM_KEYS:
            np.testing.assert_allclose(scaled_grads[key], grads[key], rtol=1e-12)
        embeddings, _ = encoder.forward(params, anchors)
        rows, _ = encoder.normalize_rows(embeddings)
        protos, _ = encoder.normalize_rows(params.prototypes)
        log_p = np.log(log_softmax_rows(rows @ protos.T, 0.2)[1])
        assert loss == pytest.approx(-(unit * log_p).sum(axis=1).mean(), rel=1e-12)


def allocating_step(
    params, anchors, positives, codes, num_blocks, loss_config, normalize
):
    """A training step as one fresh array per expression: the stacked copy,
    zero-filled gradient rows, scaled copies of the coherence gradients and
    the allocating oracles of the encoder and normalization kernels.

    Returns:
        (scores, clustering loss, coherence loss, gradient dict).
    """
    batch_size = anchors.shape[0]
    stacked = anchors if positives is None else np.concatenate([anchors, positives])
    embeddings, cache = encoder.forward(params, stacked)
    normalized, norms = embeddings, None
    protos, proto_norms = params.prototypes, None
    if normalize:
        normalized, norms = oracles.normalize_rows_allocating(embeddings)
        protos, proto_norms = oracles.normalize_rows_allocating(params.prototypes)
    anchor_rows = normalized[:batch_size]
    scores = anchor_rows @ protos.T

    codes = codes / codes.sum(axis=1, keepdims=True)
    clustering, grad_scores = losses.cross_entropy(scores, codes, loss_config.temperature)
    grad_normalized = np.zeros_like(normalized)
    grad_normalized[:batch_size] = grad_scores @ protos
    grad_protos = grad_scores.T @ anchor_rows
    coherence = 0.0
    if positives is not None:
        length = batch_size // num_blocks
        for start in range(0, batch_size, length):
            anchor_span = slice(start, start + length)
            positive_span = slice(batch_size + start, batch_size + start + length)
            piece, grad_anchor, grad_positive = losses.temporal_coherence(
                normalized[anchor_span], normalized[positive_span]
            )
            weight = length / batch_size
            coherence += weight * piece
            scale = loss_config.alpha * weight
            grad_normalized[anchor_span] += scale * grad_anchor
            grad_normalized[positive_span] += scale * grad_positive
    if normalize:
        grad_normalized = oracles.normalize_rows_backward_allocating(
            grad_normalized, normalized, norms
        )
        grad_protos = oracles.normalize_rows_backward_allocating(
            grad_protos, protos, proto_norms
        )
    grads = oracles.encoder_backward_allocating(
        cache.inputs, cache.hidden, cache.outputs, params.w2, grad_normalized
    )
    grads["prototypes"] = grad_protos
    return scores, clustering, coherence, grads


def step_problem(seed, batch, dims=(64, 60, 30, 5)):
    """Parameters, 2B rows laid out as ``Batch.rows`` and codes."""
    rng = np.random.default_rng(seed)
    d_in, hidden, embed, clusters = dims
    params = encoder.init_params(d_in, hidden, embed, clusters, rng)
    rows = rng.normal(size=(2 * batch, d_in))
    codes = rng.dirichlet(np.ones(clusters), size=batch) / batch
    return params, rows, codes


class TestStepMatchesTheAllocatingStep:
    """forward and backward give the bits of the step they replace, in which
    every expression made a fresh array (``allocating_step``)."""

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("with_positives", [True, False])
    @pytest.mark.parametrize("batch", [12, 512])
    def test_losses_and_gradients_bit_for_bit(self, normalize, with_positives, batch):
        params, rows, codes = step_problem(batch, batch)
        loss_config = LossConfig(temperature=0.1, alpha=0.7)
        anchors = rows[:batch]
        positives = rows[batch:] if with_positives else None
        scores, clustering, coherence, want = allocating_step(
            params, anchors, positives, codes, 2, loss_config, normalize
        )
        step = forward(params, rows if with_positives else anchors, batch, normalize)
        got_clustering, got_coherence, got = backward(step, codes, 2, loss_config)
        np.testing.assert_array_equal(step.scores, scores)
        assert (got_clustering, got_coherence) == (clustering, coherence)
        assert sorted(got) == sorted(want)
        for key, grad in want.items():
            np.testing.assert_array_equal(got[key], grad, err_msg=key)


    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("with_positives", [True, False])
    def test_a_run_workspace_gives_the_same_bits_at_every_step(
        self, normalize, with_positives
    ):
        batch = 512
        params, rows, codes = step_problem(batch, batch)
        loss_config = LossConfig(temperature=0.1, alpha=0.7)
        config = TrainConfig(
            mode="tot+tcl" if with_positives else "tot",
            batch_size=batch,
            embed_dim=30,
            normalize=normalize,
            loss=loss_config,
        )
        workspace = Workspace.for_run(config, params)
        anchors = rows[:batch]
        positives = rows[batch:] if with_positives else None
        scores, clustering, coherence, want = allocating_step(
            params, anchors, positives, codes, 2, loss_config, normalize
        )
        for _ in range(2):  # the second step overwrites every array of the first
            step = forward(
                params, rows if with_positives else anchors, batch, normalize, workspace
            )
            assert step.cache.hidden is workspace.hidden
            assert step.cache.outputs is workspace.outputs
            got_clustering, got_coherence, got = backward(
                step, codes, 2, loss_config, workspace
            )
            assert got is workspace.grads
            np.testing.assert_array_equal(step.scores, scores)
            assert (got_clustering, got_coherence) == (clustering, coherence)
            assert sorted(got) == sorted(want)
            for key, grad in want.items():
                np.testing.assert_array_equal(got[key], grad, err_msg=key)


class TestStepOwnership:
    """backward writes to nothing it is given, and forward embeds a batch's
    rows where ``build_batch`` read them."""

    def test_second_backward_gives_equal_gradients(self):
        catalog = small_catalog()
        config = small_config(mode="tot+tcl")
        rng = np.random.default_rng(3)
        batch = build_batch(catalog.videos, 2, 32, rng, window=10, maps=dataio.FeatureMaps())
        params = encoder.init_params(catalog.dim, 12, 6, catalog.num_actions, rng)
        step = forward(params, batch.rows, 32, True)
        prior = transport.temporal_prior(16, 3, config.transport.sigma)
        codes, _, _ = solve_codes(step.scores, 2, config, prior)
        watched = {
            "rows": batch.rows,
            "inputs": step.cache.inputs,
            "hidden": step.cache.hidden,
            "outputs": step.cache.outputs,
            "embeddings": step.embeddings,
            "norms": step.norms,
            "prototypes": step.prototypes,
            "scores": step.scores,
            "codes": codes,
        }
        kept = {name: array.copy() for name, array in watched.items()}
        first = backward(step, codes, 2, config.loss)
        second = backward(step, codes, 2, config.loss)
        for name, array in watched.items():
            np.testing.assert_array_equal(array, kept[name], err_msg=name)
        assert first[:2] == second[:2]
        for key in encoder.PARAM_KEYS:
            np.testing.assert_array_equal(first[2][key], second[2][key], err_msg=key)

    def test_forward_embeds_the_batch_rows_without_a_copy(self):
        catalog = small_catalog()
        rng = np.random.default_rng(4)
        batch = build_batch(catalog.videos, 2, 32, rng, window=10, maps=dataio.FeatureMaps())
        params = encoder.init_params(catalog.dim, 12, 6, catalog.num_actions, rng)
        inputs = forward(params, batch.rows, 32, True).cache.inputs
        assert np.shares_memory(inputs, batch.rows)
        np.testing.assert_array_equal(inputs, batch.rows)


class TestStepAllocations:
    def test_backward_holds_no_more_than_the_arrays_it_must(self):
        # Shaped like the train-disk benchmark: B = 512 anchors and their
        # positives, D = 64, embedding 30 (hidden 60), K = 5, two blocks of
        # L = 256 and +tcl. What backward must hold: one gradient row per
        # embedding row, one L x L similarity block at a time and the
        # hidden layer's gradient. The peak of traced allocation stays under
        # their sum (1232 KiB here).
        batch, embed, hidden, length = 512, 30, 60, 256
        params, rows, codes = step_problem(21, batch, dims=(64, hidden, embed, 5))
        step = forward(params, rows, batch, True)
        loss_config = LossConfig()
        backward(step, codes, 2, loss_config)  # steady state: a second call
        peak = oracles.traced_peak(lambda: backward(step, codes, 2, loss_config))
        gradient_rows = 2 * batch * embed * 8
        similarity_block = length * length * 8
        hidden_gradient = 2 * batch * hidden * 8
        assert peak < gradient_rows + similarity_block + hidden_gradient


    def test_a_steady_train_step_allocates_no_block_of_64_kib(
        self, tmp_path, monkeypatch
    ):
        # A train-disk-shaped run: B = 512 anchors and their positives, read
        # from disk with D = 64, embedding 30, K = 5, tot+tcl. From the third
        # build_batch call to the fourth (one whole step after two warm-up
        # steps), no numpy block of 64 KiB or more is alive at any Python
        # call or return, or at a call into C.
        rng = np.random.default_rng(0)
        for name in ("v0", "v1", "v2"):
            path = tmp_path / "act" / "features" / f"{name}.totf"
            write_features(rng.normal(size=(600, 64)), path)
        LabelMapping({f"a{i}": i for i in range(5)}).to_file(tmp_path / "act" / "mapping.txt")
        catalog = load_catalog(tmp_path, "act")
        config = TrainConfig(
            mode="tot+tcl", iterations=4, batch_size=512, embed_dim=30, freeze_iterations=1
        )
        numpy_blocks = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        largest = []

        def probe(frame, event, arg):
            traces = tracemalloc.take_snapshot().filter_traces(numpy_blocks).traces
            largest.append(max((trace.size for trace in traces), default=0))

        calls = []

        def spy_build(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                tracemalloc.clear_traces()
                sys.setprofile(probe)
            elif len(calls) == 4:
                sys.setprofile(None)
            return build_batch(*args, **kwargs)

        monkeypatch.setattr(trainer, "build_batch", spy_build)
        try:
            oracles.traced_peak(lambda: train(catalog, config))  # traces the whole run
        finally:
            sys.setprofile(None)
        assert len(largest) > 100  # the probe saw the step
        assert max(largest) < 64 * 1024


class TestTrainRunsTheOracleStep:
    """The gradients train() steps with are exactly the public halves' output."""

    @pytest.mark.parametrize("mode", ["tot", "tot+tcl"])
    def test_first_step_gradients_match_bit_for_bit(self, mode, monkeypatch):
        seen = {}
        real_build, real_solve, real_adam = build_batch, solve_codes, encoder.adam_step

        def spy_build(*args, **kwargs):
            batch = real_build(*args, **kwargs)
            # The rows alias the run's workspace, which the next step overwrites.
            seen.setdefault("batch", Batch(batch.rows.copy(), batch.batch_size))
            return batch

        def spy_solve(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            seen.setdefault("codes", out[0].copy())
            return out

        def spy_adam(params, grads, state):
            seen.setdefault("params", encoder.EncoderParams(**params))  # a copy
            seen.setdefault("grads", {k: v.copy() for k, v in grads.items()})
            real_adam(params, grads, state)

        monkeypatch.setattr(trainer, "build_batch", spy_build)
        monkeypatch.setattr(trainer, "solve_codes", spy_solve)
        monkeypatch.setattr(encoder, "adam_step", spy_adam)
        config = small_config(mode=mode, iterations=2)
        train(small_catalog(), config)

        batch = seen["batch"]
        step = forward(seen["params"], batch.rows, config.batch_size, config.normalize)
        _, _, want = backward(step, seen["codes"], config.videos_per_batch, config.loss)
        assert sorted(seen["grads"]) == sorted(want)
        for key, grad in want.items():
            np.testing.assert_array_equal(seen["grads"][key], grad)


class TestTrain:
    def test_log_is_reproducible_bit_for_bit(self):
        catalog = small_catalog()
        config = small_config(iterations=8)
        results = [train(catalog, config) for _ in range(2)]
        assert log_text(results[0]) == log_text(results[1])
        lines = log_text(results[0]).splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + 8
        for key in encoder.PARAM_KEYS:
            np.testing.assert_array_equal(
                getattr(results[0].params, key), getattr(results[1].params, key)
            )

    def test_log_lines_parse(self):
        catalog = small_catalog()
        result = train(catalog, small_config(iterations=3))
        for line, record in zip(log_text(result).splitlines()[1:], result.records):
            fields = line.split(",")
            assert len(fields) == 6
            assert int(fields[0]) == record.iteration
            assert float(fields[1]) == pytest.approx(record.clustering_loss, abs=1e-6)
            assert float(fields[3]) == pytest.approx(record.total_loss, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_total_loss_weighs_coherence(self, alpha):
        config = small_config(mode="tot+tcl", loss=LossConfig(alpha=alpha, window=10))
        for record in train(small_catalog(), config).records:
            assert record.coherence_loss > 0.0
            weighted = record.clustering_loss + alpha * record.coherence_loss
            assert record.total_loss == weighted

    def test_ot_mode_never_touches_sigma(self):
        catalog = small_catalog()
        logs = []
        for sigma in (0.5, 25.0):
            config = small_config(
                mode="ot", transport=TransportConfig(sigma=sigma)
            )
            logs.append(log_text(train(catalog, config)))
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
        reference = encoder.init_params(
            catalog.dim, 2 * config.embed_dim, config.embed_dim, catalog.num_actions, rng
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

    def test_each_disk_video_is_mapped_once_per_run(self, tmp_path, monkeypatch):
        # Only the videos a batch draws are mapped, each on its first read.
        write_catalog(small_catalog(), tmp_path)
        catalog = load_catalog(tmp_path, "synthetic")
        ids = [video.video_id for video in catalog.videos]
        assert len(ids) == 6
        opens = []
        map_payload = dataio._map_payload

        def counted(path, *args):
            opens.append(path.stem)
            return map_payload(path, *args)

        monkeypatch.setattr(dataio, "_map_payload", counted)
        train(catalog, small_config(iterations=1))
        assert len(opens) == len(set(opens)) == 2
        assert set(opens) <= set(ids)
        opens.clear()
        train(catalog, small_config(iterations=20))
        assert sorted(opens) == ids

    def test_a_pool_past_the_open_map_cap_trains_under_a_low_descriptor_limit(
        self, tmp_path
    ):
        # Before Python 3.13 every open map holds a file descriptor. A child
        # lowers its own soft limit below the pool's size, above the cap.
        cap = dataio._MAX_OPEN_MAPS
        limit = cap + 32
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft != resource.RLIM_INFINITY and soft < limit:
            pytest.skip(f"soft descriptor limit {soft} is already below {limit}")
        rng = np.random.default_rng(0)
        for index in range(cap + 64):
            frames = rng.normal(size=(8, 2))
            write_features(frames, tmp_path / "many" / "features" / f"v{index:03d}.totf")
        LabelMapping({"a": 0, "b": 1}).to_file(tmp_path / "many" / "mapping.txt")
        # Maps are made on first read, so the run must draw more distinct
        # videos than the limit; the child prints how many it mapped.
        script = (
            "import resource, sys\n"
            "from totseg import dataio, trainer\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
            f"resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, hard))\n"
            "mapped = set()\n"
            "map_payload = dataio._map_payload\n"
            "def counted(path, *args):\n"
            "    mapped.add(path)\n"
            "    return map_payload(path, *args)\n"
            "dataio._map_payload = counted\n"
            "catalog = dataio.load_catalog(sys.argv[1], 'many')\n"
            "config = trainer.TrainConfig(iterations=600, batch_size=8, embed_dim=2)\n"
            "trainer.train(catalog, config)\n"
            "print(len(mapped))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > limit

    def test_pool_too_small_rejected(self):
        catalog = small_catalog(num_videos=2)
        config = small_config(videos_per_batch=3, batch_size=33)
        with pytest.raises(DataError, match="need 3 videos"):
            train(catalog, config)

    @staticmethod
    def catalog_of_lengths(**lengths):
        rng = np.random.default_rng(0)
        videos = [
            FeatureSequence(name, frames, 8, rng.normal(size=(frames, 8)))
            for name, frames in lengths.items()
        ]
        return DatasetCatalog("toy", LabelMapping({"a": 0, "b": 1, "c": 2}), videos)

    def test_short_videos_are_skipped_with_one_warning_each(self, caplog):
        # Blocks of 32 / 2 = 16 frames: "exact" is just long enough.
        catalog = self.catalog_of_lengths(long=40, short=10, exact=16, tiny=3)
        with caplog.at_level("WARNING", logger="totseg.trainer"):
            result = train(catalog, small_config(iterations=None, epochs=1))
        # One epoch over the two eligible videos is one batch.
        assert len(result.records) == 1
        assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [
            ("totseg.trainer", "skipping video short: 10 frames < block size 16"),
            ("totseg.trainer", "skipping video tiny: 3 frames < block size 16"),
        ]

    def test_too_few_long_videos_is_one_error_and_no_warning(self, caplog):
        catalog = self.catalog_of_lengths(long=40, short=10, tiny=3)
        with caplog.at_level("WARNING", logger="totseg.trainer"):
            with pytest.raises(DataError, match="need 2 videos .* found 1$"):
                train(catalog, small_config())
        assert caplog.records == []

    def test_nan_features_raise_data_error(self):
        catalog = small_catalog()
        for video in catalog.videos:
            video.array[:] = np.nan
        message = r"video video_\d+: non-finite feature value in frame \d+"
        with pytest.raises(DataError, match=message):
            train(catalog, small_config(iterations=2))

    def test_nan_weights_raise_numerical_error(self, monkeypatch):
        real_init = encoder.init_params

        def spoiled_init(*args, **kwargs):
            params = real_init(*args, **kwargs)
            params.w1[0, 0] = np.nan
            return params

        monkeypatch.setattr(encoder, "init_params", spoiled_init)
        with pytest.raises(NumericalError, match="non-finite"):
            train(small_catalog(), small_config(iterations=2))


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
            lattice = outputs[video.video_id]
            assert lattice.shape == (video.num_frames, 3)
            assert np.isfinite(lattice).all()
            log_mass = np.logaddexp.reduce(lattice, axis=1)
            np.testing.assert_allclose(log_mass, 0.0, rtol=0, atol=1e-12)

    def test_chunking_does_not_change_results(self, monkeypatch):
        catalog, params = self.trained()
        monkeypatch.setattr(trainer, "_CHUNK_SIZE", 7)
        small = dict(embed_dataset(params, catalog))
        monkeypatch.setattr(trainer, "_CHUNK_SIZE", 100000)
        large = dict(embed_dataset(params, catalog))
        for video_id, lattice in small.items():
            np.testing.assert_allclose(lattice, large[video_id], rtol=0, atol=1e-12)

    def test_matches_manual_forward(self):
        catalog, params = self.trained()
        video = catalog.videos[0]
        lattice = next(iter(embed_dataset(params, catalog, temperature=0.1)))[1]
        embeddings, _ = encoder.forward(params, video.load_features())
        normalized, _ = encoder.normalize_rows(embeddings)
        protos, _ = encoder.normalize_rows(params.prototypes)
        log_p, _ = log_softmax_rows(normalized @ protos.T, 0.1)
        want = np.maximum(log_p, np.log(decode.PROBABILITY_FLOOR))
        np.testing.assert_allclose(lattice, want, rtol=0, atol=1e-13)

    def test_lattice_matches_the_log_of_floored_probabilities(self):
        # Flooring the log-softmax is log(max(p, floor)) of the softmax to
        # rounding, and decodes to the same labels.
        catalog, params = self.trained()
        for video, (_, lattice) in zip(catalog.videos, embed_dataset(params, catalog)):
            features = video.load_features()
            scores = forward(params, features, len(features), True).scores
            probs = log_softmax_rows(scores, 0.1)[1]
            old = np.log(np.maximum(probs, decode.PROBABILITY_FLOOR))
            np.testing.assert_allclose(lattice, old, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(
                decode.viterbi_fixed_order(lattice).labels,
                decode.viterbi_fixed_order(old).labels,
            )

    def test_normalize_flag_changes_the_scores(self):
        catalog, params = self.trained()
        with_norm = next(iter(embed_dataset(params, catalog, normalize=True)))[1]
        without = next(iter(embed_dataset(params, catalog, normalize=False)))[1]
        assert not np.allclose(with_norm, without)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("temperature", [0.1, 1e-3])
    def test_lattice_is_the_allocating_chunks_bit_for_bit(
        self, normalize, temperature, monkeypatch
    ):
        # The oracle builds each chunk's lattice rows in new arrays:
        # log_softmax_rows of the chunk's scores, floored, then concatenated.
        # Both sides cut the same chunks, so every product has the same shape.
        catalog = small_catalog()
        params = train(catalog, small_config(iterations=10, normalize=normalize)).params
        chunk = 13
        monkeypatch.setattr(trainer, "_CHUNK_SIZE", chunk)
        lengths = [video.num_frames for video in catalog.videos]
        assert len(set(lengths)) > 1 and any(length % chunk for length in lengths)
        log_floor = np.log(decode.PROBABILITY_FLOOR)
        floored = 0
        embedded = embed_dataset(params, catalog, temperature, normalize)
        for video, (video_id, lattice) in zip(catalog.videos, embedded, strict=True):
            pieces = []
            for start in range(0, video.num_frames, chunk):
                rows = video.load_feature_rows(
                    np.arange(start, min(start + chunk, video.num_frames)),
                    maps=dataio.FeatureMaps(),
                )
                scores = forward(params, rows, len(rows), normalize).scores
                pieces.append(np.maximum(log_softmax_rows(scores, temperature)[0], log_floor))
            want = np.concatenate(pieces)
            assert video_id == video.video_id
            np.testing.assert_array_equal(lattice, want)
            assert lattice.tobytes() == want.tobytes()  # signed zeros too
            floored += int((lattice == log_floor).sum())
        assert (floored > 0) == (temperature == 1e-3)

    def test_each_disk_video_is_mapped_once(self, tmp_path, monkeypatch):
        # Every video spans at least three chunks. Its file is mapped before
        # the first and closed before its lattice is yielded.
        write_catalog(small_catalog(), tmp_path)
        catalog = load_catalog(tmp_path, "synthetic")
        rng = np.random.default_rng(0)
        params = encoder.init_params(catalog.dim, 12, 6, catalog.num_actions, rng)
        chunk = min(video.num_frames for video in catalog.videos) // 3
        monkeypatch.setattr(trainer, "_CHUNK_SIZE", chunk)
        opens, views = [], []
        map_payload = dataio._map_payload

        def counted(path, *args):
            entry = map_payload(path, *args)
            opens.append(path.stem)
            views.append(entry[0])
            return entry

        monkeypatch.setattr(dataio, "_map_payload", counted)
        embedded = embed_dataset(params, catalog)
        for video, (video_id, _) in zip(catalog.videos, embedded, strict=True):
            assert opens[-1] == video_id == video.video_id
            assert all(view.closed for view in views)
        assert opens == [video.video_id for video in catalog.videos]

    def test_each_video_gets_its_own_lattice(self):
        catalog, params = self.trained()
        lattices = [lattice for _, lattice in embed_dataset(params, catalog)]
        assert len({id(lattice) for lattice in lattices}) == len(lattices)
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(lattices) for b in lattices[i + 1 :]
        )

    def test_a_steady_segmentation_chunk_allocates_no_block_of_64_kib(
        self, tmp_path, monkeypatch
    ):
        # A disk-backed video of four and a half chunks of 1,024 frames, with
        # D = 64, embedding 32 and K = 5: a chunk's feature rows, activations
        # and unit rows are 256 KiB or more each. From the video's second
        # load_feature_rows call to its last, no numpy block of 64 KiB or more
        # is allocated and alive at any Python call or return, or at a call
        # into C; the lattice was allocated before the first.
        rng = np.random.default_rng(0)
        write_features(rng.normal(size=(4600, 64)), tmp_path / "act" / "features" / "v0.totf")
        LabelMapping({f"a{i}": i for i in range(5)}).to_file(tmp_path / "act" / "mapping.txt")
        catalog = load_catalog(tmp_path, "act")
        params = encoder.init_params(64, 64, 32, 5, rng)
        monkeypatch.setattr(trainer, "_CHUNK_SIZE", 1024)
        numpy_blocks = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        largest = []

        def probe(frame, event, arg):
            traces = tracemalloc.take_snapshot().filter_traces(numpy_blocks).traces
            largest.append(max((trace.size for trace in traces), default=0))

        calls = []
        real_load = FeatureSequence.load_feature_rows

        def spy_load(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                tracemalloc.clear_traces()
                sys.setprofile(probe)
            elif len(calls) == 5:
                sys.setprofile(None)
            return real_load(self, *args, **kwargs)

        monkeypatch.setattr(FeatureSequence, "load_feature_rows", spy_load)
        try:
            oracles.traced_peak(lambda: list(embed_dataset(params, catalog)))
        finally:
            sys.setprofile(None)
        assert len(calls) == 5
        assert len(largest) > 100  # the probe saw the chunks
        assert max(largest) < 64 * 1024
