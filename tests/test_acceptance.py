"""Acceptance checks for the package's core guarantees.

Every test here pins a protocol (seeds, sizes, budgets) and prints one
PASS or FAIL line with the measured quantity next to its bound, so a
plain ``pytest -v`` run shows how much margin each guarantee has.
"""

import math
import os
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from totseg import cli, decode, encoder, evaluate
from totseg.dataio import SyntheticSpec, generate_synthetic, load_catalog, write_catalog
from totseg.losses import LossConfig
from totseg.trainer import TrainConfig, backward, embed_dataset, forward, train
from totseg.transport import (
    TransportConfig,
    sinkhorn_ot,
    sinkhorn_tot,
    temporal_prior,
)

import oracles


def announce(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def segment_catalog(params, catalog):
    """Viterbi-decoded labels and ground truth for every catalog video."""
    ids, preds, gts = [], [], []
    for video, (video_id, lattice) in zip(catalog.videos, embed_dataset(params, catalog)):
        result = decode.viterbi_fixed_order(lattice)
        ids.append(video_id)
        preds.append(result.labels)
        gts.append(catalog.video_labels(video))
    return ids, preds, gts


BENCH_SPEC = SyntheticSpec(
    num_videos=20,
    num_actions=5,
    dim=16,
    mean_segment_len=40,
    len_jitter=0.25,
    cluster_separation=10.0,
    noise_sigma=1.0,
    seed=11,
)


def bench_config(mode: str, seed: int) -> TrainConfig:
    return TrainConfig(
        mode=mode,
        iterations=500,
        batch_size=128,
        videos_per_batch=2,
        freeze_iterations=100,
        seed=seed,
        embed_dim=16,
        loss=LossConfig(temperature=0.1, alpha=1.0, window=30),
        transport=TransportConfig(epsilon=0.05, rho=0.07, sigma=1.0, iterations=3),
    )


def test_transport_matches_bruteforce_polytope_optimum(capsys):
    # 100 small instances, alternating plain and prior-weighted transport,
    # solved to tight marginals and compared against an independent
    # constrained optimizer on the same objective.
    rng = np.random.default_rng(20240817)
    started = time.perf_counter()
    worst_gap = 0.0
    worst_marginal = 0.0
    for index in range(100):
        b = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        scores = rng.uniform(-1.0, 1.0, size=(b, k))
        reg = float(rng.uniform(0.05, 0.5))
        if index % 2 == 0:
            prior = np.full((b, k), 1.0 / (b * k))
            solved = sinkhorn_ot(scores, reg, iterations=300000, tolerance=5e-9)
        else:
            sigma = float(rng.uniform(0.5, 3.0))
            prior = temporal_prior(b, k, sigma)
            solved = sinkhorn_tot(
                scores, prior, reg, iterations=300000, tolerance=5e-9
            )
        _, oracle_best = oracles.polytope_maximum(scores, prior, reg)
        ours = oracles.transport_objective(solved.values, scores, prior, reg)
        worst_gap = max(worst_gap, abs(oracle_best - ours))
        worst_marginal = max(worst_marginal, solved.row_error, solved.col_error)
    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-5 and worst_marginal < 1e-8 and elapsed < 10.0
    announce(
        capsys,
        ok,
        "transport objective vs brute force",
        f"max gap {worst_gap:.2e} (tol 1e-05), max marginal error "
        f"{worst_marginal:.2e} (tol 1e-08), {elapsed:.1f}s (limit 10s)",
    )
    assert worst_gap <= 1e-5
    assert worst_marginal < 1e-8
    assert elapsed < 10.0


def test_uniform_prior_reduces_to_plain_transport(capsys):
    # With a constant prior the prior-weighted kernel is the entropic
    # kernel times a constant that the scaling absorbs, so at equal
    # regularization both solvers must agree elementwise.
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        b = int(rng.integers(2, 9))
        k = int(rng.integers(2, 6))
        scores = rng.uniform(-1.0, 1.0, size=(b, k))
        reg = float(rng.uniform(0.05, 0.5))
        prior = np.full((b, k), 1.0 / (b * k))
        with_prior = sinkhorn_tot(scores, prior, reg, iterations=10).values
        plain = sinkhorn_ot(scores, reg, iterations=10).values
        worst = max(worst, float(np.abs(with_prior - plain).max()))
    ok = worst <= 1e-10
    announce(
        capsys,
        ok,
        "uniform prior degeneracy",
        f"max elementwise difference {worst:.2e} over 50 instances (tol 1e-10)",
    )
    assert worst <= 1e-10


def test_temporal_prior_matches_direct_formula(capsys):
    # Gaussian band evaluated entry by entry, plus the diagonal property:
    # each row peaks at the column whose relative position is nearest.
    # Ties in |i/B - j/K| are found in exact rational arithmetic and any
    # tied column is accepted.
    worst = 0.0
    peaks_ok = True
    for b in (3, 6, 10):
        for k in (3, 6, 10):
            sigma = 2.5 if (b + k) % 2 == 0 else 1.0
            prior = temporal_prior(b, k, sigma)
            denom = math.sqrt(1.0 / b**2 + 1.0 / k**2)
            for i in range(1, b + 1):
                for j in range(1, k + 1):
                    d = abs(i / b - j / k) / denom
                    want = math.exp(-(d**2) / (2.0 * sigma**2)) / (
                        sigma * math.sqrt(2.0 * math.pi)
                    )
                    worst = max(worst, abs(prior[i - 1, j - 1] - want) / want)
                distances = [
                    abs(Fraction(i, b) - Fraction(j, k)) for j in range(1, k + 1)
                ]
                nearest = min(distances)
                tied = {j for j, dist in enumerate(distances) if dist == nearest}
                if int(np.argmax(prior[i - 1])) not in tied:
                    peaks_ok = False
    ok = worst <= 1e-12 and peaks_ok
    announce(
        capsys,
        ok,
        "temporal prior formula",
        f"max relative error {worst:.2e} over 9 grids (tol 1e-12), "
        f"row peaks on nearest column: {peaks_ok}",
    )
    assert worst <= 1e-12
    assert peaks_ok


def test_gradients_match_finite_differences_end_to_end(capsys):
    # Full training-step gradients (softmax predictions, clustering
    # cross-entropy, coherence, row normalization, both MLP layers,
    # prototypes) against central differences on 20 random problems.
    rng = np.random.default_rng(4)
    started = time.perf_counter()
    worst = 0.0
    for index in range(20):
        b = 2 * int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        d_in = int(rng.integers(3, 6))
        hidden = int(rng.integers(3, 7))
        embed = int(rng.integers(2, 6))
        params = encoder.init_params(d_in, hidden, embed, k, rng)
        anchors = rng.normal(size=(b, d_in))
        positives = rng.normal(size=(b, d_in)) if index % 3 != 2 else None
        codes = rng.dirichlet(np.ones(k), size=b) / b
        rows = anchors if positives is None else np.concatenate([anchors, positives])
        loss_config = LossConfig(temperature=0.2, alpha=0.5, window=5)
        normalize = index % 4 != 3
        step = forward(params, rows, b, normalize)
        _, _, grads = backward(step, codes, 2, loss_config)

        def objective(key, value):
            trial = encoder.EncoderParams(**{**params, key: value})
            step = forward(trial, rows, b, normalize)
            clustering, coherence, _ = backward(step, codes, 2, loss_config)
            return clustering + loss_config.alpha * coherence

        for key in encoder.PARAM_KEYS:
            numeric = oracles.finite_difference(
                lambda v, key=key: objective(key, v), getattr(params, key)
            )
            worst = max(worst, oracles.max_relative_error(grads[key], numeric))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 30.0
    announce(
        capsys,
        ok,
        "analytic gradients vs finite differences",
        f"max relative error {worst:.2e} over 20 instances (tol 1e-04), "
        f"{elapsed:.1f}s (limit 30s)",
    )
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_viterbi_matches_exhaustive_enumeration(capsys):
    rng = np.random.default_rng(5)
    worst_score_gap = 0.0
    label_mismatches = 0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        f = int(rng.integers(k, 13))
        probs = rng.uniform(0.0, 1.0, size=(f, k))
        probs /= probs.sum(axis=1, keepdims=True)
        lp = np.log(np.maximum(probs, decode.PROBABILITY_FLOOR))
        result = decode.viterbi_fixed_order(lp)
        want_labels, want_score = oracles.viterbi_bruteforce(lp)
        if not np.array_equal(result.labels, want_labels):
            label_mismatches += 1
        worst_score_gap = max(worst_score_gap, abs(result.log_score - want_score))
    ok = label_mismatches == 0 and worst_score_gap <= 1e-9
    announce(
        capsys,
        ok,
        "decoder vs exhaustive enumeration",
        f"{label_mismatches} label mismatches over 200 lattices, "
        f"max score gap {worst_score_gap:.2e} (tol 1e-09)",
    )
    assert label_mismatches == 0
    assert worst_score_gap <= 1e-9


def test_hungarian_matches_factorial_bruteforce(capsys):
    rng = np.random.default_rng(6)
    mismatches = 0
    for _ in range(200):
        num_pred = int(rng.integers(1, 8))
        num_gt = int(rng.integers(1, 8))
        counts = rng.integers(0, 100, size=(num_pred, num_gt))
        mapping = evaluate.hungarian_match(counts)
        total = sum(int(counts[c, a]) for c, a in mapping.items())
        if total != oracles.assignment_bruteforce(counts):
            mismatches += 1
    ok = mismatches == 0
    announce(
        capsys,
        ok,
        "assignment vs factorial brute force",
        f"{mismatches} suboptimal assignments over 200 tables (up to 7x7)",
    )
    assert mismatches == 0


# Four actions of 256 frames: every video has 1,024 frames.
MEMORY_SPEC = SyntheticSpec(
    num_videos=4, num_actions=4, dim=16, mean_segment_len=256, len_jitter=0.0, seed=3
)
# What an added video may cost train and segment: its catalog entry (id,
# two paths, header), its feature map in train, and in segment the K = 4
# (cluster, start, end) tuples kept until every video is decoded, a
# kilobyte or two in all. The bound leaves about twice that, and it is half
# of one 8-byte value per added frame, so an array with a dataset-length
# axis fails it.
MEMORY_BOUND_PER_VIDEO = 4096


def test_online_memory_does_not_grow_with_the_dataset(capsys, tmp_path):
    # The paper clusters one mini-batch at a time, where offline methods
    # store every feature first. Two disk datasets from MEMORY_SPEC, of n
    # and 16n videos (the small one a prefix of the large one, since the
    # generator draws video by video), are trained with one config and
    # segmented with one checkpoint, and the tracemalloc peak of each call
    # is measured after a warm-up run on the small set.
    small = MEMORY_SPEC.num_videos
    roots = {}
    for count in (small, 16 * small):
        roots[count] = tmp_path / f"videos{count}"
        write_catalog(generate_synthetic(replace(MEMORY_SPEC, num_videos=count)), roots[count])
    frames = load_catalog(roots[small], "synthetic").total_frames // small
    config = TrainConfig(
        mode="tot+tcl", iterations=5, batch_size=256, embed_dim=16, freeze_iterations=2
    )
    runs = tmp_path / "runs"

    def run_train(count):
        train(load_catalog(roots[count], "synthetic"), config)

    def run_segment(count):
        argv = ["segment", str(roots[count]), "--checkpoints", str(runs)]
        assert cli.main([*argv, "--out", str(tmp_path / f"segments{count}")]) == 0

    warm = train(load_catalog(roots[small], "synthetic"), config)
    encoder.save_checkpoint(warm.params, runs / "synthetic" / cli.CHECKPOINT_NAME)
    run_segment(small)
    peaks = {
        (name, count): oracles.traced_peak(lambda: run(count))
        for name, run in (("train", run_train), ("segment", run_segment))
        for count in (small, 16 * small)
    }
    added = 15 * small
    growth = {
        name: (peaks[name, 16 * small] - peaks[name, small]) / added
        for name in ("train", "segment")
    }
    ok = frames >= 1024 and all(g < MEMORY_BOUND_PER_VIDEO for g in growth.values())
    announce(
        capsys,
        ok,
        "online memory against dataset size",
        "; ".join(
            f"{name} peak {peaks[name, small]:,} -> {peaks[name, 16 * small]:,} bytes "
            f"({small} -> {16 * small} videos of {frames} frames), "
            f"{growth[name]:,.0f} bytes per added video"
            for name in ("train", "segment")
        )
        + f" (bound {MEMORY_BOUND_PER_VIDEO} = {MEMORY_BOUND_PER_VIDEO / (8 * frames):.2f}"
        " x 8 bytes per frame)",
    )
    assert frames >= 1024
    assert growth["train"] < MEMORY_BOUND_PER_VIDEO
    assert growth["segment"] < MEMORY_BOUND_PER_VIDEO


def test_synthetic_end_to_end_segmentation(capsys):
    # Train with the temporal prior on well-separated synthetic videos,
    # decode, and score. The nearest-true-mean classifier bounds what any
    # method could do on this data and must itself be near-perfect.
    started = time.perf_counter()
    catalog = generate_synthetic(BENCH_SPEC)
    oracle_acc = oracles.nearest_mean_accuracy(catalog)
    result = train(catalog, bench_config("tot", seed=0))
    ids, preds, gts = segment_catalog(result.params, catalog)
    report = evaluate.evaluate_activity(
        ids, preds, gts, num_actions=5, activity="synthetic"
    )
    elapsed = time.perf_counter() - started
    ok = (
        report.mof >= 0.85
        and report.f1 >= 0.70
        and oracle_acc >= 0.99
        and elapsed < 300.0
    )
    announce(
        capsys,
        ok,
        "end-to-end synthetic segmentation",
        f"MOF {report.mof:.4f} (>= 0.85), F1 {report.f1:.4f} (>= 0.70), "
        f"nearest-mean ceiling {oracle_acc:.4f} (>= 0.99), {elapsed:.1f}s "
        f"(limit 300s)",
    )
    assert oracle_acc >= 0.99
    assert report.mof >= 0.85
    assert report.f1 >= 0.70
    assert elapsed < 300.0


def test_temporal_prior_improves_over_plain_transport(capsys):
    # Same data, same everything except the prior, five seeds each: the
    # prior-weighted mode must beat plain transport by at least 5 MOF
    # points on average.
    catalog = generate_synthetic(BENCH_SPEC)

    def mean_mof(mode):
        scores = []
        for seed in range(100, 105):
            result = train(catalog, bench_config(mode, seed))
            ids, preds, gts = segment_catalog(result.params, catalog)
            report = evaluate.evaluate_activity(
                ids, preds, gts, num_actions=5
            )
            scores.append(report.mof)
        return float(np.mean(scores))

    with_prior = mean_mof("tot")
    without = mean_mof("ot")
    gap = with_prior - without
    ok = gap >= 0.05
    announce(
        capsys,
        ok,
        "temporal prior ablation",
        f"mean MOF {with_prior:.4f} with prior vs {without:.4f} without, "
        f"gap {gap:.4f} (>= 0.05) over 5 seeds",
    )
    assert gap >= 0.05


SALADS_DIR = os.environ.get("TOTSEG_SALADS_DIR", "")


@pytest.mark.skipif(
    not SALADS_DIR,
    reason="set TOTSEG_SALADS_DIR to a converted 50 Salads dataset root to run",
)
def test_fifty_salads_reproduction(capsys):
    # Optional external benchmark: full training on user-converted
    # 50 Salads features with the published settings.
    root = Path(SALADS_DIR)
    activities = sorted(p.parent.name for p in root.glob("*/features"))
    assert activities, f"no activities under {root}"
    mofs = []
    for activity in activities:
        catalog = load_catalog(root, activity)
        config = TrainConfig(
            mode="tot",
            epochs=30,
            batch_size=512,
            videos_per_batch=2,
            freeze_iterations=100,
            seed=0,
            embed_dim=30,
            loss=LossConfig(temperature=0.1, alpha=1.0, window=30),
            transport=TransportConfig(rho=0.07, sigma=2.5, iterations=3),
        )
        result = train(catalog, config)
        ids, preds, gts = segment_catalog(result.params, catalog)
        report = evaluate.evaluate_activity(
            ids,
            preds,
            gts,
            num_actions=catalog.num_actions,
            activity=activity,
        )
        mofs.append(report.mof)
    mof = float(np.mean(mofs))
    ok = abs(mof - 0.474) <= 0.03
    announce(
        capsys,
        ok,
        "50 Salads reproduction",
        f"MOF {mof:.4f} vs published 0.4740 (tol 0.03)",
    )
    assert abs(mof - 0.474) <= 0.03
