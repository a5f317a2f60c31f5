"""Fixed-order decoding with and without the temporal prior: same data,
same budget.

Mode "tot" regularizes the assignment step toward the in-order schedule;
mode "ot" uses plain entropy. Everything else (encoder, sampling,
losses, optimizer, decoding) is identical, and the modes share rng
streams. The score is MOF after ``viterbi_fixed_order``, which assumes
that cluster j is action j. The prior makes that true for "tot";
nothing makes it true for "ot". So the gap measures the prior together
with that order assumption, not the representation alone: on the
quality grid's clean spec, "ot" scores argmax MOF 1.00 but decoded MOF
0.62 (demos/06_quality_grid.py prints both).

Run:  python3 demos/04_prior_ablation.py      (about 10 seconds)
"""

import numpy as np

from totseg import decode, evaluate
from totseg.dataio import SyntheticSpec, generate_synthetic
from totseg.losses import LossConfig
from totseg.trainer import TrainConfig, embed_dataset, train
from totseg.transport import TransportConfig

SPEC = SyntheticSpec(
    num_videos=20,
    num_actions=5,
    dim=16,
    mean_segment_len=40,
    len_jitter=0.25,
    cluster_separation=10.0,
    noise_sigma=1.0,
    seed=11,
)

SEEDS = (100, 101)


def run(catalog, mode: str, seed: int) -> float:
    config = TrainConfig(
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
    result = train(catalog, config)
    ids, preds, gts = [], [], []
    for video, (video_id, lattice) in zip(catalog.videos, embed_dataset(result.params, catalog)):
        decoded = decode.viterbi_fixed_order(lattice)
        ids.append(video_id)
        preds.append(decoded.labels)
        gts.append(catalog.video_labels(video))
    report = evaluate.evaluate_activity(ids, preds, gts, num_actions=catalog.num_actions)
    return report.mof


def main() -> None:
    catalog = generate_synthetic(SPEC)
    print(f"{len(catalog.videos)} videos, {catalog.num_actions} actions, "
          f"seeds {list(SEEDS)} per mode.\n")

    print(f"  {'mode':8s} " + " ".join(f"seed {s}" for s in SEEDS) + "   mean MOF")
    means = {}
    for mode in ("tot", "ot"):
        mofs = [run(catalog, mode, seed) for seed in SEEDS]
        means[mode] = float(np.mean(mofs))
        cells = " ".join(f"{m:8.4f}" for m in mofs)
        print(f"  {mode:8s} {cells}   {means[mode]:8.4f}")

    print()
    print(f"Prior advantage: {means['tot'] - means['ot']:+.4f} MOF.")
    print("Without the prior, clusters still form but land on videos in")
    print("arbitrary temporal order, so the fixed-order decoder pays for it.")


if __name__ == "__main__":
    main()
