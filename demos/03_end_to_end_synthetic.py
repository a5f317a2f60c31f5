"""The whole pipeline on synthetic videos: generate, train, decode, score.

The generator plants K well-separated cluster means and emits each video
as the canonical action sequence 0..K-1 with jittered segment lengths
and Gaussian frame noise, so ground truth is known exactly. Training
never sees the labels; they are used only for the final evaluation.

Run:  python3 demos/03_end_to_end_synthetic.py      (about 10 seconds)
"""

import numpy as np

from totseg import decode, evaluate
from totseg.dataio import SyntheticSpec, generate_synthetic
from totseg.losses import LossConfig
from totseg.trainer import TrainConfig, embed_dataset, train
from totseg.transport import TransportConfig


def squash(labels: np.ndarray, width: int = 60) -> str:
    """Downsample a per-frame label array to a fixed-width strip."""
    picks = np.linspace(0, len(labels) - 1, width).astype(int)
    return "".join(str(int(labels[p])) for p in picks)


def main() -> None:
    spec = SyntheticSpec(
        num_videos=10,
        num_actions=4,
        dim=12,
        mean_segment_len=30,
        len_jitter=0.25,
        cluster_separation=10.0,
        noise_sigma=1.0,
        seed=3,
    )
    catalog = generate_synthetic(spec)
    print(
        f"Dataset: {len(catalog.videos)} videos, {catalog.total_frames} frames, "
        f"{catalog.num_actions} actions, dim {catalog.dim}.\n"
    )

    config = TrainConfig(
        mode="tot+tcl",
        iterations=500,
        batch_size=128,
        videos_per_batch=2,
        freeze_iterations=100,
        seed=1,
        embed_dim=12,
        loss=LossConfig(temperature=0.1, alpha=1.0, window=20),
        transport=TransportConfig(epsilon=0.05, rho=0.07, sigma=1.0, iterations=3),
    )
    print(f"Training mode {config.mode!r} for {config.iterations} iterations...")
    result = train(catalog, config)
    first, last = result.records[0], result.records[-1]
    print(
        f"  clustering loss {first.clustering_loss:.4f} -> {last.clustering_loss:.4f}, "
        f"coherence {first.coherence_loss:.4f} -> {last.coherence_loss:.4f}\n"
    )

    ids, preds, gts = [], [], []
    for video, (video_id, lattice) in zip(catalog.videos, embed_dataset(result.params, catalog)):
        decoded = decode.viterbi_fixed_order(lattice)
        ids.append(video_id)
        preds.append(decoded.labels)
        gts.append(catalog.video_labels(video))

    print("Decoded vs true labels, one strip per video (time left to right):")
    for video_id, pred, gt in list(zip(ids, preds, gts))[:4]:
        print(f"  {video_id}  truth   {squash(gt)}")
        print(f"  {'':9s}  decoded {squash(pred)}")
    print()

    report = evaluate.evaluate_activity(
        ids, preds, gts,
        num_actions=catalog.num_actions,
        activity=catalog.activity,
    )
    print(report.to_text())


if __name__ == "__main__":
    main()
