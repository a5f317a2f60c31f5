"""Segmentation quality on synthetic data that is not at the ceiling.

On the clean spec every mode scores MOF near 1.0, so a change that helps
or hurts segmentation does not show there. This grid adds frame noise,
dropped actions and reordered actions, trains every mode on five data
seeds per spec, and prints one row per (spec, mode) cell with means over
the seeds:

- MOF and F1: Viterbi decoding in the fixed cluster order, then
  Hungarian matching, as ``totseg segment`` and ``eval`` do;
- argmax MOF: each frame's most probable cluster, without the decoder;
- row err: the largest relative deviation of a transport row sum from
  its target, over every solve of the run.

The specs, seeds and settings below were fixed before any result was
seen. Compare a change against its parent on this grid as it stands;
retuning it to move a cell defeats its purpose.

Run:  python3 demos/06_quality_grid.py [--json grid.json]
      (about a minute on 2 CPUs; --sigma, --modes and --specs run a part
      of the grid at another prior width)
"""

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from totseg import decode, evaluate
from totseg.dataio import SyntheticSpec, generate_synthetic
from totseg.trainer import MODES, TrainConfig, embed_dataset, train
from totseg.transport import TransportConfig

BASE_SPEC = SyntheticSpec(num_videos=12, num_actions=5, dim=16, mean_segment_len=60)

SPECS = {
    "clean": {},
    "noise4": {"noise_sigma": 4.0},
    "noise6": {"noise_sigma": 6.0},
    "drop0.2": {"drop_prob": 0.2},
    "permute0.3": {"permute_prob": 0.3},
    "drop+permute": {"drop_prob": 0.2, "permute_prob": 0.3},
}

DATA_SEEDS = (0, 1, 2, 3, 4)

BATCH_SIZE = 128
VIDEOS_PER_BATCH = 2


def train_config(mode: str, sigma: float) -> TrainConfig:
    return TrainConfig(
        mode=mode,
        iterations=300,
        batch_size=BATCH_SIZE,
        videos_per_batch=VIDEOS_PER_BATCH,
        embed_dim=16,
        transport=TransportConfig(sigma=sigma),
    )


def run(catalog, mode: str, sigma: float) -> dict[str, float]:
    """Train one mode on one dataset and score its predictions."""
    result = train(catalog, train_config(mode, sigma))
    ids, decoded, argmax, truth = [], [], [], []
    embedded = embed_dataset(result.params, catalog)
    for video, (video_id, lattice) in zip(catalog.videos, embedded):
        ids.append(video_id)
        decoded.append(decode.viterbi_fixed_order(lattice).labels)
        argmax.append(lattice.argmax(axis=1))
        truth.append(catalog.video_labels(video))
    k = catalog.num_actions
    viterbi = evaluate.evaluate_activity(ids, decoded, truth, num_actions=k)
    frames = evaluate.evaluate_activity(ids, argmax, truth, num_actions=k)
    # Solves run per block, whose rows aim at 1 / block length.
    block = BATCH_SIZE // VIDEOS_PER_BATCH
    return {
        "mof": viterbi.mof,
        "f1": viterbi.f1,
        "argmax_mof": frames.mof,
        "row_error": block * max(record.row_error for record in result.records),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigma", type=float, default=1.0, help="temporal prior width")
    parser.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    parser.add_argument("--specs", nargs="+", choices=list(SPECS), default=list(SPECS))
    parser.add_argument("--json", help="also write every per-seed value to this file")
    args = parser.parse_args()

    started = time.perf_counter()
    catalogs = {
        name: [
            generate_synthetic(replace(BASE_SPEC, seed=seed, **SPECS[name]))
            for seed in DATA_SEEDS
        ]
        for name in args.specs
    }
    print(f"sigma {args.sigma}, data seeds {list(DATA_SEEDS)}; means over seeds\n")
    print(
        f"  {'spec':13s} {'mode':8s} {'MOF':>7s} {'F1':>7s} "
        f"{'argmax MOF':>11s} {'row err':>9s}"
    )
    cells = []
    for name in args.specs:
        for mode in args.modes:
            runs = [run(catalog, mode, args.sigma) for catalog in catalogs[name]]
            values = {key: [r[key] for r in runs] for key in runs[0]}
            cells.append({"spec": name, "mode": mode, **values})
            print(
                f"  {name:13s} {mode:8s} {np.mean(values['mof']):7.4f} "
                f"{np.mean(values['f1']):7.4f} {np.mean(values['argmax_mof']):11.4f} "
                f"{max(values['row_error']):9.2e}"
            )
    elapsed = time.perf_counter() - started
    print(f"\n{len(cells) * len(DATA_SEEDS)} training runs in {elapsed:.0f} s")
    if args.json:
        record = {"sigma": args.sigma, "data_seeds": list(DATA_SEEDS), "cells": cells}
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
