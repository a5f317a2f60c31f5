"""Command-line pipeline: synthesize data, train, segment, evaluate.

Four subcommands cover the workflow end to end::

    totseg synth OUT [options]          write a synthetic dataset
    totseg train DATA [options]         train one model per activity
    totseg segment DATA [options]       decode label files per video
    totseg eval DATA [options]          Hungarian matching + MOF / F1

Exit codes: 0 success, 1 usage problem, 2 data problem, 3 numerical
failure. ``segment`` fails with a data error, before writing any label
file of the activity, when a video has fewer frames than the checkpoint
has clusters: such a video has no ordered segmentation, and skipping it
would leave ``eval`` a missing label file. ``train`` fails with a data
error when an activity has fewer videos of at least one block's length
(batch / videos-per-batch frames) than a batch draws. A checkpoint whose
header has a dimension below 1, a normalized flag other than 0 or 1, or a
temperature that is not finite and positive, is a data error; so is a
feature file of another size than its header claims, a ground-truth, ``mapping.txt`` or
prediction file that is not UTF-8 text, and a directory where a
prediction file should be, and an ``eval --exclude-background`` id that
is not an action id of the activity's ``mapping.txt`` (the line names the
id and the activity). An ``--activity`` list that names no activity, or
names one twice, is a usage error, and so is a ``synth --activity`` name
that is empty, ``.`` or ``..``, holds ``/`` or ``,``, or starts or ends
with whitespace (no other command could select it), a ``synth --dim`` or
``--segment-len`` or a ``train --embed-dim`` that sizes an array past
numpy's limits (the cluster-mean basis, the longest segment, the
encoder's ``w2``), a negative ``--seed`` (``synth`` or ``train``), an output path that
cannot be created because a file is in the way (``--out``, or
``synth``'s OUT, naming a file or a path under one), or an output file
path that names a directory (``train.log``, the checkpoint, a label or
timeline file, the ``eval --out`` report), or a blocked path inside the
dataset ``synth`` writes (a file where ``features/`` goes, a directory
where ``mapping.txt`` or a ground-truth file goes). A non-finite feature value that ``train`` or
``segment`` reads is a data error naming the feature file and frame, and
so is one that ``synth`` would write but float32 cannot hold (it names the
video and frame). ``train`` writes ``train.log`` and the checkpoint only
after training returns, ``segment`` writes an activity's label files only
after all its videos decode, and ``synth`` checks every path and feature
value of the dataset before its first write, so a failed ``train``, ``segment`` or ``synth`` leaves no
file of that activity (``train`` and ``segment`` also no directory that
they created). A non-finite training
loss, a ``RuntimeWarning`` during training (an overflow, a division by
zero or an invalid operation, as from an extreme ``--tau``, ``--rho``,
``--epsilon`` or ``--sigma``) or during segmentation (as from a
checkpoint weight near the float64 limit), and non-finite frame scores in
``segment`` (from the checkpoint's weights), are numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from . import config as cfg
from . import dataio, decode, encoder, evaluate, losses, trainer, transport
from .errors import DataError, NumericalError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

CHECKPOINT_NAME = "checkpoint.totc"
LOG_NAME = "train.log"


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message: str):
        raise UsageError(message)


def _add_registry_flags(parser: argparse.ArgumentParser, registry) -> None:
    for option in registry:
        flag = f"--{option.name}"
        kwargs: dict[str, Any] = {"dest": option.name, "default": None, "help": option.help}
        if option.kind == "int":
            kwargs["type"] = int
        elif option.kind == "float":
            kwargs["type"] = cfg.finite_float
        elif option.kind == "bool":
            kwargs["action"] = argparse.BooleanOptionalAction
        elif option.kind == "int_list":
            kwargs["type"] = int
            kwargs["nargs"] = "*"
        if option.choices:
            kwargs["choices"] = option.choices
        parser.add_argument(flag, **kwargs)


def _resolve(args: argparse.Namespace, registry) -> dict[str, Any]:
    values, provenance = cfg.resolve(registry, vars(args))
    print(cfg.describe(values, provenance))
    return values


@functools.cache
def build_parser() -> _Parser:
    """The parser of all four subcommands, built once per process.

    ``parse_args`` returns a new namespace every call and every flag
    defaults to None, so one call's flags never reach the next.
    """
    parser = _Parser(prog="totseg", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("out", help="dataset root to create")
    _add_registry_flags(synth, cfg.SYNTH_OPTIONS)

    train = commands.add_parser("train", help="train one model per activity")
    train.add_argument("data", help="dataset root")
    _add_registry_flags(train, cfg.TRAIN_OPTIONS)

    segment = commands.add_parser("segment", help="decode per-video label files")
    segment.add_argument("data", help="dataset root")
    _add_registry_flags(segment, cfg.SEGMENT_OPTIONS)

    evaluation = commands.add_parser("eval", help="score predictions against ground truth")
    evaluation.add_argument("data", help="dataset root")
    _add_registry_flags(evaluation, cfg.EVAL_OPTIONS)
    return parser


def _output_dir(path: Path) -> Path:
    """Create an output directory and its parents; a file in the way is a
    usage error naming the path."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(
            f"cannot create output directory {path}: {err.strerror}"
        ) from None
    return path


def _output_file(path: Path, what: str) -> Path:
    """``path``, checked before the ``what`` is written there: a directory in
    the way is a usage error naming the path."""
    if path.is_dir():
        raise UsageError(f"cannot write the {what} to {path}: a directory")
    return path


def _activities(root: Path, requested: str | None) -> list[str]:
    if requested is not None:
        names = [name.strip() for name in requested.split(",") if name.strip()]
        if not names:
            raise UsageError(f"--activity {requested!r} names no activity")
        twice = next((name for name in names if names.count(name) > 1), None)
        if twice is not None:
            raise UsageError(f"--activity {requested!r} names {twice!r} twice")
        for name in names:
            if not (root / name / "features").is_dir():
                raise DataError(f"activity {name!r} not found under {root}")
        return names
    found = sorted(
        path.parent.name for path in root.glob("*/features") if path.is_dir()
    )
    if not found:
        raise DataError(f"no activities (subdirectories with features/) under {root}")
    return found


def _synthetic_spec(values: dict[str, Any]) -> dataio.SyntheticSpec:
    try:
        return dataio.SyntheticSpec(
            num_videos=values["videos"],
            num_actions=values["k"],
            dim=values["dim"],
            mean_segment_len=values["segment-len"],
            len_jitter=values["len-jitter"],
            cluster_separation=values["separation"],
            noise_sigma=values["noise"],
            permute_prob=values["permute-prob"],
            drop_prob=values["drop-prob"],
            seed=values["seed"],
        )
    except ValueError as err:
        raise UsageError(str(err)) from None


def cmd_synth(args: argparse.Namespace) -> int:
    values = _resolve(args, cfg.SYNTH_OPTIONS)
    activity = values["activity"]
    # The one directory under OUT that the other commands' --activity selects;
    # they split it on ',' and strip each name.
    bad = activity in ("", ".", "..") or "/" in activity or "," in activity
    if bad or activity != activity.strip():
        raise UsageError(
            f"--activity {activity!r} is not an activity name: it must be "
            "non-empty, not '.' or '..', hold no '/' or ',', and neither "
            "start nor end with whitespace"
        )
    catalog = dataio.generate_synthetic(_synthetic_spec(values))
    catalog.activity = activity
    _output_dir(Path(args.out) / catalog.activity)
    try:
        base = dataio.write_catalog(catalog, args.out)
    except OSError as err:
        raise UsageError(f"cannot write {err.filename}: {err.strerror}") from None
    print(
        f"wrote {len(catalog.videos)} videos, {catalog.total_frames} frames to {base}"
    )
    return EXIT_OK


def _train_config(values: dict[str, Any]) -> trainer.TrainConfig:
    try:
        return trainer.TrainConfig(
            mode=values["mode"],
            epochs=values["epochs"],
            iterations=values["iterations"],
            batch_size=values["batch"],
            videos_per_batch=values["videos-per-batch"],
            freeze_iterations=values["freeze-iters"],
            seed=values["seed"],
            embed_dim=values["embed-dim"],
            learning_rate=values["lr"],
            weight_decay=values["wd"],
            normalize=values["normalize"],
            loss=losses.LossConfig(
                temperature=values["tau"],
                alpha=values["alpha"],
                window=values["lambda"],
            ),
            transport=transport.TransportConfig(
                epsilon=values["epsilon"],
                rho=values["rho"],
                sigma=values["sigma"],
                iterations=values["sinkhorn-iters"],
                marginal_tolerance=values["marginal-tol"],
            ),
        )
    except ValueError as err:
        raise UsageError(str(err)) from None


def cmd_train(args: argparse.Namespace) -> int:
    values = _resolve(args, cfg.TRAIN_OPTIONS)
    run_config = _train_config(values)
    root = Path(args.data)
    if not root.is_dir():
        raise UsageError(f"dataset path does not exist: {root}")
    for activity in _activities(root, values["activity"]):
        catalog = dataio.load_catalog(root, activity)
        out_dir = Path(values["out"]) / activity
        made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
        _output_dir(out_dir)
        log_path = _output_file(out_dir / LOG_NAME, "training log")
        checkpoint_path = _output_file(out_dir / CHECKPOINT_NAME, "checkpoint")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = trainer.train(catalog, run_config)
        except BaseException as err:
            for path in made:  # empty: nothing is written before train() returns
                path.rmdir()
            if isinstance(err, RuntimeWarning):
                raise NumericalError(
                    f"activity {activity!r}: {err} during training"
                ) from None
            raise
        lines = [trainer.LOG_HEADER, *(record.to_line() for record in result.records)]
        with dataio.atomic_write(log_path) as fh:
            fh.write("\n".join(lines) + "\n")
        encoder.save_checkpoint(
            result.params,
            checkpoint_path,
            temperature=run_config.loss.temperature,
            normalized=run_config.normalize,
        )
        last = result.records[-1]
        print(
            f"{activity}: {len(result.records)} iterations in "
            f"{result.elapsed_seconds:.1f}s, final L={last.total_loss:.4f} "
            f"(L_CE={last.clustering_loss:.4f}, L_TC={last.coherence_loss:.4f})"
        )
    return EXIT_OK


def cmd_segment(args: argparse.Namespace) -> int:
    values = _resolve(args, cfg.SEGMENT_OPTIONS)
    root = Path(args.data)
    if not root.is_dir():
        raise UsageError(f"dataset path does not exist: {root}")
    activities = _activities(root, values["activity"])
    for activity in activities:
        checkpoint_path = Path(values["checkpoints"]) / activity / CHECKPOINT_NAME
        if not checkpoint_path.is_file():
            raise DataError(f"no checkpoint for activity {activity!r} at {checkpoint_path}")
        params, meta = encoder.load_checkpoint(checkpoint_path)
        catalog = dataio.load_catalog(root, activity)
        if catalog.dim != params.dims[0]:
            raise DataError(
                f"checkpoint {checkpoint_path} expects {params.dims[0]}-dim features, "
                f"dataset {activity!r} has {catalog.dim}"
            )
        clusters = params.prototypes.shape[0]
        for video in catalog.videos:
            if video.num_frames < clusters:
                raise DataError(
                    f"video {video.video_id} of activity {activity!r} has "
                    f"{video.num_frames} frames, fewer than the {clusters} "
                    f"clusters of {checkpoint_path}"
                )
        # Every video is decoded before anything is written, so a failure
        # leaves no partial label set; only the K segments per video are kept.
        decoded = []
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for video_id, lattice in trainer.embed_dataset(
                    params,
                    catalog,
                    temperature=meta["temperature"],
                    normalize=meta["normalized"],
                ):
                    try:
                        result = decode.viterbi_fixed_order(lattice)
                    except ValueError:  # videos too short for the path were rejected above
                        raise NumericalError(
                            f"activity {activity!r}, video {video_id}: frame scores are "
                            f"not finite with the weights of {checkpoint_path}"
                        ) from None
                    decoded.append((video_id, result.segments))
        except RuntimeWarning as err:
            raise NumericalError(
                f"activity {activity!r}: {err} during segmentation"
            ) from None
        out_dir = _output_dir(Path(values["out"]) / activity)
        for video_id, _ in decoded:
            _output_file(out_dir / f"{video_id}.txt", "label file")
            if values["timeline"]:
                _output_file(out_dir / f"{video_id}.timeline.csv", "timeline")
        for video_id, segments in decoded:
            with dataio.atomic_write(out_dir / f"{video_id}.txt") as fh:
                fh.write("".join(f"{c}\n" * (end - start) for c, start, end in segments))
            if values["timeline"]:
                lines = [f"{c},{s},{e}" for c, s, e in segments]
                with dataio.atomic_write(out_dir / f"{video_id}.timeline.csv") as fh:
                    fh.write("\n".join(lines) + "\n")
        print(f"{activity}: wrote {len(catalog.videos)} label files to {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    values = _resolve(args, cfg.EVAL_OPTIONS)
    root = Path(args.data)
    if not root.is_dir():
        raise UsageError(f"dataset path does not exist: {root}")
    activities = _activities(root, values["activity"])
    report_lines: list[str] = []
    mofs: list[float] = []
    f1s: list[float] = []
    for activity in activities:
        catalog = dataio.load_catalog(root, activity)
        video_ids, predictions, ground_truth = [], [], []
        for video in catalog.videos:
            pred = dataio.read_predictions(
                Path(values["pred"]) / activity / f"{video.video_id}.txt"
            )
            gt = catalog.video_labels(video)
            if pred.size != gt.size:
                raise DataError(
                    f"video {video.video_id}: {pred.size} predicted frames "
                    f"vs {gt.size} ground-truth frames"
                )
            video_ids.append(video.video_id)
            predictions.append(pred)
            ground_truth.append(gt)
        report = evaluate.evaluate_activity(
            video_ids,
            predictions,
            ground_truth,
            num_actions=catalog.num_actions,
            activity=activity,
            exclude=set(values["exclude-background"]),
            overlap=values["overlap"],
        )
        print(report.to_text(), end="")
        report_lines.append(report.to_text())
        mofs.append(report.mof)
        f1s.append(report.f1)
    summary = (
        f"dataset_mof = {float(np.mean(mofs)):.4f}\n"
        f"dataset_f1 = {float(np.mean(f1s)):.4f}\n"
    )
    print(summary, end="")
    if values["out"]:
        out_path = Path(values["out"])
        _output_dir(out_path.parent)
        with dataio.atomic_write(_output_file(out_path, "report")) as fh:
            fh.write("".join(report_lines) + summary)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Looked up per call, so a cmd_* replaced on this module (as a tracer
        # replaces it) is the one that runs.
        command = {
            "synth": cmd_synth,
            "train": cmd_train,
            "segment": cmd_segment,
            "eval": cmd_eval,
        }[args.command]
        return command(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
