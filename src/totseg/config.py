"""Command-line settings: one registry of flags per subcommand.

Every tunable flag is declared once in a registry. A flag that sets a
library field takes that field's default, so each default is written in
one place. argparse parses and validates the values; resolution is the
command-line flag, else the default, and the effective values are printed
at startup with their provenance so runs are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .dataio import SyntheticSpec
from .losses import LossConfig
from .trainer import MODES, TrainConfig
from .transport import TransportConfig


def finite_float(text: str) -> float:
    """float(text), refusing nan and +-inf: no setting means either.

    The one float parser of flags (argparse ``type=``).
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


@dataclass(frozen=True)
class Option:
    """One registered setting, given on the command line as ``--name``."""

    name: str
    kind: str  # int | float | str | bool | int_list
    default: Any
    help: str
    choices: tuple[str, ...] | None = None


TRAIN_OPTIONS = (
    Option("mode", "str", TrainConfig.mode, "training mode", MODES),
    Option("epochs", "int", TrainConfig.epochs, "passes over the video list when iterations is unset"),
    Option("iterations", "int", TrainConfig.iterations, "explicit iteration budget, overrides epochs"),
    Option("batch", "int", TrainConfig.batch_size, "frames per batch (B)"),
    Option("videos-per-batch", "int", TrainConfig.videos_per_batch, "videos contributing blocks to each batch"),
    Option("freeze-iters", "int", TrainConfig.freeze_iterations, "iterations with prototypes frozen"),
    Option("seed", "int", TrainConfig.seed, "rng seed for init and sampling"),
    Option("embed-dim", "int", TrainConfig.embed_dim, "output embedding dimension"),
    Option("lr", "float", TrainConfig.learning_rate, "Adam learning rate"),
    Option("wd", "float", TrainConfig.weight_decay, "decoupled weight decay"),
    Option("tau", "float", LossConfig.temperature, "prediction softmax temperature"),
    Option("alpha", "float", LossConfig.alpha, "coherence loss weight"),
    Option("lambda", "int", LossConfig.window, "positive window half-width in frames"),
    Option("rho", "float", TransportConfig.rho, "prior regularization weight"),
    Option("sigma", "float", TransportConfig.sigma, "temporal prior width"),
    Option("epsilon", "float", TransportConfig.epsilon, "entropy weight for ot modes"),
    Option("sinkhorn-iters", "int", TransportConfig.iterations, "sweeps plus Newton steps per transport solve"),
    Option("marginal-tol", "float", TransportConfig.marginal_tolerance, "early-stop tolerance, reached by Newton steps; 0 disables"),
    Option("normalize", "bool", TrainConfig.normalize, "L2-normalize embeddings and prototypes"),
    Option("activity", "str", None, "comma-separated activities, default all"),
    Option("out", "str", "runs", "output directory for checkpoints and logs"),
)

SYNTH_OPTIONS = (
    Option("videos", "int", SyntheticSpec.num_videos, "number of videos"),
    Option("k", "int", SyntheticSpec.num_actions, "number of actions"),
    Option("dim", "int", SyntheticSpec.dim, "feature dimension"),
    Option("segment-len", "int", SyntheticSpec.mean_segment_len, "mean frames per action segment"),
    Option("len-jitter", "float", SyntheticSpec.len_jitter, "relative segment length jitter in [0,1)"),
    Option("separation", "float", SyntheticSpec.cluster_separation, "pairwise distance between cluster means"),
    Option("noise", "float", SyntheticSpec.noise_sigma, "frame noise sigma"),
    Option("permute-prob", "float", SyntheticSpec.permute_prob, "chance to swap adjacent actions"),
    Option("drop-prob", "float", SyntheticSpec.drop_prob, "chance to drop an action"),
    Option("seed", "int", SyntheticSpec.seed, "generator seed"),
    Option("activity", "str", "synthetic", "activity directory name"),
)

SEGMENT_OPTIONS = (
    Option("checkpoints", "str", "runs", "directory holding <activity>/checkpoint.totc"),
    Option("activity", "str", None, "comma-separated activities, default all"),
    Option("out", "str", "segments", "output directory for label files"),
    Option("timeline", "bool", False, "also write cluster,start,end timelines"),
)

EVAL_OPTIONS = (
    Option("pred", "str", "segments", "directory holding <activity>/<video>.txt"),
    Option("activity", "str", None, "comma-separated activities, default all"),
    Option("exclude-background", "int_list", [], "gt ids dropped before scoring"),
    Option("overlap", "str", "gt", "segment overlap ratio", ("gt", "iou")),
    Option("out", "str", None, "write the report to this file as key=value lines"),
)


def resolve(
    registry: tuple[Option, ...], flag_values: dict[str, Any]
) -> tuple[dict[str, Any], dict[str, str]]:
    """Overlay explicit flags on the registry defaults.

    Args:
        registry: The command's options.
        flag_values: Parsed argparse values keyed by option name; None
            means the flag was not given.

    Returns:
        (values, provenance) where provenance maps each name to "flag" or
        "default".
    """
    values: dict[str, Any] = {}
    provenance: dict[str, str] = {}
    for option in registry:
        if flag_values.get(option.name) is not None:
            values[option.name] = flag_values[option.name]
            provenance[option.name] = "flag"
        else:
            values[option.name] = option.default
            provenance[option.name] = "default"
    return values, provenance


def describe(values: dict[str, Any], provenance: dict[str, str]) -> str:
    """Effective-configuration block printed at startup."""
    lines = [
        f"{name} = {value}  ({provenance[name]})" for name, value in values.items()
    ]
    return "\n".join(lines)
