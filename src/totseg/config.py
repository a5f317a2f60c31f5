"""Key=value run configuration shared by the command-line surface.

Every tunable flag is declared once in a registry; the same names work as
``--flag`` arguments and as keys in a line-oriented config file
(``key = value`` with ``#`` comments). Resolution order is command-line
flag, then config file, then the registry default, and the effective
values are printed at startup with their provenance so runs are auditable.
Unknown config-file keys are rejected against the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import UsageError

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class Option:
    """One registered setting: flag ``--name``, file key ``name``."""

    name: str
    kind: str  # int | float | str | bool | int_list
    default: Any
    help: str
    choices: tuple[str, ...] | None = None

    def parse_text(self, text: str) -> Any:
        """Config-file string to a typed value."""
        text = text.strip()
        try:
            if self.kind == "int":
                return int(text)
            if self.kind == "float":
                return float(text)
            if self.kind == "bool":
                lowered = text.lower()
                if lowered in _TRUE:
                    return True
                if lowered in _FALSE:
                    return False
                raise ValueError(f"not a boolean: {text!r}")
            if self.kind == "int_list":
                return [int(part) for part in text.split(",") if part.strip()]
        except ValueError as err:
            raise UsageError(f"config key {self.name!r}: {err}") from None
        value = text
        if self.choices and value not in self.choices:
            raise UsageError(
                f"config key {self.name!r} must be one of {self.choices}, got {value!r}"
            )
        return value


TRAIN_OPTIONS = (
    Option("mode", "str", "tot", "training mode", ("ot", "ot+tcl", "tot", "tot+tcl")),
    Option("epochs", "int", 30, "passes over the video list when iterations is unset"),
    Option("iterations", "int", None, "explicit iteration budget, overrides epochs"),
    Option("batch", "int", 512, "frames per batch (B)"),
    Option("videos-per-batch", "int", 2, "videos contributing blocks to each batch"),
    Option("freeze-iters", "int", 100, "iterations with prototypes frozen"),
    Option("seed", "int", 0, "rng seed for init and sampling"),
    Option("embed-dim", "int", 30, "output embedding dimension"),
    Option("hidden-dim", "int", None, "hidden layer width, default 2x embed-dim"),
    Option("lr", "float", 1e-3, "Adam learning rate"),
    Option("wd", "float", 1e-4, "decoupled weight decay"),
    Option("tau", "float", 0.1, "prediction softmax temperature"),
    Option("alpha", "float", 1.0, "coherence loss weight"),
    Option("lambda", "int", 30, "positive window half-width in frames"),
    Option("rho", "float", 0.07, "prior regularization weight"),
    Option("sigma", "float", 2.5, "temporal prior width"),
    Option("epsilon", "float", 0.05, "entropy weight for ot modes"),
    Option("sinkhorn-iters", "int", 3, "scaling sweeps per transport solve"),
    Option("marginal-tol", "float", 0.0, "early-stop tolerance, 0 disables"),
    Option("normalize", "bool", True, "L2-normalize embeddings and prototypes"),
    Option("prior-scope", "str", "block", "prior span for tot modes", ("block", "batch")),
    Option("renormalize-q", "bool", False, "rescale code rows to sum 1 before the loss"),
    Option("split-background", "str", None, "background action to split into edge classes"),
    Option("activity", "str", None, "comma-separated activities, default all"),
    Option("out", "str", "runs", "output directory for checkpoints and logs"),
    Option("parallel-activities", "int", 1, "activities trained concurrently"),
)

SYNTH_OPTIONS = (
    Option("videos", "int", 20, "number of videos"),
    Option("k", "int", 5, "number of actions"),
    Option("dim", "int", 16, "feature dimension"),
    Option("segment-len", "int", 40, "mean frames per action segment"),
    Option("len-jitter", "float", 0.25, "relative segment length jitter in [0,1)"),
    Option("separation", "float", 10.0, "pairwise distance between cluster means"),
    Option("noise", "float", 1.0, "frame noise sigma"),
    Option("permute-prob", "float", 0.0, "chance to swap adjacent actions"),
    Option("drop-prob", "float", 0.0, "chance to drop an action"),
    Option("seed", "int", 0, "generator seed"),
    Option("activity", "str", "synthetic", "activity directory name"),
)

SEGMENT_OPTIONS = (
    Option("checkpoints", "str", "runs", "directory holding <activity>/checkpoint.totc"),
    Option("activity", "str", None, "comma-separated activities, default all"),
    Option("out", "str", "segments", "output directory for label files"),
    Option("timeline", "bool", False, "also write cluster,start,end timelines"),
    Option("chunk-size", "int", 4096, "frames encoded per chunk"),
)

EVAL_OPTIONS = (
    Option("pred", "str", "segments", "directory holding <activity>/<video>.txt"),
    Option("activity", "str", None, "comma-separated activities, default all"),
    Option("exclude-background", "int_list", [], "gt ids dropped before scoring"),
    Option("overlap", "str", "gt", "segment overlap ratio", ("gt", "iou")),
    Option("split-background", "str", None, "background action to split into edge classes"),
    Option("out", "str", None, "write the report to this file as key=value lines"),
)


def parse_config_file(path, registry: tuple[Option, ...]) -> dict[str, Any]:
    """Read and validate a ``key = value`` file against a registry.

    Raises:
        UsageError: Missing file, malformed lines, or unknown keys.
    """
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    by_name = {option.name: option for option in registry}
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in by_name:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(known: {', '.join(sorted(by_name))})"
            )
        values[key] = by_name[key].parse_text(text)
    return values


def resolve(
    registry: tuple[Option, ...],
    flag_values: dict[str, Any],
    config_path: str | None,
) -> tuple[dict[str, Any], dict[str, str]]:
    """Overlay defaults, config file, and explicit flags.

    Args:
        registry: The command's options.
        flag_values: Parsed argparse values keyed by option name; None
            means the flag was not given.
        config_path: Optional config file.

    Returns:
        (values, provenance) where provenance maps each name to one of
        "flag", "file", or "default".
    """
    file_values = (
        parse_config_file(config_path, registry) if config_path else {}
    )
    values: dict[str, Any] = {}
    provenance: dict[str, str] = {}
    for option in registry:
        if flag_values.get(option.name) is not None:
            values[option.name] = flag_values[option.name]
            provenance[option.name] = "flag"
        elif option.name in file_values:
            values[option.name] = file_values[option.name]
            provenance[option.name] = "file"
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
