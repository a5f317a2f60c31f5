"""Check that two source trees write byte-identical pipeline outputs.

Usage: python3 scripts/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 101 7 202]

Each SRC is the directory that holds the ``totseg`` package (a checkout's
``src``). For every benchmark workload (``perfbench/pipeline.py``'s
``WORKLOADS``, imported, so the flags are the benchmark's own) and every
synth seed, both trees run ``synth -> train -> segment --timeline ->
eval --out`` in a temporary directory, one child process per subcommand
with ``OPENBLAS_NUM_THREADS=1``, the tree alone on ``PYTHONPATH`` and
paths relative to the case's directory. Each subcommand's resolved-settings
lines (``name = value  (flag|default)``) are kept in a ``settings/`` file
per subcommand. The two output trees (dataset, ``train.log`` files,
checkpoints, label and timeline files, eval report, settings) are then
compared file by file.

Prints ``identical`` and exits 0. Otherwise it names every differing file
(or file present in one tree only), ends with a count of differing and
compared files per kind (dataset, checkpoint, train.log, labels,
timelines, report, settings), and exits 1. A failed subcommand is named
and ends the run at once, also with exit 1.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """The benchmark's workloads and training seed, imported without writing bytecode."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import pipeline

    return pipeline.WORKLOADS, pipeline.TRAIN_SEED


SETTING_LINE = re.compile(r"^[\w-]+ = .*  \(\w+\)$")


def run_pipeline(src: Path, workload, seed: int, train_seed: str, out: Path) -> str | None:
    """Write one workload's outputs under ``out``; a failure message or None."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    commands = [["synth", "data", *flags] for flags in workload.synth_commands(seed)]
    commands += [
        [
            "train", "data", *workload.train,
            "--iterations", str(workload.iterations), "--seed", train_seed,
            "--out", "runs",
        ],
        ["segment", "data", "--checkpoints", "runs", "--out", "segments", "--timeline"],
        ["eval", "data", "--pred", "segments", "--out", "report.txt"],
    ]
    (out / "settings").mkdir()
    for index, argv in enumerate(commands):
        done = subprocess.run(
            [sys.executable, "-m", "totseg.cli", *argv],
            env=env, cwd=out, capture_output=True, text=True,
        )
        if done.returncode != 0:
            last = done.stderr.strip().splitlines()[-1:] or [""]
            return f"{argv[0]} exited {done.returncode} under {src}: {last[0]}"
        settings = [line for line in done.stdout.splitlines() if SETTING_LINE.match(line)]
        (out / "settings" / f"{index}-{argv[0]}.txt").write_text("\n".join(settings) + "\n")
    return None


KINDS = ("dataset", "checkpoint", "train.log", "labels", "timelines", "report", "settings")


def kind_of(name: Path) -> str:
    """Which pipeline output a file under one case's tree is."""
    if name.parts[0] == "data":
        return "dataset"
    if name.parts[0] == "settings":
        return "settings"
    if name.name == "checkpoint.totc":
        return "checkpoint"
    if name.name == "train.log":
        return "train.log"
    if name.name.endswith(".timeline.csv"):
        return "timelines"
    if name.parts[0] == "segments":
        return "labels"
    return "report"


def differences(a: Path, b: Path) -> tuple[list[tuple[Path, str]], Counter]:
    """Every file present in one tree only or differing in bytes, with how,
    and the number of files compared per kind."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found, compared = [], Counter()
    for name in sorted(files_a | files_b):
        compared[kind_of(name)] += 1
        if name not in files_a or name not in files_b:
            found.append((name, "is only in one tree"))
        elif (a / name).read_bytes() != (b / name).read_bytes():
            found.append((name, "differs"))
    return found, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="src directory of the first tree")
    parser.add_argument("change", type=Path, help="src directory of the second tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 7, 202])
    args = parser.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "totseg" / "cli.py").is_file():
            parser.error(f"no totseg package under {src}")
    workloads, train_seed = _workloads()
    differing, compared = Counter(), Counter()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        for name, workload in workloads.items():
            for seed in args.seeds:
                case = f"{name} seed {seed}"
                trees = []
                for side, src in (("parent", args.parent), ("change", args.change)):
                    out = Path(scratch) / name / str(seed) / side
                    out.mkdir(parents=True)
                    failure = run_pipeline(src.resolve(), workload, seed, train_seed, out)
                    if failure:
                        print(f"{case}: {failure}")
                        return 1
                    trees.append(out)
                found, counts = differences(*trees)
                compared.update(counts)
                for path, how in found:
                    differing[kind_of(path)] += 1
                    print(f"{case}: {path} {how}")
                if not found:
                    print(f"{case}: same", file=sys.stderr)
    if not differing:
        print("identical")
        return 0
    print(
        "differing files: "
        + ", ".join(f"{kind} {differing[kind]} of {compared[kind]}" for kind in KINDS)
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
