"""Workloads, one pipeline pass through ``totseg.cli.main``, and its checks.

A run writes the workload's dataset with ``totseg synth`` (set-up, in a
child process so its memory stays out of the measured process), then
repeats passes until the time budget is spent. A pass takes the
activities in turn and runs ``train -> segment -> eval`` on each, eval
several times when it is short, so every subcommand is timed at many
moments spread over the run. Every pass is checked; a failed check counts
as a failed operation and never stops the run.

The host's speed drifts in phases of seconds to minutes, so every
subcommand is bracketed by readings of a fixed reference loop
(``machine.reference_s``) and its wall time is scaled by
``REFERENCE_S / reading``: the time it would have taken at the host's
undisturbed speed. Each activity's timings are medians of the scaled
times over passes; the workload's are sums over its activities.

An operation is one of:
  * a subcommand, failed when its exit code is not 0;
  * a training iteration, failed when its train.log line is missing or
    has a loss that is not finite, or (with a marginal tolerance) a
    row_err or col_err above it;
  * a decoded video, failed unless its label file has one line per
    frame, never decreases, and covers 0..K-1;
  * reading dataset_mof and dataset_f1 from eval's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import machine
import tracing

HERE = Path(__file__).resolve().parent
TRAIN_SEED = "0"
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SUBPROCESS_TIMEOUT_S = 150
_FEATURE_HEADER = struct.Struct("<4sHII")


def _flag(args: tuple[str, ...], name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args else default


@dataclass(frozen=True)
class Workload:
    """One dataset spec plus the training flags run on it.

    The iteration count is fixed: on solve-tight the cost of an iteration
    grows as the scores sharpen, so a time-based count would change the
    work. ``eval_repeats`` says how often a timed pass runs eval on each
    activity; repeats of the same inputs print the same scores. Why each
    workload exists is in README.md.
    """

    name: str
    synth: tuple[str, ...]
    train: tuple[str, ...]
    iterations: int
    activities: int = 1
    eval_repeats: int = 1

    @property
    def activity_names(self) -> list[str]:
        return [f"a{i}" for i in range(self.activities)]

    def synth_commands(self, seed: int) -> list[list[str]]:
        """synth flags per activity; activity i gets seed * activities + i."""
        return [
            [*self.synth, "--activity", name, "--seed", str(seed * self.activities + i)]
            for i, name in enumerate(self.activity_names)
        ]

    @property
    def num_actions(self) -> int:
        return int(_flag(self.synth, "--k", "5"))

    @property
    def marginal_tol(self) -> float:
        return float(_flag(self.train, "--marginal-tol", "0"))


# The MOF a training run reaches, and on solve-tight the sweeps it needs,
# depend on the seed (one activity: MOF 0.42 to 0.80 on train-disk, 31k to
# 61k sweeps on solve-tight). train-disk and solve-tight therefore train
# several independent activities and report their mean, which spreads less:
# three activities still left a 12% quartile spread in solve-tight's sweeps
# over eight seeds, hence six there. --freeze-iters 30 lets the prototypes
# learn within the shorter budget. segment-long splits its 16 videos into
# two activities, so that train and segment are timed twice per pass over
# the same frames. eval takes 10 to 200 ms per activity, so it is repeated
# to be timed at as many moments as the longer subcommands.
# --sigma 1.0 (the acceptance tests' prior width) everywhere: with the
# default 2.5, MOF splits further by seed (0.67 or 0.83 on segment-long).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-disk",
            synth=("--videos", "20", "--k", "5", "--dim", "64", "--segment-len", "200"),
            train=(
                "--mode", "tot+tcl", "--batch", "512", "--embed-dim", "30", "--sigma", "1.0",
                "--freeze-iters", "30",
            ),
            iterations=60,
            activities=3,
            eval_repeats=6,
        ),
        Workload(
            name="segment-long",
            synth=("--videos", "8", "--k", "6", "--dim", "32", "--segment-len", "2500"),
            train=("--mode", "tot", "--batch", "256", "--embed-dim", "16", "--sigma", "1.0"),
            iterations=150,
            activities=2,
            eval_repeats=3,
        ),
        Workload(
            name="solve-tight",
            synth=("--videos", "20", "--k", "5", "--dim", "16", "--segment-len", "40"),
            train=(
                "--mode", "tot", "--batch", "64", "--embed-dim", "16", "--sigma", "1.0",
                "--freeze-iters", "30", "--sinkhorn-iters", "100000", "--marginal-tol", "1e-9",
            ),
            iterations=100,
            activities=6,
            eval_repeats=6,
        ),
    )
}


class Ledger:
    """Attempted and failed operations, with the first few failures named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


class Timing(NamedTuple):
    """Wall seconds of one subcommand and the reference reading around it."""

    seconds: float
    reference_s: float

    @property
    def scaled(self) -> float:
        """Seconds at the host's undisturbed speed."""
        return self.seconds * machine.REFERENCE_S / self.reference_s


class Stopwatch:
    """Runs subcommands with a reference reading between each two.

    A subcommand's reading is the mean of the one before and the one after
    it; neighbours share a reading, so each costs one loop (5 to 10 ms).
    """

    def __init__(self) -> None:
        self.last = machine.reference_s()

    def run(self, argv: list[str]) -> tuple[int, Timing, str]:
        code, seconds, stdout = run_subcommand(argv)
        after = machine.reference_s()
        timing = Timing(seconds, (self.last + after) / 2)
        self.last = after
        return code, timing, stdout


def run_subcommand(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, wall seconds, captured stdout) of ``totseg.cli.main``.

    The module attribute is looked up on each call so a traced pass sees
    the wrapped ``main``. An escaping exception is what a user would see as
    a traceback and exit code 1, so it is reported that way.
    """
    from totseg import cli

    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = 1
    return code, time.perf_counter() - started, out.getvalue()


def setup(
    workload: Workload, seed: int, data: Path, src: Path, ledger: Ledger
) -> list[Timing]:
    """Write the dataset repeatedly in a child process; timing of each synth.

    At least SETUP_REPEATS times and for at least SETUP_SECONDS.
    """
    command = [
        sys.executable,
        str(HERE / "synth_child.py"),
        str(src),
        str(data),
        str(SETUP_REPEATS),
        str(SETUP_SECONDS),
        json.dumps(workload.synth_commands(seed)),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
        )
        codes_and_seconds = json.loads(done.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        ledger.record(False, f"synth took longer than {SUBPROCESS_TIMEOUT_S} s")
        return []
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        ledger.record(False, f"synth child exited {done.returncode} without timings")
        return []
    for code, _, _ in codes_and_seconds:
        ledger.record(code == 0, f"synth exited {code}")
    return [Timing(seconds, reading) for code, seconds, reading in codes_and_seconds if code == 0]


def frame_counts(data: Path) -> dict[str, dict[str, int]]:
    """Frames per video per activity, read from the feature file headers."""
    counts: dict[str, dict[str, int]] = {}
    for path in sorted(data.glob("*/features/*.totf")):
        with open(path, "rb") as fh:
            _, _, rows, _ = _FEATURE_HEADER.unpack(fh.read(_FEATURE_HEADER.size))
        counts.setdefault(path.parent.parent.name, {})[path.stem] = rows
    return counts


def check_train_log(path: Path, workload: Workload, ledger: Ledger) -> None:
    """One operation per expected iteration line."""
    try:
        lines = path.read_text().splitlines()[1:]
    except OSError:
        lines = []
    for iteration in range(workload.iterations):
        ok = iteration < len(lines)
        if ok:
            try:
                _, l_ce, l_tc, total, row_err, col_err = (
                    float(v) for v in lines[iteration].split(",")
                )
            except ValueError:
                ok = False
            else:
                ok = all(math.isfinite(v) for v in (l_ce, l_tc, total))
                if workload.marginal_tol > 0:
                    ok = ok and max(row_err, col_err) <= workload.marginal_tol
        ledger.record(ok, f"{path}: iteration {iteration} failed its check")


def check_labels(
    segments: Path, frames: dict[str, int], num_actions: int, ledger: Ledger
) -> None:
    """One operation per video of an activity: line count, monotone, covers 0..K-1."""
    for video, num_frames in frames.items():
        path = segments / f"{video}.txt"
        try:
            labels = [int(line) for line in path.read_text().splitlines()]
        except (OSError, ValueError):
            labels = []
        ok = (
            len(labels) == num_frames
            and all(a <= b for a, b in zip(labels, labels[1:]))
            and set(labels) == set(range(num_actions))
        )
        ledger.record(ok, f"{path}: bad label file")


def _score(eval_stdout: str, key: str) -> float | None:
    for line in eval_stdout.splitlines():
        name, _, value = line.partition(" = ")
        if name == key:
            return float(value)
    return None


Scores = tuple[float | None, float | None]


@dataclass
class PassResult:
    """Timings of each subcommand run in one pass, per activity."""

    train_s: dict[str, Timing] = field(default_factory=dict)
    segment_s: dict[str, Timing] = field(default_factory=dict)
    eval_s: dict[str, list[Timing]] = field(default_factory=dict)
    scores: dict[str, Scores] = field(default_factory=dict)


def read_scores(eval_stdout: str) -> Scores:
    return _score(eval_stdout, "dataset_mof"), _score(eval_stdout, "dataset_f1")


def run_pass(
    workload: Workload,
    work: Path,
    frames: dict[str, dict[str, int]],
    ledger: Ledger,
    repeat: bool = True,
) -> PassResult:
    """train -> segment -> eval on each activity in turn, then check the outputs.

    With ``repeat``, eval runs as often as the workload asks; every eval
    of an activity must print the same scores.
    """
    data, runs, segments = work / "data", work / "runs", work / "segments"
    result = PassResult()
    stopwatch = Stopwatch()
    for activity in workload.activity_names:
        code, result.train_s[activity], _ = stopwatch.run(
            [
                "train", str(data), *workload.train,
                "--iterations", str(workload.iterations), "--seed", TRAIN_SEED,
                "--activity", activity, "--out", str(runs),
            ]
        )
        ledger.record(code == 0, f"train {activity} exited {code}")
        code, result.segment_s[activity], _ = stopwatch.run(
            [
                "segment", str(data), "--checkpoints", str(runs),
                "--activity", activity, "--out", str(segments),
            ]
        )
        ledger.record(code == 0, f"segment {activity} exited {code}")
        scores = []
        for _ in range(workload.eval_repeats if repeat else 1):
            code, timing, stdout = stopwatch.run(
                ["eval", str(data), "--pred", str(segments), "--activity", activity]
            )
            ledger.record(code == 0, f"eval {activity} exited {code}")
            result.eval_s.setdefault(activity, []).append(timing)
            scores.append(read_scores(stdout))
        for mof, f1 in scores:
            ledger.record(mof is not None and f1 is not None, f"eval {activity}: no scores")
        ledger.record(len(set(scores)) == 1, f"eval {activity}: repeats differ: {scores}")
        result.scores[activity] = scores[0]
        check_train_log(runs / activity / "train.log", workload, ledger)
        check_labels(segments / activity, frames[activity], workload.num_actions, ledger)
    return result


def dataset_scores(work: Path, ledger: Ledger) -> Scores:
    """dataset_mof and dataset_f1 of one eval over every activity (untimed)."""
    code, _, stdout = run_subcommand(
        ["eval", str(work / "data"), "--pred", str(work / "segments")]
    )
    ledger.record(code == 0, f"eval exited {code}")
    mof, f1 = read_scores(stdout)
    ledger.record(mof is not None and f1 is not None, "eval printed no dataset scores")
    return mof, f1


def pass_metrics(
    workload: Workload,
    frames: dict[str, dict[str, int]],
    passes: list[PassResult],
    scaled: bool = True,
) -> dict[str, tuple[float, str]]:
    """Timings of the whole dataset from per-activity medians over passes.

    Each activity's train, segment and eval time is its median over the
    passes (over every repeat, for eval); the dataset's time for a
    subcommand is the sum over activities. ``pipeline_s`` adds the three.
    ``scaled=False`` gives the same from unscaled wall times.
    """

    def median(timings) -> float:
        return statistics.median(t.scaled if scaled else t.seconds for t in timings)

    names = workload.activity_names
    train_s = sum(median(p.train_s[a] for p in passes) for a in names)
    segment_s = sum(median(p.segment_s[a] for p in passes) for a in names)
    eval_s = sum(median(t for p in passes for t in p.eval_s[a]) for a in names)
    total_frames = sum(sum(videos.values()) for videos in frames.values())
    return {
        "train_ms_per_iter": (
            train_s * 1e3 / (workload.iterations * workload.activities),
            "ms",
        ),
        "segment_frames_per_s": (total_frames / segment_s, "frames/s"),
        "eval_frames_per_s": (total_frames / eval_s, "frames/s"),
        "pipeline_s": (train_s + segment_s + eval_s, "s"),
    }


def peak_rss_mib() -> float:
    """High-water resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    ledger: Ledger
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    wall: dict[str, tuple[float, str]] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    inconsistencies: list[str] = field(default_factory=list)
    samples: list[PassResult] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return (
            self.ledger.failed == 0
            and not self.inconsistencies
            and bool(self.metrics)
            and all(value is not None for value, _ in self.metrics.values())
        )

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def report_lines(self) -> list[str]:
        ratio = self.ledger.failed / max(self.ledger.attempted, 1)
        lines = [
            f"workload = {self.workload}  seed = {self.seed}  "
            f"trace = {int(self.traced)}  passes = {len(self.samples)}",
            f"ops: attempted = {self.ledger.attempted}  failed = {self.ledger.failed}  "
            f"ops_failed_ratio = {ratio}",
        ]
        lines += [f"problem: {p}" for p in self.ledger.problems + self.inconsistencies]
        lines += [f"{name} = {value} {unit}" for name, (value, unit) in self.metrics.items()]
        lines += [f"wall.{name} = {value} {unit}" for name, (value, unit) in self.wall.items()]
        lines.append("environment = " + json.dumps(self.environment, sort_keys=True))
        return lines


def _consistency(passes: list[PassResult]) -> list[str]:
    """Scores must repeat exactly: the inputs and seeds are fixed."""
    first = passes[0].scores
    return [
        f"pass {i}: scores {p.scores} differ from pass 0 ({first})"
        for i, p in enumerate(passes)
        if p.scores != first
    ]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    root: Path,
    blas_threads: int,
) -> RunResult:
    """One benchmark run: set-up, then passes for ``seconds`` seconds."""
    result = RunResult(workload.name, seed, traced, Ledger())
    ticks_before = machine.cpu_ticks()
    reference_before = machine.reference_ms()
    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{int(time.time() * 1e6)}"
    try:
        setup_timings = setup(workload, seed, work / "data", root / "src", result.ledger)
        if not setup_timings:
            return result
        frames = frame_counts(work / "data")
        if traced:
            _traced_passes(workload, seconds, work, frames, result, root)
        else:
            passes = _timed_passes(
                lambda: run_pass(workload, work, frames, result.ledger), seconds, MIN_PASSES
            )
            result.samples = passes
            result.inconsistencies += _consistency(passes)
            mof, f1 = dataset_scores(work, result.ledger)
            result.metrics = {
                "setup_s": (statistics.median(t.scaled for t in setup_timings), "s"),
                **pass_metrics(workload, frames, passes),
                "peak_rss_mib": (peak_rss_mib(), "MiB"),
                "mof": (mof, "fraction"),
                "f1": (f1, "fraction"),
                "ops_ok_ratio": (
                    1.0 - result.ledger.failed / result.ledger.attempted,
                    "fraction",
                ),
            }
            result.wall = {
                "setup_s": (statistics.median(t.seconds for t in setup_timings), "s"),
                **pass_metrics(workload, frames, passes, scaled=False),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result.environment = machine.describe(
            workload.name,
            seed,
            blas_threads,
            ticks_before,
            machine.cpu_ticks(),
            (reference_before, machine.reference_ms()),
        )
    return result


def _timed_passes(one_pass, seconds: float, minimum: int) -> list:
    """Call ``one_pass`` at least ``minimum`` times, then while time allows."""
    started = time.perf_counter()
    done = []
    while True:
        pass_started = time.perf_counter()
        done.append(one_pass())
        now = time.perf_counter()
        if len(done) >= minimum and now - started + (now - pass_started) > seconds:
            return done


def _traced_passes(
    workload: Workload,
    seconds: float,
    work: Path,
    frames: dict[str, dict[str, int]],
    result: RunResult,
    root: Path,
) -> None:
    """Alternate untraced and traced passes; per-layer metrics and overhead.

    These passes run eval once per activity, so per-pass values are
    those of one train, one segment and one eval. Per-layer values are
    medians over traced passes. Counts must agree exactly between traced
    passes. Overhead is the traced median minus the untraced median of
    each per-pass end-to-end metric.
    """
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    tracers: list[tracing.Tracer] = []
    rss_untraced = []

    def pair():
        untraced.append(run_pass(workload, work, frames, result.ledger, repeat=False))
        rss_untraced.append(peak_rss_mib())
        tracer = tracing.Tracer(f"{workload.name}-pass{len(tracers)}")
        installation = tracing.install(tracer)
        try:
            traced.append(run_pass(workload, work, frames, result.ledger, repeat=False))
        finally:
            installation.remove()
        tracers.append(tracer)

    _timed_passes(pair, seconds, MIN_TRACED_PASSES)
    result.samples = untraced + traced
    result.inconsistencies += _consistency(untraced + traced)
    per_pass = [tracing.layer_metrics(tracer) for tracer in tracers]
    for tracer in tracers:
        result.inconsistencies += tracing.check_spans(tracer.spans)
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [layer[name][0] for layer in per_pass]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                result.inconsistencies.append(
                    f"{name} differs between traced passes: {values}"
                )
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    plain = pass_metrics(workload, frames, untraced)
    with_trace = pass_metrics(workload, frames, traced)
    for name in ("train_ms_per_iter", "segment_frames_per_s", "eval_frames_per_s", "pipeline_s"):
        value, unit = plain[name]
        metrics[f"trace_overhead.{name}"] = (with_trace[name][0] - value, unit)
    metrics["trace_overhead.peak_rss_mib"] = (peak_rss_mib() - rss_untraced[0], "MiB")
    result.metrics = metrics
    tracing.write_spans(tracers, root / ".perfbench_out" / f"{workload.name}.spans.jsonl.gz")
