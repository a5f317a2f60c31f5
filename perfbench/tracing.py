"""Spans around every public function of the totseg modules.

The tracer is installed from outside the program: each public function a
totseg module defines is replaced, in every totseg module that holds a
reference to it, by a wrapper that records a span. That covers names a
caller imported with ``from .x import f`` (``trainer.build_batch``,
``transport.logsumexp_rows``, ``losses.logsumexp_rows``) as well as
``module.f`` lookups. ``FeatureSequence.load_feature_rows`` is wrapped on
its class. Generator functions (``trainer.embed_dataset``) get one span per
resumption, so the consumer's work between items is not charged to them.

A span is (id, parent id, name, site, start ns, end ns, run id): ``name``
is ``<defining module>.<function>`` and ``site`` the module whose
reference was called, which splits a shared helper by caller. Spans stay
in memory; the caller writes them out when the run ends. A few wrapped
functions also add to named counters (rows loaded, transport sweeps, ...)
so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

MODULES = (
    "cli",
    "config",
    "dataio",
    "decode",
    "encoder",
    "evaluate",
    "losses",
    "numerics",
    "sampler",
    "trainer",
    "transport",
)
METHODS = (("dataio", "FeatureSequence", "load_feature_rows"),)

# Solves run on a fixed sweep budget (no --marginal-tol) are judged
# against the tolerance the solve-tight workload asks for.
REFERENCE_TOLERANCE = 1e-9


class Span(NamedTuple):
    span_id: int
    parent: int | None
    name: str
    site: str
    start_ns: int
    end_ns: int
    run_id: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Span and counter sink for one traced pipeline pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, site: str, fn: Callable, args, kwargs, hook=None):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so ids follow start order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = Span(
                span_id, parent, name, site, start, end, self.run_id
            )
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def bump_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)


# Counter hooks: (tracer, args, kwargs, result) -> None, keyed by span name.


def _count_feature_rows(tracer: Tracer, args, kwargs, result) -> None:
    rows = int(np.size(args[1] if len(args) > 1 else kwargs["rows"]))
    tracer.counts["dataio.load_feature_rows.rows"] += rows
    tracer.counts["dataio.load_feature_rows.bytes_computed"] += rows * args[0].dim * 4


def _count_batch(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["sampler.positive_rows_loaded"] += result.positive_features.shape[0]


def _count_coherence(tracer: Tracer, args, kwargs, result) -> None:
    positives = args[1] if len(args) > 1 else kwargs["positives"]
    tracer.counts["losses.positive_rows_consumed"] += np.shape(positives)[0]


def _count_forward(tracer: Tracer, args, kwargs, result) -> None:
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counts["encoder.forward.rows"] += np.shape(x)[0]


def _count_viterbi(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["decode.viterbi_fixed_order.frames"] += result.labels.size


def _solver_hook(signature: inspect.Signature):
    def count(tracer: Tracer, args, kwargs, result) -> None:
        tolerance = signature.bind(*args, **kwargs).arguments.get("tolerance", 0.0)
        error = max(result.row_error, result.col_error)
        tracer.counts["transport.solves"] += 1
        tracer.counts["transport.sweeps"] += result.sweeps
        tracer.counts["transport.solves_within_tol"] += int(
            error <= (tolerance or REFERENCE_TOLERANCE)
        )
        tracer.bump_max("transport.sweeps_max", result.sweeps)
        tracer.bump_max("transport.max_marginal_error", error)

    return count


def _hooks(modules: dict) -> dict[str, Callable]:
    transport = modules["transport"]
    return {
        "dataio.load_feature_rows": _count_feature_rows,
        "sampler.build_batch": _count_batch,
        "losses.temporal_coherence": _count_coherence,
        "encoder.forward": _count_forward,
        "decode.viterbi_fixed_order": _count_viterbi,
        "transport.sinkhorn_ot": _solver_hook(inspect.signature(transport.sinkhorn_ot)),
        "transport.sinkhorn_tot": _solver_hook(inspect.signature(transport.sinkhorn_tot)),
    }


def _wrap(tracer: Tracer, fn: Callable, name: str, site: str, hook) -> Callable:
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, site, next, (items,), {})
                except StopIteration:
                    return
                yield item

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, site, fn, args, kwargs, hook)

    return traced


@dataclass
class Installation:
    """Originals replaced by ``install``; ``remove`` puts them back."""

    replaced: list[tuple[object, str, object]]

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every public totseg function at every module that refers to it."""
    modules = {short: importlib.import_module(f"totseg.{short}") for short in MODULES}
    defined: dict[object, str] = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                defined[obj] = f"{short}.{obj.__name__}"
    hooks = _hooks(modules)
    replaced = []
    for site, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in defined:
                name = defined[obj]
                replaced.append((module, attr, obj))
                setattr(module, attr, _wrap(tracer, obj, name, site, hooks.get(name)))
    for short, class_name, method in METHODS:
        owner = getattr(modules[short], class_name)
        original = vars(owner)[method]
        name = f"{short}.{method}"
        replaced.append((owner, method, original))
        setattr(owner, method, _wrap(tracer, original, name, short, hooks.get(name)))
    return Installation(replaced)


def _child_ns(spans: list[Span]) -> Counter[int]:
    """Time covered by each span's children. Children of one span never
    overlap (the program is single-threaded), so this is their sum."""
    covered: Counter[int] = Counter()
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    return covered


def check_spans(spans: list[Span]) -> list[str]:
    """Problems with span nesting: a child outside its parent, negative self time."""
    by_id = {span.span_id: span for span in spans}
    problems = []
    for span in spans:
        parent = by_id.get(span.parent)
        if parent and (span.start_ns < parent.start_ns or span.end_ns > parent.end_ns):
            problems.append(f"span {span.name} lies outside its parent {parent.name}")
    covered = _child_ns(spans)
    for span in spans:
        if span.duration_ns < covered[span.span_id]:
            problems.append(f"span {span.name} has negative self time")
    return problems[:20]


@dataclass
class Totals:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0

    @property
    def ms(self) -> float:
        return self.ns / 1e6

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Calls, time and self time per span name and per ``name@site``."""
    covered = _child_ns(spans)
    out: dict[str, Totals] = defaultdict(Totals)
    for span in spans:
        for key in (span.name, f"{span.name}@{span.site}"):
            entry = out[key]
            entry.calls += 1
            entry.ns += span.duration_ns
            entry.self_ns += span.duration_ns - covered[span.span_id]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, each with its unit."""
    spans = tracer.spans
    t = totals(spans)
    counts = tracer.counts

    def ms(name: str) -> float:
        return t[name].ms if name in t else 0.0

    def self_ms(name: str) -> float:
        return t[name].self_ms if name in t else 0.0

    def calls(name: str) -> int:
        return t[name].calls if name in t else 0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    transport_ms = sum(
        ms(f"transport.{fn}") for fn in ("sinkhorn_ot", "sinkhorn_tot", "temporal_prior")
    )
    sweeps = counts["transport.sweeps"]
    frames = counts["decode.viterbi_fixed_order.frames"]
    lse = "numerics.logsumexp_rows"
    return {
        "cli.train.self_ms": (self_ms("cli.cmd_train"), "ms"),
        "cli.segment.self_ms": (self_ms("cli.cmd_segment"), "ms"),
        "cli.eval.self_ms": (self_ms("cli.cmd_eval"), "ms"),
        "dataio.load_feature_rows.calls": (calls("dataio.load_feature_rows"), "count"),
        "dataio.load_feature_rows.rows": (counts["dataio.load_feature_rows.rows"], "count"),
        "dataio.load_feature_rows.bytes_computed": (
            counts["dataio.load_feature_rows.bytes_computed"],
            "bytes",
        ),
        "dataio.load_feature_rows.ms": (ms("dataio.load_feature_rows"), "ms"),
        "dataio.read_labels.ms": (ms("dataio.read_labels"), "ms"),
        "dataio.load_catalog.ms": (ms("dataio.load_catalog"), "ms"),
        "sampler.build_batch.self_ms": (self_ms("sampler.build_batch"), "ms"),
        "sampler.positive_rows_used_ratio": (
            ratio(
                counts["losses.positive_rows_consumed"],
                counts["sampler.positive_rows_loaded"],
            ),
            "fraction",
        ),
        "encoder.forward.ms": (ms("encoder.forward"), "ms"),
        "encoder.forward.rows": (counts["encoder.forward.rows"], "count"),
        "encoder.backward.ms": (ms("encoder.backward"), "ms"),
        "encoder.adam_step.ms": (ms("encoder.adam_step"), "ms"),
        "encoder.save_checkpoint.ms": (ms("encoder.save_checkpoint"), "ms"),
        "encoder.load_checkpoint.ms": (ms("encoder.load_checkpoint"), "ms"),
        "losses.temporal_coherence.calls": (calls("losses.temporal_coherence"), "count"),
        "losses.temporal_coherence.ms": (ms("losses.temporal_coherence"), "ms"),
        "losses.cross_entropy.ms": (ms("losses.cross_entropy"), "ms"),
        "losses.predicted_codes.ms": (ms("losses.predicted_codes"), "ms"),
        "transport.solves": (counts["transport.solves"], "count"),
        "transport.sweeps": (sweeps, "count"),
        "transport.sweeps_max": (tracer.maxima["transport.sweeps_max"], "count"),
        "transport.ms": (transport_ms, "ms"),
        "transport.us_per_sweep": (ratio(transport_ms * 1e3, sweeps), "us"),
        "transport.solves_within_tol_ratio": (
            ratio(counts["transport.solves_within_tol"], counts["transport.solves"]),
            "fraction",
        ),
        "transport.max_marginal_error": (
            tracer.maxima["transport.max_marginal_error"],
            "mass",
        ),
        "transport.share_of_train": (ratio(transport_ms, ms("cli.cmd_train")), "fraction"),
        f"{lse}.calls": (calls(lse), "count"),
        f"{lse}.ms": (ms(lse), "ms"),
        f"{lse}.transport.calls": (calls(f"{lse}@transport"), "count"),
        f"{lse}.transport.ms": (ms(f"{lse}@transport"), "ms"),
        f"{lse}.losses.calls": (calls(f"{lse}@losses"), "count"),
        f"{lse}.losses.ms": (ms(f"{lse}@losses"), "ms"),
        "trainer.train.self_ms": (self_ms("trainer.train"), "ms"),
        "trainer.solve_codes.self_ms": (self_ms("trainer.solve_codes"), "ms"),
        "trainer.embed_dataset.self_ms": (self_ms("trainer.embed_dataset"), "ms"),
        "decode.viterbi_fixed_order.ms": (ms("decode.viterbi_fixed_order"), "ms"),
        "decode.viterbi_fixed_order.frames": (frames, "count"),
        "decode.viterbi_fixed_order.us_per_frame": (
            ratio(ms("decode.viterbi_fixed_order") * 1e3, frames),
            "us",
        ),
        "decode.viterbi_share_of_segment": (
            ratio(ms("decode.viterbi_fixed_order"), ms("cli.cmd_segment")),
            "fraction",
        ),
        "decode.log_probabilities.ms": (ms("decode.log_probabilities"), "ms"),
        "evaluate.evaluate_activity.ms": (ms("evaluate.evaluate_activity"), "ms"),
    }


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """All spans of the traced passes, gzipped, one JSON array per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as out:
        for tracer in tracers:
            for span in tracer.spans:
                out.write(json.dumps(list(span)) + "\n")
