"""Smoke check of the benchmark itself, at toy sizes (about ten seconds).

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It passes, exiting 0, when
  * an untraced and a traced run print every metric BENCHMARK.json names,
    each with the unit BENCHMARK.json gives it, and both runs are correct;
  * every span's self time is non-negative and every child span lies
    inside its parent (and the span check does flag a child that does not);
  * a deliberately corrupted label file counts as one failed operation.
"""

import json
import shutil
import sys

import run

TOY_SYNTH = ("--videos", "4", "--k", "3", "--dim", "8", "--segment-len", "20")
TOY_TRAIN = (
    "--mode", "tot+tcl", "--batch", "32", "--embed-dim", "8", "--lambda", "5",
    "--sinkhorn-iters", "1000", "--marginal-tol", "1e-6",
)


def check_printed_metrics(pipeline, toy, bench: dict) -> list[str]:
    problems = []
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        result = pipeline.measure(toy, 3, 0.0, traced, run.ROOT, run.BLAS_THREADS)
        if not result.correct:
            problems.append(f"toy run (trace={int(traced)}) not correct: {result.report_lines()}")
        printed = {}
        for line in result.report_lines():
            name, sep, rest = line.partition(" = ")
            if sep:
                printed[name] = rest.rsplit(" ", 1)
        summary = result.summary()
        if set(summary) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(summary)}")
        for metric in bench[section]:
            name, unit = metric["name"], metric["unit"]
            value_and_unit = printed.get(name)
            if value_and_unit is None or value_and_unit[1] != unit:
                problems.append(f"{name} not printed with unit {unit}: {value_and_unit}")
                continue
            float(value_and_unit[0])
            if summary["metrics"].get(name, {}).get("unit") != unit:
                problems.append(f"{name} missing from the JSON result or has another unit")
        extra = set(summary["metrics"]) - {m["name"] for m in bench[section]}
        if extra:
            problems.append(f"metrics not named in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_spans_and_corruption(pipeline, tracing, toy) -> list[str]:
    problems = []
    work = run.ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ledger = pipeline.Ledger()
        pipeline.setup(toy, 5, work / "data", run.ROOT / "src", ledger)
        frames = pipeline.frame_counts(work / "data")
        tracer = tracing.Tracer("smoke")
        installation = tracing.install(tracer)
        try:
            pipeline.run_pass(toy, work, frames, ledger)
        finally:
            installation.remove()
        if ledger.failed:
            problems.append(f"toy pass failed: {ledger.problems}")
        if not tracer.spans:
            problems.append("traced pass recorded no spans")
        problems += tracing.check_spans(tracer.spans)
        if any(t.self_ns < 0 for t in tracing.totals(tracer.spans).values()):
            problems.append("negative self time in span totals")
        parent = tracer.spans[0]
        stray = parent._replace(
            span_id=-1,
            parent=parent.span_id,
            start_ns=parent.start_ns - 1,
            end_ns=parent.start_ns + 1,
        )
        if not any("outside" in p for p in tracing.check_spans([parent, stray])):
            problems.append("check_spans accepted a child that starts before its parent")

        activity, videos = next(iter(frames.items()))
        labels_dir = work / "segments" / activity
        victim = labels_dir / f"{next(iter(videos))}.txt"
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(reversed(lines)) + "\n")
        corrupted = pipeline.Ledger()
        pipeline.check_labels(labels_dir, videos, toy.num_actions, corrupted)
        if (corrupted.attempted, corrupted.failed) != (len(videos), 1):
            problems.append(
                f"corrupted label file: {corrupted.failed} of {corrupted.attempted} "
                "videos failed, expected exactly 1"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    if not run.import_program():
        return 2
    import pipeline
    import tracing

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    toy = pipeline.Workload("toy", TOY_SYNTH, TOY_TRAIN, iterations=5, activities=2)
    problems = check_printed_metrics(pipeline, toy, bench)
    problems += check_spans_and_corruption(pipeline, tracing, toy)
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
