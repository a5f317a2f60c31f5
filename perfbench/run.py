"""Benchmark of the totseg pipeline: synth -> train -> segment -> eval.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-disk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it repeat every metric with its
unit, the operation counts and the machine. A copy of the result goes to
``.perfbench_out/``. See perfbench/README.md for the workloads and metrics.
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up child that inherits this environment. One thread keeps results
# bit-for-bit repeatable and CPU time equal to wall time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import totseg from it."""
    src = ROOT / "src"
    if not (src / "totseg" / "cli.py").is_file():
        print(f"perfbench: no totseg sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import totseg

    if Path(totseg.__file__).resolve().parent != (src / "totseg").resolve():
        print(f"perfbench: imported totseg from {totseg.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        return 2
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}, "
            f"choose from {sorted(pipeline.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = pipeline.measure(
        pipeline.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        ROOT,
        BLAS_THREADS,
    )
    summary = result.summary()
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                **summary,
                "environment": result.environment,
                "passes": [dataclasses.asdict(p) for p in result.samples],
                "report": result.report_lines(),
            },
            indent=1,
        )
    )
    for line in result.report_lines():
        print(line)
    print(json.dumps(summary))
    return 0 if result.metrics else 1


if __name__ == "__main__":
    sys.exit(main())
