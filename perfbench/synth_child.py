"""Set-up child: run ``totseg synth`` repeatedly, print [exit code, seconds, reading].

Usage: python3 synth_child.py SRC OUT MIN_REPEATS MIN_SECONDS FLAGS_JSON

FLAGS_JSON is a JSON list with one list of synth flags per activity; one
repeat runs them all and is timed as one set-up. Repeats at least
MIN_REPEATS times and until MIN_SECONDS have passed, so a fast set-up
still gets enough samples for a steady median. ``reading`` is the mean of
the reference loop's readings before and after the repeat, as the parent
times its subcommands.

Runs in its own process so that the dataset generator's memory does not
count towards the peak RSS of the process that trains and segments. The
directory is removed before each repeat, so every repeat writes the whole
dataset; the last one is what the benchmark uses.
"""

import contextlib
import io
import json
import shutil
import sys
import time

import machine


def main(argv: list[str]) -> None:
    src, out, repeats, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    commands = json.loads(argv[4])
    sys.path.insert(0, src)
    from totseg import cli

    results = []
    first = time.perf_counter()
    before = machine.reference_s()
    while len(results) < repeats or time.perf_counter() - first < seconds:
        shutil.rmtree(out, ignore_errors=True)
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["synth", out, *flags]) for flags in commands]
        elapsed = time.perf_counter() - started
        after = machine.reference_s()
        results.append([max(codes), elapsed, (before + after) / 2])
        before = after
    print(json.dumps(results))


if __name__ == "__main__":
    main(sys.argv[1:])
