"""The paired benchmark's verdict per metric, on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def run(values: dict) -> dict:
    """One side's benchmark result holding ``values``."""
    return {
        "correct": 1,
        "attempted": 1,
        "failed": 0,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def summary(parent: list[float], change: list[float], better: str = "lower", bound=0.25):
    """The summary of metric ``m`` over pairs of ``parent`` and ``change`` values."""
    pairs = [
        {"seed": seed, "first": "parent", "parent": run({"m": p}), "change": run({"m": c})}
        for seed, (p, c) in enumerate(zip(parent, change, strict=True))
    ]
    metrics = [{"name": "m", "unit": "ms", "better": better, "bound": bound}]
    return paired_bench.summarize(pairs, metrics)["metrics"]["m"]


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


@pytest.mark.parametrize(
    "change, better, want",
    [
        # Faster in every pair, by far more than the parent's spread (0.45).
        ([v - 2.0 for v in PARENT], "lower", "gain"),
        # Nine of ten pairs in favour is enough.
        ([v - 2.0 for v in PARENT[:9]] + [11.0], "lower", "gain"),
        # Eight of ten is not, however large the median gain.
        ([v - 2.0 for v in PARENT[:8]] + [11.0, 11.0], "lower", "no change"),
        # Better in every pair, but by less than the spread.
        ([v - 0.1 for v in PARENT], "lower", "no change"),
        # The same values read as a higher-is-better metric.
        ([v - 2.0 for v in PARENT], "higher", "no change"),
        # 30% slower, past the 25% bound.
        ([v * 1.3 for v in PARENT], "lower", "worse"),
        ([v * 0.7 for v in PARENT], "higher", "worse"),
        # 20% slower, within the bound, on a narrow parent.
        ([v * 1.2 for v in PARENT], "lower", "no change"),
    ],
)
def test_verdict(change, better, want):
    stats = summary(PARENT, change, better)
    assert stats["verdict"] == want
    assert paired_bench.verdict(stats, 0.25) == want


def test_a_wide_parent_that_reads_worse_is_unresolved():
    parent = [5.0, 6.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 14.0, 15.0]  # spread 4.5 of 10
    assert summary(parent, [v + 1.0 for v in parent])["verdict"] == "unresolved"
    assert summary(parent, [v - 0.5 for v in parent])["verdict"] == "unresolved"
    assert summary(parent, [v * 1.4 for v in parent])["verdict"] == "worse"


def test_a_wide_parent_beaten_by_every_change_run_is_no_change():
    # Spread 4 of median 10, past the bound; every change run beats every
    # parent run, by a median gain (1.5) within the spread.
    parent = [9.0, 9.5, 10.0, 10.0, 10.0, 10.0, 14.0, 14.0, 14.0, 14.0]
    stats = summary(parent, [8.5] * 10)
    assert stats["parent_quartile_spread"] == 4.0
    assert stats["change_beats_every_parent_run"]
    assert stats["verdict"] == "no change"
    # One change run level with the parent's best leaves it unresolved.
    assert summary(parent, [8.5] * 9 + [9.0])["verdict"] == "unresolved"


def test_a_zero_parent_median_takes_the_bound_as_absolute():
    parent = [0.0] * 10
    assert summary(parent, [0.1] * 10, "higher")["verdict"] == "gain"
    assert summary(parent, [-0.1] * 10, "higher")["verdict"] == "no change"
    assert summary(parent, [-0.3] * 10, "higher")["verdict"] == "worse"
