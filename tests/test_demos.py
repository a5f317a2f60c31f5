"""The demos run to the end on this tree's package.

Each demo runs as its own process, with only this tree's ``src`` on
``PYTHONPATH`` and one BLAS thread, and must exit 0 and print a line it
always prints. Left out: ``04_prior_ablation.py``, which the acceptance
gate ``test_temporal_prior_improves_over_plain_transport`` repeats;
``05_cli_pipeline.sh``, which needs ``totseg`` installed on ``PATH``; and
``06_quality_grid.py``, which trains 120 runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, line",
    [
        ("01_temporal_prior.py", "  sigma   2.5: max/min =     2.883"),
        (
            "02_transport_solvers.py",
            "  rho 0.30: labels 0 0 0 0 1 1 1 2 2 3 3 3   (0 inversions)",
        ),
        ("03_end_to_end_synthetic.py", "activity = synthetic"),
    ],
)
def test_demo_runs(demo, line, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
