"""The benchmark's set-up runs end to end: for each workload, one child
of ``perfbench/run.py`` in set-up mode builds and writes every input
(face fans, random draws, linear images, the corpus) and reports how
many there are.  A set-up that fails outside the per-input timing would
otherwise show only as a benchmark run that exits 1."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, items", [("hvector", 74), ("sheaf", 30), ("quadratic", 29)])
def test_setup_pass_builds_every_input(workload, items, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--workload", workload, "--seed", "13", "--mode", "setup",
            "--workdir", str(tmp_path / "work"),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["items"] == items
