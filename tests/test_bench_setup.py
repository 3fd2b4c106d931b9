"""The benchmark's set-up runs end to end: for each workload, one child
of ``perfbench/run.py`` in set-up mode builds and writes every input
(face fans, random draws, linear images, the corpus) and reports how
many there are.  A set-up that fails outside the per-input timing would
otherwise show only as a benchmark run that exits 1.  A traced pass of
each sheaf workload runs every tracer wrapper on real calls, so a
wrapped function whose signature or return shape no longer fits its
wrapper fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _child(workload, mode, tmp_path) -> dict:
    """The JSON summary of one child pass with seed 13; exit 0 asserted."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--workload", workload, "--seed", "13", "--mode", mode,
            "--workdir", str(tmp_path / "work"),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, items", [("hvector", 74), ("sheaf", 30), ("quadratic", 29)])
def test_setup_pass_builds_every_input(workload, items, tmp_path):
    assert _child(workload, "setup", tmp_path)["items"] == items


@pytest.mark.parametrize("workload", ["sheaf", "quadratic"])
def test_traced_pass_verifies_every_input(workload, tmp_path):
    summary = _child(workload, "trace", tmp_path)
    assert summary["failed"] == 0, summary["first_failure"]
    for layer in ("ihsheaf.section_space", "ihsheaf.global_data", "ihsheaf.lefschetz_maps"):
        assert layer in summary["layers"]
        assert summary["counts"][layer] > 0, layer
