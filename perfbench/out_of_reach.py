"""Inputs out of reach of the verifier today, measured with a time limit.

    python3 perfbench/out_of_reach.py

Each case runs the ``polyfan`` CLI on one generated file in its own
process, stops it after LIMIT_S seconds, and prints whether it finished,
its wall time and its peak RSS.
They are listed so that they can become a workload once facet
enumeration and the sheaf linear algebra are fast enough.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from polyfan.polytopes import cross_polytope, cube, product  # noqa: E402

LIMIT_S = 120

CASES = (
    ("cube-6 face lattice", "hvector", cube(6), ()),
    (
        "product(cross2, cross2, cube1) facet enumeration",
        "check-bounds",
        product(product(cross_polytope(2), cross_polytope(2)), cube(1)),
        (),
    ),
    ("ih cross-4", "ih", cross_polytope(4), ("--max-dim", "4")),
    ("ih cube-4", "ih", cube(4), ("--max-dim", "4")),
)


def main() -> int:
    workdir = ROOT / "perfbench" / ".work" / f"out-of-reach-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        for label, command, polytope, extra in CASES:
            path = workdir / "input.json"
            vertices = polytope.vertices
            item = inputs.Item(label, command, vertices, None, label)
            path.write_text(json.dumps(item.document()), encoding="utf-8")
            argv = [sys.executable, "-m", "polyfan.cli", command, str(path), "--json", *extra]
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            status = None
            while status is None:
                pid, code, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status = f"exit {os.waitstatus_to_exitcode(code)}"
                elif time.monotonic() - start > LIMIT_S:
                    proc.kill()
                    _, _, usage = os.wait4(proc.pid, 0)
                    status = f"stopped after {LIMIT_S} s"
                else:
                    time.sleep(0.05)
            proc.returncode = 0  # reaped by os.wait4 above; Popen must not wait again
            elapsed = time.monotonic() - start
            print(
                f"{label:50s} {len(vertices):3d} vertices, dim {len(vertices[0])}: "
                f"{status}, {elapsed:.1f} s, peak RSS {usage.ru_maxrss / 1024:.0f} MB",
                flush=True,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
