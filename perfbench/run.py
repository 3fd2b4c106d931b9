"""Benchmark of the polyfan verifier, run from the root of a checkout:

    python3 perfbench/run.py --workload hvector --seed 1 --seconds 36 --trace 0

Workloads are ``hvector``, ``sheaf`` and ``quadratic`` (see inputs.py).
A pass verifies every input of the workload exactly once in a fresh
child process, so every pass starts cold.  With ``--trace 0`` passes
repeat until ``--seconds`` are used (at least three); each input's time
is its median over the passes, and the end-to-end metrics are taken over
those.  Every time is scaled to a fixed speed of the machine (see
``_child``).  ``setup_s`` is the median set-up time of the children, with
set-up-only children added up to seven.  With ``--trace 1`` plain and
traced passes alternate, starting and ending plain; the per-layer
metrics come from the traced passes and the tracing overhead from each
traced pass against the plain passes beside it.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("hvector", "sheaf", "quadratic")
MIN_PASSES = 3
SETUP_SAMPLES = 7
TOTAL_BUDGET_S = 170  # every run must end within 180 s
TAIL_BEYOND = 10
# Median time of child._reference_slice on a 2-vCPU Linux container with
# Python 3.11 while its neighbours were idle; times are scaled to it.
REFERENCE_SLICE_S = 0.0020
UNITS = {"verify_per_s": "1/s", "verify_p50_ms": "ms", "verify_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TOTAL_BUDGET_S
    try:
        if not (ROOT / "src" / "polyfan" / "cli.py").is_file():
            raise BenchError(f"no polyfan sources under {ROOT / 'src'}")
        provenance = _provenance(args)
        if args.trace:
            result = _traced(args, deadline, provenance)
        else:
            result = _untraced(args, deadline, provenance)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Children


def _child(args, mode: str, deadline: float, tag: str, trace_file=None) -> dict:
    """Run one child to its end: a set-up only, or one complete pass."""
    workdir = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}-{tag}"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--workdir", str(workdir),
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {mode} pass of {args.workload} did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} child exited with {proc.returncode}: {err.strip()[-2000:]}")
    summary = json.loads(out.strip().splitlines()[-1])
    summary["wall_s"] = time.monotonic() - start
    if mode != "setup" and len(summary["durations"]) != summary["items"]:
        raise BenchError(f"a {mode} pass of {args.workload} did not verify every input")
    # The speed of a shared machine swings by half over seconds to minutes.
    # Each time is scaled by the reference slices timed around it,
    # which share no code with polyfan, so a change to the program shows
    # in full while a slow spell of the machine does not.
    summary["raw_setup_s"] = summary["ready"] - start
    summary["setup_s"] = summary["raw_setup_s"] * REFERENCE_SLICE_S / summary["setup_reference_s"]
    if mode != "setup":
        summary["raw_durations"] = summary["durations"]
        summary["durations"] = [
            d * REFERENCE_SLICE_S / r for d, r in zip(summary["durations"], summary["reference_s"])
        ]
    return summary


def _same_inputs(children, provenance) -> None:
    digests = {c["input_digest"] for c in children}
    if len(digests) != 1:
        raise BenchError("the same seed produced different input files")
    provenance["input_digest"] = digests.pop()
    provenance["input_files"] = children[0]["items"]


def _untraced(args, deadline, provenance) -> dict:
    start = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or (
        time.monotonic() - start + statistics.median(p["wall_s"] for p in passes) <= args.seconds
    ):
        passes.append(_child(args, "measure", deadline, f"pass{len(passes)}"))
    probes = [
        _child(args, "setup", deadline, f"setup{k}") for k in range(SETUP_SAMPLES - len(passes))
    ]
    _same_inputs(passes + probes, provenance)
    setups = [c["setup_s"] for c in passes + probes]

    m = passes[0]["items"]
    times = sorted(statistics.median(p["durations"][i] for p in passes) for i in range(m))
    tail_pct, tail = _tail(times)
    metrics = {
        "verify_per_s": m / sum(times),
        "verify_p50_ms": 1000 * statistics.median(times),
        "verify_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    inputs = f"{m} inputs, median of {len(passes)} cold passes each"
    notes = {
        "verify_per_s": f"{inputs}; pass walls " + ", ".join(f"{p['wall_s']:.2f}" for p in passes) + " s",
        "verify_p50_ms": f"median input of {inputs}",
        "verify_tail_ms": f"p{tail_pct:.1f} input of {inputs} ({min(TAIL_BEYOND, m - 1)} beyond it)",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    raw = {
        "verify_per_s": m / sum(statistics.median(p["raw_durations"][i] for p in passes) for i in range(m)),
        "setup_s": statistics.median(c["raw_setup_s"] for c in passes + probes),
    }
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:15s} {value:12.4f} {UNITS[name]:4s} {notes[name]}")
    for name, value in raw.items():
        print(f"{args.workload:9s} {name:15s} {value:12.4f} {UNITS[name]:4s} as timed, not scaled")
    failed = sum(p["failed"] for p in passes)
    attempted = m * len(passes)
    print(f"{args.workload:9s} {'failed_frac':15s} {failed / attempted:12.4f} {'1':4s} {failed} of {attempted} failed")
    _print_first_failure(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def _traced(args, deadline, provenance) -> dict:
    """Plain and traced passes alternate, P T P [T P ...], while the time
    allows; each traced pass is compared with the plain passes beside it."""
    trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    start = time.monotonic()
    plain = [_child(args, "measure", deadline, "plain0")]
    traced = []
    while not traced or (
        time.monotonic() - start + plain[-1]["wall_s"] + traced[-1]["wall_s"] <= args.seconds
    ):
        k = len(traced)
        traced.append(_child(args, "trace", deadline, f"traced{k}", trace_file if k == 0 else None))
        plain.append(_child(args, "measure", deadline, f"plain{k + 1}"))
    _same_inputs(plain + traced, provenance)
    provenance["trace_file"] = str(trace_file.relative_to(ROOT))

    def wall(p):
        return sum(p["durations"])

    ratios = [wall(t) / ((wall(plain[k]) + wall(plain[k + 1])) / 2) for k, t in enumerate(traced)]
    layers, counts = {}, {}
    covered = True
    for t in traced:
        self_sum = sum(own for _, own in t["layers"].values())
        # Self times partition the time inside top-level spans, which lies
        # inside the timed cli.main calls; double-counted self time fails.
        covered = covered and self_sum <= sum(t["raw_durations"]) * (1 + 1e-9)
        print(f"{args.workload}: span self times {self_sum:.3f} s of {sum(t['raw_durations']):.3f} s traced wall")
        scale = wall(t) / sum(t["raw_durations"])
        for name, (total, own) in t["layers"].items():
            acc = layers.setdefault(name, [0.0, 0.0])
            acc[0] += total * scale
            acc[1] += own * scale
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
    m = traced[0]["items"]
    metrics = tracing.layer_metrics(layers, counts, m * len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(
        f"{args.workload}: traced over plain pass time "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f" ({len(traced)} traced, {len(plain)} plain passes of {m} inputs)"
    )
    units = _layer_units()
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:38s} {value:14.6f} {units[name]}")
    failed = sum(c["failed"] for c in plain + traced)
    _print_first_failure(plain + traced)
    if not covered:
        print("span self times exceed the traced wall time")
    return {
        "correct": failed == 0 and covered,
        "attempted": m * (len(plain) + len(traced)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _print_first_failure(children) -> None:
    for c in children:
        if c["first_failure"]:
            print(f"first failure: {c['first_failure']}")
            return


# ---------------------------------------------------------------------------
# Statistics and provenance


def _tail(ordered):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when there are too few samples."""
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND
    return 100 * rank / n, ordered[rank - 1]


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _provenance(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": commit,
        "src_digest": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


if __name__ == "__main__":
    sys.exit(main())
