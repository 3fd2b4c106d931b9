"""One pass of a workload in a fresh process: generate the inputs, then
verify each of them exactly once, in order, in a closed loop (one
caller; the next verification starts when the previous one has
returned).

Each verification is one in-process call of ``polyfan.cli.main`` on one
generated file, with stdout captured.  Nothing is warmed up: the g-memo
and every other per-process cache start cold in every pass, as for a
CLI user.  After set-up and after each verification the child times a
few reference slices, a fixed piece of exact arithmetic that shares no
code with polyfan, so that ``run.py`` can tell the machine's speed
around each verification from the program's.  The last line on stdout
is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SHARE = 0.05  # reference slice time per verification time
MIN_SLICES = 3
SETUP_SLICES = 10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()

    import polyfan
    from polyfan import cli

    if not Path(polyfan.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"polyfan imported from {polyfan.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import inputs

    items = inputs.build(args.workload, args.seed)
    workdir = Path(args.workdir)
    try:
        paths, digest = inputs.write(items, workdir)
        ready = time.monotonic()
        slices = _reference_slices(0.0, SETUP_SLICES)
        summary = {
            "ready": ready,
            "setup_reference_s": statistics.median(s for _, s in slices),
            "input_digest": digest,
            "items": len(items),
        }
        if args.mode != "setup":
            summary.update(_one_pass(args, cli, items, paths, slices))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(summary))
    return 0


def _one_pass(args, cli, items, paths, slices) -> dict:
    """Verify every item once; ``slices`` holds the reference slices
    timed just before the first verification, as (midpoint, seconds)."""
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    runs = []  # (item index, exit code, seconds, stdout, stderr)
    spans = []  # (start, end) of each verification
    for k, (item, path) in enumerate(zip(items, paths)):
        argv = [item.command, str(path), "--json"]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.trace_id = k
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed verification, not a crash of the pass
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        runs.append((k, code, seconds, out.getvalue(), err.getvalue()))
        spans.append((start, start + seconds))
        slices += _reference_slices(seconds)
    if tracer is not None:
        tracer.uninstall()

    import oracle  # after the pass: its imports are not the program's set-up

    check = oracle.Oracle(oracle.load_validator(ROOT))
    failed, first_failure = oracle.tally(check, items, runs)
    durations = [seconds for _, _, seconds, _, _ in runs]
    result = {
        "durations": durations,
        "reference_s": _local_references(spans, slices),
        "failed": failed,
        "first_failure": first_failure,
    }
    if tracer is not None:
        result["layers"] = tracer.layers
        result["counts"] = dict(tracer.counts)
        if args.trace_file:
            _write_trace(args, tracer, items, runs)
    return result


def _local_references(spans, slices) -> list:
    """For each verification, the median time of the reference slices
    within its own duration (at least 20 ms) before its start and after
    its end.  A short verification gets the slices just before and just
    after it; a long one also those around its neighbours, since the
    machine's speed can change while it runs."""
    mids = [m for m, _ in slices]
    out = []
    for start, end in spans:
        reach = max(end - start, 0.02)
        lo = bisect.bisect_left(mids, start - reach)
        hi = bisect.bisect_right(mids, end + reach)
        out.append(statistics.median(s for _, s in slices[lo:hi]))
    return out


def _reference_slices(seconds: float, least: int = MIN_SLICES) -> list:
    """Reference slices, as (midpoint, seconds), run for about
    REFERENCE_SHARE of ``seconds``, at least ``least`` of them.  The
    garbage collector is held off meanwhile: the slices leave no cyclic
    garbage, and polyfan's garbage is then collected in polyfan's own
    time, as without slices."""
    gc.disable()
    try:
        slices = []
        total = 0.0
        while len(slices) < least or total < REFERENCE_SHARE * seconds:
            start = time.perf_counter()
            taken = _reference_slice()
            slices.append((start + taken / 2, taken))
            total += taken
    finally:
        gc.enable()
    return slices


def _reference_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic
    (Fraction products and sums, tuple keys, dict stores): the kind of
    work polyfan does, with none of its code."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for k in range(1, 300):
        x = Fraction(k % 13 - 6, k % 11 + 1)
        acc = acc * Fraction(1, 2) + x * x
        seen[(k % 17, k % 19)] = acc
    return time.perf_counter() - start


def _write_trace(args, tracer, items, runs) -> None:
    path = Path(args.trace_file)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "verifications": [
            {"trace": k, "item": items[k].name, "command": items[k].command, "seconds": s}
            for k, _, s, _, _ in runs
        ],
        "traced_wall_s": sum(s for _, _, s, _, _ in runs),
        "layers": {
            name: {"calls": tracer.counts[name], "total_s": total, "self_s": own}
            for name, (total, own) in sorted(tracer.layers.items())
        },
        "counts": dict(sorted(tracer.counts.items())),
        "span_fields": ["id", "parent", "trace", "name", "start", "end", "self_s"],
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
