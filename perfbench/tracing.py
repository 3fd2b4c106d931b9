"""Spans and counters around polyfan's layer entry points.

The benchmark wraps module and class attributes from the outside; the
program itself carries no instrumentation.  A span records its name,
start, end, parent span and the verification (trace id) it belongs to.
Self time is a span's duration minus the time covered by its children;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

KEEP_SPANS = 20_000  # raw spans kept for the trace file; aggregates cover all


class Tracer:
    def __init__(self):
        self.stack: list = []  # open spans: [span_id, child_seconds]
        self.layers: dict = {}  # name -> [total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list = []  # (id, parent, trace, name, start, end, self)
        self.dropped = 0
        self.trace_id = 0
        self._next_id = 0
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, timed: bool = True, observe=None) -> None:
        """Replace ``owner.attr`` (and every polyfan module attribute bound
        to the same function) by a wrapper counting calls under ``name``;
        ``timed`` adds a span, ``observe(tracer, args, result)`` extra counts."""
        original = getattr(owner, attr)
        counts, stack, layers, spans = self.counts, self.stack, self.layers, self.spans
        perf = time.perf_counter
        tracer = self

        if timed:
            layers.setdefault(name, [0.0, 0.0])

            def wrapper(*args, **kwargs):
                counts[name] += 1
                parent = stack[-1] if stack else None
                tracer._next_id += 1
                frame = [tracer._next_id, 0.0]
                stack.append(frame)
                start = perf()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    duration = end - start
                    own = duration - frame[1]
                    entry = layers[name]
                    entry[0] += duration
                    entry[1] += own
                    if parent is not None:
                        parent[1] += duration
                    if len(spans) < KEEP_SPANS:
                        spans.append(
                            (frame[0], parent[0] if parent else None, tracer.trace_id, name, start, end, own)
                        )
                    else:
                        tracer.dropped += 1
                if observe is not None:
                    observe(tracer, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, result)
                return result

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                m for key, m in list(sys.modules.items())
                if key == "polyfan" or key.startswith("polyfan.")
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


def _count_faces(tracer, args, lattice):
    tracer.counts["polytopes.faces"] += len(lattice.masks)


def _count_memo_hit(tracer, args, value):
    if value is not None:
        tracer.counts["posets.memo_hits"] += 1


def _count_rref_rows(tracer, args, pivots):
    tracer.counts["linalg.rref_rows"] += len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each polyfan layer.  ``scalars``
    gets no span: wrapping its operators would time the wrapper."""
    from polyfan import cli, fans, hvector, ihsheaf, linalg, polytopes, posets, reports

    w = tracer.wrap
    w(cli, "load_polytope_file", "cli.load")
    w(cli, "dump_json", "cli.dump")
    for fn in ("hvector_report", "bounds_report", "ih_report"):
        w(reports, fn, "reports." + fn)
    w(polytopes, "_build_face_lattice", "polytopes.face_lattice", observe=_count_faces)
    w(fans, "face_fan", "fans.face_fan")
    w(fans.Fan, "quotient_fan", "fans.quotient_fan")
    w(hvector, "h_polynomial", "hvector.h_polynomial")
    w(hvector, "g_polynomial", "hvector.g_polynomial", timed=False)
    w(posets.IsomorphismMemo, "get", "posets.memo_get", timed=False, observe=_count_memo_hit)
    w(posets, "certificate", "posets.certificate")
    w(posets, "are_isomorphic", "posets.are_isomorphic")
    w(linalg, "rank", "linalg.rank", timed=False)
    w(linalg, "_rref_inplace", "linalg.rref", observe=_count_rref_rows)
    w(linalg, "mat_mul", "linalg.mat_mul")
    w(ihsheaf, "build_mes", "ihsheaf.build_mes")
    sheaf = ihsheaf.MinimalExtensionSheaf
    w(sheaf, "global_data", "ihsheaf.global_data")
    w(sheaf, "section_space", "ihsheaf.section_space")
    w(sheaf, "restriction_matrix", "ihsheaf.restriction_matrix")
    w(ihsheaf, "refined_series", "ihsheaf.refined_series")
    w(ihsheaf, "lefschetz_maps", "ihsheaf.lefschetz_maps")
    w(ihsheaf, "minus_lefschetz_table", "ihsheaf.minus_lefschetz_table")
    w(ihsheaf, "ih_poincare", "ihsheaf.ih_poincare", timed=False)
    w(ihsheaf, "_involution_on_basis", "ihsheaf.involution_builds", timed=False)


def layer_metrics(layers: dict, counts: dict, verifications: int) -> dict:
    """Per-layer figures per verification from the summed ``layers``
    (name -> [total_s, self_s]) and ``counts`` of the traced passes: self
    times in s, counts as calls; the *_per_report ratios are per ih report."""
    per = max(verifications, 1)
    c = Counter(counts)
    reports_ih = c["reports.ih_report"]

    def per_report(name):
        return c[name] / reports_ih if reports_ih else 0.0

    def s(*names):
        return sum(layers.get(n, (0.0, 0.0))[1] for n in names)
    return {
        "polytopes.face_lattice_s": s("polytopes.face_lattice") / per,
        "polytopes.faces": c["polytopes.faces"] / per,
        "linalg.rank_calls": c["linalg.rank"] / per,
        "fans.face_fan_s": s("fans.face_fan") / per,
        "fans.quotient_fan_s": s("fans.quotient_fan") / per,
        "fans.quotient_fan_calls": c["fans.quotient_fan"] / per,
        "hvector.h_polynomial_s": s("hvector.h_polynomial") / per,
        "hvector.g_polynomial_calls": c["hvector.g_polynomial"] / per,
        "hvector.memo_hit_ratio": (
            c["posets.memo_hits"] / c["posets.memo_get"] if c["posets.memo_get"] else 0.0
        ),
        "posets.certificate_s": s("posets.certificate") / per,
        "posets.certificate_calls": c["posets.certificate"] / per,
        "posets.are_isomorphic_s": s("posets.are_isomorphic") / per,
        "posets.are_isomorphic_calls": c["posets.are_isomorphic"] / per,
        "ihsheaf.build_mes_s": s("ihsheaf.build_mes") / per,
        "ihsheaf.global_data_s": s("ihsheaf.global_data") / per,
        "ihsheaf.section_space_s": s("ihsheaf.section_space") / per,
        "ihsheaf.restriction_matrix_s": s("ihsheaf.restriction_matrix") / per,
        "ihsheaf.refined_series_s": s("ihsheaf.refined_series") / per,
        "ihsheaf.lefschetz_s": s("ihsheaf.lefschetz_maps", "ihsheaf.minus_lefschetz_table") / per,
        "ihsheaf.refined_series_per_report": per_report("ihsheaf.refined_series"),
        "ihsheaf.ih_poincare_per_report": per_report("ihsheaf.ih_poincare"),
        "ihsheaf.lefschetz_maps_per_report": per_report("ihsheaf.lefschetz_maps"),
        "ihsheaf.involution_builds_per_report": per_report("ihsheaf.involution_builds"),
        "linalg.rref_s": s("linalg.rref") / per,
        "linalg.rref_calls": c["linalg.rref"] / per,
        "linalg.rref_rows": c["linalg.rref_rows"] / per,
        "linalg.mat_mul_s": s("linalg.mat_mul") / per,
        "linalg.mat_mul_calls": c["linalg.mat_mul"] / per,
        "cli.load_s": s("cli.load") / per,
        "cli.dump_s": s("cli.dump") / per,
        "reports.self_s": s("reports.hvector_report", "reports.bounds_report", "reports.ih_report") / per,
    }
