"""Correctness oracle for one verification.

It shares no code with the path under test: the report is validated
against the shipped JSON schema, and every number is recomputed from
the report's own h-vector, the vertex count, or closed formulas known
for the input family.  Reports of one group (a polytope and its linear
images, or low-dimensional polytopes with one vertex count) must agree
on h, Betti numbers and Lefschetz ranks.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

import jsonschema

SCHEMA_PATH = Path("src") / "polyfan" / "report.schema.json"


class Mismatch(Exception):
    """The first disagreement found, as expected against actual."""

    def __init__(self, what: str, expected, actual):
        super().__init__(f"{what}: expected {expected!r}, got {actual!r}")


def load_validator(root: Path):
    schema = json.loads((root / SCHEMA_PATH).read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _trim(seq) -> list:
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    return out


def _at(seq, i: int) -> int:
    return seq[i] if 0 <= i < len(seq) else 0


def _expect(what: str, expected, actual) -> None:
    if expected != actual:
        raise Mismatch(what, expected, actual)


def _unimodal(seq) -> bool:
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i + 1 >= len(seq)


class Oracle:
    """Checks reports in order; remembers the first report of each group."""

    def __init__(self, validator):
        self.validator = validator
        self.groups: dict = {}

    def check(self, item, exit_code, stdout: str) -> None:
        """Raise :class:`Mismatch` on the first disagreement."""
        _expect("exit code", 0, exit_code)
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            raise Mismatch("stdout", "one JSON report", stdout[:200]) from None
        error = jsonschema.exceptions.best_match(self.validator.iter_errors(report))
        if error is not None:
            raise Mismatch("schema", "a valid report", error.message)
        n, v = item.dim, len(item.vertices)
        _expect("name", item.name, report["name"])
        _expect("dim", n, report["dim"])
        _expect("field", "rational" if item.d is None else {"quadratic": item.d}, report["field"])
        _expect("vertex_count", v, report["vertex_count"])
        _expect("translation", None, report["translation"])
        _expect("ray_count", v, report["ray_count"])
        _expect("checks all pass", [], sorted(k for k, ok in report["checks"].items() if not ok))
        h = report["h"]
        _expect("len(h)", n + 1, len(h))
        _expect("h palindromic", list(reversed(h)), h)
        _expect("h[0]", 1, h[0])
        _expect("h[n-1] = vertices - n", v - n, h[n - 1])
        if item.known_h is not None:
            _expect("h", list(item.known_h), h)
        binom = [comb(n, k) for k in range(n + 1)]
        difference = [a - b for a, b in zip(h, binom)]
        _expect("h_difference", difference, report["h_difference"])
        if item.command == "check-bounds":
            self._check_bounds(report["bounds"], n, v, h, difference)
        else:
            self._check_ih(report["ih"], n, h, binom)
        self._check_group(item.group, report)

    @staticmethod
    def _check_bounds(bounds, n, v, h, difference) -> None:
        _expect("bounds.dim", n, bounds["dim"])
        _expect("bounds.h", h, bounds["h"])
        _expect("bounds.difference", _trim(difference), bounds["difference"])
        _expect("difference >= 0 and even", True, all(c >= 0 and c % 2 == 0 for c in difference))
        _expect("bounds.is_minimum", not any(difference), bounds["is_minimum"])
        # A centrally symmetric n-polytope with 2n vertices is a cross-polytope image.
        _expect("bounds.is_cross_polytope", v == 2 * n, bounds["is_cross_polytope"])
        _expect("bounds.palindromic", True, bounds["palindromic"])
        _expect("bounds.unimodal", _unimodal(h), bounds["unimodal"])
        _expect("bounds.difference_unimodal", _unimodal(difference), bounds["difference_unimodal"])

    @staticmethod
    def _check_ih(ih, n, h, binom) -> None:
        cap = ih["degree_cap"]
        betti = [h[q // 2] if q % 2 == 0 and q // 2 <= n else 0 for q in range(cap + 1)]
        _expect("betti = h(t^2)", _trim(betti), ih["betti"])
        # Sections are free: v(t) = u(t) / (1 - t^2)^n up to the cap.
        sections = [
            sum(_at(betti, q - 2 * k) * comb(n - 1 + k, k) for k in range(q // 2 + 1))
            for q in range(cap + 1)
        ]
        _expect("section_dims", _trim(sections), ih["section_dims"])
        rows = [
            {"degree": q, "source": betti[q], "target": _at(betti, q + 2), "rank": min(betti[q], _at(betti, q + 2))}
            for q in range(0, cap, 2)
        ]
        _expect("lefschetz (hard Lefschetz ranks)", rows, ih["lefschetz"])
        # Every input is centrally symmetric, so the reflection is reported.
        minus = [
            (betti[q] - binom[q // 2]) // 2 if q % 2 == 0 and q // 2 <= n else 0
            for q in range(cap + 1)
        ]
        plus = [b - m for b, m in zip(betti, minus)]
        _expect("eigen_minus", _trim(minus), ih["eigen_minus"])
        _expect("eigen_plus", _trim(plus), ih["eigen_plus"])
        # Away from degree 0 the reflection splits the sections in halves.
        sec_minus = [0] + [s // 2 for s in sections[1:]]
        sec_plus = [s - m for s, m in zip(sections, sec_minus)]
        _expect("section_eigen_minus", _trim(sec_minus), ih["section_eigen_minus"])
        _expect("section_eigen_plus", _trim(sec_plus), ih["section_eigen_plus"])

    def _check_group(self, group: str, report: dict) -> None:
        facts = {"h": report["h"]}
        if "ih" in report:
            facts["betti"] = report["ih"]["betti"]
            facts["lefschetz"] = [row["rank"] for row in report["ih"]["lefschetz"]]
        seen = self.groups.setdefault(group, {})
        for key, value in facts.items():
            if key in seen:
                _expect(f"{key} of group {group}", seen[key], value)
            else:
                seen[key] = value


def tally(check: Oracle, items, runs) -> tuple:
    """Failed verifications among ``runs`` of (item index, exit code,
    seconds, stdout, stderr), and a description of the first one."""
    failed = 0
    first = None
    for k, code, _, stdout, stderr in runs:
        try:
            check.check(items[k], code, stdout)
        except (Mismatch, KeyError, TypeError, IndexError) as exc:
            failed += 1
            if first is None:
                first = f"{items[k].name} ({items[k].command}): {type(exc).__name__}: {exc} {stderr.strip()[:300]}"
    return failed, first
