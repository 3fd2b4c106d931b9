"""Byte-for-byte regression of the CLI's JSON reports.

Each ``tests/golden/<case>.json`` is the exact ``--json`` output of one
case below, and ``exit_codes.json`` holds each case's exit code.  A
change to the analysis code must reproduce them exactly; a change that
is meant to alter a report regenerates them with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and says so in CHANGES.md.  Stems after ``--regenerate`` limit it to
those cases, for a change that only adds cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from polyfan.cli import main, polytope_to_json
from polyfan.corpus import cs_corpus, sheaf_corpus
from polyfan.polytopes import Polytope, cross_polytope, cube, linear_image, random_cs, simplex
from polyfan.scalars import Field, Quadratic

from oracles import translated, unitriangular_image

GOLDEN = Path(__file__).parent / "golden"

IH_NAMES = ("cube-2", "cube-3", "cross-2", "cross-3", "prism-over-diamond")
BOUNDS_NAMES = (
    "cross-3",
    "cube-3",
    "bipyramid-over-square",
    "free-sum-cube2-cube2",
    "product-cross3-interval",
    "random-cs-3d-seed4",
    "nonrational-bipyramid",
)


def _sqrt2_hexagon():
    """A hexagon from the corpus sheared by [[1, sqrt 2], [0, 1]]."""
    hexagon = dict(cs_corpus())["random-cs-2d-seed6"]
    r2 = Quadratic(0, 1, 2)
    shear = ((Fraction(1), r2), (Fraction(0), Fraction(1)))
    return linear_image(hexagon, shear)


def _sqrt3_diamond():
    """conv{(3+sqrt 3, 0), (5+sqrt 3, 0), (4+sqrt 3, +-1)}: the origin is
    outside, and the translate by minus the centroid is rational."""
    x = Quadratic(4, 1, 3)
    vertices = [(x - 1, Fraction(0)), (x + 1, Fraction(0)), (x, Fraction(1)), (x, Fraction(-1))]
    return Polytope(vertices)


def _cases():
    """(golden file stem, argv after the file or directory, polytopes)."""
    rational, q2, q3 = Field.rational(), Field.quadratic(2), Field.quadratic(3)
    sheaf = dict(sheaf_corpus())
    corpus = dict(cs_corpus())
    out = [(f"ih-{n}", ["ih"], [(n, sheaf[n], rational)]) for n in IH_NAMES]
    out.append(("ih-sqrt2-hexagon", ["ih"], [("sqrt2-hexagon", _sqrt2_hexagon(), q2)]))
    cross3 = ("sqrt2-cross-3", unitriangular_image(cross_polytope(3), 2), q2)
    out.append(("ih-sqrt2-cross-3", ["ih"], [cross3]))
    cube3 = ("sqrt2-cube-3", unitriangular_image(cube(3), 2), q2)
    out.append(("ih-sqrt2-cube-3", ["ih"], [cube3]))
    prism = ("sqrt3-prism-over-diamond", unitriangular_image(sheaf["prism-over-diamond"], 3), q3)
    out.append(("ih-sqrt3-prism-over-diamond", ["ih"], [prism]))
    out.append(("ih-simplex-2", ["ih"], [("simplex-2", simplex(2), rational)]))
    cap10 = ["ih", "--degree-cap", "10"]
    out.append(("ih-cube-2-cap10", cap10, [("cube-2", sheaf["cube-2"], rational)]))
    out.append(("ih-sqrt3-diamond-shifted", ["ih"], [("sqrt3-diamond-shifted", _sqrt3_diamond(), q3)]))
    for n in BOUNDS_NAMES:
        field = q2 if n == "nonrational-bipyramid" else rational
        out.append((f"check-bounds-{n}", ["check-bounds"], [(n, corpus[n], field)]))
    cube4 = ("sqrt3-cube-4", unitriangular_image(cube(4), 3), q3)
    out.append(("check-bounds-sqrt3-cube-4", ["check-bounds"], [cube4]))
    moved = translated(cube(2), (Fraction(10), Fraction(0)))
    out.append(("check-bounds-cube-2-shifted", ["check-bounds"], [("cube-2-shifted", moved, rational)]))
    out.append(("check-bounds-cube-8", ["check-bounds"], [("cube-8", cube(8), rational)]))
    out.append(("check-bounds-cross-8", ["check-bounds"], [("cross-8", cross_polytope(8), rational)]))
    cs5 = ("random-cs-5d-seed1", random_cs(5, 12, 1), rational)
    out.append(("check-bounds-random-cs-5d-seed1", ["check-bounds"], [cs5]))
    out.append(("hvector-simplex-3", ["hvector"], [("simplex-3", simplex(3), rational)]))
    out.append(("hvector-cube-6", ["hvector"], [("cube-6", cube(6), rational)]))
    out.append(
        (
            "report-all-small",
            ["report-all"],
            [
                ("cube-2", sheaf["cube-2"], rational),
                ("cross-2", sheaf["cross-2"], rational),
                ("simplex-2", simplex(2), rational),
            ],
        )
    )
    return out


def _run_case(argv, members, workdir: Path):
    for name, p, field in members:
        text = json.dumps(polytope_to_json(p, field, name))
        (workdir / f"{name}.json").write_text(text, encoding="utf-8")
    command = argv[0]
    target = workdir if command == "report-all" else workdir / f"{members[0][0]}.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, str(target), "--json", *argv[1:]])
    return code, buf.getvalue()


CASES = _cases()


@pytest.mark.parametrize("stem,argv,members", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(stem, argv, members, tmp_path):
    code, out = _run_case(argv, members, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[stem]
    assert out == (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")


def _regenerate(stems) -> None:
    """Rewrite the golden files of the named cases, or of every case."""
    GOLDEN.mkdir(exist_ok=True)
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text(encoding="utf-8")) if stems else {}
    unknown = set(stems) - {stem for stem, _, _ in CASES}
    if unknown:
        sys.exit(f"unknown cases: {', '.join(sorted(unknown))}")
    for stem, argv, members in CASES:
        if stems and stem not in stems:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            codes[stem], out = _run_case(argv, members, Path(tmp))
        (GOLDEN / f"{stem}.json").write_text(out, encoding="utf-8")
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    codes_path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden.py --regenerate [case ...]")
    _regenerate(sys.argv[2:])
