"""Batch command-line front end.

Commands: ``generate`` writes polytope files, ``hvector`` /
``check-bounds`` / ``ih`` analyze one file, ``report-all`` a directory.
Exit code 0 means every check passed, 1 names a failed check, 2 flags
invalid input.  Output depends only on file contents and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from math import comb
from pathlib import Path

from . import reports
from .analysis import Analysis
from .ihsheaf import DegreeCapError
from .polytopes import (
    NotAVertexError,
    Polytope,
    PolytopeError,
    cross_polytope,
    cube,
    free_sum,
    product,
    random_cs,
    simplex,
)
from .fans import FanError
from .scalars import Field, ScalarParseError, brief


class InputError(Exception):
    """Invalid file or parameters; maps to exit code 2."""


GENERATORS = {"simplex": simplex, "cube": cube, "cross": cross_polytope}
# Vertex count of each generator in dimension n >= 1.
VERTEX_COUNTS = {"simplex": lambda n: n + 1, "cube": lambda n: 1 << n, "cross": lambda n: 2 * n}
# The most coordinates (vertices times dimension) `generate` writes.
MAX_GENERATED_COORDINATES = 100_000
# The most facets `generate random-cs` may have to enumerate, by the
# upper bound theorem: 6 dimensions with 40 pairs (76,000) pass.
MAX_GENERATED_FACETS = 100_000


def polytope_to_json(p: Polytope, field: Field, name: str | None) -> dict:
    doc = {
        "dim": p.ambient_dim,
        "field": reports.field_json(field),
        "vertices": [[field.format(x) for x in v] for v in p.vertices],
    }
    if name is not None:
        doc["name"] = name
    return doc


def polytope_from_json(doc) -> tuple:
    """Parse a polytope file (dict) into (Polytope, Field, name).

    Errors carry the position (vertex and coordinate index) of the first
    offending entry.
    """
    if not isinstance(doc, dict):
        raise InputError("polytope file must be a JSON object")
    for key in ("dim", "field", "vertices"):
        if key not in doc:
            raise InputError(f"missing required key {key!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {brief(dim)}")
    raw_field = doc["field"]
    if raw_field == "rational":
        field = Field.rational()
    elif isinstance(raw_field, dict) and set(raw_field) == {"quadratic"}:
        try:
            field = Field.quadratic(raw_field["quadratic"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid field: {exc}") from None
    else:
        raise InputError(f"invalid field specification {brief(raw_field)}")
    raw_vertices = doc["vertices"]
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError("vertices must be a non-empty array")
    vertices = []
    for i, row in enumerate(raw_vertices):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"vertex #{i}: expected {brief(dim)} coordinates")
        coords = []
        for j, item in enumerate(row):
            try:
                coords.append(field.parse(item))
            except ScalarParseError as exc:
                raise InputError(f"vertex #{i}, coordinate #{j}: {exc}") from None
        vertices.append(tuple(coords))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("name must be a string")
    try:
        return Polytope(vertices), field, name
    except PolytopeError as exc:
        raise InputError(str(exc)) from None


def load_polytope_file(path: str) -> tuple:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None
    try:
        return polytope_from_json(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def analyze(path: str, p: Polytope, field: Field, degree_cap=None) -> Analysis:
    """The analysis of a loaded file.  Building it builds the face
    lattice, so its errors name the file and show a point as written."""
    try:
        return Analysis(p, degree_cap)
    except NotAVertexError as exc:
        point = json.dumps([field.format(x) for x in p.vertices[exc.index]])
        raise InputError(
            f"{path}: listed point #{exc.index} {point} is not a vertex"
        ) from None
    except PolytopeError as exc:
        raise InputError(f"{path}: {exc}") from None


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _parse_factor(spec: str) -> tuple:
    """The (kind, dimension) of a kind:n factor."""
    kind, _, num = spec.partition(":")
    try:
        if kind in GENERATORS:
            return kind, int(num)
    except ValueError:
        pass
    raise InputError(
        f"invalid factor {spec!r}; expected kind:n with kind in "
        f"{sorted(GENERATORS)}"
    )


def _vertex_count(kind: str, n: int) -> int:
    """The vertex count of a generator's polytope in dimension n; a
    dimension beyond the coordinate limit is refused before 2^n is
    formed."""
    if n > MAX_GENERATED_COORDINATES:
        raise InputError(f"dimension {n} is above the limit of {MAX_GENERATED_COORDINATES} coordinates")
    return VERTEX_COUNTS[kind](n) if n >= 1 else 0


def _check_size(vertices: int, dim: int) -> None:
    """Refuse output of up to ``vertices`` vertices in dimension ``dim``
    when it has more coordinates than the limit."""
    size = vertices * dim
    if size > MAX_GENERATED_COORDINATES:
        raise InputError(
            f"output of up to {vertices} vertices in dimension {dim} has {size} "
            f"coordinates, above the limit of {MAX_GENERATED_COORDINATES}"
        )


def _check_facets(points: int, dim: int) -> None:
    """Refuse a hull of ``points`` points in dimension ``dim`` whose facet
    count may be above the limit: by the upper bound theorem (McMullen
    1970) the cyclic polytope has the most facets, v/(v-m) C(v-m, m) for
    dim = 2m and 2 C(v-m-1, m) for dim = 2m + 1."""
    m = dim // 2
    bound = 2 * comb(points - m - 1, m) if dim % 2 else points * comb(points - m, m) // (points - m)
    if bound > MAX_GENERATED_FACETS:
        raise InputError(
            f"the hull of {points} points in dimension {dim} may have up to {bound} "
            f"facets, above the limit of {MAX_GENERATED_FACETS}"
        )


def cmd_generate(args) -> int:
    kind = args.kind
    try:
        if kind in GENERATORS:
            if len(args.params) != 1:
                raise InputError(f"{kind} takes exactly one dimension argument")
            n = int(args.params[0])
            _check_size(_vertex_count(kind, n), n)
            p = GENERATORS[kind](n)
            name = f"{kind}-{n}"
        elif kind == "random-cs":
            if len(args.params) != 1:
                raise InputError("random-cs takes exactly one dimension argument")
            n = int(args.params[0])
            pairs = args.pairs if args.pairs is not None else n + 2
            _check_size(2 * max(pairs, 0), n)
            if 1 <= n <= pairs:
                _check_facets(2 * pairs, n)
            p = random_cs(n, pairs, args.seed)
            name = f"random-cs-{n}d-p{pairs}-s{args.seed}"
        elif kind in ("product", "free-sum"):
            if len(args.params) != 2:
                raise InputError(f"{kind} takes exactly two kind:n factors")
            (ka, na), (kb, nb) = (_parse_factor(s) for s in args.params)
            va, vb = _vertex_count(ka, na), _vertex_count(kb, nb)
            _check_size(va * vb if kind == "product" else va + vb, na + nb)
            a, b = GENERATORS[ka](na), GENERATORS[kb](nb)
            p = product(a, b) if kind == "product" else free_sum(a, b)
            name = f"{kind}-{args.params[0]}-{args.params[1]}"
        else:
            raise InputError(f"unknown kind {kind!r}")
        field = Field.rational() if args.field_d is None else Field.quadratic(args.field_d)
    except (ValueError, PolytopeError) as exc:
        raise InputError(str(exc)) from None
    text = dump_json(polytope_to_json(p, field, name))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _emit(report: dict, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(dump_json(report))
    else:
        print(reports.render_table(report))
    if reports.report_passes(report):
        return 0
    if not as_json:
        print(f"FAILED checks: {', '.join(reports.failing_checks(report))}")
    return 1


def cmd_hvector(args) -> int:
    p, field, name = load_polytope_file(args.file)
    analysis = analyze(args.file, p, field)
    return _emit(reports.hvector_report(analysis, field, name), args.json)


def cmd_check_bounds(args) -> int:
    p, field, name = load_polytope_file(args.file)
    if not p.is_centrally_symmetric():
        raise InputError(f"{args.file}: polytope is not centrally symmetric")
    analysis = analyze(args.file, p, field)
    return _emit(reports.bounds_report(analysis, field, name), args.json)


def cmd_ih(args) -> int:
    p, field, name = load_polytope_file(args.file)
    if p.ambient_dim > args.max_dim:
        raise InputError(
            f"{args.file}: dimension {p.ambient_dim} exceeds --max-dim "
            f"{args.max_dim}"
        )
    analysis = analyze(args.file, p, field, args.degree_cap)
    report = reports.ih_report(analysis, field, name)
    return _emit(report, args.json)


def cmd_report_all(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise InputError(f"{args.directory}: not a directory")
    files = sorted(directory.glob("*.json"))
    if not files:
        raise InputError(f"{args.directory}: no .json polytope files")
    all_reports = []
    worst = 0
    for path in files:
        p, field, name = load_polytope_file(str(path))
        if name is None:
            name = path.stem
        analysis = analyze(str(path), p, field, args.degree_cap)
        if p.is_centrally_symmetric():
            report = reports.bounds_report(analysis, field, name)
        else:
            report = reports.hvector_report(analysis, field, name)
        if p.ambient_dim <= args.max_dim:
            reports.add_ih(report, analysis)
        all_reports.append(report)
        if not reports.report_passes(report):
            worst = 1
    if args.json:
        sys.stdout.write(dump_json({"reports": all_reports}))
    else:
        for report in all_reports:
            print(reports.render_table(report))
            print()
        total = len(all_reports)
        failed = sum(0 if reports.report_passes(r) else 1 for r in all_reports)
        print(f"{total - failed}/{total} reports pass")
    return worst


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="polyfan",
        description=(
            "Exact h-vectors, centrally-symmetric lower bounds, and "
            "combinatorial intersection cohomology of polytopes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a polytope file")
    gen.add_argument("kind", help="simplex|cube|cross|random-cs|product|free-sum")
    gen.add_argument("params", nargs="*", help="dimension, or kind:n factors")
    gen.add_argument("--pairs", type=int, default=None, help="point pairs for random-cs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--field-d", type=int, default=None, help="embed in Q(sqrt(d))")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=cmd_generate)

    for cmd_name, func, needs_cap in (
        ("hvector", cmd_hvector, False),
        ("check-bounds", cmd_check_bounds, False),
        ("ih", cmd_ih, True),
    ):
        cmd = sub.add_parser(cmd_name, help=f"run {cmd_name} on a polytope file")
        cmd.add_argument("file")
        cmd.add_argument("--json", action="store_true", help="machine-readable output")
        if needs_cap:
            cmd.add_argument("--degree-cap", type=int, default=None)
            cmd.add_argument("--max-dim", type=int, default=3)
        cmd.set_defaults(func=func)

    rall = sub.add_parser("report-all", help="analyze every .json file in a directory")
    rall.add_argument("directory")
    rall.add_argument("--json", action="store_true")
    rall.add_argument("--degree-cap", type=int, default=None)
    rall.add_argument("--max-dim", type=int, default=3)
    rall.set_defaults(func=cmd_report_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PolytopeError, FanError, ScalarParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegreeCapError as exc:
        print(f"error: --degree-cap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
