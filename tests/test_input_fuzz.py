"""Fuzzing of the input boundary: polytope files as the CLI reads them.

Documents are drawn from valid pieces mixed with malformed ones: wrong
types and values for ``dim`` and ``field``, ragged or empty vertex
lists, unparsable scalars, pairs in a rational file and plain strings in
a quadratic one, duplicate points, and points that are not vertices
(midpoints of two listed points).  Parsing either succeeds or raises
:class:`~polyfan.cli.InputError`; an in-process run of ``check-bounds``
or ``hvector`` exits 0, 1 or 2 and never lets an exception out.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from polyfan.cli import InputError, main, polytope_from_json

BAD_SCALARS = st.sampled_from([1, 1.5, None, "1.5", "1/0", "x", " 1", "1e3", [], ["1"], ["1", 2], True])
BAD_DIMS = st.sampled_from([0, -1, "2", True, 2.5, None, [2]])
FIELDS = st.sampled_from(["rational", {"quadratic": 2}, {"quadratic": 3}])
BAD_FIELDS = st.sampled_from(
    [
        "real",
        None,
        {"quadratic": 4},
        {"quadratic": "2"},
        {"quadratic": True},
        {"quadratic": -3},
        {"quadratic": 2, "extra": 1},
        {"rational": 1},
    ]
)


def _write(x: Fraction) -> str:
    return str(x)


def _negated(row: list) -> list:
    """A point with each rational and each pair part negated."""
    return [[_write(-Fraction(a)) for a in x] if isinstance(x, list) else _write(-Fraction(x)) for x in row]


@st.composite
def points(draw, dim: int, quadratic: bool, symmetric: bool):
    """Small points as serialized scalars: rationals, and pairs when the
    field is quadratic (or, sometimes, when it is not), each followed by
    its negative when ``symmetric``; sometimes a duplicate of a point or
    the midpoint of two points is added."""
    part = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    out = []
    for _ in range(draw(st.integers(dim, dim + 2))):
        row = []
        for _ in range(dim):
            if draw(st.booleans()) and (quadratic or draw(st.integers(0, 9)) == 0):
                row.append([_write(draw(part)), _write(draw(part))])
            else:
                row.append(_write(draw(part)))
        out.append(row)
        if symmetric:
            out.append(_negated(row))
    extras = draw(st.lists(st.sampled_from(("duplicate", "midpoint")), max_size=2))
    for kind in extras if draw(st.integers(0, 2)) == 0 else ():
        a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
        if kind == "duplicate":
            out.insert(draw(st.integers(0, len(out))), list(a))
        elif all(isinstance(x, str) for x in a + b):
            out.append([_write((Fraction(x) + Fraction(y)) / 2) for x, y in zip(a, b)])
    return out


@st.composite
def documents(draw):
    """A polytope document, valid or broken in one or more places."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], "cube", 3, None, {"dim": 2}, {"vertices": []}]))
    dim = draw(st.integers(1, 3))
    field = draw(FIELDS)
    vertices = draw(points(dim, field != "rational", draw(st.booleans())))
    doc = {"dim": dim, "field": field, "vertices": vertices}
    broken = draw(st.sets(st.sampled_from(("dim", "field", "scalar", "ragged", "empty", "name")), max_size=2))
    if draw(st.integers(0, 2)):
        broken = set()  # most documents are well formed
    if "dim" in broken:
        doc["dim"] = draw(BAD_DIMS)
    if "field" in broken:
        doc["field"] = draw(BAD_FIELDS)
    if "scalar" in broken:
        i = draw(st.integers(0, len(vertices) - 1))
        vertices[i] = list(vertices[i])
        vertices[i][draw(st.integers(0, dim - 1))] = draw(BAD_SCALARS)
    if "ragged" in broken:
        vertices[draw(st.integers(0, len(vertices) - 1))].append("0")
    if "empty" in broken:
        doc["vertices"] = draw(st.sampled_from([[], {}, "[]", [[]]]))
    if "name" in broken:
        doc["name"] = draw(st.sampled_from([3, None, ["x"], "fuzz"]))
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_parsing_succeeds_or_raises_input_error(doc):
    try:
        polytope_from_json(doc)
    except InputError:
        pass


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents(), st.sampled_from(["check-bounds", "hvector"]), st.booleans())
def test_cli_exits_zero_one_or_two(tmp_path_factory, doc, command, as_json):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *(["--json"] if as_json else [])])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert out.getvalue() and not err.getvalue()
