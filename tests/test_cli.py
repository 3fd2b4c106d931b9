import argparse
import json
import re
import time
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from polyfan.cli import (
    MAX_GENERATED_COORDINATES,
    MAX_GENERATED_FACETS,
    InputError,
    _check_facets,
    build_parser,
    main,
    polytope_from_json,
    polytope_to_json,
)
from polyfan.fans import face_fan
from polyfan.polytopes import cross_polytope, cube
from polyfan.scalars import Field

from oracles import translated


def load_report_schema() -> dict:
    with resources.files("polyfan").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_polytope(tmp_path, name, p, field=None):
    field = field or Field.rational()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(polytope_to_json(p, field, name)))
    return str(path)


class TestGenerate:
    def test_cross3(self, capsys):
        code, out, _ = run(capsys, "generate", "cross", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert len(doc["vertices"]) == 6

    def test_deterministic_random_cs(self, capsys):
        code1, out1, _ = run(capsys, "generate", "random-cs", "3", "--pairs", "5", "--seed", "7")
        code2, out2, _ = run(capsys, "generate", "random-cs", "3", "--pairs", "5", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv", [("0",), ("-1",), ("0", "--pairs", "0")])
    def test_random_cs_needs_a_positive_dimension(self, capsys, argv):
        code, out, err = run(capsys, "generate", "random-cs", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: dimension must be >= 1")
        assert len(err.strip().splitlines()) == 1

    def test_product_factors(self, capsys):
        code, out, _ = run(capsys, "generate", "product", "cube:2", "cross:1")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert len(doc["vertices"]) == 8

    def test_quadratic_field_embedding(self, capsys):
        code, out, _ = run(capsys, "generate", "cube", "2", "--field-d", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["field"] == {"quadratic": 2}
        assert doc["vertices"][0][0] in (["1", "0"], ["-1", "0"])

    def test_quadratic_embedding_loads_as_the_rational_polytope(self, capsys, tmp_path):
        # The file written over Q(sqrt 2) holds rational points: they load
        # as Fractions, the face fan is over Q, and the reports equal
        # those of the rational cube in every key but the field.
        path = tmp_path / "cube.json"
        assert run(capsys, "generate", "cube", "3", "--field-d", "2", "-o", str(path)) == (0, "", "")
        p, field, _ = polytope_from_json(json.loads(path.read_text()))
        assert field == Field.quadratic(2)
        assert all(type(x) is Fraction for v in p.vertices for x in v)
        assert face_fan(p).radicand is None
        rational = write_polytope(tmp_path, "cube-3", cube(3))
        for command in ("ih", "check-bounds"):
            code, out, _ = run(capsys, command, str(path), "--json")
            expected_code, expected, _ = run(capsys, command, rational, "--json")
            report, expected = json.loads(out), json.loads(expected)
            assert (code, report.pop("field")) == (expected_code, {"quadratic": 2})
            assert expected.pop("field") == "rational"
            assert report == expected, command

    @pytest.mark.parametrize(
        "argv, size",
        [
            (("cube", "40"), 40 << 40),
            (("random-cs", "3", "--pairs", "100000000"), 600_000_000),
            (("product", "cube:40", "cross:2"), (4 << 40) * 42),
            (("free-sum", "cross:100001", "cube:1"), None),
        ],
    )
    def test_oversized_output_exits_two_fast(self, capsys, argv, size):
        """The output size, vertices times dimension, is checked before
        any vertex is built."""
        start = time.perf_counter()
        code, out, err = run(capsys, "generate", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"limit of {MAX_GENERATED_COORDINATES}" in err
        if size is not None:
            assert f" {size} coordinates" in err
        assert len(err.strip().splitlines()) == 1

    def test_random_cs_beyond_the_facet_bound_exits_two_fast(self, capsys):
        """A random-cs hull whose upper-bound-theorem facet count is above
        the limit is refused before any point is drawn."""
        start = time.perf_counter()
        code, out, err = run(capsys, "generate", "random-cs", "8", "--pairs", "40")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            "error: the hull of 80 points in dimension 8 may have up to 1350500 "
            f"facets, above the limit of {MAX_GENERATED_FACETS}\n"
        )

    @pytest.mark.parametrize("dim, bound", [(6, 76_000), (7, 140_600), (8, 1_350_500)])
    def test_facet_bound_is_the_cyclic_polytope(self, dim, bound):
        """80 points: the cyclic polytope's facet counts, refused exactly
        when above the limit."""
        if bound <= MAX_GENERATED_FACETS:
            _check_facets(80, dim)
        else:
            with pytest.raises(InputError, match=f"up to {bound} facets"):
                _check_facets(80, dim)

    def test_bad_kind(self, capsys):
        code, _, err = run(capsys, "generate", "dodecahedron", "3")
        assert code == 2
        assert "kind" in err

    @pytest.mark.parametrize(
        "d, message",
        [("4", "square-free"), (str(10**12 + 39), "cap |d| <= 10^12"), (str(-(10**13)), "cap |d| <= 10^12")],
    )
    def test_bad_radicand_exits_two(self, capsys, d, message):
        code, out, err = run(capsys, "generate", "cube", "2", "--field-d", d)
        assert code == 2
        assert out == ""
        assert err.startswith("error: radicand")
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_non_integer_radicand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "cube", "2", "--field-d", "2.5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--field-d: invalid int value: '2.5'" in err


class TestParsing:
    def test_roundtrip(self):
        field = Field.rational()
        doc = polytope_to_json(cross_polytope(2), field, "x")
        p, f2, name = polytope_from_json(doc)
        assert name == "x"
        assert set(p.vertices) == set(cross_polytope(2).vertices)

    def test_positioned_error(self):
        doc = {
            "dim": 2,
            "field": "rational",
            "vertices": [["1", "0"], ["0", "oops"]],
        }
        with pytest.raises(Exception, match=r"vertex #1, coordinate #1"):
            polytope_from_json(doc)

    def test_wrong_width(self):
        doc = {"dim": 2, "field": "rational", "vertices": [["1"]]}
        with pytest.raises(Exception, match="vertex #0"):
            polytope_from_json(doc)

    def test_missing_key(self):
        with pytest.raises(Exception, match="missing"):
            polytope_from_json({"dim": 2, "vertices": []})

    def test_boolean_dim_rejected(self):
        doc = {"dim": True, "field": "rational", "vertices": [["1"], ["-1"]]}
        with pytest.raises(Exception, match="dim must be a positive integer"):
            polytope_from_json(doc)


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestInputGrammar:
    def test_boolean_dim_exits_two(self, capsys, tmp_path):
        path = _write_doc(
            tmp_path, {"dim": True, "field": "rational", "vertices": [["1"], ["-1"]]}
        )
        code, out, err = run(capsys, "hvector", path)
        assert code == 2
        assert out == ""
        assert "dim must be a positive integer" in err

    @pytest.mark.parametrize("bad", ["1e3", "1.5", " 1 ", "1_000", "+1", "0x10"])
    def test_scalar_outside_grammar_exits_two(self, capsys, tmp_path, bad):
        doc = {"dim": 2, "field": "rational", "vertices": [["1", "0"], ["-1", bad]]}
        code, out, err = run(capsys, "hvector", _write_doc(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert "vertex #1, coordinate #1" in err
        assert len(err.strip().splitlines()) == 1

    def test_quadratic_pair_outside_grammar_exits_two(self, capsys, tmp_path):
        doc = {
            "dim": 1,
            "field": {"quadratic": 2},
            "vertices": [[["1", "0"]], [["-1", "1.0"]]],
        }
        code, _, err = run(capsys, "hvector", _write_doc(tmp_path, doc))
        assert code == 2
        assert "vertex #1, coordinate #0" in err


    @pytest.mark.parametrize(
        "d, message",
        [
            (2.5, "radicand must be an integer, got 2.5"),
            (2.0, "radicand must be an integer, got 2.0"),
            (True, "radicand must be an integer, got True"),
            (10**12 + 39, "radicand 1000000000039 is outside the cap |d| <= 10^12"),
            (-(10**12) - 39, "radicand -1000000000039 is outside the cap |d| <= 10^12"),
        ],
    )
    def test_radicand_outside_the_grammar_exits_two(self, capsys, tmp_path, d, message):
        doc = {"dim": 1, "field": {"quadratic": d}, "vertices": [["1"], ["-1"]]}
        path = _write_doc(tmp_path, doc)
        code, out, err = run(capsys, "hvector", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: invalid field: {message}\n"

    @pytest.mark.parametrize("where", ["dim", "field", "coordinate"])
    def test_large_value_gives_one_short_error_line(self, capsys, tmp_path, monkeypatch, where):
        big = [0] * 5000
        doc = {"dim": 1, "field": "rational", "vertices": [["1"], ["-1"]]}
        if where == "coordinate":
            doc["vertices"][1][0] = big
        else:
            doc[where] = big
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "hvector", "doc.json")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert len(lines[0]) < 200

    def test_quadratic_file_with_zero_irrational_parts_is_computed_over_q(self, capsys, tmp_path):
        """A Q(sqrt 3) file whose irrational parts are all "0" reports the
        field it names and is computed over Q: its report is that of the
        rational file but for the field."""
        rational = [[str(x) for x in v] for v in cube(3).vertices]
        doc = {"dim": 3, "field": {"quadratic": 3}, "vertices": [[[x, "0"] for x in v] for v in rational]}
        p, field, _ = polytope_from_json(doc)
        assert field == Field.quadratic(3) and p._integral[2] is None
        code, out, err = run(capsys, "check-bounds", _write_doc(tmp_path, doc), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["field"] == {"quadratic": 3}
        plain = {"dim": 3, "field": "rational", "vertices": rational}
        _, out, _ = run(capsys, "check-bounds", _write_doc(tmp_path, plain), "--json")
        assert {**json.loads(out), "field": {"quadratic": 3}} == report

    @pytest.mark.parametrize("command", ["hvector", "check-bounds", "ih"])
    @pytest.mark.parametrize("where", ["numerator", "denominator", "pair part"])
    def test_scalar_with_too_many_digits_exits_two(self, capsys, tmp_path, command, where):
        # 5,000 digits: above the interpreter's limit on converting a
        # string to an int, which must not surface as a traceback.
        digits = "1" * 5000
        if where == "pair part":
            doc = {"dim": 1, "field": {"quadratic": 2}, "vertices": [[["1", "0"]], [["-1", digits]]]}
        else:
            scalar = digits if where == "numerator" else "1/" + digits
            doc = {"dim": 1, "field": "rational", "vertices": [["1"], [scalar]]}
        code, out, err = run(capsys, command, _write_doc(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "vertex #1, coordinate #0: invalid rational" in err
        assert "too many digits" in err
        assert len(err.strip().splitlines()) == 1

    def test_integer_too_long_to_convert_exits_two(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"dim": 1, "field": "rational", "name": ' + "9" * 5000 + "}")
        code, out, err = run(capsys, "hvector", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: invalid JSON: ")
        assert len(err.strip().splitlines()) == 1


class TestFaceLatticeErrors:
    """Errors found while building the face lattice name the file and
    show the point as the file writes it."""

    def test_interior_point_exits_two(self, capsys, tmp_path):
        doc = {
            "dim": 2,
            "field": "rational",
            "vertices": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["0", "0"]],
        }
        path = _write_doc(tmp_path, doc)
        for command in ("hvector", "check-bounds", "ih"):
            code, out, err = run(capsys, command, path)
            assert code == 2
            assert out == ""
            assert err == f'error: {path}: listed point #4 ["0", "0"] is not a vertex\n'

    def test_quadratic_point_in_file_syntax(self, capsys, tmp_path):
        doc = {
            "dim": 1,
            "field": {"quadratic": 2},
            "vertices": [[["1", "0"]], [["-1", "0"]], [["0", "1/2"]]],
        }
        path = _write_doc(tmp_path, doc)
        code, _, err = run(capsys, "hvector", path)
        assert code == 2
        assert err == (
            f'error: {path}: listed point #2 [["0", "1/2"]] is not a vertex\n'
        )

    def test_collinear_file_exits_two(self, capsys, tmp_path):
        doc = {
            "dim": 2,
            "field": "rational",
            "vertices": [["0", "0"], ["1", "1"], ["2", "2"]],
        }
        path = _write_doc(tmp_path, doc)
        code, out, err = run(capsys, "hvector", path)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: not full-dimensional\n"

    def test_report_all_names_the_bad_file(self, capsys, tmp_path):
        doc = {"dim": 1, "field": "rational", "vertices": [["1"], ["-1"], ["0"]]}
        (tmp_path / "segment.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "report-all", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == (
            f'error: {tmp_path / "segment.json"}: listed point #2 ["0"] is not a vertex\n'
        )


class TestUndecodableInput:
    """A file that is not UTF-8, or JSON nested past the parser's
    recursion limit, exits 2 with one error line naming the file."""

    @pytest.mark.parametrize(
        "content",
        [b'{"dim": 1, "vertices": [["\xff"]]}', b"[" * 100_000],
        ids=["non-utf8", "deep-nesting"],
    )
    @pytest.mark.parametrize("command", ["hvector", "check-bounds", "ih", "report-all"])
    def test_exits_two(self, capsys, tmp_path, content, command):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        target = str(tmp_path) if command == "report-all" else str(path)
        code, out, err = run(capsys, command, target)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert len(err.strip().splitlines()) == 1


class TestAnalysisCommands:
    def test_hvector_cube(self, capsys, tmp_path):
        path = write_polytope(tmp_path, "cube3", __import__("polyfan").cube(3))
        code, out, _ = run(capsys, "hvector", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["h"] == [1, 5, 5, 1]
        jsonschema.validate(report, load_report_schema())

    def test_check_bounds_cross(self, capsys, tmp_path):
        path = write_polytope(tmp_path, "cross3", cross_polytope(3))
        code, out, _ = run(capsys, "check-bounds", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["bounds"]["is_minimum"] is True
        jsonschema.validate(report, load_report_schema())

    def test_check_bounds_rejects_asymmetric(self, capsys, tmp_path):
        from polyfan import simplex

        path = write_polytope(tmp_path, "simplex", simplex(2))
        code, _, err = run(capsys, "check-bounds", path)
        assert code == 2
        assert "symmetric" in err

    def test_ih_cube2(self, capsys, tmp_path):
        from polyfan import cube

        path = write_polytope(tmp_path, "cube2", cube(2))
        code, out, _ = run(capsys, "ih", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ih"]["betti"] == [1, 0, 2, 0, 1]
        assert report["checks"]["betti_equals_h"] is True
        assert report["checks"]["refined_factorization"] is True
        jsonschema.validate(report, load_report_schema())

    def test_ih_degree_cap_flag(self, capsys, tmp_path):
        from polyfan import cube

        path = write_polytope(tmp_path, "cube2", cube(2))
        for cap in (8, 12):  # 12 = 4 (dim + 1), the largest cap allowed
            code, out, _ = run(capsys, "ih", path, "--json", "--degree-cap", str(cap))
            assert code == 0
            assert json.loads(out)["ih"]["degree_cap"] == cap

    @pytest.mark.parametrize("cap", ["3", "2", "-2", "14", "1000000000"])
    def test_ih_bad_degree_cap_exits_two(self, capsys, tmp_path, cap):
        from polyfan import cube

        path = write_polytope(tmp_path, "cube2", cube(2))
        code, out, err = run(capsys, "ih", path, "--degree-cap", cap)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --degree-cap")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name", ["cube2", "cross3"])
    def test_ih_internal_check_failure_is_one_line(self, capsys, tmp_path, monkeypatch, name):
        """An exact internal check of the sheaf that fails (here every
        membership test, by a patched linalg._members) exits 1 with one
        stderr line that names the degree and the cone, and no traceback."""
        from polyfan import linalg

        path = write_polytope(tmp_path, name, cube(2) if name == "cube2" else cross_polytope(3))
        monkeypatch.setattr(linalg, "_members", lambda kernel, vec: None)
        code, out, err = run(capsys, "ih", path)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert re.fullmatch(
            r"error: internal check failed: (cone \d+|global half [+-]1), degree \d+: .*not a section.*\n", err
        ), err

    def test_ih_dimension_limit(self, capsys, tmp_path):
        from polyfan import cube

        path = write_polytope(tmp_path, "cube4", cube(4))
        code, _, err = run(capsys, "ih", path)
        assert code == 2
        assert "max-dim" in err

    def test_nonrational_file(self, capsys, tmp_path):
        from polyfan.corpus import nonrational_cs_polytope

        field = Field.quadratic(2)
        p = nonrational_cs_polytope()
        path = write_polytope(tmp_path, "nonrational", p, field)
        code, out, _ = run(capsys, "check-bounds", path, "--json")
        assert code == 0
        assert json.loads(out)["h"] == [1, 7, 7, 1]

    def test_ih_on_two_quadratic_fields_in_one_process(self, capsys, tmp_path, quadratic_image):
        # Q(sqrt 2) and Q(sqrt 3) scalars with b = 0 compare and hash
        # equal, so any cache shared between sheaves would mix the fields.
        bettis = []
        for d in (2, 3):
            p = quadratic_image(cross_polytope(3), d)
            path = write_polytope(tmp_path, f"cross3-q{d}", p, Field.quadratic(d))
            code, out, _ = run(capsys, "ih", path, "--json")
            assert code == 0
            bettis.append(json.loads(out)["ih"]["betti"])
        assert bettis[0] == bettis[1] == [1, 0, 3, 0, 3, 0, 1]

    def test_check_bounds_product_of_two_squares_and_a_segment(self, capsys, tmp_path):
        # The face lattice alone determines h; an isomorphism search over
        # the cones' face posets once made this input run for minutes.
        from polyfan import cube, product

        p = product(product(cross_polytope(2), cross_polytope(2)), cube(1))
        path = write_polytope(tmp_path, "cross2-cross2-cube1", p)
        code, out, _ = run(capsys, "check-bounds", path, "--json")
        assert code == 0
        assert json.loads(out)["h"] == [1, 27, 42, 42, 27, 1]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "hvector", "/nonexistent/x.json")
        assert code == 2


class TestReportAll:
    def test_directory_run(self, capsys, tmp_path):
        from polyfan import cube, simplex

        write_polytope(tmp_path, "cube2", cube(2))
        write_polytope(tmp_path, "cross2", cross_polytope(2))
        write_polytope(tmp_path, "simplex2", simplex(2))
        code, out, _ = run(capsys, "report-all", str(tmp_path), "--json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 3
        schema = load_report_schema()
        for report in reports:
            jsonschema.validate(report, schema)

    def test_bad_degree_cap_exits_two(self, capsys, tmp_path):
        from polyfan import cube

        write_polytope(tmp_path, "cube2", cube(2))
        code, out, err = run(capsys, "report-all", str(tmp_path), "--degree-cap", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --degree-cap")
        assert len(err.strip().splitlines()) == 1

    def test_empty_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "report-all", str(tmp_path))
        assert code == 2

    def test_human_output_lists_failures(self, capsys, tmp_path):
        from polyfan import cube

        write_polytope(tmp_path, "cube2", cube(2))
        code, out, _ = run(capsys, "report-all", str(tmp_path))
        assert code == 0
        assert "reports pass" in out


class TestTranslationReporting:
    def test_shifted_input_reports_translation(self, capsys, tmp_path):
        from polyfan import cube

        path = write_polytope(tmp_path, "shifted", translated(cube(2), (10, 0)))
        code, out, _ = run(capsys, "hvector", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["translation"] == ["-10", "0"]
        assert report["h"] == [1, 2, 1]
        jsonschema.validate(report, load_report_schema())

    def test_shifted_square_is_symmetric_once_translated(self, capsys, tmp_path):
        """Symmetry is decided on the translated polytope, as ih decides
        it: check-bounds reports the bounds of a square off the origin
        (it exited 2 as "not centrally symmetric" when the file's own
        vertices were tested), and report-all gives it a bounds report."""
        from polyfan import cube

        path = write_polytope(tmp_path, "shifted", translated(cube(2), (10, 0)))
        code, out, err = run(capsys, "check-bounds", path, "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["translation"] == ["-10", "0"]
        assert report["bounds"]["is_minimum"] and report["bounds"]["is_cross_polytope"]
        jsonschema.validate(report, load_report_schema())
        code, out, _ = run(capsys, "report-all", str(tmp_path), "--json")
        assert code == 0
        [listed] = json.loads(out)["reports"]
        assert listed["bounds"] == report["bounds"]


class TestParser:
    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        init = argparse.ArgumentParser.__init__
        built = []

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        assert run(capsys, "generate", "cross", "2")[0] == 0
        assert run(capsys, "generate", "cube", "2")[0] == 0
        # The reused parser still turns a usage error into exit 2.
        with pytest.raises(SystemExit) as exc:
            main(["hvector"])
        assert exc.value.code == 2
        assert "usage: polyfan hvector" in capsys.readouterr().err
        assert built.count("polyfan") == 1


class TestExitCodes:
    def test_failing_report_exits_one(self, capsys):
        from polyfan.cli import _emit

        fake = {
            "name": "doctored",
            "dim": 2,
            "vertex_count": 4,
            "h": [1, 2, 1],
            "h_difference": [0, 0, 0],
            "checks": {"h_palindromic": False},
        }
        code = _emit(fake, as_json=False)
        captured = capsys.readouterr()
        assert code == 1
        assert "h_palindromic" in captured.out
