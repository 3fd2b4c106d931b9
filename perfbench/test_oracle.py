"""Self-check of the benchmark's oracle, so that ``failed`` is never blind:
correct reports pass, and a report with one h coefficient changed, a
non-zero exit code, a missing section, or an image disagreeing with its
source all count as failed verifications.

    python -m pytest perfbench
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from polyfan import cli  # noqa: E402
from polyfan.polytopes import cross_polytope, cube  # noqa: E402


def _verify(item, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(item.document()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([item.command, str(path), "--json"])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def checker():
    return oracle.Oracle(oracle.load_validator(HERE.parent))


def _items():
    rng = random.Random(7)
    cube3 = cube(3)
    square = cube(2)
    return [
        inputs.Item("cube-3", "check-bounds", cube3.vertices, None, "cube-3", (1, 5, 5, 1)),
        inputs.Item("cube-3~image", "check-bounds", inputs.integer_image(cube3, rng), None, "cube-3", (1, 5, 5, 1)),
        inputs.Item("cube-2", "ih", square.vertices, None, "cube-2", (1, 2, 1)),
        inputs.Item("cube-2~q2", "ih", inputs.quadratic_image(square, 2, rng), 2, "cube-2", (1, 2, 1)),
    ]


def _mutate_h(stdout: str) -> str:
    report = json.loads(stdout)
    report["h"][1] += 1
    return json.dumps(report)


def test_correct_reports_pass(tmp_path, checker):
    items = _items()
    runs = [(k, *_verify(item, tmp_path)) for k, item in enumerate(items)]
    assert oracle.tally(checker, items, [(k, c, 0.0, out, "") for k, c, out in runs]) == (0, None)


def test_changed_h_and_exit_code_one_count_as_failures(tmp_path, checker):
    items = _items()
    code, out = _verify(items[0], tmp_path)
    ih_code, ih_out = _verify(items[2], tmp_path)
    no_bounds = json.loads(out)
    del no_bounds["bounds"]
    runs = [
        (0, code, 0.0, _mutate_h(out), ""),  # one h coefficient changed
        (2, 1, 0.0, ih_out, ""),  # exit code 1 on an otherwise valid report
        (0, code, 0.0, json.dumps(no_bounds), ""),  # check-bounds without its section
        (2, ih_code, 0.0, ih_out, ""),  # still a correct verification
    ]
    failed, first = oracle.tally(checker, items, runs)
    assert failed == 3
    assert "expected" in first and "got" in first


def test_image_disagreeing_with_its_source_fails(tmp_path, checker):
    cube3 = _items()[0].vertices
    source = inputs.Item("cube-3", "check-bounds", cube3, None, "g", None)
    image = inputs.Item("cube-3~image", "check-bounds", _items()[1].vertices, None, "g", None)
    stranger = inputs.Item("cross-3", "check-bounds", cross_polytope(3).vertices, None, "g", None)
    outs = [_verify(item, tmp_path)[1] for item in (source, image, stranger)]
    items = [source, image, stranger]
    agree = [(0, 0, 0.0, outs[0], ""), (1, 0, 0.0, outs[1], "")]
    assert oracle.tally(checker, items, agree) == (0, None)
    disagree = [(0, 0, 0.0, outs[0], ""), (2, 0, 0.0, outs[2], "")]
    failed, first = oracle.tally(checker, items, disagree)
    assert failed == 1 and "of group g" in first


def test_invalid_report_fails_schema(checker):
    item = _items()[0]
    with pytest.raises(oracle.Mismatch, match="schema"):
        checker.check(item, 0, json.dumps({"name": "cube-3"}))
