"""The exit-code contract on malformed input, driven through ``cli.run``.

Every subcommand gets inputs that are almost right: the fixture project
with one file cut, spliced or replaced by random bytes for ``analyze``, or
with whole lines of valid ST spliced in where lines start, and
for the JSON inputs (answer files, schemas, both kinds of configure config)
a valid document with one subtree replaced by a random JSON value or
dropped.  Each run must end in an exit code 0-3 with no exception, and an
exit 2 must name the input at fault.  ``analyze`` never exits 3: every error
in an ST project is bad input.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from swmat.cli import run
from swmat.default_schema import default_schema
from swmat.maturity import schema_to_dict
from test_cli import _FILLER_INSTANCE, _STORAGE_ROW, FIXTURES, OP_EXAMPLE
from test_configurator import BASE_MAIN, FILLER_TEMPLATE, STORAGE_TEMPLATE

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)

SCHEMA = {"questions": [q for q in schema_to_dict(default_schema())["questions"]
                        if q["id"] in (7, 9, 14, 36, 37, 38, 39)]}
ANSWERS = [
    OP_EXAMPLE,
    {"company": "b", "category": "plant",
     "answers": {"7": 3, "9": "2-6", "14": 2.5, "36": "rarely", "37": "parts", "38": "remote"}},
    {"company": "c", "category": "platform",
     "answers": {"36": "very-often", "37": "no-source", "38": "on-site", "39": "never"}},
]
TEMPLATE_CONFIG = {"supervisory": "line_main", "mode_constants": ["SETUP", "AUTO"],
                   "instances": [_FILLER_INSTANCE, dict(_FILLER_INSTANCE, name="fb")]}
PARAMETER_CONFIGS = [
    {"template": "storage", "invariable": ["base_main.st"], "rows": [_STORAGE_ROW],
     "columns": ["name", "width", "depth"], "name_column": "name"},
    {"template": "storage", "invariable": ["base_main.st"], "table": "places.csv"},
]
ST_PIECES = [b"IF x THEN", b"END_IF;", b"(*", b"'", b"VAR", b"END_VAR", b":=", b"[", b"(",
             b"FUNCTION_BLOCK", b"END_PROGRAM", b"task t cycle 10 entry ghost\n",
             b"VAR x : INT; X : INT; END_VAR"]
# whole lines of valid text for files matching a pattern: spliced where a
# line starts, most of them parse, so the checks after parsing see them
LINE_PIECES = [
    ("*.st", "FUNCTION_BLOCK VALVE\nEND_FUNCTION_BLOCK\n"),
    ("*.st", "x : INT; X : INT;\n"),
    ("*.st", "FUNCTION Scale : INT\nScale := 1;\nEND_FUNCTION\n"),
    ("*.st", "PROGRAM Line\nVAR\n  motor : INT;\nEND_VAR\nmotor();\nEND_PROGRAM\n"
             "FUNCTION_BLOCK Motor\nEND_FUNCTION_BLOCK\n"),
    ("tasks.txt", "task fast cycle 5 entry Scale\n"),
    ("tasks.txt", "task slow cycle 50 entry ghost\n"),
]


def _subtrees(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _subtrees(child, path + (key,))


def _mutated(draw, doc):
    """``doc`` with one subtree replaced by a random JSON value, or dropped."""
    path = draw(st.sampled_from(list(_subtrees(doc))))
    if not path:
        return draw(JSON_VALUES)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


def _write_json(draw, docs: dict[Path, object]) -> Path:
    """Write every document, one of them mutated; the path of that one."""
    bad = draw(st.sampled_from(sorted(docs)))
    for path, doc in docs.items():
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(_mutated(draw, doc) if path == bad else doc), encoding="utf-8")
    return bad


def _splice_lines(project: Path, draw) -> None:
    """Insert one to three ``LINE_PIECES`` where lines of their files start."""
    for pattern, piece in draw(st.lists(st.sampled_from(LINE_PIECES), min_size=1, max_size=3)):
        target = draw(st.sampled_from(sorted(project.glob(pattern))))
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(draw(st.integers(0, len(lines))), piece)
        target.write_text("".join(lines), encoding="utf-8")


def _analyze(root: Path, draw):
    project = root / "project"
    shutil.copytree(FIXTURES / "filling_plant", project)
    how = draw(st.sampled_from(("lines", "bytes", "splice")))
    if how == "lines":
        _splice_lines(project, draw)
    else:
        target = draw(st.sampled_from(sorted(project.iterdir())))
        text = target.read_bytes()
        if how == "bytes":
            text = draw(st.binary(max_size=64))
        else:
            start = draw(st.integers(0, len(text)))
            end = draw(st.integers(start, min(len(text), start + 40)))
            text = (text[:start] + draw(st.sampled_from(ST_PIECES) | st.binary(max_size=8))
                    + text[end:])
        target.write_bytes(text)
    argv = ["analyze", str(project), "--per-instance", "--dot", str(root / "c.dot"),
            "--globals-dot", str(root / "g.dot"), "--assessment", str(root / "a.json")]
    return argv, project


def _questionnaire(command: str):
    def inputs(root: Path, draw):
        schema = root / "schema.json"
        count = 1 if command == "score" else len(ANSWERS)
        answers = {root / "answers" / f"{i}.json": ANSWERS[i] for i in range(count)}
        bad = _write_json(draw, {schema: SCHEMA, **answers})
        argv = [command, "--schema", str(schema)]
        if command == "score":
            argv += ["--answers", str(*answers), "--out", str(root / "report.json")]
        elif command == "cohort":
            argv += ["--answers-dir", str(root / "answers"), "--out", str(root / "out")]
        else:
            argv += ["--answers-dir", str(root / "answers"), "--interaction", "36,37",
                     "--targets", "38,39", "--out", str(root / "c.csv")]
        return argv, bad
    return inputs


def _configure(mode: str):
    def inputs(root: Path, draw):
        templates = root / "templates"
        templates.mkdir()
        (templates / "Filler.st.tpl").write_text(FILLER_TEMPLATE, encoding="utf-8")
        (templates / "storage.st.tpl").write_text(STORAGE_TEMPLATE, encoding="utf-8")
        (templates / "base_main.st").write_text(BASE_MAIN, encoding="utf-8")
        (root / "places.csv").write_text("name,width,depth\nPlaceA,2,4\n", encoding="utf-8")
        base = TEMPLATE_CONFIG if mode == "template" else draw(st.sampled_from(PARAMETER_CONFIGS))
        bad = _write_json(draw, {root / "config.json": base})
        return ["configure", "--mode", mode, "--templates", str(templates),
                "--config", str(bad), "--out", str(root / "out")], bad
    return inputs


INPUTS = {
    "analyze": _analyze,
    "score": _questionnaire("score"),
    "cohort": _questionnaire("cohort"),
    "correlate": _questionnaire("correlate"),
    "configure-template": _configure("template"),
    "configure-parameter": _configure("parameter"),
}


@pytest.mark.parametrize("command", sorted(INPUTS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_input_keeps_exit_contract(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv, culprit = INPUTS[command](Path(tmp), data.draw)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(argv)
    assert code in ((0, 2) if command == "analyze" else (0, 2, 3)), err.getvalue()
    if code == 2:
        assert str(culprit) in err.getvalue()
    assert "Traceback" not in err.getvalue()
