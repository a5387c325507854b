"""Golden outputs: the CLI's bytes, pinned by sha256.

Refactors that promise identical behaviour must keep every digest below.
The digests cover `analyze` stdout, both DOT files and the assessment JSON
on the filling-plant fixture and on a seeded synthetic project analyzed
per instance, and every file `cohort` writes for a small seeded answer set.
A digest may only change together with a deliberate, documented change of
the output it covers.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from swmat.cli import run
from swmat.maturity import default_schema
from swmat.model import AnswerMode
from synth import random_project

FIXTURES = Path(__file__).parent / "fixtures"

# every statement form, calls in conditions and arguments, member calls,
# actions, a shadowed global and a FOR counter that is a global
MIXED_ST = """\
VAR_GLOBAL
  gMode : INT;
  gLevel : REAL;
  gAlarm : BOOL;
  gIdx : INT;
END_VAR

FUNCTION Scale : REAL
VAR_INPUT
  x : REAL;
END_VAR
Scale := x * 2.0;
END_FUNCTION

FUNCTION_BLOCK Valve
VAR
  open : BOOL;
END_VAR
open := NOT gAlarm;
END_FUNCTION_BLOCK

FUNCTION_BLOCK Mixer
VAR
  inlet : Valve;
  outlet : Valve;
  i : INT;
  level : REAL;
  gLevel : REAL;
END_VAR
IF Scale(x := level) > 1.0 THEN
  inlet();
ELSIF gMode = 2 AND Limit(gLevel) THEN
  outlet();
  gAlarm := TRUE;
ELSE
  Refresh();
END_IF;
CASE gMode OF
  1, 2: inlet.Reset();
  3..5:
    FOR gIdx := 1 TO Count(gMode) BY 1 DO
      level := level + Scale(x := level);
    END_FOR;
ELSE
  WHILE level > 0.0 AND NOT gAlarm DO
    level := level - 1.0;
    outlet();
  END_WHILE;
END_CASE;
Refresh();
ACTION Refresh
  FOR i := 0 TO 3 DO
    gMode := gMode + Scale(x := gLevel);
  END_FOR;
END_ACTION
END_FUNCTION_BLOCK

PROGRAM Plant
VAR
  mixA : Mixer;
  mixB : Mixer;
END_VAR
mixA();
mixB();
gMode := 1;
END_PROGRAM
"""

GOLDEN = {
    "plant/stdout": "87e2a70dfa4a90e90b1fe6b1cd1d1120ad506bdaf9ebe16aeef01e2b6e86828e",
    "plant/calls.dot": "28d53f0015df60fb47dc1eb76df4211a114ea0972cf82b41d7e976b9d6651f3e",
    "plant/globals.dot": "bfaabb819a013d6df2f4ed405656c80c0d9a490d599df0aa7e45c6b950d0b419",
    "plant/assessment.json": "e3a93f4fb18bd74f2a24c67ff84c0641b9bc756d17e9be2f5914c0866b4322d8",
    "synth/stdout": "98f67f0cd90d3fbe166180fac2ae092352555a58c85b868d1687ff8f9983cc40",
    "synth/calls.dot": "98abffa1f17e328822527980cbdf05340021b283c1743cf3c46d3fa9a41ffdd8",
    "synth/globals.dot": "34f7f55b79b473f497c8dfdf57c0313a0dcdae4e23be987c1248af899db61616",
    "synth/assessment.json": "098675b8971ec2e3563799861fb231ea72beea141c14c7cd039995349bf8b14b",
    "cohort/all": "6cef6b30df4147d41ece90f9422ac93e349a3cf13cfb783925a8fad7c68b1146",
    "cohort/plant-strict": "d2609200a0d3897bdd32f46349586e6cbb90aeb34576cb4c93689251f79e0712",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _analyze(project_dir: Path, out: Path, capsys, *extra: str) -> dict[str, str]:
    out.mkdir()
    capsys.readouterr()
    code = run([
        "analyze", str(project_dir), *extra,
        "--dot", str(out / "calls.dot"),
        "--globals-dot", str(out / "globals.dot"),
        "--assessment", str(out / "assessment.json"),
    ])
    assert code == 0
    digests = {"stdout": _sha(capsys.readouterr().out.encode("utf-8"))}
    for name in ("calls.dot", "globals.dot", "assessment.json"):
        digests[name] = _sha((out / name).read_bytes())
    return digests


def _cohort_digest(out: Path) -> str:
    """One digest over every written file, names included, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _write_answer_set(directory: Path, seed: int, companies: int) -> None:
    rng = random.Random(seed)
    categories = ("machine", "plant", "platform")
    directory.mkdir()
    for index in range(companies):
        answers: dict[str, object] = {}
        for question in default_schema().questions:
            if rng.random() < 0.15:
                continue
            if question.mode is AnswerMode.SINGLE_CHOICE:
                answers[str(question.id)] = rng.choice(question.options).key
            elif question.mode is AnswerMode.NUMERIC:
                low = rng.randint(1, 9)
                answers[str(question.id)] = (
                    f"{low}-{low + rng.randint(1, 5)}" if rng.random() < 0.5 else low
                )
        payload = {
            "company": f"co{index:02d}",
            "category": categories[index % len(categories)],
            "answers": answers,
        }
        (directory / f"co{index:02d}.json").write_text(json.dumps(payload), encoding="utf-8")


def _assert_golden(prefix: str, digests: dict[str, str]) -> None:
    got = {f"{prefix}/{k}": v for k, v in digests.items()}
    want = {k: GOLDEN[k] for k in got}
    assert got == want


def test_golden_analyze_fixture(tmp_path, capsys):
    digests = _analyze(FIXTURES / "filling_plant", tmp_path / "out", capsys)
    _assert_golden("plant", digests)


def test_golden_analyze_synth_per_instance(tmp_path, capsys):
    project = random_project(tmp_path / "synth", seed=11, max_pous=8)
    (project / "mixed.st").write_text(MIXED_ST, encoding="utf-8")
    with (project / "tasks.txt").open("a", encoding="utf-8") as tasks:
        tasks.write("task plant cycle 20 entry Plant\n")
    digests = _analyze(project, tmp_path / "out", capsys, "--per-instance")
    _assert_golden("synth", digests)


@pytest.mark.parametrize(
    "key, extra",
    [("all", []), ("plant-strict", ["--category", "plant", "--strict"])],
)
def test_golden_cohort(tmp_path, key, extra):
    _write_answer_set(tmp_path / "answers", seed=5, companies=12)
    out = tmp_path / "reports"
    code = run(["cohort", "--answers-dir", str(tmp_path / "answers"), "--out", str(out), *extra])
    assert code == 0
    assert GOLDEN[f"cohort/{key}"] == _cohort_digest(out)
