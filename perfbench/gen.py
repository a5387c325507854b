"""Seeded input generators for the swmat benchmark.

Every generator writes plain input files (ST sources, answer JSON, parameter
tables) and returns the ground truth it planted.  The checks in
``checks.py`` compare swmat's outputs against that ground truth only; no
generator or check imports swmat.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# --- Structured Text projects ---------------------------------------------------

# IF/ELSE block templates.  {r} is a value use, {w} an assignment target and
# {n} a literal.  The operator and keyword skeletons differ pairwise, so two
# POUs normalize to the same token stream (identifiers -> id, literals -> lit)
# exactly when they use the same template sequence.  That keeps the clone
# ground truth exact: only planted pairs share a sequence.
_IF_TEMPLATES = (
    ("IF {r} > {n} THEN", ["{w} := {r} + {n};"], ["{w} := {n};"]),
    ("IF {r} < {n} THEN", ["{w} := {r} - {n};"], ["{w} := {r} * {n};"]),
    ("IF {r} = {n} THEN", ["{w} := {n};"], ["{w} := {r} + {r};"]),
    ("IF {r} <> {r} THEN", ["{w} := {r} / {n};"], ["{w} := {r};"]),
    ("IF {r} >= {n} AND {r} <= {n} THEN", ["{w} := {r};", "{w} := {n};"], ["{w} := {n} - {r};"]),
    ("IF NOT ({r} > {n}) THEN", ["{w} := ({r} + {n}) * {n};"], ["{w} := {r} MOD {n};"]),
)


@dataclass
class StTruth:
    """What an ST project generator planted."""

    pous: int
    call_edges: int
    writers: dict[str, set[str]] = field(default_factory=dict)
    readers: dict[str, set[str]] = field(default_factory=dict)
    clone_groups: list[list[str]] = field(default_factory=list)

    @property
    def global_edges(self) -> int:
        """Writer x reader pairs per global, without self pairs."""
        return sum(
            len(w) * len(self.readers.get(g, ())) - len(w & self.readers.get(g, set()))
            for g, w in self.writers.items()
        )

    def to_json(self) -> dict:
        return {
            "pous": self.pous,
            "call_edges": self.call_edges,
            "global_edges": self.global_edges,
            "globals_touched": len(set(self.writers) | set(self.readers)),
            "clone_groups": self.clone_groups,
        }


def _fill(template: str, rng: random.Random, reads: list[str], writes: list[str],
          read_log: set[str], write_log: set[str]) -> str:
    out = template
    while "{r}" in out:
        name = rng.choice(reads)
        read_log.add(name)
        out = out.replace("{r}", name, 1)
    while "{w}" in out:
        name = rng.choice(writes)
        write_log.add(name)
        out = out.replace("{w}", name, 1)
    while "{n}" in out:
        out = out.replace("{n}", str(rng.randint(1, 99)), 1)
    return out


def _shape(rng: random.Random, ifs: int, calls: int) -> tuple:
    """Template sequence with call statements interleaved at random slots."""
    items: list = [("if", rng.randrange(len(_IF_TEMPLATES))) for _ in range(ifs)]
    for kind in ["inst"] * calls + ["ext"]:
        items.insert(rng.randint(0, len(items)), (kind,))
    return tuple(items)


IFS_PER_FB = 20
CALLEE_WINDOW = 8
MAX_CALLEES = 3


def st_project(
    root: Path,
    seed: int,
    n_fbs: int,
    clone_pairs: int = 0,
    hot_globals: int = 0,
    hot_per_fb: int = 0,
) -> StTruth:
    """FBs in a call DAG plus one entry program, written to ``root``.

    FB i instantiates and calls up to MAX_CALLEES FBs among the next
    CALLEE_WINDOW ones, so the DAG is deep.  Each FB has IFS_PER_FB IF/ELSE
    blocks and one call to an external function.  With ``hot_globals`` == 0 every FB
    reads and writes only its own two globals; otherwise every FB draws one
    pool of ``hot_per_fb`` globals to read and one to write from a shared hot
    set, and its blocks read and write random members of those pools.
    """
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    names = [f"Fb{i:04d}" for i in range(n_fbs)]
    hot = [f"hot{k:02d}" for k in range(hot_globals)]
    externals = [f"ExtLib{k}" for k in range(10)]

    callees: list[list[str]] = []
    for i in range(n_fbs):
        later = names[i + 1 : i + 1 + CALLEE_WINDOW]
        callees.append(rng.sample(later, min(len(later), rng.randint(1, MAX_CALLEES))))

    clone_of: dict[int, int] = {}
    candidates = list(range(0, n_fbs - CALLEE_WINDOW - 2, 2))
    for i in rng.sample(candidates, min(clone_pairs, len(candidates))):
        clone_of[i + 1] = i
        callees[i + 1] = callees[i + 1][: len(callees[i])]
        while len(callees[i + 1]) < len(callees[i]):
            spare = [n for n in names[i + 2 : i + 2 + CALLEE_WINDOW] if n not in callees[i + 1]]
            callees[i + 1].append(spare[0])

    shapes: list[tuple] = []
    seen: set[tuple] = set()
    for i in range(n_fbs):
        if i in clone_of:
            shapes.append(shapes[clone_of[i]])
            continue
        shape = _shape(rng, IFS_PER_FB, len(callees[i]))
        while shape in seen:
            shape = _shape(rng, IFS_PER_FB, len(callees[i]))
        seen.add(shape)
        shapes.append(shape)

    truth = StTruth(pous=n_fbs + 1, call_edges=0)
    global_decls: list[str] = [f"  {g} : INT;" for g in hot]
    for i, name in enumerate(names):
        if hot:
            reads = rng.sample(hot, hot_per_fb) + ["x", "y"]
            writes = rng.sample(hot, hot_per_fb) + ["x"]
        else:
            own = [f"g{i:04d}a", f"g{i:04d}b"]
            global_decls += [f"  {g} : INT;" for g in own]
            reads = own + ["x", "y"]
            writes = [own[0], "x"]
        read_log: set[str] = set()
        write_log: set[str] = set()
        lines = [f"FUNCTION_BLOCK {name}", "VAR", "  x : INT;", "  y : INT;"]
        instances = [f"c{k}" for k in range(len(callees[i]))]
        lines += [f"  {inst} : {callee};" for inst, callee in zip(instances, callees[i])]
        lines.append("END_VAR")
        pending = list(instances)
        ext = rng.choice(externals)
        for item in shapes[i]:
            if item[0] == "inst":
                lines.append(f"{pending.pop(0)}();")
            elif item[0] == "ext":
                lines.append(f"{ext}(x);")
            else:
                head, then, other = _IF_TEMPLATES[item[1]]
                lines.append(_fill(head, rng, reads, writes, read_log, write_log))
                lines += ["  " + _fill(s, rng, reads, writes, read_log, write_log) for s in then]
                lines.append("ELSE")
                lines += ["  " + _fill(s, rng, reads, writes, read_log, write_log) for s in other]
                lines.append("END_IF")
        lines.append("END_FUNCTION_BLOCK")
        (root / f"{name.lower()}.st").write_text("\n".join(lines) + "\n", encoding="utf-8")
        truth.call_edges += len(callees[i]) + 1
        for g in read_log - {"x", "y"}:
            truth.readers.setdefault(g, set()).add(name)
        for g in write_log - {"x", "y"}:
            truth.writers.setdefault(g, set()).add(name)

    called = {c for cs in callees for c in cs}
    roots = [n for n in names if n not in called]
    main = ["PROGRAM Main", "VAR"] + [f"  r{k} : {n};" for k, n in enumerate(roots)]
    main += ["END_VAR"] + [f"r{k}();" for k in range(len(roots))] + ["END_PROGRAM"]
    (root / "main.st").write_text("\n".join(main) + "\n", encoding="utf-8")
    truth.call_edges += len(roots)
    (root / "globals.st").write_text(
        "VAR_GLOBAL\n" + "\n".join(global_decls) + "\nEND_VAR\n", encoding="utf-8"
    )
    (root / "tasks.txt").write_text("task main cycle 10 entry Main\n", encoding="utf-8")
    truth.clone_groups = sorted(
        sorted([names[src], names[dst]], key=str.lower) for dst, src in clone_of.items()
    )
    return truth


# --- parameter-table configuration -----------------------------------------------

COMPONENT_TEMPLATE = """FUNCTION_BLOCK @{name}
VAR
  speed : INT := @{speed};
  gain : REAL := @{gain};
  enabled : BOOL := @{enabled};
  helper : CompHelper;
  state : INT;
END_VAR
IF enabled THEN
  state := state + speed;
ELSE
  state := 0;
END_IF
helper();
LogEvent(state);
END_FUNCTION_BLOCK
"""

HELPER_SOURCE = """FUNCTION_BLOCK CompHelper
VAR
  n : INT;
END_VAR
n := n + 1;
END_FUNCTION_BLOCK
"""

PARAM_COLUMNS = ("name", "speed", "gain", "enabled", "label")


@dataclass
class ConfigureTruth:
    rows: int
    output_files: list[str]
    task_line: str
    global_lines: list[str]  # parameter globals, as the configurator declares them
    pous: int
    call_edges: int
    clone_groups: list[list[str]]

    def to_json(self) -> dict:
        return dict(self.__dict__, output_files=len(self.output_files),
                    global_lines=len(self.global_lines))


def parameter_config(root: Path, seed: int, rows: int) -> ConfigureTruth:
    """Templates dir, parameter table and config for ``configure --mode parameter``.

    The invariable base holds a program that instantiates every component,
    so the generated project has one instance per table row.
    """
    rng = random.Random(seed)
    templates = root / "templates"
    templates.mkdir(parents=True, exist_ok=True)
    names = [f"Comp{i:04d}" for i in range(rows)]
    (templates / "component.st.tpl").write_text(COMPONENT_TEMPLATE, encoding="utf-8")
    (templates / "comp_helper.st").write_text(HELPER_SOURCE, encoding="utf-8")
    main = ["PROGRAM Main", "VAR"] + [f"  c_{n} : {n};" for n in names]
    main += ["END_VAR"] + [f"c_{n}();" for n in names] + ["END_PROGRAM"]
    (templates / "base_main.st").write_text("\n".join(main) + "\n", encoding="utf-8")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(PARAM_COLUMNS)
    global_lines = []
    for n in names:
        speed = str(rng.randint(1, 500))
        gain = f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"
        enabled = rng.choice(("TRUE", "FALSE"))
        label = f"unit {rng.randint(1, 9999)}"
        writer.writerow((n, speed, gain, enabled, label))
        global_lines += [
            f"  {n}_speed : INT := {speed};",
            f"  {n}_gain : REAL := {gain};",
            f"  {n}_enabled : BOOL := {enabled};",
            f"  {n}_label : STRING := '{label}';",
        ]
    (root / "table.csv").write_text(buffer.getvalue(), encoding="utf-8")
    (root / "config.json").write_text(
        json.dumps({
            "template": "component",
            "invariable": ["base_main.st", "comp_helper.st"],
            "table": "table.csv",
        }),
        encoding="utf-8",
    )
    files = sorted([f"{n}.st" for n in names] + [
        "base_main.st", "comp_helper.st", "parameters_globals.st", "tasks.txt",
    ])
    # per instance: Main -> Main.c_X, X -> X.helper, X -> LogEvent, and the
    # instance node Main.c_X inherits X's calls to CompHelper and LogEvent
    return ConfigureTruth(
        rows=rows,
        output_files=files,
        task_line="task main cycle 10 entry Main",
        global_lines=sorted(global_lines),
        pous=rows + 2,
        call_edges=5 * rows,
        clone_groups=[sorted(names, key=str.lower)] if rows >= 2 else [],
    )


# --- questionnaire cohort ---------------------------------------------------------

CATEGORIES = ("machine", "plant", "platform")
SCORED = {"MOD": range(15, 31), "TEST": range(31, 36), "OP": range(36, 40)}
NUMERIC_IDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14)
INTERACTION = (23, 24, 26, 27)
TARGETS = (28, 30)


def _group(qid: int) -> str:
    for name, ids in SCORED.items():
        if qid in ids:
            return name
    return "GEN"


@dataclass
class CohortTruth:
    companies: int
    per_category: dict[str, int]
    overview: list[list[str]]
    scatter_points: dict[str, int]
    correlate: dict[int, tuple[int, float]]  # target -> (n, r)

    def to_json(self) -> dict:
        return {
            "companies": self.companies,
            "per_category": self.per_category,
            "scatter_points": self.scatter_points,
            "correlate": {str(t): {"n": n, "r": r} for t, (n, r) in self.correlate.items()},
        }


def fixed4(value: Fraction | None) -> str:
    """Four-decimal fixed point, halves rounded up; '' when missing."""
    if value is None:
        return ""
    scaled = value * 10000 + Fraction(1, 2)
    q = scaled.numerator // scaled.denominator
    return f"{q // 10000}.{q % 10000:04d}"


def _pearson(pairs: list[tuple[float, float]]) -> float:
    n = len(pairs)
    mx = sum(p[0] for p in pairs) / n
    my = sum(p[1] for p in pairs) / n
    sxy = sum((x - mx) * (y - my) for x, y in pairs)
    sxx = sum((x - mx) ** 2 for x, _ in pairs)
    syy = sum((y - my) ** 2 for _, y in pairs)
    return sxy / (sxx * syy) ** 0.5


def cohort(root: Path, seed: int, companies: int) -> CohortTruth:
    """A schema file and one answer file per company under ``root/answers``.

    Each company has a latent skill that biases its option choices, so the
    correlations are real; about 10% of questions stay unanswered and some
    numeric answers are ranges like '2-6'.
    """
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    answers_dir = root / "answers"
    answers_dir.mkdir(exist_ok=True)

    questions = []
    scales: dict[int, list[tuple[str, Fraction]]] = {}
    for qid in range(1, 46):
        group = _group(qid)
        if group != "GEN":
            k = rng.randint(3, 5)
            if group == "OP" and k == 4:
                scores = [Fraction(5), Fraction(13, 4), Fraction(5, 4), Fraction(0)]
            else:
                scores = [Fraction(5) * (k - 1 - i) / (k - 1) for i in range(k)]
            keys = [f"q{qid}-o{i}" for i in range(k)]
            scales[qid] = list(zip(keys, scores))
            questions.append({
                "id": qid, "text": f"scored question {qid}", "category": group,
                "weight": 5, "mode": "single-choice",
                "options": [
                    {"key": key, "label": f"Level {i} of question {qid}", "score": str(s)}
                    for i, (key, s) in enumerate(zip(keys, scores))
                ],
            })
        else:
            mode = "numeric" if qid in NUMERIC_IDS else "free-text"
            questions.append({"id": qid, "text": f"question {qid}", "category": "GEN",
                              "mode": mode})
    (root / "schema.json").write_text(json.dumps({"questions": questions}), encoding="utf-8")

    per_category = {c: 0 for c in CATEGORIES}
    overview: list[list[str]] = []
    scatter_points = {"m_mod_m_test": 0, "m_mod_m_op": 0, "m_test_m_op": 0}
    pairs: dict[int, list[tuple[float, float]]] = {t: [] for t in TARGETS}
    for idx in range(companies):
        name = f"Company{idx:05d}"
        category = rng.choice(CATEGORIES)
        per_category[category] += 1
        skill = rng.random()
        answers: dict[str, object] = {}
        gained = {g: Fraction(0) for g in SCORED}
        reachable = {g: Fraction(0) for g in SCORED}
        normalized: dict[int, Fraction] = {}
        for qid in range(1, 46):
            if rng.random() < 0.1:
                continue
            if qid in scales:
                options = scales[qid]
                pick = min(len(options) - 1, int((1 - skill) * len(options) + rng.random() * 1.5))
                key, score = options[pick]
                style = rng.random()
                answers[str(qid)] = key.upper() if style < 0.1 else key
                gained[_group(qid)] += score
                reachable[_group(qid)] += 5
                normalized[qid] = score
            elif qid in NUMERIC_IDS:
                low = rng.randint(1, 20)
                answers[str(qid)] = f"{low}-{low + rng.randint(1, 8)}" if rng.random() < 0.3 else low
            else:
                answers[str(qid)] = f"free text {rng.randint(1, 10**6)}"
        (answers_dir / f"{name}.json").write_text(
            json.dumps({"company": name, "category": category, "answers": answers}),
            encoding="utf-8",
        )
        m = {g: (gained[g] / reachable[g] if reachable[g] else None) for g in SCORED}
        total_r = sum(reachable.values())
        overall = sum(gained.values()) / total_r if total_r else None
        overview.append([name, category, fixed4(m["MOD"]), fixed4(m["TEST"]),
                         fixed4(m["OP"]), fixed4(overall)])
        for key, (a, b) in {"m_mod_m_test": ("MOD", "TEST"), "m_mod_m_op": ("MOD", "OP"),
                            "m_test_m_op": ("TEST", "OP")}.items():
            if m[a] is not None and m[b] is not None:
                scatter_points[key] += 1
        present = [normalized[q] for q in INTERACTION if q in normalized]
        if present:
            x = float(sum(present, Fraction(0)) / len(present))
            for t in TARGETS:
                if t in normalized:
                    pairs[t].append((x, float(normalized[t])))
    return CohortTruth(
        companies=companies,
        per_category=per_category,
        overview=overview,
        scatter_points=scatter_points,
        correlate={t: (len(p), _pearson(p)) for t, p in pairs.items()},
    )
