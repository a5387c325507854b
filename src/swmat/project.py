"""Project assembly: two-pass symbol resolution over a directory of ST files.

Pass one parses every ``.st`` file and collects declarations; pass two
resolves call sites and global-variable accesses against the project-wide
symbol table.  A project directory may also carry:

* ``tasks.txt``    - one task per line: ``task <name> cycle <ms> entry <pou>``
* ``externals.txt`` - stub POU names (one per line, optional group label)
  standing in for bodies written in non-ST languages, so call graphs stay
  connected.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from .model import (
    BodyFacts,
    CallResolution,
    CallSite,
    Diagnostic,
    GlobalVar,
    LineSpan,
    Pou,
    PouKind,
    Project,
    SourceRef,
    TaskDef,
    validate_project,
)
from .stparse import SourceFile, parse_file

TASK_FILE = "tasks.txt"
EXTERNALS_FILE = "externals.txt"
# one shared empty set of globals: each ``frozenset()`` call makes a new object
_NO_GLOBALS: frozenset[str] = frozenset()


class ProjectError(ValueError):
    """The project directory is missing or holds no source files."""


class SymbolTable:
    """Project-wide name resolution context, keys lower-cased."""

    __slots__ = ("pou_names", "fb_types", "globals", "global_types")

    def __init__(
        self,
        pou_names: dict[str, str],  # lower -> as declared
        fb_types: set[str],
        globals: dict[str, str],  # lower -> as declared
        global_types: dict[str, str],  # lower -> declared type
    ) -> None:
        self.pou_names = pou_names
        self.fb_types = fb_types
        self.globals = globals
        self.global_types = global_types


def build_symbol_table(pous: list[Pou], globals_: list[GlobalVar]) -> SymbolTable:
    table = SymbolTable({}, set(), {}, {})
    for pou in pous:
        key = pou.name.lower()
        table.pou_names[key] = pou.name
        if pou.kind is PouKind.FUNCTION_BLOCK:
            table.fb_types.add(key)
    for g in globals_:
        table.globals[g.name.lower()] = g.name
        table.global_types[g.name.lower()] = g.type_name
    return table


# --- call sites ---------------------------------------------------------------


def extract_call_sites(
    pou: Pou, table: SymbolTable, calls: Iterable[tuple[str, int, int]]
) -> list[CallSite]:
    """Resolve a POU's call occurrences (``BodyFacts.calls``) against the table.

    Resolution never fails: names that match nothing become EXTERNAL sites.
    """
    decls = pou.declared_names()
    action_names = {a.name.lower() for a in pou.actions}
    sites: list[CallSite] = []
    for callee_text, line, col in calls:
        base = callee_text.split(".")[0].lower()
        resolution = CallResolution.EXTERNAL
        target: str | None = None

        instance_type: str | None = None
        if base in decls:
            instance_type = decls[base].type_name
        elif base in table.global_types:
            instance_type = table.global_types[base]
        if instance_type is not None and instance_type.lower() in table.fb_types:
            resolution = CallResolution.INSTANCE_OF_FB
            target = table.pou_names[instance_type.lower()]
        elif "." not in callee_text and base in action_names:
            resolution = CallResolution.LOCAL_ACTION
            target = callee_text
        elif "." not in callee_text and base not in decls and base in table.pou_names:
            resolution = CallResolution.DIRECT_POU
            target = table.pou_names[base]
        sites.append(CallSite(pou.name, callee_text, resolution, target, line, col))
    return sites


# --- global accesses ----------------------------------------------------------


def extract_global_accesses(
    pou: Pou, globals_: dict[str, str], reads: Iterable[str], writes: Iterable[str]
) -> tuple[set[str], set[str]]:
    """The globals among a POU's read and written names (``BodyFacts``), as declared.

    Locally declared names shadow globals of the same name.
    """
    shadowed = pou.declared_names()

    def visible_globals(names: Iterable[str]) -> set[str]:
        keys = {name.lower() for name in names}
        return {globals_[key] for key in keys if key in globals_ and key not in shadowed}

    return visible_globals(reads), visible_globals(writes)


# --- manifest files -----------------------------------------------------------


def parse_task_file(text: str, path: str) -> tuple[list[TaskDef], list[Diagnostic]]:
    tasks: list[TaskDef] = []
    diags: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (
            len(parts) != 6
            or parts[0].lower() != "task"
            or parts[2].lower() != "cycle"
            or parts[4].lower() != "entry"
        ):
            diags.append(
                Diagnostic(
                    "error",
                    "expected 'task <name> cycle <ms> entry <pou>'",
                    path=path,
                    line=lineno,
                )
            )
            continue
        try:
            cycle = int(parts[3])
        except ValueError:
            diags.append(
                Diagnostic("error", f"bad cycle time {parts[3]!r}", path=path, line=lineno)
            )
            continue
        tasks.append(TaskDef(parts[1], cycle, parts[5], path=path, line=lineno))
    return tasks, diags


def parse_externals_file(text: str) -> list[tuple[int, str, str | None]]:
    """Stub declarations: ``<name>`` or ``<name> <group>`` per line, as
    (line number, name, group)."""
    stubs: list[tuple[int, str, str | None]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        stubs.append((lineno, parts[0], parts[1].strip() if len(parts) > 1 else None))
    return stubs


def _read_text(path: Path, diagnostics: list[Diagnostic]) -> str | None:
    """The file's UTF-8 text with universal newlines, as text mode reads it;
    None after an error naming the line of the first byte that does not decode."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        message = f"not UTF-8: byte 0x{raw[exc.start]:02x} ({exc.reason})"
        diagnostics.append(Diagnostic("error", message, path=str(path), line=line))
        return None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_project(directory: str | Path, name: str | None = None) -> tuple[Project, list[Diagnostic]]:
    """Parse a project directory into a resolved, validated Project.

    Each POU keeps the facts of its body, as the parser recorded them, with
    its call sites and global accesses resolved.

    Raises ProjectError when there is no directory or no source file in it.
    Every other problem comes back as a diagnostic next to the project; a
    POU declared a second time is an error there and is left out.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ProjectError(f"{root}: not a directory")
    st_files = sorted(p for p in root.iterdir() if p.suffix.lower() == ".st")
    if not st_files:
        raise ProjectError(f"{root}: no source files")

    diagnostics: list[Diagnostic] = []
    pous: list[Pou] = []
    facts: list[BodyFacts] = []  # each POU's, until its names are resolved below
    globals_: list[GlobalVar] = []
    global_origin: dict[str, tuple[str, GlobalVar]] = {}  # lower-cased name -> (path, first)
    origin: dict[str, SourceRef] = {}  # lower-cased POU name -> where declared
    source_index: dict[str, SourceRef] = {}

    for path in st_files:
        text = _read_text(path, diagnostics)
        if text is None:
            continue
        result = parse_file(SourceFile(str(path), text))
        diagnostics.extend(result.diagnostics)
        for pou, body in zip(result.pous, result.facts):
            key = pou.name.lower()
            if key in origin:
                first = origin[key]
                diagnostics.append(
                    Diagnostic(
                        "error",
                        f"duplicate POU {pou.name!r} (first in {first.path}:{first.span.start})",
                        path=str(path),
                        line=pou.span.start,
                    )
                )
                continue
            origin[key] = source_index[pou.name] = SourceRef(str(path), pou.span)
            pous.append(pou)
            facts.append(body)
        for g in result.globals:
            key = g.name.lower()
            if key in global_origin:
                first_path, first = global_origin[key]
                message = (f"global {g.name!r} declared more than once "
                           f"(first in {first_path}:{first.line})")
                if g.type_name.lower() != first.type_name.lower():
                    message += f"; type {g.type_name}, first {first.type_name}"
                diagnostics.append(Diagnostic("warning", message, path=str(path), line=g.line))
                continue
            global_origin[key] = (str(path), g)
            globals_.append(g)

    externals_path = root / EXTERNALS_FILE
    externals_text = _read_text(externals_path, diagnostics) if externals_path.exists() else None
    if externals_text is not None:
        stub_lines: dict[str, int] = {}
        for lineno, stub_name, group in parse_externals_file(externals_text):
            key = stub_name.lower()
            if key in origin:
                taken = f"shadows the POU parsed from {origin[key].path}"
            elif key in stub_lines:
                taken = f"repeats the stub on line {stub_lines[key]}"
            else:
                stub_lines[key] = lineno
                stub = Pou(
                    name=stub_name,
                    kind=PouKind.FUNCTION_BLOCK,
                    stub=True,
                    group=group,
                )
                source_index[stub_name] = SourceRef(str(externals_path), LineSpan(1, 1))
                pous.append(stub)
                facts.append(BodyFacts([], {}, {}))
                continue
            diagnostics.append(
                Diagnostic(
                    "warning",
                    f"external stub {stub_name!r} {taken}; ignored",
                    path=str(externals_path),
                    line=lineno,
                )
            )

    tasks: list[TaskDef] = []
    task_path = root / TASK_FILE
    if task_path.exists():
        task_text = _read_text(task_path, diagnostics)
        if task_text is not None:
            tasks, task_diags = parse_task_file(task_text, str(task_path))
            diagnostics.extend(task_diags)
    else:
        diagnostics.append(
            Diagnostic("warning", f"no {TASK_FILE}; project has zero tasks", path=str(root))
        )

    table = build_symbol_table(pous, globals_)

    resolved: list[Pou] = []
    for pou, body in zip(pous, facts):
        sites = extract_call_sites(pou, table, body.calls)
        reads, writes = extract_global_accesses(pou, table.globals, body.reads, body.writes)
        resolved.append(
            pou._replace(
                call_sites=tuple(sites),
                global_reads=frozenset(reads) if reads else _NO_GLOBALS,
                global_writes=frozenset(writes) if writes else _NO_GLOBALS,
            )
        )

    project = Project(
        name=name or root.resolve().name,
        pous=tuple(resolved),
        globals=tuple(globals_),
        tasks=tuple(tasks),
        source_index=source_index,
    )
    diagnostics.extend(validate_project(project))
    return project, diagnostics
