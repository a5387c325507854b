"""Template- and parameter-based generation of ST projects.

Both modes substitute ``@{param}`` placeholders into fixed code templates;
placeholders may only appear in declaration sections and initializers, never
in statement bodies, so generated modules behave exactly like their
template.  Every emitted line carries a provenance mark (copied from a
template vs. produced by the configuration), which feeds the specificity
ratio.

Template mode builds one function block per template plus a supervisory
program: the supervisory translates the requested PLC mode inside a CASE
over the mode constants and calls every configured instance once, handing
the current mode over, so each module drives its own state routine.
Interlocking between modules cannot be derived from the configuration and
is emitted as an explicitly marked manual-completion stub.
"""

from __future__ import annotations

import csv
import io
import re
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .model import IDENT, SCALAR, load_json, read_text
from .stparse import is_identifier, tokenize

MODE_CONSTANTS = (
    "PLCMODSETUP",
    "PLCMODAUTOMATIC",
    "PLCMODREINIT",
    "PLCMODERROR",
    "PLCMODSTOP",
)

MODE_VARIABLE = "_plcMod"
MANUAL_MARKER = "(* MANUAL:"

PLACEHOLDER_RE = re.compile(r"@\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConfigError(Exception):
    pass


def _check_name(name: str, what: str) -> None:
    """A generated name must read back as exactly one ST identifier."""
    if not is_identifier(name):
        raise ConfigError(f"{what} {name!r} is not an ST identifier")


def _pou_headers(text: str) -> list[tuple[str, str]]:
    """(keyword, name) of each POU header in ST text, read through the
    tokenizer: a header in a comment or a string does not count."""
    store, _ = tokenize(text)
    codes, texts = store.codes, store.texts
    return [
        (code, texts[i + 1])
        for i, code in enumerate(codes[:-1])
        if code in ("FUNCTION_BLOCK", "PROGRAM", "FUNCTION") and codes[i + 1] == IDENT
    ]


class Provenance(Enum):
    TEMPLATE = "template"
    CONFIG = "config"


class GeneratedFile(NamedTuple):
    name: str
    lines: tuple[tuple[str, Provenance], ...]

    @property
    def text(self) -> str:
        return "\n".join(text for text, _ in self.lines) + "\n"


class GeneratedProject(NamedTuple):
    files: tuple[GeneratedFile, ...]

    def file(self, name: str) -> GeneratedFile:
        for f in self.files:
            if f.name == name:
                return f
        raise KeyError(name)

    def write_to(self, directory: str | Path) -> None:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        for f in self.files:
            (root / f.name).write_text(f.text, encoding="utf-8")


def specificity_ratio(project: GeneratedProject) -> Fraction:
    """Configuration-specific code lines over all emitted code lines.

    Only ST sources count; manifest files (tasks.txt) are not code.
    """
    total = 0
    specific = 0
    for f in project.files:
        if not f.name.endswith(".st"):
            continue
        for _, provenance in f.lines:
            total += 1
            if provenance is Provenance.CONFIG:
                specific += 1
    return Fraction(specific, total) if total else Fraction(0)


def count_manual_markers(project: GeneratedProject) -> int:
    """Open manual-completion stubs left in the generated sources."""
    return sum(
        line.count(MANUAL_MARKER) for f in project.files for line, _ in f.lines
    )


# --- templates -------------------------------------------------------------------


class TemplateSet(NamedTuple):
    templates: dict[str, str]

    def required_params(self, name: str) -> tuple[str, ...]:
        text = self.templates[name]
        seen: list[str] = []
        for match in PLACEHOLDER_RE.finditer(text):
            if match.group(1) not in seen:
                seen.append(match.group(1))
        return tuple(seen)

    def validate(self) -> None:
        """Reject placeholders in statement bodies; only declarations may vary."""
        for name, text in self.templates.items():
            store, _ = tokenize(text)
            ends = [start for code, start in zip(store.codes, store.starts) if code == "END_VAR"]
            body_start = ends[-1] + len("END_VAR") if ends else 0
            stray = PLACEHOLDER_RE.search(text, body_start)
            if stray:
                raise ConfigError(
                    f"template {name!r}: placeholder @{{{stray.group(1)}}} "
                    "inside a statement body"
                )


def load_template_dir(directory: str | Path) -> TemplateSet:
    """Read every ``*.st.tpl`` file; the template name is the file stem."""
    root = Path(directory)
    templates: dict[str, str] = {}
    for path in sorted(root.glob("*.st.tpl")):
        templates[path.name[: -len(".st.tpl")]] = read_text(path)
    return TemplateSet(templates)


def substitute(
    text: str, params: dict[str, str], context: str
) -> list[tuple[str, Provenance]]:
    """Fill placeholders line by line, tracking which lines were touched."""
    out: list[tuple[str, Provenance]] = []
    for line in text.splitlines():
        names = PLACEHOLDER_RE.findall(line)
        if not names:
            out.append((line, Provenance.TEMPLATE))
            continue
        for name in names:
            if name not in params:
                raise ConfigError(f"{context}: missing parameter {name!r}")
        filled = PLACEHOLDER_RE.sub(lambda m: str(params[m.group(1)]), line)
        out.append((filled, Provenance.CONFIG))
    return out


# --- template-based configuration --------------------------------------------------


class InstanceSpec(NamedTuple):
    name: str
    template: str
    params: dict[str, str]


class ModuleConfig(NamedTuple):
    supervisory: str = "main"
    mode_constants: tuple[str, ...] = MODE_CONSTANTS
    instances: tuple[InstanceSpec, ...] = ()


TEMPLATE_CONFIG_SHAPE = {
    "supervisory?": str, "mode_constants?": [str],
    "instances?": [{"name": str, "template": str, "params?": {"*": SCALAR}}],
}


def load_module_config(path: str | Path) -> ModuleConfig:
    """The template-mode config of ``TEMPLATE_CONFIG_SHAPE``."""
    data = load_json(path, TEMPLATE_CONFIG_SHAPE)
    instances = tuple(InstanceSpec(item["name"], item["template"],
                                   {k: str(v) for k, v in item.get("params", {}).items()})
                      for item in data.get("instances", ()))
    return ModuleConfig(data.get("supervisory", "main"),
                        tuple(data.get("mode_constants", MODE_CONSTANTS)), instances)


def _check_module_config(templates: TemplateSet, config: ModuleConfig) -> dict[str, dict[str, str]]:
    """Validate the config and collapse per-instance params to one set per template."""
    templates.validate()
    _check_name(config.supervisory, "supervisory program")
    for constant in config.mode_constants:
        _check_name(constant, "mode constant")
    seen_names: set[str] = set()
    per_template: dict[str, dict[str, str]] = {}
    for spec in config.instances:
        _check_name(spec.name, "instance")
        key = spec.name.lower()
        if key in seen_names:
            raise ConfigError(f"duplicate instance name {spec.name!r}")
        seen_names.add(key)
        if spec.template not in templates.templates:
            raise ConfigError(f"unknown template {spec.template}")
        required = templates.required_params(spec.template)
        for param in required:
            if param not in spec.params:
                raise ConfigError(
                    f"template {spec.template!r}: missing parameter {param!r} "
                    f"for instance {spec.name!r}"
                )
        previous = per_template.get(spec.template)
        if previous is None:
            per_template[spec.template] = dict(spec.params)
        elif any(previous.get(k) != spec.params.get(k) for k in required):
            # instances share one emitted block per template, so their
            # parameters must agree
            raise ConfigError(
                f"template {spec.template!r}: conflicting parameter values "
                f"between instances"
            )
    return per_template


def generate_template_project(
    templates: TemplateSet, config: ModuleConfig
) -> GeneratedProject:
    """Emit one FB per used template plus the supervisory program and globals."""
    per_template = _check_module_config(templates, config)

    files: list[GeneratedFile] = []
    used_templates: list[str] = []
    for spec in config.instances:
        if spec.template not in used_templates:
            used_templates.append(spec.template)
    for name in used_templates:
        lines = substitute(
            templates.templates[name], per_template[name], f"template {name!r}"
        )
        files.append(GeneratedFile(f"{name}.st", tuple(lines)))

    sup: list[tuple[str, Provenance]] = []
    mark = Provenance.CONFIG

    sup.append((f"PROGRAM {config.supervisory}", mark))
    sup.append(("VAR", mark))
    for spec in config.instances:
        sup.append((f"  {spec.name} : {spec.template};", mark))
    sup.append(("  _mode : INT;", mark))
    sup.append(("END_VAR", mark))
    sup.append((f"CASE {MODE_VARIABLE} OF", mark))
    for constant in config.mode_constants:
        sup.append((f"  {constant}:", mark))
        sup.append((f"    _mode := {constant};", mark))
    sup.append(("END_CASE;", mark))
    sup.append(("(* MANUAL: interlock - module handshake cannot be generated *)", mark))
    for spec in config.instances:
        sup.append((f"{spec.name}(mode := _mode);", mark))
    sup.append(("END_PROGRAM", mark))
    files.append(GeneratedFile(f"{config.supervisory}.st", tuple(sup)))

    glob: list[tuple[str, Provenance]] = [("VAR_GLOBAL CONSTANT", mark)]
    for index, constant in enumerate(config.mode_constants):
        glob.append((f"  {constant} : INT := {index};", mark))
    glob.append(("END_VAR", mark))
    glob.append(("VAR_GLOBAL", mark))
    glob.append((f"  {MODE_VARIABLE} : INT;", mark))
    glob.append(("END_VAR", mark))
    files.append(GeneratedFile("mode_globals.st", tuple(glob)))

    task = GeneratedFile(
        "tasks.txt",
        ((f"task main cycle 10 entry {config.supervisory}", mark),),
    )
    files.append(task)
    return GeneratedProject(tuple(files))


# --- parameter-based configuration --------------------------------------------------


class ParameterProject(NamedTuple):
    invariable: tuple[tuple[str, str], ...]  # (file name, ST text)
    component_template: str
    columns: tuple[str, ...]
    rows: tuple[dict[str, str], ...]
    name_column: str = "name"


def load_parameter_table(text: str) -> tuple[tuple[str, ...], tuple[dict[str, str], ...]]:
    reader = csv.DictReader(io.StringIO(text))
    if not reader.fieldnames:
        raise ConfigError("parameter table has no header row")
    rows = tuple({k: (v or "") for k, v in row.items()} for row in reader)
    return tuple(reader.fieldnames), rows


PARAMETER_CONFIG_SHAPE = {
    "template": str, "invariable?": [str], "rows?": [{"*": SCALAR}], "columns?": [str],
    "table?": str, "name_column?": str,
}


def load_parameter_project(path: str | Path, template_dir: str | Path) -> ParameterProject:
    """The parameter-mode config of ``PARAMETER_CONFIG_SHAPE``; the invariable
    files come from ``template_dir``, a CSV ``table`` from beside the config."""
    data = load_json(path, PARAMETER_CONFIG_SHAPE)
    templates = load_template_dir(template_dir).templates
    if data["template"] not in templates:
        raise ConfigError(f"unknown template {data['template']}")
    try:  # a file the config names may be missing, unreadable or not UTF-8
        invariable = tuple((name, read_text(Path(template_dir) / name))
                           for name in data.get("invariable", ()))
        if "rows" in data:
            rows = tuple({k: str(v) for k, v in row.items()} for row in data["rows"])
            columns = tuple(data.get("columns") or (rows[0] if rows else ()))
        elif "table" in data:
            table = Path(path).parent / data["table"]
            columns, rows = load_parameter_table(read_text(table))
        else:
            raise ValueError("key 'table': expected a string, got nothing")
    except (ValueError, OSError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ParameterProject(invariable, templates[data["template"]], columns, rows,
                            data.get("name_column", "name"))


def generate_parameter_project(pp: ParameterProject) -> GeneratedProject:
    """Copy the invariable base, generate one component per table row, and
    expose every row parameter as a global variable."""
    if pp.name_column not in pp.columns:
        raise ConfigError(f"parameter table has no {pp.name_column!r} column")

    headers = [header for _, text in pp.invariable for header in _pou_headers(text)]
    base_names = {name.lower() for _, name in headers}

    files: list[GeneratedFile] = []
    for fname, text in pp.invariable:
        lines = tuple((line, Provenance.TEMPLATE) for line in text.splitlines())
        files.append(GeneratedFile(fname, lines))

    seen: set[str] = set()
    globals_lines: list[tuple[str, Provenance]] = [("VAR_GLOBAL", Provenance.CONFIG)]
    for index, row in enumerate(pp.rows):
        name = row.get(pp.name_column, "").strip()
        if not name:
            raise ConfigError(f"row {index}: empty component name")
        _check_name(name, f"row {index}: component")
        key = name.lower()
        if key in seen:
            raise ConfigError(f"row {index}: duplicate component name {name!r}")
        if key in base_names:
            raise ConfigError(
                f"row {index}: component name {name!r} collides with an invariable POU"
            )
        seen.add(key)
        lines = substitute(pp.component_template, row, f"row {index}")
        files.append(GeneratedFile(f"{name}.st", tuple(lines)))
        for column in pp.columns:
            if column == pp.name_column:
                continue
            global_name = f"{name}_{column}"
            _check_name(global_name, f"row {index}: parameter global")
            value = row.get(column, "").strip()
            type_name = _guess_type(value)
            globals_lines.append(
                (f"  {global_name} : {type_name} := {_st_literal(value, type_name)};",
                 Provenance.CONFIG)
            )
    globals_lines.append(("END_VAR", Provenance.CONFIG))
    if len(globals_lines) > 2:
        files.append(GeneratedFile("parameters_globals.st", tuple(globals_lines)))

    # with exactly one program in the base, the merged project gets its task
    programs = [name for keyword, name in headers if keyword == "PROGRAM"]
    if len(programs) == 1:
        files.append(
            GeneratedFile(
                "tasks.txt",
                ((f"task main cycle 10 entry {programs[0]}", Provenance.CONFIG),),
            )
        )
    return GeneratedProject(tuple(files))


# numbers in ASCII digits, as the tokenizer reads them: other digits make a STRING
_INT_RE = re.compile(r"[+-]?[0-9]+")
_REAL_RE = re.compile(r"[+-]?[0-9]+\.[0-9]+")


def _guess_type(value: str) -> str:
    """The ST type of a stripped parameter value."""
    if _INT_RE.fullmatch(value):
        return "INT"
    if _REAL_RE.fullmatch(value):
        return "REAL"
    if value.upper() in ("TRUE", "FALSE"):
        return "BOOL"
    return "STRING"


def _st_literal(value: str, type_name: str) -> str:
    """A stripped parameter value as a literal of its type from ``_guess_type``."""
    if type_name == "STRING":
        return "'" + value.replace("'", "$'") + "'"
    return value.upper() if type_name == "BOOL" else value
