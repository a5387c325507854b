"""The package's public names: each resolves on first access to the object
its module defines, and ``swmat.default_schema`` stays the function."""

from __future__ import annotations

import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import swmat

ROOT = Path(__file__).resolve().parent.parent

# every name ``import swmat`` has exported since 0.1.0, by defining module
PUBLIC = {
    "model": (
        "AnswerSet", "CallResolution", "CallSite", "Category", "CompanyCategory",
        "Diagnostic", "GlobalVar", "GovernanceLevel", "Grade", "MaturityReport",
        "ModularityAssessment", "Pou", "PouKind", "Project", "QuestionnaireSchema",
        "StructureStyle", "TaskDef", "validate_project",
    ),
    "stparse": ("SourceFile", "parse_file", "parse_source"),
    "project": ("parse_project", "ProjectError"),
    "graphs": (
        "CallGraph", "GlobalCommGraph", "build_call_graph", "build_global_comm_graph",
        "complexity", "emit_dot",
    ),
    "modularity": (
        "CloneReport", "GovernanceEvidence", "Thresholds", "assess_project",
        "assessment_score", "assign_levels", "classify_structure_style", "detect_clones",
        "detect_cross_cutting", "estimate_governance", "grade_meyer",
    ),
    "maturity": (
        "CorrelationResult", "DegenerateSampleError", "ScoringError", "Significance",
        "build_report", "category_maturity", "cohort_stats", "complexity_measure",
        "default_schema", "interaction_variable", "overall_maturity", "pearson",
        "score_answer",
    ),
    "configurator": (
        "ConfigError", "GeneratedProject", "InstanceSpec", "ModuleConfig",
        "ParameterProject", "TemplateSet", "generate_parameter_project",
        "generate_template_project", "specificity_ratio",
    ),
    "reporting": (
        "RadarSeries", "RadarSpec", "ScatterPoint", "emit_overview_csv", "emit_radar_svg",
        "emit_scatter_csv",
    ),
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_module_objects(module):
    owner = importlib.import_module(f"swmat.{module}")
    for name in PUBLIC[module]:
        assert getattr(swmat, name) is getattr(owner, name), name
        namespace: dict = {}
        exec(f"from swmat import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name


def test_star_import_gives_every_public_name():
    namespace: dict = {}
    exec("from swmat import *", namespace)
    assert {n for names in PUBLIC.values() for n in names} <= set(namespace)


def test_default_schema_is_the_function():
    assert swmat.default_schema is swmat.maturity.default_schema
    assert isinstance(swmat.default_schema(), swmat.QuestionnaireSchema)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("swmat.default_schema")


def test_submodules_stay_package_attributes():
    for module in PUBLIC:
        assert getattr(swmat, module) is sys.modules[f"swmat.{module}"]


def test_version_and_unknown_attribute():
    assert swmat.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        swmat.no_such_name  # noqa: B018
    assert not hasattr(swmat, "cli_main")


def test_readme_library_use_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shutil.copytree(ROOT / "tests" / "fixtures" / "filling_plant", tmp_path / "project")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", snippet], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().isdigit()  # the score sum
