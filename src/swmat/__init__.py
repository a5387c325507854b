"""Software maturity benchmark toolkit for PLC projects (SWMAT4aPS).

Two halves: a questionnaire engine that turns answer sets into maturity
scores with cohort comparison and reporting, and a static analyzer for
IEC 61131-3 Structured Text that builds call graphs, measures modularity
and grades architecture.  A code configurator generates ST projects from
templates or parameter tables; its output feeds straight back into the
analyzer.

Importing the package runs none of its modules.  Each submodule is
registered in ``sys.modules`` with a lazy loader and runs on the first
access to one of its attributes; each public name below is resolved from
its module on first access (PEP 562), so a process loads only the half it
uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names the package exports from it
_EXPORTS = {
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
        "build_report", "cohort_stats", "complexity_measure",
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = tuple(_MODULE_OF)


def _register_lazy(name: str):
    """Put submodule ``name`` into ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[f"{__name__}.{module}"], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
