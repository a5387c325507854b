from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from swmat.maturity import default_schema
from swmat.project import parse_project

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def plant_dir() -> Path:
    return FIXTURES / "filling_plant"


@pytest.fixture(scope="session")
def plant_project(plant_dir):
    project, diagnostics = parse_project(plant_dir)
    assert not [d for d in diagnostics if d.severity == "error"]
    return project


@pytest.fixture(scope="session")
def schema():
    return default_schema()
