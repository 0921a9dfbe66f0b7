import importlib
from pathlib import Path

import pytest

import vcsfm

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    assert len(set(vcsfm.__all__)) == len(vcsfm.__all__)
    for name in vcsfm.__all__:
        assert getattr(vcsfm, name) is not None, name


def test_every_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
