import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vcsfm

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_importing_every_module_loads_numpy_only():
    # the test oracles load scipy into this process, so import in a fresh one
    code = (
        "import importlib, pkgutil, sys, vcsfm\n"
        "names = [m.name for m in pkgutil.iter_modules(vcsfm.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('vcsfm.' + name)\n"
        "print(len(names), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split(maxsplit=1)
    assert int(out[0]) >= 9 and out[1].strip() == "[]"


def test_every_validated_dataclass_is_frozen():
    # a check in __post_init__ holds only if no field can be reassigned after it
    modules = [importlib.import_module(f"vcsfm.{m.name}")
               for m in pkgutil.iter_modules(vcsfm.__path__)]
    validated = [cls for mod in modules for cls in vars(mod).values()
                 if isinstance(cls, type) and cls.__module__ == mod.__name__
                 and dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls)]
    assert len(validated) >= 14
    assert [c.__qualname__ for c in validated if not c.__dataclass_params__.frozen] == []
