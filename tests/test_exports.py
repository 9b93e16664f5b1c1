"""Every name a module exports through `__all__` must exist, and the README's
library example runs as documented."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hpdcalc

MODULES = ["hpdcalc"] + [f"hpdcalc.{info.name}" for info in pkgutil.iter_modules(hpdcalc.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_library_example_prints_its_documented_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "10\npass\n"
