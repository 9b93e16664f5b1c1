"""Every name a module exports through `__all__` must exist, the functions the
benchmark's tracer reads stay where it looks for them, and the README's library
example runs as documented."""

import importlib
import inspect
import pkgutil
import re
import types
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


# The benchmark's tracer (perfbench/tracing.py) wraps the public functions of
# nine layer modules by name and reads some of their arguments by name or
# position. A function that leaves `__all__` or moves to another module is no
# longer wrapped, and its figures read 0 instead of failing, so pin them here.
LAYERS = ("cli", "dsl", "model", "engine", "checks", "poly", "report", "catalog", "prop")

TRACED = {
    "engine": [
        "n_hyperplane_sod",
        "n_join_components",
        "join_profile",
        "ruled_join_components",
        "hpd_total",
    ],
    "checks": [
        "find_witness",
        "check_main_theorem",
        "check_n_hpd_center",
        "check_thm_cone_part1",
        "check_thm_cone_part2",
        "check_join_linear",
        "check_dual_profile",
    ],
    "dsl": ["parse", "validate", "run_check"],
    "model": ["build_profile"],
    "report": ["build_report"],
    "catalog": ["run_case", "compare_case"],
    "prop": ["run_property"],
}

# (module, function) -> the leading parameter names the tracer's labels and hooks read.
TRACED_PARAMETERS = {
    ("engine", "n_hyperplane_sod"): ["profiles"],
    ("engine", "n_join_components"): ["profiles"],
    ("engine", "join_profile"): ["p"],
    ("checks", "find_witness"): ["lhs", "rhs"],
    ("dsl", "parse"): ["text"],
    ("prop", "run_property"): ["name", None, "cases"],
}


def test_traced_functions_stay_exported_where_they_are_defined():
    modules = {layer: importlib.import_module(f"hpdcalc.{layer}") for layer in LAYERS}
    for layer, names in TRACED.items():
        module = modules[layer]
        for name in names:
            assert name in module.__all__, f"{layer}.{name}"
            function = getattr(module, name)
            assert isinstance(function, types.FunctionType), f"{layer}.{name}"
            assert function.__module__ == module.__name__, f"{layer}.{name}"
    assert "Workspace" in modules["model"].__all__
    assert isinstance(modules["model"].Workspace.__dict__["build"], staticmethod)


@pytest.mark.parametrize("layer, name", sorted(TRACED_PARAMETERS))
def test_traced_parameter_names_are_unchanged(layer, name):
    function = getattr(importlib.import_module(f"hpdcalc.{layer}"), name)
    parameters = list(inspect.signature(function).parameters)
    expected = TRACED_PARAMETERS[layer, name]
    assert len(parameters) >= len(expected)
    for got, want in zip(parameters, expected):
        assert want is None or got == want
