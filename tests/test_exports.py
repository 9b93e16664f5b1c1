"""Every name a module exports through `__all__` must exist, the functions the
benchmark's tracer reads stay where it looks for them, the README's library
example runs as documented, importing the CLI stays cheap, and the record
types keep their contract."""

import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hpdcalc
from hpdcalc import catalog, checks, dsl, engine, model, poly, prop
from hpdcalc.poly import const

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


# Modules a plain run never needs: `dataclasses` pulls in `inspect`, which
# pulls in `ast` and `dis`; `traceback` serves only an internal error (exit 5)
# and `difflib` only a catalog golden mismatch.
COSTLY_AT_START = {"dataclasses", "inspect", "ast", "dis", "traceback", "difflib"}


def test_importing_the_cli_loads_none_of_the_costly_modules():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import hpdcalc.cli; print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(hpdcalc.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert "hpdcalc.cli" in added
    assert added & COSTLY_AT_START == set()


def _profile():
    return model.build_profile("A", 4, [1, 2])


def _outcome():
    return prop.PropertyOutcome("splitting", 1, 2, 2, None)


# Each record type, a builder of one value and a field to try to assign.
RECORDS = {
    "Symbol": (lambda: poly.Symbol("x"), "name"),
    "LefschetzProfile": (_profile, "name"),
    "SodBlock": (lambda: model.SodBlock("t", 1, const(2)), "twist"),
    "SodExpr": (lambda: model.SodExpr("P(V)", (model.SodBlock("t", 1, const(2)),)), "blocks"),
    "NHyperplaneResult": (
        lambda: engine.NHyperplaneResult(model.SodExpr("P(V)", ()), const(1), const(2)),
        "h_total",
    ),
    "RefinedBlowupResult": (lambda: engine.refined_blowup_profile(_profile(), 3, 1), "head"),
    "CheckResult": (
        lambda: checks.CheckResult("c", const(1), const(1), "pass", None, ("n",)),
        "status",
    ),
    "Ast": (lambda: dsl.parse("symbol x;"), "statements"),
    "PropertyOutcome": (_outcome, "passes"),
    "PropReport": (lambda: prop.PropReport(1, 2, (_outcome(),)), "outcomes"),
    "_Bounds": (lambda: prop._Bounds(5, 9, 2, False), "max_rank"),
    # Not hashable: a witness is a dict, the workspace's mappings are
    # mappings, and a parsed statement keeps its lexed source, which has lists.
    "CaseFailure": (lambda: prop.CaseFailure(0, "d", const(1), const(2), {"x": 0}), "detail"),
    "Workspace": (lambda: model.Workspace.build(categories=[_profile()]), "symbols"),
}
UNHASHABLE = {"Ast", "CaseFailure", "Workspace"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_and_compare_by_their_fields(name):
    build, field = RECORDS[name]
    record, twin = build(), build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert record == twin and not record != twin
    if name not in UNHASHABLE:
        assert hash(record) == hash(twin)


def test_workspace_equality_ignores_its_warnings():
    profiles = [model.build_profile(name, 4, [1, 2]) for name in "AB"]
    plain = model.Workspace.build(categories=profiles, disjoint_sets=[["A", "B"]])
    # A symbolic value for a disjoint pair is dropped with a warning.
    warned = model.Workspace.build(
        categories=profiles, intersections={("A", "B"): poly.sym("x")}, disjoint_sets=[["A", "B"]]
    )
    assert warned.warnings and not plain.warnings
    assert warned == plain and not warned != plain
    assert model.Workspace() != plain


def test_a_profile_computes_its_tail_sums_and_total_when_first_read():
    profile = _profile()
    assert {"_components", "_total"}.isdisjoint(vars(profile))
    assert profile.component_ranks() == [const(3), const(2)]
    assert profile.total_invariant() == const(5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: poly.Symbol("2x"), "symbol name must be an identifier, got '2x'"),
        (lambda: poly.Symbol(""), "symbol name must be an identifier, got ''"),
        (lambda: prop.run_property("splitting", 1, 1, max_length=7), "max_length must be in 1..6, got 7"),
        (lambda: prop.run_property("splitting", 1, 1, max_rank=1), "max_rank must be in 2..9, got 1"),
        (lambda: prop.run_property("splitting", 1, 1, max_symbols=4), "max_symbols must be in 0..3, got 4"),
    ],
)
def test_record_validation_keeps_its_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
