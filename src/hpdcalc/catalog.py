"""Built-in worked examples, executed against checked-in golden reports.

Each case is a declaration file under ``_catalog/`` plus a list of
decompositions to emit; the produced report is compared field-for-field
(version aside) with the stored golden JSON.
"""

from __future__ import annotations

import difflib
import functools
import json
from dataclasses import dataclass
from importlib import resources

from .dsl import check_file
from .engine import (
    join_profile,
    join_sod,
    n_join_profile,
    refined_blowup_profile,
    universal_hyperplane_sod,
)
from .model import Workspace
from .poly import parse_expr
from .report import build_report, check_row, input_digest, normalized, stable_json

__all__ = ["case_names", "run_case", "compare_case", "write_golden", "run_catalog"]


@dataclass(frozen=True)
class CatalogCase:
    name: str
    source_file: str
    sod_directives: tuple[tuple, ...]


_CASES = {
    case.name: case
    for case in (
        CatalogCase("gr25-join", "gr25_join.hpd", (("join", ("Gr25", "Gr25g")),)),
        CatalogCase("points-line", "points_line.hpd", (("join", ("Pt1", "Pt2")),)),
        CatalogCase(
            "three-points-plane",
            "three_points_plane.hpd",
            (("flat-join", ("A", "B", "C")),),
        ),
        CatalogCase("cone-point", "cone_point.hpd", (("universal-hyperplane", ("Pt",)),)),
        CatalogCase("cone-gr25", "cone_gr25.hpd", (("universal-hyperplane", ("Gr25",)),)),
        CatalogCase(
            "refined-blowup",
            "refined_blowup.hpd",
            (
                ("refined-blowup", ("Gr25",), 4, "z"),
                ("refined-blowup", ("Gr25",), 7, "z"),
            ),
        ),
    )
}


def case_names() -> list[str]:
    return list(_CASES)


def _case(name: str) -> CatalogCase:
    try:
        return _CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown catalog case {name!r}; available: {', '.join(_CASES)}"
        ) from None


@functools.cache
def _data_dir():
    """The case sources and goldens, found once per process."""
    return resources.files(__package__) / "_catalog"


def case_source(name: str) -> str:
    return (_data_dir() / _case(name).source_file).read_text(encoding="utf-8")


def _emit_sod(ws: Workspace, directive: tuple) -> dict:
    kind, names = directive[0], directive[1]
    profiles = [ws.category(n) for n in names]
    label = f"{kind}({', '.join(names)})"
    if kind == "join":
        sod = join_profile(*profiles, ws).to_sod()
    elif kind == "flat-join":
        sod = join_sod(names, n_join_profile(profiles, ws))
    elif kind == "universal-hyperplane":
        sod = universal_hyperplane_sod(*profiles)
    elif kind == "refined-blowup":
        ell, z_text = directive[2], directive[3]
        sod = refined_blowup_profile(*profiles, ell, parse_expr(z_text)).to_sod()
        label = f"{kind}({names[0]}, ell={ell})"
    else:
        raise AssertionError(f"unhandled sod directive {kind!r}")
    return sod.to_json_dict(label)


def run_case(name: str) -> dict:
    """Execute one case and assemble its report."""
    return _run_source(name, case_source(name))


def _run_source(name: str, source: str) -> dict:
    report, ws = check_file(source)
    report["sods"] = [_emit_sod(ws, directive) for directive in _case(name).sod_directives]
    return report


def _golden_resource(name: str):
    return _data_dir() / "golden" / f"{name}.json"


def golden_report(name: str) -> dict:
    return json.loads(_golden_resource(name).read_text(encoding="utf-8"))


def write_golden(name: str, report: dict | None = None) -> None:
    """Regenerate one stored golden file; only ever invoked explicitly."""
    report = run_case(name) if report is None else report
    target = _golden_resource(name)
    with resources.as_file(target) as path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(stable_json(report), encoding="utf-8")


def compare_case(name: str, report: dict | None = None) -> tuple[dict, bool, list[str]]:
    """Run a case and diff it against its golden; returns (report, ok, notes)."""
    report = run_case(name) if report is None else report
    try:
        golden = golden_report(name)
    except FileNotFoundError:
        return report, False, [f"no stored golden for {name!r}"]
    got = stable_json(normalized(report)).splitlines()
    want = stable_json(normalized(golden)).splitlines()
    if got == want:
        return report, True, ["matches stored golden"]
    diff = list(difflib.unified_diff(want, got, "golden", "current", lineterm=""))
    return report, False, ["differs from stored golden"] + diff[:12]


def run_catalog(
    names: list[str] | None = None, *, update_golden: bool = False
) -> tuple[dict, bool]:
    """Run the selected cases; returns the merged report and overall success."""
    selected = names if names else case_names()
    checks: list[dict] = []
    sods: list[dict] = []
    warnings: list[str] = []
    sources: list[str] = []
    all_ok = True

    for name in selected:
        sources.append(case_source(name))
        case_report = _run_source(name, sources[-1])
        if update_golden:
            write_golden(name, case_report)
        _, matched, notes = compare_case(name, case_report)
        all_ok = all_ok and matched

        for row in case_report["checks"]:
            prefixed = dict(row)
            prefixed["name"] = f"{name}:{row['name']}"
            checks.append(prefixed)
            all_ok = all_ok and row["status"] == "pass"
        status = "pass" if matched else "fail"
        checks.append(check_row(f"{name}:golden", "", "", status, None, notes))
        for sod in case_report["sods"]:
            prefixed = dict(sod)
            prefixed["name"] = f"{name}:{sod['name']}"
            sods.append(prefixed)
        for note in case_report["warnings"]:
            if note not in warnings:
                warnings.append(note)

    merged = build_report(input_digest("".join(sources)), checks, sods, warnings)
    return merged, all_ok
