"""Built-in worked examples, executed against checked-in golden reports.

A case is a declaration file, ``_catalog/<name with _ for ->.hpd``, plus its
golden report, ``_catalog/golden/<name>.json``. The file's `sod` statements
ask for the decompositions; running a case is `dsl.check_file` on the file,
and its report is compared field for field (version aside) with the golden.
"""

from __future__ import annotations

import functools
import json

from .dsl import check_file
from .report import build_report, check_row, input_digest, normalized, stable_json

__all__ = ["case_names", "run_case", "compare_case", "write_golden", "run_catalog"]

# The cases, in the order the merged report lists them.
_CASES = (
    "gr25-join", "points-line", "three-points-plane", "cone-point", "cone-gr25", "refined-blowup"
)


def case_names() -> list[str]:
    return list(_CASES)


@functools.cache
def _data_dir():
    """The case sources and goldens, found once per process."""
    # Imported here, since from Python 3.12 on it imports `inspect`, which
    # a `check` or `prop` run would otherwise load for nothing.
    from importlib import resources

    return resources.files(__package__) / "_catalog"


def case_source(name: str) -> str:
    if name not in _CASES:
        raise ValueError(f"unknown catalog case {name!r}; available: {', '.join(_CASES)}")
    return (_data_dir() / f"{name.replace('-', '_')}.hpd").read_text(encoding="utf-8")


def run_case(name: str) -> dict:
    """Execute one case and assemble its report."""
    return check_file(case_source(name))[0]


def _golden_resource(name: str):
    return _data_dir() / "golden" / f"{name}.json"


def golden_report(name: str) -> dict:
    return json.loads(_golden_resource(name).read_text(encoding="utf-8"))


def write_golden(name: str, report: dict | None = None) -> None:
    """Regenerate one stored golden file; only ever invoked explicitly."""
    report = run_case(name) if report is None else report
    path = _golden_resource(name)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(stable_json(report), encoding="utf-8")
    except OSError as err:
        raise OSError(f"cannot write golden {name!r}: {err}") from err


def compare_case(name: str, report: dict | None = None) -> tuple[dict, bool, list[str]]:
    """Run a case and diff it against its golden; returns (report, ok, notes)."""
    report = run_case(name) if report is None else report
    try:
        golden = golden_report(name)
    except FileNotFoundError:
        return report, False, [f"no stored golden for {name!r}"]
    got, want = normalized(report), normalized(golden)
    # Compact text (the C encoder) tells two reports apart exactly as the
    # indented text does; only a mismatch needs the indented lines, to diff.
    if json.dumps(got) == json.dumps(want):
        return report, True, ["matches stored golden"]
    import difflib

    got_lines, want_lines = stable_json(got).splitlines(), stable_json(want).splitlines()
    diff = list(difflib.unified_diff(want_lines, got_lines, "golden", "current", lineterm=""))
    return report, False, ["differs from stored golden"] + diff[:12]


def _prefixed(name: str, entries: list[dict]) -> list[dict]:
    return [{**entry, "name": f"{name}:{entry['name']}"} for entry in entries]


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
        report, _ = check_file(sources[-1])
        if update_golden:
            write_golden(name, report)
        _, matched, notes = compare_case(name, report)
        all_ok = all_ok and matched and all(row["status"] == "pass" for row in report["checks"])
        checks += _prefixed(name, report["checks"])
        status = "pass" if matched else "fail"
        checks.append(check_row(f"{name}:golden", "", "", status, None, notes))
        sods += _prefixed(name, report["sods"])
        for note in report["warnings"]:
            if note not in warnings:
                warnings.append(note)

    merged = build_report(input_digest("".join(sources)), checks, sods, warnings)
    return merged, all_ok
