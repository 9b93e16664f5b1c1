"""The report contract: the digest of every run `tools/report_digests.py` makes,
committed as `tests/report_digests.txt` and compared with a fresh run, and the
report writer's bytes, which are `json.dumps(report, indent=2)`'s."""

import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hpdcalc import catalog, dsl, poly
from hpdcalc.report import check_row, stable_json

from support import count_calls

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "tests" / "report_digests.txt"
REGENERATE = "python3 tools/report_digests.py . --jobs 20 --seed 1 --write"


def _by_label(text: str) -> dict:
    return {label: digest for digest, label in (line.split("  ", 1) for line in text.splitlines())}


def test_report_digests_match_the_committed_file():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT),
         "--jobs", "20", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    committed = COMMITTED.read_text(encoding="utf-8")
    if done.stdout == committed:
        return
    got, want = _by_label(done.stdout), _by_label(committed)
    moved = [label for label in {**want, **got} if got.get(label) != want.get(label)]
    named = "\n  ".join(moved) if moved else "(none: the same lines in another order)"
    raise AssertionError(
        f"{len(moved)} report digest lines moved:\n  {named}\n"
        f"If the report bytes changed on purpose, regenerate the file with `{REGENERATE}` "
        "and review its diff as a golden change. The file digests perfbench jobs too, "
        "so a change to perfbench/workloads.py regenerates it as well."
    )


def _dumps(value) -> str:
    return json.dumps(value, indent=2) + "\n"


# Any code point, lone surrogates included, and the ones JSON escapes.
_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff')
)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_stable_json_writes_what_json_dumps_with_an_indent_writes(value):
    assert stable_json(value) == _dumps(value)


def test_stable_json_leaves_what_it_does_not_lay_out_to_json():
    for value in [{"a": 1.5}, {1: "x"}, [(1, 2)], {"a": [True, 2**3]}]:
        assert stable_json(value) == _dumps(value)


def test_stable_json_matches_json_dumps_on_catalog_reports():
    reports = [catalog.run_catalog()[0]]
    for path in sorted((Path(catalog.__file__).parent / "_catalog").glob("*.hpd")):
        reports.append(dsl.check_file(path.read_text(encoding="utf-8")))
    assert len(reports) == 7
    for report in reports:
        assert stable_json(report) == _dumps(report)


def test_stable_json_matches_json_dumps_on_a_10000_block_sod():
    source = (
        "category A over P(10001) primitive [1, 1];\n"
        "category B over P(10001) primitive [1, 2];\n"
        "disjoint A, B;\n"
        "sod join(A, B);\n"
    )
    report = dsl.check_file(source)
    assert len(report["sods"][0]["blocks"]) >= 10_000
    assert stable_json(report) == _dumps(report)


def test_a_passing_row_formats_its_value_once(monkeypatch):
    x, y = poly.sym("x"), poly.sym("y")
    formatted = count_calls(monkeypatch, poly.InvariantExpr, "__str__")
    row = check_row("c", (x + y) * (x + y), x * x + 2 * x * y + y * y, "pass", None, ())
    assert row["lhs"] == row["rhs"] == "x*x + 2*x*y + y*y" and len(formatted) == 1
    row = check_row("c", x + y, x + 2 * y, "fail", {"x": 0, "y": 1}, ())
    assert (row["lhs"], row["rhs"]) == ("x + y", "x + 2*y") and len(formatted) == 3
