"""Catalog runner tests: case values, golden comparison, report merging."""

import json
from pathlib import Path

import pytest

from hpdcalc import catalog

from support import count_calls


def blocks_of(report, sod_name):
    for sod in report["sods"]:
        if sod["name"] == sod_name:
            return [(b["twist"], b["invariant"]) for b in sod["blocks"]]
    raise AssertionError(f"no sod named {sod_name!r}")


def test_case_names_are_stable():
    assert catalog.case_names() == [
        "gr25-join",
        "points-line",
        "three-points-plane",
        "cone-point",
        "cone-gr25",
        "refined-blowup",
    ]


def test_unknown_case_is_rejected():
    with pytest.raises(ValueError):
        catalog.run_case("nope")


def test_gr25_join_emits_nine_copies_of_the_intersection_invariant():
    report = catalog.run_case("gr25-join")
    assert blocks_of(report, "join(Gr25, Gr25g)") == [(i, "e") for i in range(9)]
    (row,) = report["checks"]
    assert (row["name"], row["status"]) == ("main_theorem", "pass")
    assert row["lhs"] == row["rhs"] == "e"


def test_points_line_join_is_a_two_block_line():
    report = catalog.run_case("points-line")
    assert blocks_of(report, "join(Pt1, Pt2)") == [(0, "1"), (1, "1")]
    assert [row["status"] for row in report["checks"]] == ["pass", "pass"]


def test_three_points_flat_join_is_a_plane():
    report = catalog.run_case("three-points-plane")
    assert blocks_of(report, "flat-join(A, B, C)") == [(0, "1"), (1, "1"), (2, "1")]


def test_cone_cases_hit_the_fixture_values():
    point = catalog.run_case("cone-point")
    assert [(r["lhs"], r["rhs"]) for r in point["checks"]] == [("4", "4"), ("2", "2")]
    gr = catalog.run_case("cone-gr25")
    assert [(r["lhs"], r["rhs"]) for r in gr["checks"]] == [("16", "16"), ("10", "10")]


def test_refined_blowup_branches():
    report = catalog.run_case("refined-blowup")
    short = blocks_of(report, "refined-blowup(Gr25, ell=4)")
    assert short == [(i, "z - 2") for i in range(3)]
    long = blocks_of(report, "refined-blowup(Gr25, ell=7)")
    assert long == [(i, "z + 2") for i in range(5)] + [(5, "z")]


def test_underdetermined_check_in_a_case_is_a_row(monkeypatch):
    # Q has no declared intersection with Pt1, so main_theorem is undecided.
    source = catalog.case_source("points-line") + (
        "category Q over P(3) primitive [1];\ncheck main_theorem(Pt1, Q);\n"
    )
    monkeypatch.setattr(catalog, "case_source", lambda name: source)
    row = catalog.run_case("points-line")["checks"][-1]
    assert (row["name"], row["status"], row["lhs"], row["rhs"], row["witness"]) == (
        "main_theorem",
        "underdetermined",
        "",
        "",
        None,
    )
    assert row["notes"]


def test_every_case_matches_its_stored_golden():
    for name in catalog.case_names():
        _, matched, notes = catalog.compare_case(name)
        assert matched, f"{name}: {notes}"


def test_comparison_ignores_the_version_field(monkeypatch):
    report = catalog.run_case("cone-point")
    report["version"] = "someday-later"
    _, matched, _ = catalog.compare_case("cone-point", report)
    assert matched


def test_golden_mismatch_is_reported_with_a_diff(monkeypatch):
    stale = catalog.run_case("cone-point")
    stale["checks"][0]["lhs"] = "5"
    monkeypatch.setattr(catalog, "golden_report", lambda name: stale)
    _, matched, notes = catalog.compare_case("cone-point")
    assert not matched
    assert notes[0] == "differs from stored golden"
    assert any('"5"' in line for line in notes)


def test_golden_write_and_read_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(
        catalog, "_golden_resource", lambda name: Path(tmp_path) / f"{name}.json"
    )
    _, matched, notes = catalog.compare_case("points-line")
    assert not matched and "no stored golden" in notes[0]
    catalog.write_golden("points-line")
    _, matched, _ = catalog.compare_case("points-line")
    assert matched
    stored = json.loads((tmp_path / "points-line.json").read_text())
    assert list(stored) == ["version", "input_digest", "checks", "sods", "warnings"]


def test_run_catalog_merges_all_cases_with_prefixes():
    report, ok = catalog.run_catalog()
    assert ok
    names = [row["name"] for row in report["checks"]]
    assert "gr25-join:main_theorem" in names
    assert "gr25-join:golden" in names
    assert all(row["status"] == "pass" for row in report["checks"])
    # one golden row per case plus the per-file check statements
    golden_rows = [n for n in names if n.endswith(":golden")]
    assert len(golden_rows) == len(catalog.case_names())
    sod_names = [sod["name"] for sod in report["sods"]]
    assert "refined-blowup:refined-blowup(Gr25, ell=7)" in sod_names


@pytest.mark.parametrize("names", [None, ["cone-point", "gr25-join"]])
def test_run_catalog_runs_each_selected_case_through_run_case(names, monkeypatch):
    # run_case is the one entry point a case has, so a trace of it times the catalog.
    calls = count_calls(monkeypatch, catalog, "run_case")
    report, ok = catalog.run_catalog(names)
    selected = names or catalog.case_names()
    assert ok and len(calls) == len(selected)
    sources = "".join(catalog.case_source(name) for name in selected)
    assert report["input_digest"] == catalog.input_digest(sources)


def test_run_catalog_subset_and_failure_propagation(monkeypatch):
    report, ok = catalog.run_catalog(["cone-point"])
    assert ok
    assert all(row["name"].startswith("cone-point:") for row in report["checks"])

    stale = catalog.run_case("cone-point")
    stale["checks"][0]["rhs"] = "0"
    monkeypatch.setattr(catalog, "golden_report", lambda name: stale)
    _, ok = catalog.run_catalog(["cone-point"])
    assert not ok
