"""Command-line driver tests: exit codes, report schema, byte stability."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import hpdcalc
from hpdcalc import catalog
from hpdcalc.cli import main
from hpdcalc.poly import MAX_NESTING

CATALOG_FILES = sorted((Path(catalog.__file__).parent / "_catalog").glob("*.hpd"))

PASSING = (
    "symbol e;\n"
    "category Gr25 over P(10) primitive [0, 0, 0, 0, 2];\n"
    "category Gr25g over P(10) primitive [0, 0, 0, 0, 2];\n"
    "intersect Gr25, Gr25g over P(10) = e;\n"
    "check main_theorem(Gr25, Gr25g);\n"
)

FAILING_DUAL = (
    "symbol c;\n"
    "category R over P(5) primitive [0, c];\n"
    "dual R primitive [0, 0, c + 1];\n"
    "check dual_profile(R);\n"
)

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_passing_file_exits_zero_and_prints_the_identity(tmp_path, capsys):
    path = write(tmp_path, "ok.hpd", PASSING)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "check main_theorem: pass (lhs = rhs = e)" in out


def test_json_report_schema_and_byte_stability(tmp_path):
    path = write(tmp_path, "ok.hpd", PASSING)
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["check", path, "--json", str(first)]) == 0
    assert main(["check", path, "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert list(report) == ["version", "input_digest", "checks", "sods", "warnings"]
    assert report["version"] == hpdcalc.__version__
    assert len(report["input_digest"]) == 64
    (row,) = report["checks"]
    assert list(row) == ["name", "lhs", "rhs", "status", "witness", "notes"]
    assert any("complement of the subset" in w for w in report["warnings"])


def test_failing_check_exits_one_with_witness(tmp_path, capsys):
    path = write(tmp_path, "bad.hpd", FAILING_DUAL)
    assert main(["check", path]) == 1
    assert "witness" in capsys.readouterr().out


def test_planted_product_in_many_symbols_is_refuted_within_a_second(tmp_path, capsys):
    # The difference is a multiple of a product of 24 symbols, so it vanishes
    # wherever one of them is 0; its first nonzero point in {0..5}^24, all
    # ones, comes after 6^23 points of the box.
    names = [f"x{i}" for i in range(1, 25)]
    source = (
        "".join(f"symbol {name};\n" for name in names)
        + "category R over P(5) primitive [0, 1];\n"
        + f"dual R primitive [0, 0, 1 + {'*'.join(names)}];\n"
        + "check dual_profile(R);\n"
    )
    path = write(tmp_path, "planted.hpd", source)
    report_path = tmp_path / "planted.json"

    def too_slow(signum, frame):
        raise TimeoutError("refutation took more than a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = main(["check", path, "--json", str(report_path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith("check dual_profile: fail (")
    (row,) = json.loads(report_path.read_text())["checks"]
    assert row["witness"] == {name: 1 for name in sorted(names)}


def test_underdetermined_exits_three(tmp_path, capsys):
    source = (
        "category A over P(6) primitive [1, 1];\n"
        "category B over P(6) primitive [1];\n"
        "check main_theorem(A, B);\n"
    )
    path = write(tmp_path, "open.hpd", source)
    assert main(["check", path]) == 3
    assert "underdetermined" in capsys.readouterr().out


def test_repeated_category_needs_a_disjointness_declaration(tmp_path, capsys):
    # A category listed twice is not disjoint from itself, so its dual is not
    # joined with itself.
    source = (
        "category A over P(4) primitive [1, 1];\n"
        "dual A primitive [1, 1];\n"
        "check n_hpd_center(A, A);\n"
    )
    assert main(["check", write(tmp_path, "center.hpd", source)]) == 3
    assert "needs a declared disjointness group" in capsys.readouterr().out


def test_repeated_name_in_one_disjointness_group_exits_two(tmp_path, capsys):
    source = (
        "category A over P(4) primitive [1, 1];\n"
        "disjoint A, A;\n"
        "check main_theorem(A, A);\n"
    )
    assert main(["check", write(tmp_path, "twice.hpd", source)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "twice.hpd:2:13: category 'A' listed twice" in err


def test_self_intersection_resolves_the_double_hyperplane(tmp_path, capsys):
    source = (
        "category A over P(4) primitive [1, 1];\n"
        "intersect A, A over P(4) = 3;\n"
        "check main_theorem(A, A);\n"
    )
    assert main(["check", write(tmp_path, "self.hpd", source)]) == 0
    assert "lhs = rhs = 7" in capsys.readouterr().out


def test_failure_takes_precedence_over_underdetermined(tmp_path, capsys):
    source = FAILING_DUAL + (
        "category A over P(6) primitive [1, 1];\n"
        "category B over P(6) primitive [1];\n"
        "check main_theorem(A, B);\n"
    )
    path = write(tmp_path, "mixed.hpd", source)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "underdetermined" in out


def test_invalid_file_exits_two_with_span(tmp_path, capsys):
    path = write(tmp_path, "broken.hpd", "category A over P(6 primitive [1];\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert ":1:21:" in err


def test_missing_file_exits_four(capsys):
    assert main(["check", "/nonexistent/x.hpd"]) == 4
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_file_exits_four_with_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.hpd"
    path.write_bytes("symbol \u00e9;\n".encode("latin-1"))
    assert main(["check", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_deep_nesting_exits_two_with_span(tmp_path, capsys):
    prefix = "category A over P(3) primitive ["
    path = write(tmp_path, "deep.hpd", prefix + "(" * 3000 + "1" + ")" * 3000 + "];\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert f"deep.hpd:1:{len(prefix) + MAX_NESTING + 1}: parentheses nested deeper" in err


@pytest.mark.parametrize("source", CATALOG_FILES, ids=[p.stem for p in CATALOG_FILES])
def test_check_reproduces_the_catalog_golden(source, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", str(source), "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    golden = catalog.golden_report(source.stem.replace("_", "-"))
    for key in ("input_digest", "checks", "warnings"):
        assert report[key] == golden[key]
    capsys.readouterr()


def test_unwritable_report_exits_four(tmp_path, capsys):
    path = write(tmp_path, "ok.hpd", PASSING)
    assert main(["check", path, "--json", str(tmp_path / "no" / "dir.json")]) == 4


def test_allow_nonmoderate_gates_validation(tmp_path, capsys):
    path = write(tmp_path, "wide.hpd", "category X over P(2) primitive [1, 1];\n")
    assert main(["check", path]) == 2
    assert "length 2 >= ambient rank 2" in capsys.readouterr().err
    assert main(["check", path, "--allow-nonmoderate"]) == 0


def test_nonmoderate_duality_check_still_errors(tmp_path, capsys):
    source = (
        "category X over P(2) primitive [1, 1];\n"
        "check cone_part1(X, n2=1);\n"
    )
    path = write(tmp_path, "wide.hpd", source)
    assert main(["check", path, "--allow-nonmoderate"]) == 2
    assert "cone_part1" in capsys.readouterr().err


def test_catalog_all_and_single_case(tmp_path, capsys):
    assert main(["catalog"]) == 0
    assert main(["catalog", "gr25-join", "--json", str(tmp_path / "cat.json")]) == 0
    report = json.loads((tmp_path / "cat.json").read_text())
    assert [row["status"] for row in report["checks"]] == ["pass", "pass"]
    capsys.readouterr()


def test_catalog_unknown_name_exits_two(capsys):
    assert main(["catalog", "bogus"]) == 2
    assert "unknown catalog case" in capsys.readouterr().err


def test_prop_defaults_pass_and_reports_are_stable(tmp_path, capsys):
    first = tmp_path / "p1.json"
    second = tmp_path / "p2.json"
    assert main(["prop", "--seed", "3", "--cases", "40", "--json", str(first)]) == 0
    assert main(["prop", "--seed", "3", "--cases", "40", "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    rows = json.loads(first.read_text())["checks"]
    assert [row["name"] for row in rows] == [
        "prop:conservation",
        "prop:join-laws",
        "prop:splitting",
    ]
    capsys.readouterr()


def test_prop_mutation_flag_fails_with_witness(tmp_path, capsys):
    report_path = tmp_path / "mut.json"
    code = main(
        ["prop", "--seed", "1", "--cases", "150", "--mutate-join-bound", "--json", str(report_path)]
    )
    assert code == 1
    rows = json.loads(report_path.read_text())["checks"]
    conservation = rows[0]
    assert conservation["status"] == "fail"
    assert conservation["witness"] is not None
    capsys.readouterr()


def test_prop_zero_cases_and_bad_bounds(capsys):
    assert main(["prop", "--cases", "0"]) == 0
    assert main(["prop", "--max-length", "9"]) == 2
    capsys.readouterr()


def test_console_script_is_installed():
    done = subprocess.run(
        [sys.executable, "-m", "hpdcalc.cli", "catalog", "points-line"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert "points-line:golden: pass" in done.stdout


@pytest.mark.parametrize(
    "argv", [["catalog"], ["check", str(CATALOG_FILES[0])], ["catalog", "--json"]]
)
def test_closed_stdout_exits_four_without_a_traceback(argv, tmp_path):
    # A requested --json report is still written, byte-identical to the report
    # of a run whose stdout stays open.
    wants_json = argv[-1] == "--json"
    if wants_json:
        argv = [*argv, str(tmp_path / "closed.json")]
    # The read end is closed before the child starts, so every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hpdcalc.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 4
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1
    if wants_json:
        opened = subprocess.run(
            [sys.executable, "-m", "hpdcalc.cli", *argv[:-1], str(tmp_path / "open.json")],
            capture_output=True,
        )
        assert opened.returncode == 0
        assert (tmp_path / "closed.json").read_bytes() == (tmp_path / "open.json").read_bytes()
