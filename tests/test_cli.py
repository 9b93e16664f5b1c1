"""Command-line driver tests: exit codes, report schema, byte stability."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hpdcalc
from hpdcalc import catalog, cli, poly
from hpdcalc.cli import main
from hpdcalc.dsl import MAX_N2
from hpdcalc.engine import SUBSET_READING_NOTE
from hpdcalc.poly import MAX_INT_DIGITS, MAX_NESTING, const

from support import count_calls, time_budget

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

    with time_budget(1.0, "refutation"):
        code = main(["check", path, "--json", str(report_path)])
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


def test_underdetermined_dual_profile_resolves_one_position(tmp_path, monkeypatch, capsys):
    resolved = count_calls(monkeypatch, poly.Lexed, "span")
    source = (
        "# no dual is declared\n"
        "category A over P(6) primitive [1, 1];\n"
        "  check  dual_profile(A);\n"
    )
    path = write(tmp_path, "open.hpd", source)
    report_path = tmp_path / "open.json"
    assert main(["check", path, "--json", str(report_path)]) == 3
    (row,) = json.loads(report_path.read_text())["checks"]
    assert row["notes"] == ["3:3: dual_profile(A) needs a declared dual profile"]
    assert len(resolved) == 1
    assert "(3:3: dual_profile(A) needs" in capsys.readouterr().out


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


def test_error_raised_by_a_check_carries_the_check_span(tmp_path, capsys):
    # Validation accepts a group over two ranks; the check rejects the pair,
    # and its one diagnostic line points at the check statement.
    source = (
        "category Pt1 over P(3) primitive [1];\n"
        "category Pt2 over P(33) primitive [1];\n"
        "disjoint Pt1, Pt2;\n"
        "check main_theorem(Pt1, Pt2);\n"
    )
    path = write(tmp_path, "ranks.hpd", source)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err == f"{path}:4:1: check main_theorem: Pt1 lives over rank 3, Pt2 over rank 33\n"


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


def test_missing_factor_after_a_sign_exits_two_with_span(tmp_path, capsys):
    path = write(tmp_path, "sign.hpd", "symbol x;\ncategory A over P(3) primitive [x*-];\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"{path}:2:36: expected polynomial, found ']'\n"


@pytest.mark.parametrize(
    "source, where",
    [
        ("category A over P(3) primitive [{}];\n", "1:33"),
        ("category A over P({}) primitive [1];\n", "1:19"),
        ("category A over P(4) primitive [1];\ncheck cone_part1(A, n2={});\n", "2:24"),
        ("symbol x;\ncategory A over P(4) primitive [x*{}];\n", "2:35"),
    ],
    ids=["primitive", "rank", "n2", "factor"],
)
def test_over_long_integer_literal_exits_two_with_one_line(source, where, tmp_path, capsys):
    path = write(tmp_path, "long.hpd", source.format("5" * (MAX_INT_DIGITS + 700)))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err == f"{path}:{where}: integer literal longer than {MAX_INT_DIGITS} digits\n"


def test_coefficient_past_the_str_digit_limit_fails_with_one_line(tmp_path, capsys):
    # F*F*F has about 6000 digits, more than str() takes by default.
    f = "7" * 2000
    source = (
        "category A over P(3) primitive [1];\n"
        f"dual A primitive [0, {f}*{f}*{f}];\n"
        "check dual_profile(A);\n"
    )
    assert main(["check", write(tmp_path, "huge.hpd", source)]) == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 1
    assert out.startswith("check dual_profile: fail (")
    assert err == ""


def test_coefficient_past_the_str_digit_limit_prints_every_digit():
    assert str(const(10**5000)) == "1" + "0" * 5000


@pytest.mark.parametrize("n", [14, 200])
def test_join_linear_over_many_categories_within_a_second(n, tmp_path, capsys):
    # The deep component takes O(n) multiplications, not one step per pair of
    # nested subsets (3^n).
    names = [f"A{i}" for i in range(n)]
    source = "".join(f"category {name} over P(4) primitive [1, 2];\n" for name in names)
    path = write(tmp_path, "linear.hpd", source + f"check join_linear({', '.join(names)});\n")

    with time_budget(1.0, "join_linear"):
        code = main(["check", path])
    assert code == 0
    assert capsys.readouterr().out.startswith("check join_linear: pass (")


@pytest.mark.parametrize("n", [2000])
def test_large_disjoint_group_within_a_second(n, tmp_path, capsys):
    # A group is stored once, not as n(n-1)/2 zero pairs, so validation is
    # linear in its size.
    names = [f"A{i}" for i in range(n)]
    source = "".join(f"category {name} over P(5) primitive [1, 2];\n" for name in names)
    source += f"disjoint {', '.join(names)};\ncheck cone_part1(A0, n2=3);\n"
    path = write(tmp_path, "group.hpd", source)
    with time_budget(1.0, "a large disjoint group"):
        code = main(["check", path])
    assert code == 0
    assert capsys.readouterr().out.startswith("check cone_part1: pass (")


def test_n2_at_its_cap_within_budget(tmp_path, capsys):
    # cone_part2 joins with n2 components, so its cost is linear in n2; the
    # cap keeps it bounded, and one past the cap is a syntax error.
    source = f"category A over P(5) primitive [1, 1];\ncheck cone_part2(A, n2={MAX_N2});\n"
    path = write(tmp_path, "cap.hpd", source)
    with time_budget(2.0, "cone_part2 at the n2 cap"):
        code = main(["check", path])
    assert code == 0
    assert capsys.readouterr().out.startswith("check cone_part2: pass (")

    path = write(tmp_path, "past-cap.hpd", source.replace(f"={MAX_N2}", f"={MAX_N2 + 1}"))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"{path}:2:24: n2 must be at most {MAX_N2}\n"


def _pairs_over(N):
    return (
        "symbol e;\n"
        + "".join(f"category {name} over P({N}) primitive [1, 1];\n" for name in "ABCD")
        + f"disjoint A, B;\nintersect C, D over P({N}) = e;\n"
    )


def test_every_check_costs_the_same_at_any_rank(tmp_path, capsys):
    # A join keeps only its refined parts up to the end of the ruled join, so
    # no check builds a list as long as the ambient rank, and a rank past
    # sys.maxsize is no error. The two [1, 1] profiles give 4N - 12.
    for N in (2_000_000, 10**30):
        checks = "check main_theorem(A, B);\ncheck main_theorem(C, D);\n"
        path = write(tmp_path, f"main-{N}.hpd", _pairs_over(N) + checks)
        with time_budget(1.0, f"main_theorem over P({N})"):
            code = main(["check", path])
        assert code == 0
        assert capsys.readouterr().out == (
            f"check main_theorem: pass (lhs = rhs = {4 * N - 12})\n"
            f"check main_theorem: pass (lhs = rhs = e + {4 * N - 12})\n"
            f"warning: {SUBSET_READING_NOTE}\n"
        )

    # Every check kind. Z has component 0 equal to 0, so its dual fits in two
    # primitives at any rank.
    N = 10**30
    source = _pairs_over(N) + (
        "symbol s, t;\n"
        f"category Z over P({N}) primitive [s - t, t - s];\n"
        "dual Z primitive [t - s, s - t];\n"
        "check main_theorem(A, B);\ncheck main_theorem(C, D);\ncheck n_hpd_center(A, B);\n"
        "check cone_part1(A, n2=3);\ncheck cone_part1(Z, n2=3);\ncheck cone_part2(A, n2=3);\n"
        "check join_linear(A, B, C);\ncheck dual_profile(Z);\n"
    )
    path = write(tmp_path, "every-kind.hpd", source)
    with time_budget(1.0, "every check kind over P(10^30)"):
        code = main(["check", path])
    assert code == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
    assert [row.split(":")[0] for row in rows] == [
        f"check {kind}"
        for kind in ["main_theorem", "main_theorem", "n_hpd_center", "cone_part1", "cone_part1",
                     "cone_part2", "join_linear", "dual_profile"]
    ]
    assert all(": pass (" in row for row in rows)


def test_a_join_of_long_mostly_zero_profiles_costs_its_nonzero_pairs(tmp_path, capsys):
    # The join convolves the primitive lists; only the 2 x 2 nonzero entries
    # pair up, so lengths 50 000 and 49 999 cost what the file's text costs.
    N = 100_000

    def primitives(length, last):
        return ", ".join(["1"] + ["0"] * (length - 2) + [last])

    source = (
        "symbol e;\n"
        f"category A over P({N}) primitive [{primitives(50_000, '1')}];\n"
        f"category B over P({N}) primitive [{primitives(49_999, '2')}];\n"
        f"intersect A, B over P({N}) = e;\ncheck main_theorem(A, B);\n"
    )
    path = write(tmp_path, "long.hpd", source)
    with time_budget(3.0, "main_theorem on long mostly-zero profiles"):
        code = main(["check", path])
    assert code == 0
    assert capsys.readouterr().out == (
        "check main_theorem: pass (lhs = rhs = e + 249999)\n"
        f"warning: {SUBSET_READING_NOTE}\n"
    )


# -- fuzzing: every input ends in a documented exit code -------------------------

FUZZ_TOKENS = [
    "symbol", "category", "over", "P", "primitive", "left", "intersect", "disjoint", "dual",
    "check", "main_theorem", "n_hpd_center", "cone_part1", "cone_part2", "join_linear",
    "dual_profile", "n2", "sod", "join", "flat_join", "universal_hyperplane", "refined_blowup",
    "ell", "base", "A", "B", "e", "0", "1", "3", "10",
    ",", ";", "[", "]", "(", ")", "=", "+", "-", "*", "#",
    " ", "\t", "\n", "\r\n", "$", "\u00e9", "\u00b2", "\u0664", "\x00",
]
CATALOG_SOURCES = [path.read_text(encoding="utf-8") for path in CATALOG_FILES]
# The spans of a catalog file's tokens, as a mutation sees them.
_FUZZ_WORD = re.compile(r"[A-Za-z_0-9]+|[^\s]")


@st.composite
def token_soup(draw):
    """Grammar tokens, blanks, line breaks, comments and stray characters."""
    tokens = draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=60))
    seps = st.sampled_from(["", " ", "\n", "\r\n"])
    return "".join(token + draw(seps) for token in tokens)


@st.composite
def mutated_catalog_file(draw):
    """A catalog file with one token deleted, duplicated or replaced."""
    source = draw(st.sampled_from(CATALOG_SOURCES))
    words = list(_FUZZ_WORD.finditer(source))
    start, end = words[draw(st.integers(0, len(words) - 1))].span()
    mutation = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if mutation == "delete":
        middle = ""
    elif mutation == "duplicate":
        middle = source[start:end] * 2
    else:
        middle = draw(st.sampled_from(FUZZ_TOKENS))
    return source[:start] + middle + source[end:]


@st.composite
def rescaled_catalog_file(draw):
    """A catalog file with one shift added to every rank, so it stays valid and
    reaches each of its checks at a large rank."""
    source = draw(st.sampled_from(CATALOG_SOURCES))
    shift = draw(st.sampled_from([10**3, 10**6, 10**30]))
    return re.sub(r"P\((\d+)\)", lambda m: f"P({int(m.group(1)) + shift})", source)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(token_soup() | mutated_catalog_file() | rescaled_catalog_file())
def test_any_input_ends_in_a_documented_exit_code(tmp_path, capsys, source):
    path = write(tmp_path, "fuzz.hpd", source)

    with time_budget(2.0, "check"):
        code = main(["check", path])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code == 2:
        assert err.count("\n") == 1
        assert re.match(rf"{re.escape(path)}:\d+:\d+: ", err)


@pytest.mark.parametrize("source", CATALOG_FILES, ids=[p.stem for p in CATALOG_FILES])
def test_check_reproduces_the_catalog_golden(source, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", str(source), "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    golden = catalog.golden_report(source.stem.replace("_", "-"))
    assert list(report) == list(golden)
    for key in report.keys() - {"version"}:
        assert report[key] == golden[key], key
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


def test_catalog_golden_that_cannot_be_written_exits_four(tmp_path, capsys, monkeypatch):
    # The golden's folder would have to be made below a plain file.
    blocker = tmp_path / "plain-file"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setattr(catalog, "_golden_resource", lambda name: blocker / "golden" / f"{name}.json")
    assert main(["catalog", "cone-point", "--update-golden"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write golden 'cone-point': ")
    assert err.count("\n") == 1


def test_catalog_unknown_name_exits_two(capsys):
    assert main(["catalog", "bogus"]) == 2
    assert "unknown catalog case" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_argv", [["bogus"], ["check"], ["prop", "--cases", "many"], ["catalog", "--json"]]
)
def test_usage_error_leaves_later_calls_unchanged(bad_argv, tmp_path, capsys):
    # The parser is built once per process; a usage error (exit 2) between
    # two calls must not leave state behind in it.
    path = write(tmp_path, "pass.hpd", PASSING)
    calls = [["check", path], ["prop", "--cases", "5", "--seed", "2"], ["catalog", "points-line"]]

    def outputs():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    before = outputs()
    with pytest.raises(SystemExit) as usage:
        main(bad_argv)
    assert usage.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hpdcalc")
    assert outputs() == before
    assert [code for code, _, _ in before] == [0, 0, 0]
    assert cli._parser() is cli._parser()


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


@pytest.mark.parametrize("command", ["check", "catalog", "prop"])
def test_internal_error_exits_five_with_one_line_and_a_traceback(command, monkeypatch, capsys):
    def broken(args):
        print("partial output")
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, f"cmd_{command}", broken)
    argv = [command, str(CATALOG_FILES[0])] if command == "check" else [command]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == "partial output\n"
    first, rest = captured.err.split("\n", 1)
    assert first == "error: internal error: RuntimeError('boom')"
    assert rest.startswith("Traceback (most recent call last):\n")
    assert rest.endswith("RuntimeError: boom\n")
