"""Frontend tests: grammar, validation, diagnostics, canonical printing.

Span expectations are computed from the source text with a position helper,
so the tests state which token each diagnostic should blame rather than
hard-coding coordinates.
"""

import pytest

import hpdcalc.checks
import hpdcalc.dsl
from hpdcalc.dsl import (
    CheckStmt,
    CategoryDecl,
    DisjointDecl,
    DualDecl,
    IntersectDecl,
    SymbolDecl,
    check_requests,
    parse,
    print_canonical,
    run_check,
    validate,
)
from hpdcalc.errors import (
    AmbientMismatch,
    ConflictingIntersection,
    DslSyntaxError,
    DuplicateDeclaration,
    ImplausibleProfile,
    LeftRightMismatch,
    NonModerate,
    Underdetermined,
    UnknownCategory,
    UnknownSymbol,
)
from hpdcalc.model import Workspace
from hpdcalc.poly import MAX_INT_DIGITS, MAX_NESTING, parse_expr


def pos(src, needle, occurrence=1):
    """(line, column) of the n-th occurrence of needle in src, 1-based."""
    index = -1
    for _ in range(occurrence):
        index = src.index(needle, index + 1)
    line = src.count("\n", 0, index) + 1
    column = index - src.rfind("\n", 0, index)
    return (line, column)


GR25_SRC = (
    "symbol e; "
    "category Gr25 over P(10) primitive [0,0,0,0,2]; "
    "category Gr25g over P(10) primitive [0,0,0,0,2]; "
    "intersect Gr25, Gr25g over P(10) = e; "
    "check main_theorem(Gr25, Gr25g);"
)


def test_position_helper_counts_lines_and_columns():
    src = "ab\ncd e"
    assert pos(src, "ab") == (1, 1)
    assert pos(src, "cd") == (2, 1)
    assert pos(src, "e") == (2, 4)


def test_five_statement_example_parses_to_expected_tree():
    ast = parse(GR25_SRC)
    kinds = [type(stmt) for stmt in ast.statements]
    assert kinds == [SymbolDecl, CategoryDecl, CategoryDecl, IntersectDecl, CheckStmt]
    symbol, cat_a, cat_b, inter, check = ast.statements
    assert symbol.names == (("e", pos(GR25_SRC, "e")),)
    assert symbol.span == pos(GR25_SRC, "symbol")
    assert (cat_a.name, cat_a.rank) == ("Gr25", 10)
    assert cat_a.span == pos(GR25_SRC, "category")
    assert [node.expr for node in cat_a.primitives] == [0, 0, 0, 0, 2]
    assert cat_a.left is None
    assert cat_b.span == pos(GR25_SRC, "category", 2)
    assert (inter.first, inter.second, inter.rank) == ("Gr25", "Gr25g", 10)
    assert inter.value.expr == parse_expr("e")
    assert check.check == "main_theorem"
    assert [name for name, _ in check.args] == ["Gr25", "Gr25g"]
    assert check.n2 is None
    assert check.span == pos(GR25_SRC, "check")


def test_five_statement_example_validates_and_passes():
    ast = parse(GR25_SRC)
    ws = validate(ast)
    assert sorted(ws.symbols) == ["e"]
    assert sorted(ws.categories) == ["Gr25", "Gr25g"]
    assert len(ws.intersections) == 1
    (stmt,) = check_requests(ast)
    result = run_check(stmt, ws)
    assert result.status == "pass"
    assert result.lhs == parse_expr("e")
    assert result.rhs == parse_expr("e")


def test_empty_file_gives_empty_workspace_and_empty_canonical():
    ast = parse("")
    assert ast.statements == ()
    ws = validate(ast)
    assert ws == Workspace.build()
    assert print_canonical(ws) == ""


def test_comment_only_file_is_empty():
    assert parse("# nothing here\n   # still nothing").statements == ()


def test_crlf_sources_are_accepted():
    ws = validate(parse("symbol e;\r\ncategory A over P(3) primitive [e];\r\n"))
    assert sorted(ws.categories) == ["A"]


def test_nonmoderate_boundary_parses_then_fails_validation():
    src = "category X over P(2) primitive [1,1];"
    ast = parse(src)
    assert len(ast.statements) == 1
    with pytest.raises(NonModerate) as excinfo:
        validate(ast)
    assert excinfo.value.span == pos(src, "category")


def test_polynomial_grammar_agrees_with_expression_parser():
    src = "symbol x; category A over P(6) primitive [2*x + 3, (x+1)*(x+2), x*x - 1];"
    ws = validate(parse(src))
    prims = ws.categories["A"].primitive_right
    assert prims[0] == parse_expr("2*x + 3")
    assert prims[1] == parse_expr("x*x + 3*x + 2")
    assert prims[2] == parse_expr("x*x - 1")


def test_unary_signs_in_polynomials():
    src = "symbol x; category A over P(4) primitive [-x + 2*x, +3, " + "-" * 3000 + "x + 2*x];"
    ws = validate(parse(src))
    prims = ws.categories["A"].primitive_right
    assert prims[0] == parse_expr("x")
    assert prims[1] == 3
    assert prims[2] == parse_expr("3*x")


def test_gr25_canonical_text_is_exact_and_stable():
    ws = validate(parse(GR25_SRC))
    expected = (
        "symbol e;\n"
        "category Gr25 over P(10) primitive [0, 0, 0, 0, 2];\n"
        "category Gr25g over P(10) primitive [0, 0, 0, 0, 2];\n"
        "intersect Gr25, Gr25g over P(10) = e;\n"
    )
    assert print_canonical(ws) == expected
    assert print_canonical(ws) == expected  # byte-stable across calls


def test_round_trip_is_a_fixed_point_after_one_pass():
    src = (
        "category B over P(4) primitive [1];\n"
        "symbol e;\n"
        "category A over P(4) primitive [0, e] left [2*e, 0];\n"
        "disjoint B, A;\n"
    )
    first = validate(parse(src))
    canonical = print_canonical(first)
    second = validate(parse(canonical))
    assert second == first
    assert print_canonical(second) == canonical


def test_canonical_output_materializes_forced_zero_intersections():
    src = (
        "symbol e; category A over P(4) primitive [e]; "
        "category B over P(4) primitive [1]; disjoint A, B;"
    )
    text = print_canonical(validate(parse(src)))
    assert "intersect A, B over P(4) = 0;\n" in text
    assert "disjoint A, B;\n" in text


def test_statement_order_does_not_change_the_result():
    # Forward references everywhere: the check and intersection lead.
    reordered = (
        "check main_theorem(Gr25, Gr25g); "
        "intersect Gr25, Gr25g over P(10) = e; "
        "category Gr25g over P(10) primitive [0,0,0,0,2]; "
        "symbol e; "
        "category Gr25 over P(10) primitive [0,0,0,0,2];"
    )
    ws_a = validate(parse(GR25_SRC))
    ws_b = validate(parse(reordered))
    assert ws_a == ws_b
    assert print_canonical(ws_a) == print_canonical(ws_b)


def test_duplicate_disjoint_groups_collapse():
    src = (
        "category A over P(3) primitive [1]; category B over P(3) primitive [1]; "
        "disjoint A, B; disjoint B, A;"
    )
    ws = validate(parse(src))
    assert len(ws.disjoint_sets) == 1
    assert print_canonical(ws).count("disjoint") == 1


def test_symbolic_intersection_against_disjointness_warns_and_forces_zero():
    src = (
        "symbol e; category A over P(3) primitive [1]; "
        "category B over P(3) primitive [1]; "
        "intersect A, B over P(3) = e; disjoint A, B;"
    )
    ws = validate(parse(src))
    assert ws.intersection("A", "B") == 0
    assert any("disjoint" in note for note in ws.warnings)


def test_constant_intersection_against_disjointness_is_rejected():
    src = (
        "category A over P(3) primitive [1]; category B over P(3) primitive [1]; "
        "intersect A, B over P(3) = 2; disjoint A, B;"
    )
    with pytest.raises(ConflictingIntersection):
        validate(parse(src))


MALFORMED = [
    ("missing-semicolon", "symbol e", DslSyntaxError, (1, 9)),
    ("bad-keyword", "categry X over P(3) primitive [1];", DslSyntaxError, ("categry", 1)),
    ("unclosed-list", "category X over P(3) primitive [1;", DslSyntaxError, (";", 1)),
    ("unknown-check", "check bogus(X);", DslSyntaxError, ("bogus", 1)),
    ("check-arity", "check main_theorem(A);", DslSyntaxError, ("check", 1)),
    (
        "missing-n2",
        "category A over P(3) primitive [1]; check cone_part1(A);",
        DslSyntaxError,
        ("check", 1),
    ),
    ("duplicate-symbol", "symbol e; symbol e;", DuplicateDeclaration, ("e", 2)),
    ("undeclared-symbol", "category A over P(3) primitive [x];", UnknownSymbol, ("x", 1)),
    ("undeclared-zero-term", "category A over P(3) primitive [1 + 0*x];", UnknownSymbol, ("x", 1)),
    ("undeclared-category", "check main_theorem(A, B);", UnknownCategory, ("A", 1)),
    ("one-name-disjoint", "disjoint A;", DslSyntaxError, ("disjoint", 1)),
    (
        "repeated-name-disjoint",
        "category A over P(4) primitive [1, 1]; category B over P(4) primitive [1]; "
        "disjoint A, B, A;",
        DuplicateDeclaration,
        ("A", 3),
    ),
    (
        "intersect-rank-mismatch",
        "category A over P(3) primitive [1]; category B over P(4) primitive [1]; "
        "intersect A, B over P(4) = 1;",
        AmbientMismatch,
        ("intersect", 1),
    ),
    (
        "symbol-category-collision",
        "symbol e; category e over P(3) primitive [1];",
        DuplicateDeclaration,
        ("category", 1),
    ),
    ("rank-too-small", "category X over P(1) primitive [1];", DslSyntaxError, ("category", 1)),
    ("stray-character", "symbol x$;", DslSyntaxError, ("$", 1)),
    (
        "keyword-on-wrong-check",
        "category A over P(4) primitive [1]; category B over P(4) primitive [1]; "
        "intersect A, B over P(4) = 0; check main_theorem(A, B, n2=2);",
        DslSyntaxError,
        ("n2", 1),
    ),
    (
        "nonpositive-n2",
        "category A over P(4) primitive [1]; check cone_part1(A, n2=0);",
        DslSyntaxError,
        ("0", 1),
    ),
    (
        "left-total-mismatch",
        "category A over P(3) primitive [2] left [1];",
        LeftRightMismatch,
        ("category", 1),
    ),
    (
        "negative-primitive",
        "category A over P(3) primitive [0 - 1];",
        ImplausibleProfile,
        ("category", 1),
    ),
    (
        "constant-intersection-of-disjoint-pair",
        "category A over P(4) primitive [1];\ncategory B over P(4) primitive [1];\n"
        "  intersect A, B over P(4) = 3;\ndisjoint A, B;\n",
        ConflictingIntersection,
        ("intersect", 1),
    ),
    (
        "duplicate-intersection",
        "symbol e; category A over P(3) primitive [1]; category B over P(3) primitive [1]; "
        "intersect A, B over P(3) = e; intersect B, A over P(3) = e;",
        DuplicateDeclaration,
        ("intersect", 2),
    ),
    (
        "deep-nesting",
        "category A over P(3) primitive [" + "(" * 3000 + "1" + ")" * 3000 + "];",
        DslSyntaxError,
        (1, len("category A over P(3) primitive [") + MAX_NESTING + 1),
    ),
    ("non-ascii-digit", "category A over P(3) primitive [\u00b2];", DslSyntaxError, ("\u00b2", 1)),
    (
        "non-identifier-character",
        "symbol x\u00b2; category A over P(3) primitive [x\u00b2];",
        DslSyntaxError,
        ("\u00b2", 1),
    ),
    ("non-ascii-rank", "category A over P(\u0664) primitive [1];", DslSyntaxError, ("\u0664", 1)),
    (
        "positional-after-keyword",
        "category A over P(4) primitive [1]; check cone_part1(A, n2=2, A);",
        DslSyntaxError,
        ("A", 3),
    ),
    (
        "check-arity-too-many",
        "category A over P(4) primitive [1]; check cone_part1(A, A, n2=2);",
        DslSyntaxError,
        ("check", 1),
    ),
    (
        "duplicate-n2",
        "category A over P(4) primitive [1]; check cone_part1(A, n2=2, n2=3);",
        DslSyntaxError,
        ("n2", 2),
    ),
    ("misspelt-over", "category A ovr P(3) primitive [1];", DslSyntaxError, ("ovr", 1)),
    (
        "misspelt-over-in-intersect",
        "category A over P(3) primitive [1]; category B over P(3) primitive [1]; "
        "intersect A, B ovr P(3) = 1;",
        DslSyntaxError,
        ("ovr", 1),
    ),
    ("wrong-projective-space", "category A over Q(3) primitive [1];", DslSyntaxError, ("Q", 1)),
    ("truncated-rank", "category A over", DslSyntaxError, (1, 16)),
    (
        "misspelt-primitive",
        "category A over P(3) primtive [1];",
        DslSyntaxError,
        ("primtive", 1),
    ),
    (
        "misspelt-primitive-in-dual",
        "category A over P(3) primitive [1]; dual A primitve [1];",
        DslSyntaxError,
        ("primitve", 1),
    ),
    (
        "keyword-on-dual-profile",
        "category A over P(4) primitive [1]; check dual_profile(A, n2=2);",
        DslSyntaxError,
        ("n2", 1),
    ),
    (
        "missing-n2-cone-part2",
        "category A over P(4) primitive [1]; check cone_part2(A);",
        DslSyntaxError,
        ("check", 1),
    ),
    (
        "long-literal-in-primitive",
        "category A over P(3) primitive [1, 2 + " + "9" * (MAX_INT_DIGITS + 1) + "];",
        DslSyntaxError,
        ("9", 1),
    ),
    (
        "long-literal-in-rank",
        "category A over P(" + "1" * (MAX_INT_DIGITS + 1) + ") primitive [1];",
        DslSyntaxError,
        ("1", 1),
    ),
    (
        "long-literal-in-n2",
        "category A over P(4) primitive [1];\ncheck cone_part1(A, n2=" + "0" * 5000 + "2);",
        DslSyntaxError,
        ("0", 1),
    ),
]

# The exact text of the diagnostic of each MALFORMED case that checks a word,
# an arity, a keyword or the length of an integer literal.
DIAGNOSTIC_TEXT = {
    "check-arity": "1:1: check 'main_theorem' takes 2 categories, got 1",
    "check-arity-too-many": "1:37: check 'cone_part1' takes 1 categories, got 2",
    "duplicate-n2": "1:63: duplicate keyword 'n2'",
    "misspelt-over": "1:12: expected 'over', found 'ovr'",
    "misspelt-over-in-intersect": "1:88: expected 'over', found 'ovr'",
    "wrong-projective-space": "1:17: expected 'P', found 'Q'",
    "truncated-rank": "1:16: expected 'P', found 'end of input'",
    "misspelt-primitive": "1:22: expected 'primitive', found 'primtive'",
    "misspelt-primitive-in-dual": "1:44: expected 'primitive', found 'primitve'",
    "keyword-on-wrong-check": "1:128: check 'main_theorem' does not take keyword 'n2'",
    "keyword-on-dual-profile": "1:59: check 'dual_profile' does not take keyword 'n2'",
    "missing-n2": "1:37: check 'cone_part1' requires n2=<rank>",
    "missing-n2-cone-part2": "1:37: check 'cone_part2' requires n2=<rank>",
    "long-literal-in-primitive": "1:40: integer literal longer than 4300 digits",
    "long-literal-in-rank": "1:19: integer literal longer than 4300 digits",
    "long-literal-in-n2": "2:24: integer literal longer than 4300 digits",
}


@pytest.mark.parametrize(
    "src, exc, where", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_inputs_raise_with_spans(src, exc, where):
    expected = where if isinstance(where[0], int) else pos(src, *where)
    with pytest.raises(exc) as excinfo:
        validate(parse(src))
    assert excinfo.value.span == expected
    assert str(excinfo.value).startswith(f"{expected[0]}:{expected[1]}:")


@pytest.mark.parametrize("name", list(DIAGNOSTIC_TEXT))
def test_diagnostic_text_is_exact(name):
    (src,) = [case[1] for case in MALFORMED if case[0] == name]
    with pytest.raises(DslSyntaxError) as excinfo:
        parse(src)
    assert str(excinfo.value) == DIAGNOSTIC_TEXT[name]


def test_diagnostics_report_later_lines_correctly():
    src = "symbol e;\ncategory A over P(4) primitive [e];\ncheck cone_part1(A, n2=2, A);\n"
    with pytest.raises(DslSyntaxError) as excinfo:
        parse(src)
    assert excinfo.value.span == pos(src, "A", 3)
    assert excinfo.value.span[0] == 3


def test_run_check_dual_profile_requires_a_declared_dual():
    src = "category R over P(5) primitive [0, 1]; check dual_profile(R);"
    ast = parse(src)
    ws = validate(ast)
    (stmt,) = check_requests(ast)
    with pytest.raises(Underdetermined) as excinfo:
        run_check(stmt, ws)
    assert excinfo.value.span == pos(src, "check")


def test_run_check_dual_profile_accepts_the_reflected_constant_profile():
    # Components constant c of length 2 over P(5) dualize to length 3, same c.
    src = (
        "symbol c; category R over P(5) primitive [0, c]; "
        "dual R primitive [0, 0, c]; check dual_profile(R);"
    )
    ast = parse(src)
    ws = validate(ast)
    (stmt,) = check_requests(ast)
    assert run_check(stmt, ws).status == "pass"


def test_run_check_cone_statements_with_rank_keyword():
    src = (
        "symbol c; category R over P(5) primitive [0, c]; "
        "check cone_part1(R, n2=2); check cone_part2(R, n2=2);"
    )
    ast = parse(src)
    ws = validate(ast)
    for stmt in check_requests(ast):
        assert run_check(stmt, ws).status == "pass"


def test_run_check_looks_up_each_check_function_when_called(monkeypatch):
    # Profilers rebind these module-level names; a check table holding its own
    # references to the functions would bypass them.
    src = (
        "symbol c; category A over P(6) primitive [0, c]; category B over P(6) primitive [1]; "
        "disjoint A, B; dual A primitive [0, 0, 0, c]; "
        "check main_theorem(A, B); check n_hpd_center(A, B); check cone_part1(A, n2=2); "
        "check cone_part2(A, n2=2); check join_linear(A, B); check dual_profile(A);"
    )
    names = [name for name in hpdcalc.checks.__all__ if name.startswith("check_")]
    calls = []
    for name in names:
        original = getattr(hpdcalc.dsl, name)
        counted = lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)  # noqa: E731
        monkeypatch.setattr(hpdcalc.dsl, name, counted)
    ast = parse(src)
    ws = validate(ast)
    for stmt in check_requests(ast):
        run_check(stmt, ws)
    assert sorted(calls) == sorted(names) and len(names) == 6


def test_run_check_center_and_linear_join_statements():
    src = (
        "category A over P(3) primitive [1]; category B over P(3) primitive [1]; "
        "disjoint A, B; check n_hpd_center(A, B);"
    )
    ast = parse(src)
    result = run_check(check_requests(ast)[0], validate(ast))
    assert result.status == "pass"

    src2 = (
        "category A over P(2) primitive [1]; category B over P(2) primitive [1]; "
        "check join_linear(A, B);"
    )
    ast2 = parse(src2)
    result2 = run_check(check_requests(ast2)[0], validate(ast2))
    assert result2.status == "pass"
    assert result2.lhs == 2
