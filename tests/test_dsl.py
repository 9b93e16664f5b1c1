"""Frontend tests: grammar, validation, diagnostics, canonical printing.

Span expectations are computed from the source text with a position helper,
so the tests state which token each diagnostic should blame rather than
hard-coding coordinates.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpdcalc.checks
import hpdcalc.dsl
import hpdcalc.poly
from hpdcalc.dsl import (
    CheckStmt,
    CategoryDecl,
    DisjointDecl,
    DualDecl,
    IntersectDecl,
    SodStmt,
    SymbolDecl,
    check_file,
    check_requests,
    parse,
    print_canonical,
    run_check,
    run_check_row,
    validate,
)
from hpdcalc.errors import (
    AmbientMismatch,
    ConflictingIntersection,
    DslSyntaxError,
    DuplicateDeclaration,
    ImplausibleProfile,
    LeftRightMismatch,
    MissingDisjointness,
    NonModerate,
    Underdetermined,
    UnknownCategory,
    UnknownSymbol,
    UnresolvedIntersection,
)
from hpdcalc.model import Workspace
from hpdcalc.poly import MAX_INT_DIGITS, MAX_NESTING, parse_expr

from support import count_calls, ref_tokenize, time_budget


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


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_parse_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    seen = []
    tokenize = hpdcalc.dsl.tokenize

    def watched(text):
        seen.append(gc.isenabled())
        return tokenize(text)

    monkeypatch.setattr(hpdcalc.dsl, "tokenize", watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse("symbol a;\ncategory A over P(3) primitive [1, a];\n")
        after_parse = gc.isenabled()
        with pytest.raises(DslSyntaxError):
            parse("category A over P(3) primitive [1 $];\n")
        after_error = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]
    assert after_parse == after_error == enabled


def test_crlf_sources_are_accepted():
    ws = validate(parse("symbol e;\r\ncategory A over P(3) primitive [e];\r\n"))
    assert sorted(ws.categories) == ["A"]


def clean_library(count):
    """A valid file of `count` categories with every statement and check kind,
    comments and a CRLF line, in which no statement is in error."""
    lines = ["# a clean library", "symbol a, b;  # two unknowns\r"]
    for i in range(count):
        lines.append(f"category L{i} over P(8) primitive [1 + {i % 3}*a, 2*b - b + (a - a)];")
    lines += [
        "intersect L0, L1 over P(8) = 1 + a*b;",
        "disjoint L2, L3, L4;",
        "dual L5 primitive [0, 0, 0, 0, 0, 1 + 0*a, b];",
        "check main_theorem(L0, L1);",
        "check n_hpd_center(L2, L3);",
        "check cone_part1(L6, n2=2);",
        "check cone_part2(L7, n2=3);",
        "check join_linear(L8, L9, L10);",
        "check dual_profile(L5);",
    ]
    return "\n".join(lines) + "\n"


def test_a_clean_file_resolves_no_position(monkeypatch):
    resolved = count_calls(monkeypatch, hpdcalc.poly.Lexed, "span")
    ast = parse(clean_library(300))
    ws = validate(ast)
    rows = [run_check_row(stmt, ws) for stmt in check_requests(ast)]
    assert len(ast.statements) == 310
    assert [row["status"] for row in rows] == ["pass"] * 5 + ["fail"]
    assert len(repr(ast.statements[-1])) < 200  # the source is not printed with each node
    assert resolved == []
    # A position is resolved when read; three on one line re-lex that line once.
    relexed = count_calls(monkeypatch, hpdcalc.poly, "_line_pieces")
    (stmt,) = [stmt for stmt in ast.statements if isinstance(stmt, DisjointDecl)]
    assert stmt.names[-1] == ("L4", pos(clean_library(300), "L4;"))
    assert (len(resolved), len(relexed)) == (3, 1)


def test_a_long_line_of_names_parses_in_linear_time():
    # Names keep piece indexes; reading their spans lexes the line once, not once per name.
    names = [f"s{i}" for i in range(40_000)]
    src = "symbol " + ", ".join(names) + ";\n"
    with time_budget(1.0, "a symbol line of 40 000 names"):
        (stmt,) = parse(src).statements
    assert stmt.names[0] == ("s0", (1, 8))
    assert stmt.names[-1] == (names[-1], pos(src, names[-1] + ";"))


# -- spans the tree keeps, against the reference lexer -----------------------------
#
# Random declaration files; every span in the tree must be where the reference
# lexer puts a token with the same text.

POLY_LEAVES = st.sampled_from(["0", "1", "2", "13", "a", "b", "c", "d"]).map(lambda leaf: [leaf])


def _compound_polys(inner):
    return (
        st.tuples(st.sampled_from("+-*"), inner, inner).map(lambda t: t[1] + [t[0]] + t[2])
        | inner.map(lambda p: ["(", *p, ")"])
        | inner.map(lambda p: ["-", *p])
    )


poly_pieces = st.recursive(POLY_LEAVES, _compound_polys, max_leaves=6)
CATEGORY_NAMES = ["L0", "L1", "L2", "L3"]
KEYWORD_OF = {
    SymbolDecl: "symbol",
    CategoryDecl: "category",
    IntersectDecl: "intersect",
    DisjointDecl: "disjoint",
    DualDecl: "dual",
    CheckStmt: "check",
    SodStmt: "sod",
}


@st.composite
def statement_pieces(draw):
    """The pieces of one statement, shaped like a generated library's."""

    def polys():
        items = draw(st.lists(poly_pieces, min_size=1, max_size=3))
        out = ["["]
        for index, item in enumerate(items):
            out += ([","] if index else []) + item
        return out + ["]"]

    def names(least):
        picked = draw(st.lists(st.sampled_from(CATEGORY_NAMES), min_size=least, max_size=4, unique=True))
        return [piece for index, name in enumerate(picked) for piece in ([","] if index else []) + [name]]

    kind = draw(st.sampled_from(["category", "category", "intersect", "disjoint", "dual", "check", "sod"]))
    name = draw(st.sampled_from(CATEGORY_NAMES))
    if kind == "category":
        rank = str(draw(st.integers(2, 12)))
        pieces = ["category", name, "over", "P", "(", rank, ")", "primitive", *polys()]
        if draw(st.booleans()):
            pieces += ["left", *polys()]
    elif kind == "intersect":
        pieces = ["intersect", "L0", ",", "L1", "over", "P", "(", "5", ")", "=", *draw(poly_pieces)]
    elif kind == "disjoint":
        pieces = ["disjoint", *names(2)]
    elif kind == "dual":
        pieces = ["dual", name, "primitive", *polys()]
    elif kind == "sod":
        pieces = ["sod", "refined_blowup", "(", name, ",", "ell", "=", "3", ",", "base", "=",
                  *draw(poly_pieces), ")"]
    elif draw(st.booleans()):
        pieces = ["check", "cone_part1", "(", name, ",", "n2", "=", str(draw(st.integers(1, 9))), ")"]
    else:
        pieces = ["check", "join_linear", "(", *names(1), ")"]
    return pieces + [";"]


@st.composite
def declaration_files(draw):
    """(text, statement count): pieces joined by random blanks, tabs, comments
    and line breaks (LF or CRLF), and sometimes one line with a non-ASCII name."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    statements = [["symbol", "a", ",", "b", ",", "c", ",", "d", ";"]]
    statements += draw(st.lists(statement_pieces(), max_size=8))
    lone = draw(st.none() | st.integers(0, len(statements)))
    if lone is not None:
        statements.insert(lone, [newline, "symbol", "\u00e9t\u00e9", ",", "x", ";", newline])
    breaks = [" ", "\t", " \t ", newline, "  # note; [1, x]" + newline, "\t#" + newline]
    out = [draw(st.sampled_from(["", "# generated" + newline]))]
    for piece in (piece for statement in statements for piece in statement):
        if piece == newline:
            out.append(piece)
            continue
        word = piece[0].isalnum() or piece[0] == "_"
        if word and out[-1][-1:].isalnum():
            out.append(draw(st.sampled_from(breaks)))
        elif draw(st.integers(0, 3)) == 0:
            out.append(draw(st.sampled_from(breaks)))
        out.append(piece)
    out.append(draw(st.sampled_from(["", newline, " # end"])))
    return "".join(out), len(statements)


@settings(max_examples=150, deadline=None)
@given(declaration_files())
def test_every_kept_span_is_a_reference_token_with_the_same_text(case):
    text, count = case
    tokens = ref_tokenize(text)
    at = {tok.span: index for index, tok in enumerate(tokens)}

    def text_at(span):
        return tokens[at[span]].text

    statements = parse(text).statements
    assert len(statements) == count
    for stmt in statements:
        assert text_at(stmt.span) == KEYWORD_OF[type(stmt)]
        for name, span in getattr(stmt, "names", ()) + getattr(stmt, "args", ()):
            assert text_at(span) == name
        nodes = getattr(stmt, "primitives", ()) + (getattr(stmt, "left", None) or ())
        nodes += (stmt.value,) if isinstance(stmt, IntersectDecl) else ()
        nodes += (stmt.base,) if isinstance(stmt, SodStmt) else ()
        for node in nodes:
            assert tokens[at[node.span] - 1].text in ("[", ",", "=")
            for name, span in node.symbol_uses:
                assert text_at(span) == name


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


def test_canonical_output_states_a_group_once():
    # The disjoint line alone forces the pairs' zeros: none is printed, not
    # even one declared in the source.
    src = (
        "symbol e; category A over P(4) primitive [e]; "
        "category B over P(4) primitive [1]; category C over P(4) primitive [1]; "
        "intersect A, B over P(4) = 0; disjoint A, B, C;"
    )
    ws = validate(parse(src))
    text = print_canonical(ws)
    assert "intersect" not in text
    assert "disjoint A, B, C;\n" in text
    assert validate(parse(text)) == ws


def test_canonical_text_of_a_large_group_round_trips_in_linear_time():
    names = [f"A{i}" for i in range(2000)]
    src = "".join(f"category {name} over P(5) primitive [1, 2];\n" for name in names)
    ws = validate(parse(src + "disjoint " + ", ".join(names) + ";\n"))
    with time_budget(1.0, "canonical text of a 2000-member group"):
        text = print_canonical(ws)
        assert validate(parse(text)) == ws
    assert len(text.splitlines()) == 2001


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


def test_first_conflict_follows_the_declaration_order_of_groups():
    # In canonical order {A, B} comes first; the file declares {C, D} first.
    src = (
        "category A over P(4) primitive [1];\n"
        "category B over P(4) primitive [1];\n"
        "category C over P(4) primitive [1];\n"
        "category D over P(4) primitive [1];\n"
        "intersect A, B over P(4) = 2;\n"
        "  intersect C, D over P(4) = 3;\n"
        "disjoint D, C;\n"
        "disjoint B, A;\n"
    )
    with pytest.raises(ConflictingIntersection) as excinfo:
        validate(parse(src))
    assert str(excinfo.value) == "6:3: C, D declared disjoint but intersect with constant 3"


def test_symbolic_pair_in_two_groups_warns_once():
    src = (
        "symbol e;\n"
        "category A over P(4) primitive [1];\n"
        "category B over P(4) primitive [1];\n"
        "category C over P(4) primitive [1];\n"
        "intersect B, A over P(4) = e;\n"
        "disjoint C, B, A;\n"
        "disjoint A, B;\n"
    )
    assert validate(parse(src)).warnings == (
        "intersection of A, B declared as e but the pair is declared disjoint; "
        "disjointness forces 0",
    )


_SOD_SRC = "symbol z;\ncategory A over P(4) primitive [1];\ncategory B over P(4) primitive [1];\n"

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
        "huge-n2",
        "category A over P(3) primitive [1, 1];\n"
        "check cone_part2(A, n2=1000000000000000000000000000000);",
        DslSyntaxError,
        (2, 24),
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
    ("unknown-sod", _SOD_SRC + "sod joint(A, B);", DslSyntaxError, ("joint", 1)),
    ("sod-arity", _SOD_SRC + "sod join(A);", DslSyntaxError, ("sod", 1)),
    ("sod-missing-ell", _SOD_SRC + "sod refined_blowup(A, base=z);", DslSyntaxError, ("sod", 1)),
    ("sod-missing-base", _SOD_SRC + "sod refined_blowup(A, ell=3);", DslSyntaxError, ("sod", 1)),
    (
        "sod-keyword-not-taken",
        _SOD_SRC + "sod universal_hyperplane(A, n2=2);",
        DslSyntaxError,
        ("n2", 1),
    ),
    ("sod-ell-one", _SOD_SRC + "sod refined_blowup(A, ell=1, base=z);", DslSyntaxError, ("sod", 1)),
    (
        "sod-ell-past-rank",
        _SOD_SRC + "sod refined_blowup(A, ell=5, base=z);",
        DslSyntaxError,
        ("sod", 1),
    ),
    (
        "sod-ell-past-cap",
        _SOD_SRC + "sod refined_blowup(A, ell=100001, base=z);",
        DslSyntaxError,
        ("100001", 1),
    ),
    (
        "sod-base-undeclared-symbol",
        _SOD_SRC + "sod refined_blowup(A, ell=3, base=z + q);",
        UnknownSymbol,
        ("q", 1),
    ),
    (
        "sod-join-over-cap",
        "category A over P(100002) primitive [1]; category B over P(100002) primitive [1];\n"
        "disjoint A, B;\nsod join(A, B);",
        DslSyntaxError,
        ("sod", 1),
    ),
    ("sod-join-unresolved", _SOD_SRC + "sod join(A, B);", UnresolvedIntersection, ("sod", 1)),
    (
        "sod-flat-join-not-disjoint",
        _SOD_SRC + "sod flat_join(A, B);",
        MissingDisjointness,
        ("sod", 1),
    ),
]

# The exact text of the diagnostic of each MALFORMED case that checks a word,
# an arity, a keyword, the length of an integer literal or the range of n2,
# and of each malformed sod statement.
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
    "huge-n2": "2:24: n2 must be at most 100000",
    "unknown-sod": "4:5: unknown sod name 'joint'; expected one of join, flat_join, "
    "universal_hyperplane, refined_blowup",
    "sod-arity": "4:1: sod 'join' takes 2 categories, got 1",
    "sod-missing-ell": "4:1: sod 'refined_blowup' requires ell=<rank>",
    "sod-missing-base": "4:1: sod 'refined_blowup' requires base=<invariant>",
    "sod-keyword-not-taken": "4:29: sod 'universal_hyperplane' does not take keyword 'n2'",
    "sod-ell-one": "4:1: sod refined_blowup: ell must be from 2 to the ambient rank 4",
    "sod-ell-past-rank": "4:1: sod refined_blowup: ell must be from 2 to the ambient rank 4",
    "sod-ell-past-cap": "4:27: ell must be at most 100000",
    "sod-base-undeclared-symbol": "4:39: symbol 'q' is not declared",
    "sod-join-over-cap": "3:1: sod join: 100001 blocks, more than 100000",
    "sod-join-unresolved": "4:1: sod join: no declared intersection invariant for A, B over P(V)",
    "sod-flat-join-not-disjoint": "4:1: sod flat_join: flat join of A, B needs a declared "
    "disjointness group",
}


@pytest.mark.parametrize(
    "src, exc, where", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_inputs_raise_with_spans(src, exc, where):
    expected = where if isinstance(where[0], int) else pos(src, *where)
    with pytest.raises(exc) as excinfo:
        check_file(src)
    assert excinfo.value.span == expected
    assert str(excinfo.value).startswith(f"{expected[0]}:{expected[1]}:")


@pytest.mark.parametrize("name", list(DIAGNOSTIC_TEXT))
def test_diagnostic_text_is_exact(name):
    ((src, exc),) = [case[1:3] for case in MALFORMED if case[0] == name]
    with pytest.raises(exc) as excinfo:
        check_file(src)
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


def test_decompositions_follow_the_checks_in_statement_order(monkeypatch):
    # A join past the block cap fails only after every check has run.
    src = (
        "symbol z; category A over P(6) primitive [1, 1]; category B over P(6) primitive [1];\n"
        "disjoint A, B;\nsod universal_hyperplane(A);\nsod refined_blowup(A, ell=3, base=z);\n"
        "sod flat_join(A, B);\ncheck main_theorem(A, B);\n"
    )
    report, _ = check_file(src)
    assert [sod["name"] for sod in report["sods"]] == [
        "universal-hyperplane(A)",
        "refined-blowup(A, ell=3)",
        "flat-join(A, B)",
    ]
    assert [row["status"] for row in report["checks"]] == ["pass"]
    calls = count_calls(monkeypatch, hpdcalc.dsl, "check_main_theorem")
    with pytest.raises(DslSyntaxError, match="^5:1: sod join: 999999 blocks, more than 100000$"):
        check_file(src.replace("P(6)", "P(1000000)").replace("sod flat_join", "sod join"))
    assert calls == [None]
