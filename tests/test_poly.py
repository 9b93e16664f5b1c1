"""Invariant arithmetic: canonical form, decidable equality, shared text syntax."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import count_calls, ref_tokenize, token_tuples

from hpdcalc import poly
from hpdcalc.dsl import _Parser, parse
from hpdcalc.errors import DslSyntaxError
from hpdcalc.poly import (
    MAX_INT_DIGITS,
    MAX_NESTING,
    InvariantExpr,
    PolySyntaxError,
    Symbol,
    const,
    parse_expr,
    sym,
    tokenize,
)


def evaluate_both(a, b, assignments):
    """Oracle: two polynomials agree iff they agree pointwise on integer grids."""
    return all(a.evaluate(point) == b.evaluate(point) for point in assignments)


def grid(symbols, lo=0, hi=5):
    names = sorted(symbols)
    for values in itertools.product(range(lo, hi + 1), repeat=len(names)):
        yield dict(zip(names, values))


# -- construction and canonical form ----------------------------------------


def test_zero_is_empty_and_prints_0():
    assert const(0).terms == ()
    assert str(const(0)) == "0"
    assert not const(0)


def test_zero_coefficients_are_dropped():
    p = sym("x") - sym("x")
    assert p.terms == ()
    assert p == 0


def test_monomials_sorted_graded_lex():
    p = sym("b") + sym("a") * sym("a") + 3 + sym("a") * sym("b")
    # degree 2 first (a*a before a*b lexicographically), then degree 1, then constant
    assert [mono for mono, _ in p.terms] == [("a", "a"), ("a", "b"), ("b",), ()]
    assert str(p) == "a*a + a*b + b + 3"


def test_symbol_requires_identifier():
    with pytest.raises(ValueError):
        Symbol("")
    with pytest.raises(ValueError):
        Symbol("2x")
    assert Symbol("e_1").name == "e_1"


# -- worked examples ---------------------------------------------------------


def test_add_identity_and_arithmetic():
    x = sym("x")
    assert const(0) + x == x
    assert (2 * x + 3) + (x - 1) == 3 * x + 2


def test_add_gr25_hyperplane_chain():
    # e + 800, as produced by the two-hyperplane invariant chain for Gr(2,5).
    e = sym("e")
    result = e + const(800)
    # oracle: brute-force evaluation against the naive sum
    for v in range(6):
        assert result.evaluate({"e": v}) == v + 800
    assert str(result) == "e + 800"


def test_mul_identity_and_difference_of_squares():
    x = sym("x")
    assert const(1) * x == x
    assert (x + 1) * (x - 1) == x * x - 1


def test_mul_main_theorem_arithmetic():
    # 9*(9e) - 10*(8e) = e; oracle = independent evaluation at e = 1..5.
    e = sym("e")
    result = const(9) * (9 * e) - const(10) * (8 * e)
    for v in range(1, 6):
        assert result.evaluate({"e": v}) == 9 * 9 * v - 10 * 8 * v == v
    assert result == e


def test_sub_examples_and_plausibility_flag():
    x = sym("x")
    zero = x - x
    assert zero == 0 and zero.is_zero() and zero.at_ones() >= 0

    e = sym("e")
    diff = (e + 800) - const(800)
    assert diff == e and diff.at_ones() >= 0
    for v in range(6):
        assert diff.evaluate({"e": v}) == v

    # A negative value at all-ones is what plausibility screening flags.
    neg = const(3) - const(5)
    assert neg == -2
    assert neg.at_ones() < 0


def test_eq_examples():
    x, y, e = sym("x"), sym("y"), sym("e")
    assert x + y == y + x
    assert x * x == parse_expr("x * x")
    assert e != e + 1


def test_constants_hash_like_the_ints_they_equal():
    assert hash(const(3)) == hash(3)
    assert hash(const(-1)) == hash(-1)
    assert hash(const(0)) == hash(sym("x") - sym("x")) == hash(0)
    assert len({3, const(3)}) == 1
    assert {0, const(0), -1, const(-1), sym("x")} == {0, -1, sym("x")}
    assert const(-1) == -1 and const(0) == 0 and sym("x") != 0 and sym("x") + 1 != 1


def test_operators_on_canonical_values_skip_the_normalizing_constructor(monkeypatch):
    a = 2 * sym("a") * sym("b") - sym("b") + 3
    b = sym("a") - 1
    zero = a - a
    inits = count_calls(monkeypatch, InvariantExpr, "__init__")
    results = [
        a + b, a - b, -a, a * b,
        a + 2, 2 + a, a - 2, 2 - a, a * 3, 3 * a, a * 0, 0 * a, a * -1,
        a + zero, zero + a, a * zero, zero * b, sum([a, b, a]),
    ]
    comparisons = [a == 3, zero == 0, a + 1 == b]
    assert inits == []
    assert results[10] == results[11] == results[15] == results[16] == 0
    assert comparisons == [False, True, False]


# -- algebraic laws (property-tested) ----------------------------------------

names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def polys(draw, max_terms=5, max_degree=4):
    p = const(0)
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(st.integers(-9, 9))
        mono = const(coeff)
        for _ in range(draw(st.integers(0, max_degree))):
            mono = mono * sym(draw(names))
        p = p + mono
    return p


@given(polys(), polys())
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys(), polys(), polys())
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys(), polys())
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys(), polys(), polys())
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys(), polys(), polys())
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_print_parse_round_trip(p):
    assert parse_expr(str(p)) == p
    # identical stored representation, not merely equal
    assert parse_expr(str(p)).terms == p.terms


@given(polys(), polys())
def test_eq_agrees_with_evaluation(a, b):
    rng = random.Random(20260814)
    points = [
        {name: rng.randint(-50, 50) for name in sorted(a.symbols() | b.symbols())}
        for _ in range(100)
    ]
    if a == b:
        assert all(a.evaluate(pt) == b.evaluate(pt) for pt in points)
    else:
        assert any(a.evaluate(pt) != b.evaluate(pt) for pt in grid(a.symbols() | b.symbols()))


# -- canonical form from raw input --------------------------------------------
#
# The operands come from InvariantExpr(mapping) on raw dicts, and the results
# are evaluated by plain loops over term pairs, so neither the inputs nor the
# oracle go through the operators' own construction path.


@st.composite
def raw_terms(draw):
    """A mapping with unsorted monomials, keys that sort to the same monomial,
    zero coefficients and cancelling pairs."""
    raw = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple(draw(st.lists(names, max_size=3)))
        coeff = draw(st.integers(-4, 4))
        raw[mono] = coeff
        if draw(st.booleans()):
            raw[mono[::-1]] = draw(st.sampled_from([-coeff, 0, coeff]))
    return raw


def raw_value(terms, point):
    total = 0
    for mono, coeff in terms:
        for name in mono:
            coeff *= point[name]
        total += coeff
    return total


def observed(value):
    """What a value shows: its ordered terms, its text and its hash."""
    return value.terms, str(value), hash(value)


scalars = st.sampled_from([0, 1, -1]) | st.integers(-20, 20)
points = st.lists(
    st.fixed_dictionaries({name: st.integers(-9, 9) for name in "abcd"}), min_size=1, max_size=4
)


@given(raw_terms(), raw_terms(), scalars, points)
def test_operator_results_are_canonical_and_evaluate_like_raw_input(ra, rb, k, pts):
    a, b = InvariantExpr(ra), InvariantExpr(rb)
    ra, rb = ra.items(), rb.items()
    cases = [
        (a + b, lambda pt: raw_value(ra, pt) + raw_value(rb, pt)),
        (a - b, lambda pt: raw_value(ra, pt) - raw_value(rb, pt)),
        (-a, lambda pt: -raw_value(ra, pt)),
        (a * b, lambda pt: raw_value(ra, pt) * raw_value(rb, pt)),
        (a * k, lambda pt: raw_value(ra, pt) * k),
        (k * a, lambda pt: k * raw_value(ra, pt)),
        (a + k, lambda pt: raw_value(ra, pt) + k),
        (k - a, lambda pt: k - raw_value(ra, pt)),
    ]
    for result, expected in cases:
        terms = result.terms
        assert all(coeff != 0 for _, coeff in terms)
        assert all(list(mono) == sorted(mono) for mono, _ in terms)
        keys = [(-len(mono), mono) for mono, _ in terms]
        assert keys == sorted(set(keys))
        assert terms == InvariantExpr(dict(terms)).terms
        for pt in pts:
            assert raw_value(terms, pt) == expected(pt)


def nonconstant_first(values):
    """Lists of one to four values whose first value is not constant."""
    first = values.filter(lambda p: not p.is_constant())
    return st.tuples(first, st.lists(values, max_size=3)).map(lambda pair: [pair[0], *pair[1]])


raw_values = raw_terms().map(InvariantExpr)


@given(nonconstant_first(raw_values), nonconstant_first(raw_values))
def test_convolve_equals_the_operator_loop(xs, ys):
    expected = [const(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            expected[i + j] = expected[i + j] + x * y
    result = InvariantExpr._convolve(xs, ys)
    assert [r.terms for r in result] == [e.terms for e in expected]
    assert [observed(r) for r in result] == [observed(e) for e in expected]
    assert [observed(r) for r in InvariantExpr._convolve(ys, xs)] == [observed(e) for e in expected]


# -- the term dict --------------------------------------------------------------
#
# A value keeps its terms in a dict whose insertion order depends on how the
# value was built. Nothing observable may depend on that order, and no
# operator may mutate a dict that an operand holds.


@given(raw_terms(), raw_terms())
def test_insertion_order_is_not_observable(ra, rb):
    a, b = InvariantExpr(ra), InvariantExpr(rb)
    assert observed(a) == observed(InvariantExpr(dict(reversed(ra.items()))))
    assert a + b == b + a and observed(a + b) == observed(b + a)
    assert a * b == b * a and observed(a * b) == observed(b * a)
    assert observed((a + b) - b) == observed(a)


@given(raw_terms(), raw_terms(), scalars)
def test_operators_leave_their_operands_unchanged(ra, rb, k):
    a, b = InvariantExpr(ra), InvariantExpr(rb)
    before = [a.terms, b.terms]
    results = [
        a + b, b + a, a - b, b - a, -a, a - a, a * b, b * a,
        a * k, k * a, a + k, k + a, a - k, k - a, a + 0, 0 + a, a * 1,
        *InvariantExpr._convolve([a, b], [b, a, a]),
    ]
    assert [a.terms, b.terms] == before
    # A second round on the results: were any dict shared with an operand and
    # then written through, an operand or an earlier result would change.
    snapshot = [r.terms for r in results]
    for r in results:
        _ = [r + a, a + r, r - b, b - r, r + r, r - r, -r, r * a, r + k]
    assert [a.terms, b.terms] == before
    assert [r.terms for r in results] == snapshot


@given(raw_terms(), st.integers(-5, 5))
@example({("a",): 1, (): 3}, -3)
@example({("a",): 1, (): 3}, 0)
@example({(): 2}, -2)
def test_constant_where_the_constant_term_cancels_or_survives(ra, k):
    a = InvariantExpr(ra)
    # Each symbol has degree at most 3, so a grid of 4 points per axis decides
    # whether a is constant.
    origin = dict.fromkeys("abcd", 0)
    constant = len({raw_value(ra.items(), pt) for pt in grid("abcd", 0, 3)}) == 1
    c = raw_value(ra.items(), origin)
    assert a.is_constant() == (a + k).is_constant() == constant
    if constant:
        assert (a + k).constant_value() == c + k
        assert (a + k) == c + k and hash(a + k) == hash(c + k)
    else:
        with pytest.raises(ValueError):
            (a + k).constant_value()
    rest = a - c  # the constant term cancels
    assert rest.is_constant() == rest.is_zero() == constant
    assert rest.evaluate(origin) == 0
    only = a - rest  # the constant term is the only survivor
    assert only.is_constant() and only.constant_value() == c
    assert only == c and hash(only) == hash(c)


def test_arithmetic_and_parsing_order_no_terms(monkeypatch):
    ordered = count_calls(monkeypatch, poly, "_term_key")
    a = parse_expr("2*a*b - b + 3 + (a - 1) * (b + c*c)")
    b = parse_expr("a - 1")
    _ = [
        a + b, a - b, b - a, -a, a * b, a * 3, a + 2, 2 - a, a - a,
        InvariantExpr._convolve([a, b], [b, a, a]),
    ]
    assert ordered == []
    assert str(a) == "a*c*c + 3*a*b - c*c - 2*b + 3"
    assert ordered  # printing orders the terms


# -- evaluation helpers -------------------------------------------------------


def test_evaluate_and_at_ones():
    p = 2 * sym("a") * sym("b") + 3 * sym("a") - 7
    assert p.evaluate({"a": 2, "b": 5}) == 2 * 2 * 5 + 3 * 2 - 7
    assert p.at_ones() == 2 + 3 - 7


def test_degrees_and_symbols():
    p = sym("a") * sym("a") * sym("b") + 5
    assert p.degree_in("a") == 2
    assert p.degree_in("b") == 1
    assert p.degree_in("c") == 0
    assert p.symbols() == {"a", "b"}


def test_constant_value():
    assert const(12).constant_value() == 12
    assert const(0).constant_value() == 0
    with pytest.raises(ValueError):
        (sym("x") + 1).constant_value()


# -- textual syntax -----------------------------------------------------------


def test_parse_basic_forms():
    assert parse_expr("0") == 0
    assert parse_expr("e + 800") == sym("e") + 800
    assert parse_expr("2*a*a - 3*b + 4") == 2 * sym("a") * sym("a") - 3 * sym("b") + 4
    assert parse_expr("-(a - b)") == sym("b") - sym("a")
    assert parse_expr("(a + b)*(a - b)") == sym("a") * sym("a") - sym("b") * sym("b")


def test_parse_rejects_garbage():
    for bad in ["", "1 +", "a ^ 2", "(a", "a b", "3..4", "*a"]:
        with pytest.raises(PolySyntaxError):
            parse_expr(bad)


def test_parse_offsets_point_at_error():
    with pytest.raises(PolySyntaxError) as err:
        parse_expr("a + $")
    assert err.value.offset == 4


def test_parse_rejects_non_ascii_digits():
    # Arabic-Indic three: a digit to str.isdigit, but not an integer here.
    with pytest.raises(PolySyntaxError) as err:
        parse_expr("\u0663*x")
    assert err.value.offset == 0


def test_parse_nesting_cap():
    at_cap = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_expr(at_cap) == sym("a")
    with pytest.raises(PolySyntaxError) as err:
        parse_expr("(" * 3000 + "a" + ")" * 3000)
    # the first parenthesis beyond the cap is blamed
    assert err.value.offset == MAX_NESTING


def test_parse_long_unary_sign_chains():
    assert parse_expr("-" * 3000 + "a") == sym("a")
    assert parse_expr("-" * 3001 + "a") == -sym("a")
    assert parse_expr("+-" * 1500 + "(a - 2)") == sym("a") - 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("x*-", "expected polynomial, found 'end of input' (at offset 3)"),
        ("-*x", "expected polynomial, found '*' (at offset 1)"),
        ("2*-)", "expected polynomial, found ')' (at offset 3)"),
        ("+-;", "expected polynomial, found ';' (at offset 2)"),
        ("x - -", "expected polynomial, found 'end of input' (at offset 5)"),
        (
            "-" + "(" * (MAX_NESTING + 1),
            f"parentheses nested deeper than {MAX_NESTING} levels (at offset 101)",
        ),
    ],
    ids=[
        "sign-at-end",
        "sign-then-star",
        "sign-then-close",
        "signs-then-semicolon",
        "sum-ends-in-sign",
        "sign-then-nesting",
    ],
)
def test_parse_diagnostics_after_signs(text, message):
    with pytest.raises(PolySyntaxError) as err:
        parse_expr(text)
    assert str(err.value) == message


def test_parse_integer_literal_digit_cap():
    at_cap = "7" * MAX_INT_DIGITS
    assert parse_expr(f"x + {at_cap}") == sym("x") + int(at_cap)
    with pytest.raises(PolySyntaxError) as err:
        parse_expr(f"x + {at_cap}0")
    assert str(err.value) == f"integer literal longer than {MAX_INT_DIGITS} digits (at offset 4)"


# -- the lexer against its reference ------------------------------------------

LEXER_CHARS = (
    "abzAZ_09"
    " \t\r\n\f\v\x85\u00a0\u2028#"
    "!\"$%&'()*+,-./:;<=>?@[\\]^`{|}~"
    "\u00e9\u0301\u00b7\u00b2\u0664\u4e2d"
)
LEXER_WORDS = ["x1", "_y", "category", "12", "007", "# note\n", "\u00e9t\u00e9", "a\u0301b", "  "]
# Mostly characters the lexer accepts, so most draws reach the end of input.
LEXER_VALID = "abz_09 \t\r\n#,;[]()=+-*\u00e9\u0301\u00b7"


def lexed(lexer, text):
    """The token list as (kind, text, span) tuples, or the error it raised."""
    try:
        return [tuple(tok) for tok in lexer(text)]
    except DslSyntaxError as err:
        return ("error", str(err), err.span)


def tokenized(text):
    return token_tuples(tokenize(text))


@st.composite
def lexer_texts(draw):
    """Runs of mostly valid text, with up to two arbitrary characters put in."""
    pieces = draw(
        st.lists(
            st.sampled_from(LEXER_WORDS) | st.text(st.sampled_from(LEXER_VALID), max_size=6),
            max_size=12,
        )
    )
    for _ in range(draw(st.integers(0, 2))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(LEXER_CHARS)))
    return "".join(pieces)


@settings(max_examples=500)
@given(lexer_texts())
@example("\u00e9a1 x\u00e9\u00b71 a\u0301 # c\n  y  \t")
@example("\u0301x")
@example("x # c")
@example("x\n  # c")
@example("x \r\n\t ")
@example("2\u0664")
@example("x\u00b2")
@example("\u4e2d\u6587 + 1")
@example("a$")
@example("symbol x;\r\ncategory A over P(3) primitive [x + 1];\r\n# done\r\n")
@example("x + 1 \t\n  y\t \t\n \t")
@example("x = 1;\ny # last")
@example("")
@example("a + 1\nb\u00e9 * 2\nc * (3)\n")
@example("a + 1\nb $ 2\nc * (3)\n")
def test_tokenize_matches_the_reference_lexer(text):
    assert lexed(tokenized, text) == lexed(ref_tokenize, text)


@pytest.mark.parametrize("context", ["{}", "x{}", "{}x", "x {} 1", "1{}y", "\u00e9{}2", "# {}\n{} #"])
def test_tokenize_matches_the_reference_lexer_on_each_character(context):
    for ch in LEXER_CHARS:
        text = context.format(ch, ch)
        assert lexed(tokenized, text) == lexed(ref_tokenize, text), text


def library_text(count, newline="\n"):
    """A declaration file shaped like a generated library: ASCII only, a
    comment, and sums of products of integers and names."""
    rng = random.Random(count)
    lines = ["# generated library", "symbol a, b, c, d;"]
    for index in range(count):
        prims = []
        for _ in range(rng.randint(1, 4)):
            terms = [str(rng.randint(0, 3))]
            terms += [f"{rng.randint(1, 3)}*{name}" for name in "abcd" if rng.random() < 0.5]
            prims.append(" + ".join(terms))
        lines.append(f"category L{index} over P({rng.randint(5, 12)}) primitive [{', '.join(prims)}];")
    lines += ["disjoint L0, L1, L2;", "intersect L3, L4 over P(9) = 2 + 3*a*b;", "check cone_part1(L5, n2=2);"]
    return newline.join(lines) + newline


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_ascii_lines_take_the_fast_paths(newline, monkeypatch):
    stepwise = count_calls(monkeypatch, poly, "_lex_stepwise")
    products = count_calls(monkeypatch, poly, "_multiply_into")
    text = library_text(250, newline)
    parse(text)
    assert (stepwise, products) == ([], [])
    # One line with a non-ASCII name is lexed one token at a time; only it.
    parse(text.replace("symbol a, b,", "symbol \u00e9t\u00e9, a, b,"))
    assert len(stepwise) == 1


# -- the parser against the operators -----------------------------------------
#
# A random expression tree is printed as text and valued with the InvariantExpr
# operators; parsing the text must give the same value, in canonical form.

factor_leaves = st.integers(0, 12).map(str) | st.sampled_from(["0", "a", "b", "c", "x1"])


def _compound_factors(children):
    term = st.lists(children, min_size=1, max_size=3)
    expr = st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=3)
    return expr.map(lambda e: ("paren", e)) | st.tuples(
        st.just("sign"), st.text("+-", min_size=1, max_size=3), children
    )


factor_trees = st.recursive(factor_leaves, _compound_factors, max_leaves=12)
expr_trees = st.lists(
    st.tuples(st.sampled_from("+-"), st.lists(factor_trees, min_size=1, max_size=3)),
    min_size=1,
    max_size=4,
)


def expr_text_and_value(expr):
    texts, value = [], const(0)
    for index, (op, term) in enumerate(expr):
        pieces = [factor_text_and_value(factor) for factor in term]
        term_value = const(1)
        for _, piece in pieces:
            term_value = term_value * piece
        if index:
            texts.append(op)
        texts.append(" * ".join(text for text, _ in pieces))
        value = value - term_value if index and op == "-" else value + term_value
    return " ".join(texts), value


def factor_text_and_value(factor):
    if isinstance(factor, str):
        return factor, const(int(factor)) if factor.isdigit() else sym(factor)
    if factor[0] == "paren":
        text, value = expr_text_and_value(factor[1])
        return f"({text})", value
    _, signs, inner = factor
    text, value = factor_text_and_value(inner)
    return signs + text, -value if signs.count("-") % 2 else value


@given(expr_trees)
@example([("+", ["a", "b"]), ("-", ["b", "a"]), ("+", ["0"])])
@example([("+", [("sign", "-+-", ("paren", [("+", ["a"]), ("-", ["2"])]))])])
def test_parse_equals_the_operators_on_printed_trees(tree):
    text, value = expr_text_and_value(tree)
    result = parse_expr(text)
    assert result == value
    assert InvariantExpr(dict(result.terms)).terms == result.terms
    node = _Parser(tokenize(text)).parse_poly()
    assert node.expr == value
    assert list(node.symbol_uses) == [
        (word, span) for kind, word, span in tokenized(text) if kind == "ident"
    ]


def test_parsing_a_polynomial_canonicalizes_once(monkeypatch):
    collected = count_calls(monkeypatch, poly, "_collected")
    inits = count_calls(monkeypatch, InvariantExpr, "__init__")
    for text in ["3 + a + 2*b + 3*d", "-(a - 1) * (b + 2*c) - --c*3 + (a*a - a*a)", "0"]:
        collected.clear()
        parse_expr(text)
        assert len(collected) == 1
    assert inits == []
