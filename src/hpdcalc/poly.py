"""Exact multivariate integer polynomials: the value domain for additive invariants.

Values are immutable and kept in canonical form, so structural equality decides
polynomial equality and printing is byte-stable. The canonical form is a term
dict from monomial to coefficient with:

- each monomial's symbol names in sorted order, so a monomial is one key;
- no zero coefficient (zero is the empty dict).

The order of a dict's terms is not part of the value. Graded lexicographic
order of the monomials (`_term_key`) is applied only at the print boundary, by
the `terms` property and so by `__str__`; arithmetic finds each term by its
hash and sorts no terms.

`InvariantExpr(mapping)` normalizes arbitrary input into that form. The
arithmetic operators instead build results with `InvariantExpr._canonical`,
which trusts its caller: their operands are canonical already, so a sum copies
one term dict, adds the other's terms into it and deletes each term that
cancels; a negation or a scaling maps the coefficients, and an `int` factor
scales them with no wrapper value; a product sorts each new monomial and drops
the zero coefficients once (`_collected`). `_convolve` fills every entry of a
convolution in one flat loop over term pairs, and `_combine` adds the terms
of a sum of scaled values (and of `-`) into one dict; each is collected once.
A result shares no term dict with an operand, unless it is that operand.

The text front end does the same. `PolyParser` accumulates each polynomial
into one raw term dict and makes it canonical once, at the end; a product of
integers, names and unary signs folds into one coefficient and one monomial,
and only a parenthesized factor multiplies term dicts. `tokenize` lexes each
line with one `findall` of a compiled pattern whose pieces include their
leading blanks, and keeps only the words, in one flat list, and the index of
each line's first word. It builds no object per piece and computes no
position. The parser reads the words with a piece index as its cursor, tells
a word's kind from the word itself, and keeps piece indexes as positions; a
(line, column) is resolved only when a diagnostic or a reader asks for one,
by re-lexing that one line (`Lexed.span`). A line the pieces do not cover,
because it holds a non-ASCII or unexpected character, is lexed one word at a
time instead, and identifiers with non-ASCII characters follow the
`str.isidentifier` rule.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import DslSyntaxError, Span

__all__ = [
    "Symbol",
    "InvariantExpr",
    "PolySyntaxError",
    "const",
    "sym",
    "parse_expr",
    "MAX_NESTING",
    "MAX_INT_DIGITS",
]

# A monomial is the multiset of symbol names it mentions, stored sorted.
Monomial = tuple[str, ...]

Coercible = Union["InvariantExpr", int]


class _SymbolName(NamedTuple):
    name: str


class Symbol(_SymbolName):
    """A declared unknown, such as the invariant of an undetermined intersection."""

    __slots__ = ()

    def __new__(cls, name: str) -> Symbol:
        if not name or not name.isidentifier():
            raise ValueError(f"symbol name must be an identifier, got {name!r}")
        return super().__new__(cls, name)

    def __str__(self) -> str:
        return self.name


def _term_key(term: tuple[Monomial, int]) -> tuple[int, Monomial]:
    # Graded lex on the monomial: higher total degree first, ties by name tuple.
    return (-len(term[0]), term[0])


def _constant_terms(value: int) -> dict[Monomial, int]:
    return {(): value} if value else {}


def _collected(acc: dict[Monomial, int]) -> dict[Monomial, int]:
    """The canonical terms of a fresh dict keyed by sorted monomials: its
    nonzero ones. Without a zero coefficient the dict itself is returned."""
    if 0 in acc.values():
        return {mono: coeff for mono, coeff in acc.items() if coeff}
    return acc


def _multiply_into(
    acc: dict[Monomial, int],
    xs: Iterable[tuple[Monomial, int]],
    ys: Collection[tuple[Monomial, int]],
) -> None:
    """Add the product of two term lists into `acc`. Each monomial is sorted
    already, so only a merge of two nonconstant monomials needs a sort."""
    for mono_a, coeff_a in xs:
        for mono_b, coeff_b in ys:
            mono = mono_a + mono_b
            if mono_a and mono_b:
                mono = tuple(sorted(mono))
            acc[mono] = acc.get(mono, 0) + coeff_a * coeff_b


# `str` refuses an int longer than the interpreter's int-to-string digit limit
# (4300 by default, at least 640 unless 0), which products of literals can
# exceed. Such a coefficient prints in pieces below 10**600, under any limit.
_PIECE = 10**600


def _decimal(value: int) -> str:
    """The decimal digits of a nonnegative integer: a long one is split on a
    power of ten into two halves, each printed the same way."""
    if value < _PIECE:
        return str(value)
    # bit_length * 0.3 never exceeds the digit count, so both halves are nonempty.
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


class InvariantExpr:
    """An integer polynomial over named symbols, canonical by construction.

    `_terms` is a zero-free dict from sorted monomial to coefficient, in no
    particular order, and no operation mutates it once a value holds it.
    `terms` lists it in graded lexicographic order, the order values print in.
    """

    __slots__ = ("_terms",)

    _terms: dict[Monomial, int]

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                key = tuple(sorted(mono))
                cleaned[key] = cleaned.get(key, 0) + coeff
        self._terms = _collected(cleaned)

    @staticmethod
    def _canonical(terms: dict[Monomial, int]) -> InvariantExpr:
        """Wrap a zero-free dict keyed by sorted monomials, which the new value
        then owns, with no filter. Internal to the package."""
        expr = object.__new__(InvariantExpr)
        expr._terms = terms
        return expr

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: int) -> InvariantExpr:
        return InvariantExpr({(): int(value)})

    @staticmethod
    def symbol(name: str) -> InvariantExpr:
        return InvariantExpr({(Symbol(name).name,): 1})

    @staticmethod
    def _coerce(value: Coercible) -> InvariantExpr:
        if isinstance(value, InvariantExpr):
            return value
        if isinstance(value, int):
            return InvariantExpr._canonical(_constant_terms(int(value)))
        raise TypeError(f"cannot treat {type(value).__name__} as an invariant value")

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """The (monomial, coefficient) pairs in graded lexicographic order."""
        return tuple(sorted(self._terms.items(), key=_term_key))

    def symbols(self) -> frozenset[str]:
        return frozenset(name for mono in self._terms for name in mono)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        terms = self._terms
        return not terms or (len(terms) == 1 and () in terms)

    def constant_value(self) -> int:
        """The value of a constant polynomial; raises otherwise."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), 0)

    def degree_in(self, name: str) -> int:
        return max((mono.count(name) for mono in self._terms), default=0)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Integer value at the given symbol assignment; all symbols must be covered."""
        value = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for name in mono:
                term *= assignment[name]
            value += term
        return value

    def at_ones(self) -> int:
        """Evaluation with every symbol set to 1, used for plausibility screening."""
        return sum(self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Coercible) -> InvariantExpr:
        if other.__class__ is not InvariantExpr:
            other = InvariantExpr._coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = self._terms.copy()
        for mono, coeff in other._terms.items():
            total = acc.get(mono, 0) + coeff
            if total:
                acc[mono] = total
            else:  # the term cancels; coeff is nonzero, so mono is in acc
                del acc[mono]
        return InvariantExpr._canonical(acc)

    __radd__ = __add__

    def __neg__(self) -> InvariantExpr:
        return InvariantExpr._canonical({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: Coercible) -> InvariantExpr:
        return InvariantExpr._combine(((1, self), (-1, InvariantExpr._coerce(other))))

    def __rsub__(self, other: Coercible) -> InvariantExpr:
        return InvariantExpr._coerce(other) - self

    def _scaled(self, factor: int) -> InvariantExpr:
        if not factor:
            return InvariantExpr._canonical({})
        if factor == 1:
            return self
        return InvariantExpr._canonical(
            {mono: coeff * factor for mono, coeff in self._terms.items()}
        )

    def __mul__(self, other: Coercible) -> InvariantExpr:
        if other.__class__ is not InvariantExpr:
            if other.__class__ is int:  # a bool is coerced, like any other operand
                return self._scaled(other)
            other = InvariantExpr._coerce(other)
        # A constant factor, zero included, scales the other operand's terms.
        if other.is_constant():
            return self._scaled(other._terms.get((), 0))
        if self.is_constant():
            return other._scaled(self._terms.get((), 0))
        acc: dict[Monomial, int] = {}
        _multiply_into(acc, self._terms.items(), other._terms.items())
        return InvariantExpr._canonical(_collected(acc))

    __rmul__ = __mul__

    @staticmethod
    def _convolve(xs: Sequence[InvariantExpr], ys: Sequence[InvariantExpr]) -> list[InvariantExpr]:
        """The convolution of two value lists: entry s is the sum of xs[i] * ys[j]
        over i + j = s, filled from one flat (j, monomial, coefficient) list of
        the terms of ys with no call per term pair, and collected once. A zero
        entry of either list adds no pair to the loop."""
        accs: list[dict[Monomial, int]] = [{} for _ in range(len(xs) + len(ys) - 1)]
        flat = [(j, mono, coeff) for j, y in enumerate(ys) for mono, coeff in y._terms.items()]
        for i, x in enumerate(xs):
            for mono_a, coeff_a in x._terms.items():
                for j, mono_b, coeff_b in flat:
                    mono = mono_a or mono_b  # either one, if the other is constant
                    if mono_a and mono_b:
                        mono = tuple(sorted(mono_a + mono_b))
                    acc = accs[i + j]
                    acc[mono] = acc.get(mono, 0) + coeff_a * coeff_b
        return [InvariantExpr._canonical(_collected(acc)) for acc in accs]

    @staticmethod
    def _combine(pairs: Iterable[tuple[int, InvariantExpr]]) -> InvariantExpr:
        """The sum of c * v over the (c, v) pairs, added into one dict that starts
        as the first pair's scaled terms; a single pair gives `v._scaled(c)`."""
        pairs = iter(pairs)
        c, first = next(pairs, (0, None))
        acc = None
        for k, v in pairs:
            if acc is None:  # `_scaled` copies no dict for c = 1 only
                acc = first._terms.copy() if c == 1 else first._scaled(c)._terms
            for mono, coeff in v._terms.items():
                acc[mono] = acc.get(mono, 0) + k * coeff
        if acc is None:
            return InvariantExpr._canonical({}) if first is None else first._scaled(c)
        return InvariantExpr._canonical(_collected(acc))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == _constant_terms(other)
        if not isinstance(other, InvariantExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Equal to hash(value) for a constant, so hashing agrees with == on ints.
        # Otherwise the hash of the set of terms, which the dict's insertion
        # order does not change, as it does not change dict equality.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for index, (mono, coeff) in enumerate(self.terms):
            magnitude = abs(coeff)
            factors = list(mono)
            if magnitude != 1 or not factors:
                try:
                    factors = [str(magnitude)] + factors
                except ValueError:  # past the interpreter's digit limit
                    factors = [_decimal(magnitude)] + factors
            body = "*".join(factors)
            if index == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"InvariantExpr({self})"


# -- constructors ----------------------------------------------------------


def const(value: int) -> InvariantExpr:
    return InvariantExpr.const(value)


def sym(name: str) -> InvariantExpr:
    return InvariantExpr.symbol(name)


# -- textual syntax --------------------------------------------------------
#
# One lexer and one polynomial grammar serve both `parse_expr` and the
# declaration language: integers, symbols, +, -, *, parentheses. The canonical
# printer above emits a subset of this syntax, so print -> parse round-trips.

# Parentheses nest at most this deep; deeper input is a syntax error rather
# than a recursion overflow. Chains of unary signs are read in a loop.
MAX_NESTING = 100

# An integer literal has at most this many digits; a longer one is a syntax
# error. The limit is fixed here, so it does not depend on the interpreter's
# own int-to-string limit (sys.get_int_max_str_digits), whose default it equals.
MAX_INT_DIGITS = 4300


# Optional horizontal whitespace (" \t\r" only), then one word of the ASCII
# grammar: a punctuation mark (the most frequent kind, so tried first), an
# integer of ASCII digits or an ASCII identifier. `_line_pieces` cuts a line's
# comment off and finds these pieces in the rest; where they do not cover it,
# the line has a character outside ASCII or outside the grammar, and
# `_lex_stepwise` reads it one word at a time.
_PIECES = re.compile(r"[ \t\r]*(?:[,;\[\]()=+*-]|[0-9]+|[A-Za-z_][A-Za-z0-9_]*)")
_BLANKS = re.compile(r"[ \t\r]*")


class Lexed(NamedTuple):
    """The lexer's output. `words` ends with the empty word, the end of input;
    `starts[k]` is the index of the first word on or after line k + 1 of
    `rows`, the text's lines. `span` re-lexes a word's line to place it, and
    keeps that line's piece ends in `ends`, so its other words cost no lexing.
    """

    words: list[str]
    starts: list[int]
    rows: list[str]
    ends: dict[int, list[int]]

    def __repr__(self) -> str:  # short: every node of a syntax tree holds one
        return f"Lexed(<{len(self.words)} words on {len(self.rows)} lines>)"

    def span(self, i: int) -> Span:
        """The (line, column) where piece `i` starts."""
        rows = self.rows
        if i == len(self.words) - 1:
            # The end of input follows the last line, or starts where its comment does.
            return (len(rows), len(rows[-1].partition("#")[0]) + 1)
        index = bisect_right(self.starts, i) - 1
        ends = self.ends.get(index)
        if ends is None:
            pieces = _line_pieces(rows[index], index + 1)
            ends = self.ends[index] = list(accumulate(map(len, pieces)))
        return (index + 1, ends[i - self.starts[index]] - len(self.words[i]) + 1)


def tokenize(text: str) -> Lexed:
    """The declaration language's words, line by line (`#` starts a comment).
    A word's kind is read from the word itself: the empty word is the end of
    input, ASCII digits an integer, an identifier a name or keyword, and any
    other word a punctuation mark."""
    rows = text.split("\n")
    words: list[str] = []
    starts: list[int] = []
    for line, row in enumerate(rows, 1):
        starts.append(len(words))
        words.extend(map(str.lstrip, _line_pieces(row, line)))
    words.append("")
    return Lexed(words, starts, rows, {})


def _line_pieces(row: str, line: int) -> list[str]:
    """The pieces of one line's code, each a word with its leading blanks:
    one `findall` where the pieces cover the code, else `_lex_stepwise`."""
    code = row.partition("#")[0].rstrip(" \t\r")
    pieces = _PIECES.findall(code)
    # The pieces never overlap, so they cover the code when their lengths add up.
    if sum(map(len, pieces)) == len(code):
        return pieces
    return _lex_stepwise(code, line)


def _lex_stepwise(code: str, line: int) -> list[str]:
    """The pieces of one line's code, matched one at a time: identifiers take
    the characters that keep them valid identifiers by the `str.isidentifier`
    rule, and any other character outside the grammar is an error."""
    pieces = []
    n = len(code)
    i = 0
    while i < n:
        start = _BLANKS.match(code, i).end()
        if code[start].isidentifier():
            end = start + 1
            while end < n and ("_" + code[end]).isidentifier():
                end += 1
        else:
            m = _PIECES.match(code, start)
            if not m:
                raise DslSyntaxError(f"unexpected character {code[start]!r}", (line, start + 1))
            end = m.end()
        pieces.append(code[i:end])
        i = end
    return pieces


class PolyParser:
    """Cursor over the lexed words plus the polynomial grammar.

    The cursor `pos` is a piece index, and so is every position the parser
    keeps: a symbol use is recorded as its piece index, and `span` resolves
    one to (line, column) only for an error. Errors are DslSyntaxError with
    the offending piece's span; the declaration parser extends this class
    with its statements. A polynomial accumulates in raw term dicts keyed by
    sorted monomials, and becomes a canonical value once, at the end of
    `poly_sum`. `_sum` reads a whole sum in one loop: every integer, name and
    sign of each product, and only a parenthesized factor takes a call
    (`_factor`). A unary sign multiplies the product's coefficient by -1: it
    applies to the next factor, and the product commutes, so this is exact.
    """

    def __init__(self, lexed: Lexed) -> None:
        self.lexed = lexed
        self.words = lexed.words
        self.span = lexed.span  # the (line, column) where a piece starts
        self.pos = 0
        self.depth = 0

    def unexpected(self, what: str) -> DslSyntaxError:
        """The error for a word at the cursor that is not `what`."""
        word = self.words[self.pos]
        return DslSyntaxError(
            f"expected {what}, found {word or 'end of input'!r}", self.span(self.pos)
        )

    def accept(self, word: str) -> bool:
        """Pass `word` if it is at the cursor; whether it was."""
        if self.words[self.pos] == word:
            self.pos += 1
            return True
        return False

    def expect(self, word: str) -> None:
        """Pass the punctuation mark or keyword `word` at the cursor."""
        if self.words[self.pos] != word:
            raise self.unexpected(repr(word))
        self.pos += 1

    def int_value(self, i: int) -> int:
        """The value of integer piece `i`, at most MAX_INT_DIGITS digits long."""
        word = self.words[i]
        if len(word) > MAX_INT_DIGITS:
            raise DslSyntaxError(
                f"integer literal longer than {MAX_INT_DIGITS} digits", self.span(i)
            )
        return int(word)

    def poly_sum(self, uses: list[int]) -> InvariantExpr:
        """A sum as a canonical value; appends the piece index of each symbol use to `uses`."""
        return InvariantExpr._canonical(_collected(self._sum(uses)))

    def _sum(self, uses: list[int]) -> dict[Monomial, int]:
        """sum := product (('+' | '-') product)*, with product := factor ('*'
        factor)* and factor := ('+' | '-')* (int | name | '(' sum ')')."""
        acc: dict[Monomial, int] = {}
        words = self.words
        i = self.pos
        coeff, names, factors = 1, [], None
        while True:
            word = words[i]
            i += 1
            if word.isdigit():
                # `int_value` raises for a literal past the digit cap.
                coeff *= int(word) if len(word) <= MAX_INT_DIGITS else self.int_value(i - 1)
            elif word.isidentifier():
                uses.append(i - 1)
                names.append(word)
            elif word == "-" or word == "+":
                # A sign binds to the factor after it, so no '*' may follow yet.
                coeff = -coeff if word == "-" else coeff
                continue
            else:
                self.pos = i - 1
                group = self._factor(uses)
                i = self.pos
                if factors is None:
                    factors = group
                else:
                    left, factors = factors, {}
                    _multiply_into(factors, left.items(), group.items())
            word = words[i]
            if word == "*":
                i += 1
                continue
            # The product ends: add it into the sum.
            names.sort()
            mono = tuple(names)
            if factors is None:
                acc[mono] = acc.get(mono, 0) + coeff
            else:
                _multiply_into(acc, factors.items(), ((mono, coeff),))
            if word == "+":
                coeff = 1
            elif word == "-":
                coeff = -1
            else:
                self.pos = i
                return acc
            i += 1
            names, factors = [], None

    def _factor(self, uses: list[int]) -> dict[Monomial, int]:
        """The parenthesized factor; `_sum` reads every other one."""
        i = self.pos
        if not self.accept("("):
            raise self.unexpected("polynomial")
        if self.depth == MAX_NESTING:
            raise DslSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING} levels", self.span(i)
            )
        self.depth += 1
        acc = self._sum(uses)
        self.depth -= 1
        self.expect(")")
        return acc


class PolySyntaxError(ValueError):
    """Malformed polynomial text; carries the offset of the offending character."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def parse_expr(text: str) -> InvariantExpr:
    """Parse the shared textual polynomial syntax into canonical form."""
    try:
        parser = PolyParser(tokenize(text))
        value = parser.poly_sum([])
        if parser.words[parser.pos]:
            raise DslSyntaxError(
                f"unexpected trailing {parser.words[parser.pos]!r}", parser.span(parser.pos)
            )
        return value
    except DslSyntaxError as err:
        line, col = err.span
        offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1
        raise PolySyntaxError(err.args[0], offset) from None
