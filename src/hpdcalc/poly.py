"""Exact multivariate integer polynomials: the value domain for additive invariants.

Values are immutable and kept in canonical form, so structural equality decides
polynomial equality and printing is byte-stable. A canonical term tuple has:

- each monomial's symbol names in sorted order;
- the terms in graded lexicographic order of their monomials (`_term_key`),
  each monomial once;
- no zero coefficient (zero is the empty tuple).

`InvariantExpr(mapping)` normalizes arbitrary input into that form. The
arithmetic operators instead build results with `InvariantExpr._canonical`,
which trusts its caller: their operands are canonical already, so a sum only
needs its surviving terms sorted once, a negation or a scaling keeps the order,
and a product sorts each new monomial and then the term list once. A
convolution of value lists (`InvariantExpr._convolve`) sorts each entry once.

The text front end does the same. `PolyParser` accumulates each polynomial
into one raw term dict and makes it canonical once, at the end. `tokenize`
matches one compiled pattern at each position, and finishes identifiers with
non-ASCII characters by the `str.isidentifier` rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


def _is_identifier(name: str) -> bool:
    return name.isidentifier()


@dataclass(frozen=True)
class Symbol:
    """A declared unknown, such as the invariant of an undetermined intersection."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not _is_identifier(self.name):
            raise ValueError(f"symbol name must be an identifier, got {self.name!r}")

    def __str__(self) -> str:
        return self.name


def _term_key(term: tuple[Monomial, int]) -> tuple[int, Monomial]:
    # Graded lex on the monomial: higher total degree first, ties by name tuple.
    return (-len(term[0]), term[0])


def _constant_terms(value: int) -> tuple[tuple[Monomial, int], ...]:
    return (((), value),) if value else ()


def _collected(acc: dict[Monomial, int]) -> tuple[tuple[Monomial, int], ...]:
    """The canonical terms of a dict keyed by sorted monomials."""
    return tuple(sorted([term for term in acc.items() if term[1]], key=_term_key))


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
    """An integer polynomial over named symbols, canonical by construction."""

    __slots__ = ("_terms",)

    _terms: tuple[tuple[Monomial, int], ...]

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                key = tuple(sorted(mono))
                cleaned[key] = cleaned.get(key, 0) + coeff
        self._terms = _collected(cleaned)

    @staticmethod
    def _canonical(items: tuple[tuple[Monomial, int], ...]) -> InvariantExpr:
        """Wrap a term tuple that is canonical already (see the module
        docstring), with no sort and no filter. Internal to the operators."""
        expr = object.__new__(InvariantExpr)
        expr._terms = items
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
        return self._terms

    def symbols(self) -> frozenset[str]:
        return frozenset(name for mono, _ in self._terms for name in mono)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        # The first term has the highest degree.
        return not self._terms or not self._terms[0][0]

    def constant_value(self) -> int:
        """The value of a constant polynomial; raises otherwise."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms[0][1] if self._terms else 0

    def total_degree(self) -> int:
        return max((len(mono) for mono, _ in self._terms), default=0)

    def degree_in(self, name: str) -> int:
        return max((mono.count(name) for mono, _ in self._terms), default=0)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Integer value at the given symbol assignment; all symbols must be covered."""
        value = 0
        for mono, coeff in self._terms:
            term = coeff
            for name in mono:
                term *= assignment[name]
            value += term
        return value

    def at_ones(self) -> int:
        """Evaluation with every symbol set to 1, used for plausibility screening."""
        return sum(coeff for _, coeff in self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Coercible) -> InvariantExpr:
        other = InvariantExpr._coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for mono, coeff in other._terms:
            acc[mono] = acc.get(mono, 0) + coeff
        return InvariantExpr._canonical(_collected(acc))

    __radd__ = __add__

    def __neg__(self) -> InvariantExpr:
        return InvariantExpr._canonical(tuple((mono, -coeff) for mono, coeff in self._terms))

    def __sub__(self, other: Coercible) -> InvariantExpr:
        return self + (-InvariantExpr._coerce(other))

    def __rsub__(self, other: Coercible) -> InvariantExpr:
        return InvariantExpr._coerce(other) - self

    def _scaled(self, factor: int) -> InvariantExpr:
        if not factor:
            return InvariantExpr._canonical(())
        if factor == 1:
            return self
        return InvariantExpr._canonical(
            tuple((mono, coeff * factor) for mono, coeff in self._terms)
        )

    def __mul__(self, other: Coercible) -> InvariantExpr:
        other = InvariantExpr._coerce(other)
        # A constant factor, zero included, scales the other operand's terms.
        if other.is_constant():
            return self._scaled(other.constant_value())
        if self.is_constant():
            return other._scaled(self.constant_value())
        acc: dict[Monomial, int] = {}
        _multiply_into(acc, self._terms, other._terms)
        return InvariantExpr._canonical(_collected(acc))

    __rmul__ = __mul__

    @staticmethod
    def _convolve(xs: Sequence[InvariantExpr], ys: Sequence[InvariantExpr]) -> list[InvariantExpr]:
        """The convolution of two value lists: entry s is the sum of xs[i] * ys[j]
        over i + j = s. Each entry's products accumulate in one term dict, which
        is sorted once, in place of one canonical value per `+` and `*`."""
        accs: list[dict[Monomial, int]] = [{} for _ in range(len(xs) + len(ys) - 1)]
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                _multiply_into(accs[i + j], x._terms, y._terms)
        return [InvariantExpr._canonical(_collected(acc)) for acc in accs]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == _constant_terms(other)
        if not isinstance(other, InvariantExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Equal to hash(value) for a constant, so hashing agrees with == on ints.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for index, (mono, coeff) in enumerate(self._terms):
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


class Token(NamedTuple):
    kind: str  # ident | int | punct | end
    text: str
    span: Span


# Optional horizontal whitespace, then one alternative per token class, or
# nothing. Whitespace is " \t\r" only and integers are ASCII digits only. Where
# nothing matches (end of input, a non-ASCII character or an unexpected one),
# `tokenize` looks at the character itself.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(\n)|(#[^\n]*)|([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([,;\[\]()=+*-])|())"
)
_NEWLINE, _COMMENT, _INT, _IDENT, _PUNCT, _OTHER = range(1, 7)
_KINDS = (None, None, None, "int", "ident", "punct")


def tokenize(text: str) -> list[Token]:
    """Declaration-language tokens with (line, column) spans; `#` starts a comment."""
    tokens: list[Token] = []
    match = _TOKEN.match
    line, line_start = 1, 0
    # The `end` token's column: a comment on the last line leaves it where the
    # comment starts.
    last = n = len(text)
    i = 0
    while True:
        m = match(text, i)
        group = m.lastindex
        start, i = m.span(group)
        if group == _OTHER:
            if start == n:
                break
            # Identifiers take only characters that keep them valid identifiers.
            if not text[start].isidentifier():
                raise DslSyntaxError(
                    f"unexpected character {text[start]!r}", (line, start - line_start + 1)
                )
            group, i = _IDENT, start + 1
        if group == _NEWLINE:
            line, line_start = line + 1, i
        elif group == _COMMENT:
            if i == n:
                last = start
        else:
            if group == _IDENT:
                while i < n and ("_" + text[i]).isidentifier():
                    i += 1
            tokens.append(Token(_KINDS[group], text[start:i], (line, start - line_start + 1)))
    tokens.append(Token("end", "", (line, last - line_start + 1)))
    return tokens


class PolyParser:
    """Token cursor plus the recursive-descent polynomial grammar.

    Errors are DslSyntaxError with the offending token's span; the
    declaration parser extends this class with its statements. A polynomial
    accumulates in raw term dicts keyed by sorted monomials, and becomes a
    canonical value once, at the end of `poly_sum`.
    """

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise DslSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.advance()

    @staticmethod
    def int_value(tok: Token) -> int:
        """The value of an `int` token, at most MAX_INT_DIGITS digits long."""
        if len(tok.text) > MAX_INT_DIGITS:
            raise DslSyntaxError(
                f"integer literal longer than {MAX_INT_DIGITS} digits", tok.span
            )
        return int(tok.text)

    def poly_sum(self, uses: list[tuple[str, Span]]) -> InvariantExpr:
        """sum := product (('+' | '-') product)*; appends each symbol use to `uses`."""
        return InvariantExpr._canonical(_collected(self._sum(uses)))

    def _sum(self, uses) -> dict[Monomial, int]:
        acc = self._product(uses)
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.advance().text == "+" else -1
            for mono, coeff in self._product(uses).items():
                acc[mono] = acc.get(mono, 0) + sign * coeff
        return acc

    def _product(self, uses) -> dict[Monomial, int]:
        acc = self._factor(uses)
        while self.at_punct("*"):
            self.advance()
            left, right, acc = acc, self._factor(uses), {}
            _multiply_into(acc, left.items(), right.items())
        return acc

    def _factor(self, uses) -> dict[Monomial, int]:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return {(): self.int_value(tok)}
        if tok.kind == "ident":
            self.advance()
            uses.append((tok.text, tok.span))
            return {(tok.text,): 1}
        if self.at_punct("("):
            if self.depth == MAX_NESTING:
                raise DslSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.span
                )
            self.advance()
            self.depth += 1
            acc = self._sum(uses)
            self.depth -= 1
            self.expect_punct(")")
            return acc
        if self.at_punct("-") or self.at_punct("+"):
            negate = False
            while self.at_punct("-") or self.at_punct("+"):
                negate ^= self.advance().text == "-"
            # The next token is not a sign, so this call never re-enters this branch.
            acc = self._factor(uses)
            return {mono: -coeff for mono, coeff in acc.items()} if negate else acc
        raise DslSyntaxError(
            f"expected polynomial, found {tok.text or 'end of input'!r}", tok.span
        )


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
        tok = parser.peek()
        if tok.kind != "end":
            raise DslSyntaxError(f"unexpected trailing {tok.text!r}", tok.span)
        return value
    except DslSyntaxError as err:
        line, col = err.span
        offset = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1
        raise PolySyntaxError(err.args[0], offset) from None
