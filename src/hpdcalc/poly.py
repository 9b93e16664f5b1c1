"""Exact multivariate integer polynomials: the value domain for additive invariants.

Values are immutable and kept in canonical form (no zero coefficients, monomials
in graded lexicographic order on symbol names), so structural equality decides
polynomial equality and printing is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .errors import DslSyntaxError, Span

__all__ = [
    "Symbol",
    "InvariantExpr",
    "PolySyntaxError",
    "const",
    "sym",
    "parse_expr",
    "MAX_NESTING",
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


def _monomial_key(m: Monomial) -> tuple[int, Monomial]:
    # Graded lex: higher total degree first, ties by name tuple.
    return (-len(m), m)


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
        items = tuple(
            (mono, coeff)
            for mono, coeff in sorted(cleaned.items(), key=lambda kv: _monomial_key(kv[0]))
            if coeff != 0
        )
        object.__setattr__(self, "_terms", items)

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
            return InvariantExpr.const(value)
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
        return all(not mono for mono, _ in self._terms)

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
        acc = dict(self._terms)
        for mono, coeff in other._terms:
            acc[mono] = acc.get(mono, 0) + coeff
        return InvariantExpr(acc)

    __radd__ = __add__

    def __neg__(self) -> InvariantExpr:
        return InvariantExpr({mono: -coeff for mono, coeff in self._terms})

    def __sub__(self, other: Coercible) -> InvariantExpr:
        return self + (-InvariantExpr._coerce(other))

    def __rsub__(self, other: Coercible) -> InvariantExpr:
        return InvariantExpr._coerce(other) - self

    def __mul__(self, other: Coercible) -> InvariantExpr:
        other = InvariantExpr._coerce(other)
        acc: dict[Monomial, int] = {}
        for mono_a, coeff_a in self._terms:
            for mono_b, coeff_b in other._terms:
                mono = tuple(sorted(mono_a + mono_b))
                acc[mono] = acc.get(mono, 0) + coeff_a * coeff_b
        return InvariantExpr(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = InvariantExpr.const(other)
        if not isinstance(other, InvariantExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
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
                factors = [str(magnitude)] + factors
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

_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | end
    text: str
    span: Span


def tokenize(text: str) -> list[Token]:
    """Declaration-language tokens with (line, column) spans; `#` starts a comment."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        span = (line, col)
        # Integers are ASCII digits only; identifiers take only characters that
        # keep them valid identifiers. Anything else is an unexpected character.
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], span))
            col += j - i
            i = j
            continue
        if ch.isidentifier():
            j = i + 1
            while j < len(text) and ("_" + text[j]).isidentifier():
                j += 1
            tokens.append(Token("ident", text[i:j], span))
            col += j - i
            i = j
            continue
        if ch in ",;[]()=+-*":
            tokens.append(Token("punct", ch, span))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", span)
    tokens.append(Token("end", "", (line, col)))
    return tokens


class PolyParser:
    """Token cursor plus the recursive-descent polynomial grammar.

    Errors are DslSyntaxError with the offending token's span; the
    declaration parser extends this class with its statements.
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

    def poly_sum(self, uses: list[tuple[str, Span]]) -> InvariantExpr:
        """sum := product (('+' | '-') product)*; appends each symbol use to `uses`."""
        expr = self._poly_product(uses)
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().text
            right = self._poly_product(uses)
            expr = expr + right if op == "+" else expr - right
        return expr

    def _poly_product(self, uses) -> InvariantExpr:
        expr = self._poly_factor(uses)
        while self.at_punct("*"):
            self.advance()
            expr = expr * self._poly_factor(uses)
        return expr

    def _poly_factor(self, uses) -> InvariantExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return InvariantExpr.const(int(tok.text))
        if tok.kind == "ident":
            self.advance()
            uses.append((tok.text, tok.span))
            return InvariantExpr.symbol(tok.text)
        if self.at_punct("("):
            if self.depth == MAX_NESTING:
                raise DslSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.span
                )
            self.advance()
            self.depth += 1
            expr = self.poly_sum(uses)
            self.depth -= 1
            self.expect_punct(")")
            return expr
        if self.at_punct("-") or self.at_punct("+"):
            negate = False
            while self.at_punct("-") or self.at_punct("+"):
                negate ^= self.advance().text == "-"
            # The next token is not a sign, so this call never re-enters this branch.
            expr = self._poly_factor(uses)
            return -expr if negate else expr
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
