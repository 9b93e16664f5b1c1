"""Declaration language for workspaces, check pipelines and decompositions.

Statements end with `;`, comments run from `#` to end of line, and polynomial
values use integer coefficients over declared symbols with `+ - *` and
parentheses. The grammar needs one token of lookahead. Every parse error and
validation error carries a (line, column) span.
"""

from __future__ import annotations

import contextlib
import gc
from typing import NamedTuple, Sequence

from .checks import (
    SUBSET_READING_NOTE,
    CheckResult,
    check_dual_profile,
    check_join_linear,
    check_main_theorem,
    check_n_hpd_center,
    check_thm_cone_part1,
    check_thm_cone_part2,
)
from .engine import (
    join_profile, join_sod, n_join_profile, refined_blowup_profile, universal_hyperplane_sod
)
from .errors import (
    AmbientMismatch,
    ConflictingIntersection,
    DslSyntaxError,
    DuplicateDeclaration,
    HpdcalcError,
    MissingDisjointness,
    Span,
    Underdetermined,
    UnknownCategory,
    UnknownSymbol,
    UnresolvedBaseLocus,
    UnresolvedIntersection,
)
from .model import (
    LefschetzProfile, Workspace, _drop_grouped_pairs, _group_index, _pair_key, build_profile
)
from .poly import InvariantExpr, Lexed, PolyParser, tokenize
from .report import build_report, check_row, input_digest

__all__ = [
    "CHECK_NAMES",
    "MAX_N2",
    "parse",
    "validate",
    "check_requests",
    "run_check",
    "run_check_row",
    "check_file",
    "print_canonical",
    "Ast",
    "SymbolDecl",
    "CategoryDecl",
    "IntersectDecl",
    "DisjointDecl",
    "DualDecl",
    "CheckStmt",
    "SodStmt",
]


def _run_dual_profile(
    profiles: list[LefschetzProfile], stmt: CheckStmt, ws: Workspace
) -> CheckResult:
    target = profiles[0]
    dual = ws.dual_of(target.name)
    if dual is None:
        raise Underdetermined(
            f"dual_profile({target.name}) needs a declared dual profile", stmt.span
        )
    return check_dual_profile(target, dual)


def _join_sod(profiles: list[LefschetzProfile], stmt: SodStmt, ws: Workspace):
    join = join_profile(profiles[0], profiles[1], ws)
    if join.ambient_rank - 1 > MAX_N2:
        raise DslSyntaxError(f"{join.ambient_rank - 1} blocks, more than {MAX_N2}")
    return join.to_sod()


def _refined_blowup_sod(profiles: list[LefschetzProfile], stmt: SodStmt, ws: Workspace):
    rank = profiles[0].ambient_rank_N
    if not 2 <= stmt.ell <= rank:
        raise DslSyntaxError(f"ell must be from 2 to the ambient rank {rank}")
    return refined_blowup_profile(profiles[0], stmt.ell, stmt.base.expr).to_sod()


# Per check or sod: least and greatest arity (None = unbounded), the keywords it
# requires and alone takes, and its runner (profiles, stmt, ws). Runners look up
# what they call by name when called, so rebinding a name (to profile it) holds.
_CHECKS = {
    "main_theorem": (2, 2, (), lambda ps, stmt, ws: check_main_theorem(ps[0], ps[1], ws)),
    "n_hpd_center": (1, None, (), lambda ps, stmt, ws: check_n_hpd_center(ps, ws)),
    "cone_part1": (1, 1, ("n2",), lambda ps, stmt, ws: check_thm_cone_part1(ps[0], stmt.n2, ws)),
    "cone_part2": (1, 1, ("n2",), lambda ps, stmt, ws: check_thm_cone_part2(ps[0], stmt.n2)),
    "join_linear": (1, None, (), lambda ps, stmt, ws: check_join_linear(ps)),
    "dual_profile": (1, 1, (), _run_dual_profile),
}
_SODS = {
    "join": (2, 2, (), _join_sod),
    "flat_join": (
        2, None, (), lambda ps, stmt, ws: join_sod([p.name for p in ps], n_join_profile(ps, ws))
    ),
    "universal_hyperplane": (1, 1, (), lambda ps, stmt, ws: universal_hyperplane_sod(ps[0])),
    "refined_blowup": (1, 1, ("ell", "base"), _refined_blowup_sod),
}

CHECK_NAMES = tuple(_CHECKS)

# No statement builds a list longer than this: n2 and ell past it are syntax
# errors, and so is a join over P(N) with N - 1 past it, once the checks ran.
MAX_N2 = 100_000

# Keywords that only continue a statement; the others start one (`_STATEMENTS`).
_KEYWORDS = frozenset(["over", "primitive", "left"])


# -- syntax tree -------------------------------------------------------------------
#
# Named tuples, cheap to build. A node keeps positions as piece indexes into its
# source (`at`: its first word), which `span`, `names`, `args` and `symbol_uses`
# resolve to (line, column) when read.

_span = property(lambda node: node.src.span(node.at))


def _pairs(field: str) -> property:
    """The (word, span) pairs of the piece indexes a node keeps in `field`."""
    return property(
        lambda node: tuple((node.src.words[i], node.src.span(i)) for i in getattr(node, field))
    )


class PolyNode(NamedTuple):
    """A parsed polynomial plus the pieces of the symbols it mentions."""

    expr: InvariantExpr
    uses_at: tuple[int, ...]
    at: int
    src: Lexed
    span = _span
    symbol_uses = _pairs("uses_at")


class SymbolDecl(NamedTuple):
    names_at: tuple[int, ...]
    at: int
    src: Lexed
    span = _span
    names = _pairs("names_at")


class CategoryDecl(NamedTuple):
    name: str
    rank: int
    primitives: tuple[PolyNode, ...]
    left: tuple[PolyNode, ...] | None
    at: int
    src: Lexed
    span = _span


class IntersectDecl(NamedTuple):
    first: str
    second: str
    rank: int
    value: PolyNode
    at: int
    src: Lexed
    span = _span


class DisjointDecl(NamedTuple):
    names_at: tuple[int, ...]
    at: int
    src: Lexed
    span = _span
    names = _pairs("names_at")


class DualDecl(NamedTuple):
    name: str
    primitives: tuple[PolyNode, ...]
    at: int
    src: Lexed
    span = _span


class CheckStmt(NamedTuple):
    check: str
    args_at: tuple[int, ...]
    at: int
    src: Lexed
    n2: int | None = None
    span = _span
    args = _pairs("args_at")


class SodStmt(NamedTuple):
    sod: str
    args_at: tuple[int, ...]
    at: int
    src: Lexed
    ell: int | None = None
    base: PolyNode | None = None
    span = _span


Statement = SymbolDecl | CategoryDecl | IntersectDecl | DisjointDecl | DualDecl | CheckStmt | SodStmt


class Ast(NamedTuple):
    statements: tuple[Statement, ...]


# -- parsing ----------------------------------------------------------------------

class _Parser(PolyParser):
    """The statement grammar on top of the shared polynomial grammar."""

    def expect_ident(self, what: str = "identifier") -> int:
        """Pass the identifier at the cursor; its piece index."""
        i = self.pos
        if not self.words[i].isidentifier():
            raise self.unexpected(what)
        self.pos = i + 1
        return i

    def expect_int(self) -> tuple[int, int]:
        """Pass the integer at the cursor; its value and piece index."""
        i = self.pos
        if not self.words[i].isdigit():
            raise self.unexpected("integer")
        self.pos = i + 1
        return self.int_value(i), i

    def parse_poly(self) -> PolyNode:
        at, uses = self.pos, []
        return PolyNode(self.poly_sum(uses), tuple(uses), at, self.lexed)

    def parse_poly_list(self) -> tuple[PolyNode, ...]:
        """sum (',' sum)* ']', a polynomial list past its '[': the sums are read
        in one loop."""
        items: list[tuple[InvariantExpr, tuple[int, ...], int]] = []
        self._sum([], items)
        self.expect("]")
        lexed = self.lexed
        return tuple([PolyNode(expr, uses, at, lexed) for expr, uses, at in items])

    def parse_rank(self) -> int:
        self.expect("P")
        self.expect("(")
        rank, _ = self.expect_int()
        self.expect(")")
        return rank

    def parse_name_list(self) -> tuple[int, ...]:
        names = [self.expect_ident()]
        while self.accept(","):
            names.append(self.expect_ident())
        return tuple(names)

    # -- statements ----------------------------------------------------------------

    def parse_file(self) -> Ast:
        statements: list[Statement] = []
        while self.words[self.pos]:
            statements.append(self.parse_statement())
        return Ast(tuple(statements))

    def parse_statement(self) -> Statement:
        i = self.pos
        word = self.words[i]
        handler = self._STATEMENTS.get(word)
        if handler is None:
            if word in _KEYWORDS:
                raise DslSyntaxError(f"{word!r} cannot start a statement", self.span(i))
            raise self.unexpected("a statement keyword")
        self.pos = i + 1
        return handler(self, i)

    # Each handler starts past its keyword, whose piece index `at` it is given.

    def _stmt_symbol(self, at: int) -> SymbolDecl:
        names = self.parse_name_list()
        self.expect(";")
        return SymbolDecl(names, at, self.lexed)

    def _stmt_category(self, at: int) -> CategoryDecl:
        name = self.words[self.expect_ident("category name")]
        self.expect("over")
        rank = self.parse_rank()
        self.expect("primitive")
        self.expect("[")
        primitives = self.parse_poly_list()
        left = None
        if self.accept("left"):
            self.expect("[")
            left = self.parse_poly_list()
        self.expect(";")
        return CategoryDecl(name, rank, primitives, left, at, self.lexed)

    def _stmt_intersect(self, at: int) -> IntersectDecl:
        first = self.words[self.expect_ident("category name")]
        self.expect(",")
        second = self.words[self.expect_ident("category name")]
        self.expect("over")
        rank = self.parse_rank()
        self.expect("=")
        value = self.parse_poly()
        self.expect(";")
        return IntersectDecl(first, second, rank, value, at, self.lexed)

    def _stmt_disjoint(self, at: int) -> DisjointDecl:
        names = self.parse_name_list()
        if len(names) < 2:
            raise DslSyntaxError("disjoint declarations need at least two names", self.span(at))
        self.expect(";")
        return DisjointDecl(names, at, self.lexed)

    def _stmt_dual(self, at: int) -> DualDecl:
        name = self.words[self.expect_ident("category name")]
        self.expect("primitive")
        self.expect("[")
        primitives = self.parse_poly_list()
        self.expect(";")
        return DualDecl(name, primitives, at, self.lexed)

    def parse_call(self, at: int, node: type = CheckStmt, table: dict = _CHECKS) -> Statement:
        """`NAME(category, ..., keyword=value, ...)` past its statement's keyword,
        a check's by default or a sod's given its node and table: the node, with
        each keyword value in the field of its name."""
        kind = self.words[at]
        name = self.words[self.pos]
        if name not in table:
            i = self.expect_ident(kind + " name")
            raise DslSyntaxError(
                f"unknown {kind} name {name!r}; expected one of {', '.join(table)}", self.span(i)
            )
        self.pos += 1
        lo, hi, keywords, _ = table[name]
        self.expect("(")
        args: list[int] = []
        values: dict = {}
        while True:
            i = self.expect_ident("category name or keyword")
            word = self.words[i]
            if self.accept("="):
                if word not in keywords:
                    raise DslSyntaxError(
                        f"{kind} {name!r} does not take keyword {word!r}", self.span(i)
                    )
                if word == "base":
                    value = self.parse_poly()
                else:
                    value, j = self.expect_int()
                    if value < 1:
                        raise DslSyntaxError(f"{word} must be a positive integer", self.span(j))
                    if value > MAX_N2:
                        raise DslSyntaxError(f"{word} must be at most {MAX_N2}", self.span(j))
                if word in values:
                    raise DslSyntaxError(f"duplicate keyword {word!r}", self.span(i))
                values[word] = value
            else:
                if values:
                    raise DslSyntaxError(
                        "positional arguments may not follow keyword arguments", self.span(i)
                    )
                args.append(i)
            if not self.accept(","):
                break
        self.expect(")")
        self.expect(";")
        if len(args) < lo or (hi is not None and len(args) > hi):
            wanted = str(lo) if hi == lo else f"at least {lo}"
            raise DslSyntaxError(
                f"{kind} {name!r} takes {wanted} categories, got {len(args)}", self.span(at)
            )
        for word in keywords:
            if word not in values:
                wanted = "<invariant>" if word == "base" else "<rank>"
                raise DslSyntaxError(f"{kind} {name!r} requires {word}={wanted}", self.span(at))
        return node(name, tuple(args), at, self.lexed, **values)

    # Statement keyword -> handler, built once with the class.
    _STATEMENTS = {
        "symbol": _stmt_symbol,
        "category": _stmt_category,
        "intersect": _stmt_intersect,
        "disjoint": _stmt_disjoint,
        "dual": _stmt_dual,
        "check": parse_call,
        "sod": lambda self, at: self.parse_call(at, SodStmt, _SODS),
    }


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector in the block; restore it on every exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse(text: str) -> Ast:
    """Parse source text into a statement list; raises DslSyntaxError with a span.

    The tree keeps piece indexes, not positions: a (line, column) is resolved
    from the lexed text only when a node's span is read or an error is raised.
    Parsing allocates many words and nodes and no reference cycles, so the
    cyclic garbage collector, whose passes would rescan every node built so
    far, is paused while it runs.
    """
    with _collector_paused():
        return _Parser(tokenize(text)).parse_file()


# -- validation ---------------------------------------------------------------------


def _check_poly_symbols(nodes: Sequence[PolyNode], symbols: set[str]) -> None:
    for node in nodes:
        words = node.src.words
        for i in node.uses_at:
            if words[i] not in symbols:
                raise UnknownSymbol(f"symbol {words[i]!r} is not declared", node.src.span(i))


def _with_span(err: HpdcalcError, span: Span) -> HpdcalcError:
    if err.span is None:
        err.span = span
    return err


def validate(ast: Ast, *, allow_nonmoderate: bool = False) -> Workspace:
    """Resolve all references and build the frozen workspace.

    Declaration order never matters: names are collected in a first pass, so
    forward references validate cleanly. `allow_nonmoderate` admits profiles
    with length >= ambient rank; duality-consuming operations still reject
    them at run time. Only the error raised resolves a position.
    """
    symbols: set[str] = set()
    category_decls: dict[str, CategoryDecl] = {}
    # Each statement is dispatched on its type once: declarations of names
    # here, and the statements that refer to them, in file order, after.
    references: list[Statement] = []

    for stmt in ast.statements:
        kind = type(stmt)
        if kind is CategoryDecl:
            if stmt.name in category_decls:
                raise DuplicateDeclaration(f"category {stmt.name!r} declared twice", stmt.span)
            category_decls[stmt.name] = stmt
        elif kind is SymbolDecl:
            for i in stmt.names_at:
                name = stmt.src.words[i]
                if name in symbols:
                    raise DuplicateDeclaration(f"symbol {name!r} declared twice", stmt.src.span(i))
                symbols.add(name)
        else:
            references.append(stmt)

    overlap = symbols & set(category_decls)
    if overlap:
        name = sorted(overlap)[0]
        raise DuplicateDeclaration(
            f"{name!r} is declared both as a symbol and as a category",
            category_decls[name].span,
        )

    def profile(stmt: CategoryDecl | DualDecl, rank: int, left=None) -> LefschetzProfile:
        """The profile a category or dual statement declares; an error gets its span."""
        _check_poly_symbols(stmt.primitives + (left or ()), symbols)
        right = [node.expr for node in stmt.primitives]
        left = None if left is None else [node.expr for node in left]
        try:
            return build_profile(stmt.name, rank, right, left, allow_nonmoderate=allow_nonmoderate)
        except HpdcalcError as err:
            raise _with_span(err, stmt.span)

    categories: list[LefschetzProfile] = []
    for stmt in category_decls.values():
        if stmt.rank < 2:
            raise DslSyntaxError("ambient rank must be at least 2", stmt.span)
        categories.append(profile(stmt, stmt.rank, stmt.left))

    def require_category(name: str, src: Lexed, at: int) -> CategoryDecl:
        decl = category_decls.get(name)
        if decl is None:
            raise UnknownCategory(f"unknown category {name!r}", src.span(at))
        return decl

    intersections: dict[tuple[str, str], InvariantExpr] = {}
    intersect_decls: dict[tuple[str, str], IntersectDecl] = {}
    disjoint_sets: list[tuple[str, ...]] = []
    dual_profiles: dict[str, LefschetzProfile] = {}

    for stmt in references:
        kind = type(stmt)
        if kind is IntersectDecl:
            a = require_category(stmt.first, stmt.src, stmt.at)
            b = require_category(stmt.second, stmt.src, stmt.at)
            if a.rank != stmt.rank or b.rank != stmt.rank:
                raise AmbientMismatch(
                    f"intersection declared over P({stmt.rank}) but {stmt.first} and "
                    f"{stmt.second} live over P({a.rank}) and P({b.rank})",
                    stmt.span,
                )
            key = _pair_key(stmt.first, stmt.second)
            if key in intersect_decls:
                raise DuplicateDeclaration(
                    f"intersection of {key[0]}, {key[1]} declared twice", stmt.span
                )
            intersect_decls[key] = stmt
            _check_poly_symbols((stmt.value,), symbols)
            intersections[key] = stmt.value.expr
        elif kind is DisjointDecl:
            names = tuple(stmt.src.words[i] for i in stmt.names_at)
            listed: set[str] = set()
            for name, i in zip(names, stmt.names_at):
                require_category(name, stmt.src, i)
                if name in listed:
                    raise DuplicateDeclaration(
                        f"category {name!r} listed twice in one disjointness group",
                        stmt.src.span(i),
                    )
                listed.add(name)
            disjoint_sets.append(names)
        elif kind is DualDecl:
            decl = require_category(stmt.name, stmt.src, stmt.at)
            if stmt.name in dual_profiles:
                raise DuplicateDeclaration(f"dual of {stmt.name!r} declared twice", stmt.span)
            dual_profiles[stmt.name] = profile(stmt, decl.rank)
        else:  # a check or a sod
            for i in stmt.args_at:
                require_category(stmt.src.words[i], stmt.src, i)
            if kind is SodStmt and stmt.base is not None:
                _check_poly_symbols((stmt.base,), symbols)

    try:
        return Workspace.build(symbols, categories, intersections, disjoint_sets, dual_profiles)
    except ConflictingIntersection:
        # Workspace.build ranks conflicts by canonical group order, a file by declaration order.
        (pair, message), *_ = _drop_grouped_pairs(_group_index(disjoint_sets), intersections)[1]
        raise ConflictingIntersection(message, intersect_decls[pair].span) from None


def check_requests(ast: Ast) -> tuple[CheckStmt, ...]:
    """The check statements in file order."""
    return tuple(stmt for stmt in ast.statements if isinstance(stmt, CheckStmt))


def run_check(stmt: CheckStmt, ws: Workspace) -> CheckResult:
    """Execute one check statement against a validated workspace."""
    profiles = [ws.category(stmt.src.words[i]) for i in stmt.args_at]
    return _CHECKS[stmt.check][3](profiles, stmt, ws)


# Errors that leave a check undecided by the declared data: such a check
# reports as "underdetermined" rather than as a hard error or a refutation.
_UNDECIDED = (Underdetermined, UnresolvedIntersection, MissingDisjointness, UnresolvedBaseLocus)


def run_check_row(stmt: CheckStmt, ws: Workspace) -> dict:
    """The report row of one check statement; other errors propagate."""
    try:
        return run_check(stmt, ws).to_json_dict()
    except _UNDECIDED as err:
        return check_row(stmt.check, "", "", "underdetermined", None, [str(err)])


def _sod_entry(stmt: SodStmt, ws: Workspace) -> dict:
    """A sod statement's decomposition, named by its name with `-` for `_`, categories and ell."""
    names = [stmt.src.words[i] for i in stmt.args_at]
    sod = _SODS[stmt.sod][3]([ws.category(name) for name in names], stmt, ws)
    if stmt.ell is not None:
        names.append(f"ell={stmt.ell}")
    return sod.to_json_dict(f"{stmt.sod.replace('_', '-')}({', '.join(names)})")


def check_file(text: str, *, allow_nonmoderate: bool = False) -> dict:
    """The report of one declaration file.

    Parses and validates the text, runs its check statements, then builds its
    sod statements' decompositions, each in file order. The report's warnings
    are the workspace's, then the subset reading note once if any check row
    carries it. An error a check raises that does not leave it undecided, or
    a decomposition raises, is raised again at the statement's span, as
    `check NAME: ` or `sod NAME: ` and the error's own text.

    The cyclic garbage collector is paused for the whole file, as for
    `parse`: validation builds a profile per category and no reference
    cycles, and a pass would rescan every node and profile of the file. It
    resumes once they are freed, so its next pass does not scan them either.
    """
    with _collector_paused():
        return _file_report(text, allow_nonmoderate)


def _file_report(text: str, allow_nonmoderate: bool) -> dict:
    ast = parse(text)
    ws = validate(ast, allow_nonmoderate=allow_nonmoderate)
    rows: list[dict] = []
    sods: list[dict] = []
    try:
        for stmt in check_requests(ast):
            rows.append(run_check_row(stmt, ws))
        for stmt in ast.statements:
            if isinstance(stmt, SodStmt):
                sods.append(_sod_entry(stmt, ws))
    except HpdcalcError as err:
        what = f"check {stmt.check}" if isinstance(stmt, CheckStmt) else f"sod {stmt.sod}"
        raise type(err)(f"{what}: {err}", stmt.span) from err
    warnings = list(ws.warnings)
    if any(SUBSET_READING_NOTE in row["notes"] for row in rows):
        warnings.append(SUBSET_READING_NOTE)
    return build_report(input_digest(text), rows, sods, warnings)


# -- canonical printing ----------------------------------------------------------------


def _poly_list_text(values: Sequence[InvariantExpr]) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def print_canonical(ws: Workspace) -> str:
    """Deterministic source text that validates back to an equal workspace.
    A disjoint group is one `disjoint` line; its pairs' zeros are not listed."""
    lines: list[str] = []
    if ws.symbols:
        lines.append("symbol " + ", ".join(sorted(ws.symbols)) + ";")
    for name in sorted(ws.categories):
        p = ws.categories[name]
        stmt = (
            f"category {name} over P({p.ambient_rank_N}) "
            f"primitive {_poly_list_text(p.primitive_right)}"
        )
        if p.primitive_left != p.primitive_right:
            stmt += f" left {_poly_list_text(p.primitive_left)}"
        lines.append(stmt + ";")
    for (a, b), value in sorted(ws.intersections.items()):
        rank = ws.categories[a].ambient_rank_N
        lines.append(f"intersect {a}, {b} over P({rank}) = {value};")
    for group in sorted(sorted(g) for g in ws.disjoint_sets):
        lines.append("disjoint " + ", ".join(group) + ";")
    for name in sorted(ws.dual_profiles):
        dual = ws.dual_profiles[name]
        lines.append(f"dual {name} primitive {_poly_list_text(dual.primitive_right)};")
    return "".join(line + "\n" for line in lines)
