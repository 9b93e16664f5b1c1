"""Shared hypothesis strategies and independent reference computations.

The reference functions here deliberately avoid the engine's code paths: they
work on plain integer lists via explicit index loops, so the symbolic engine
can be cross-checked by evaluating its output at integer assignments. The
hyperplane subset walk works on polynomials, and shares no code with the
engine's closed form, so values and error messages compare exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
from typing import NamedTuple, Sequence

from hypothesis import strategies as st

from hpdcalc.dsl import _poly_list_text
from hpdcalc.errors import (
    ConflictingDeclarations,
    ConflictingIntersection,
    DslSyntaxError,
    NonModerate,
    Span,
    Underdetermined,
    UnknownCategory,
)
from hpdcalc.model import LefschetzProfile, Workspace, build_profile, same_ambient
from hpdcalc.poly import Coercible, InvariantExpr, Lexed

SYMBOL_NAMES = ("x", "y")


@st.composite
def primitive_exprs(draw, symbols=SYMBOL_NAMES, max_coeff=3):
    """Small polynomials with nonnegative coefficients, so any profile built
    from them passes the plausibility screen."""
    expr = InvariantExpr.const(draw(st.integers(0, max_coeff)))
    for name in draw(st.sets(st.sampled_from(symbols), max_size=len(symbols))):
        expr = expr + draw(st.integers(0, max_coeff)) * InvariantExpr.symbol(name)
    return expr


@st.composite
def profile_st(draw, name="A", N=None, max_m=5, max_rank=9, symbols=SYMBOL_NAMES):
    if N is None:
        N = draw(st.integers(2, max_rank))
    m = draw(st.integers(1, min(max_m, N - 1)))
    prims = [draw(primitive_exprs(symbols)) for _ in range(m)]
    return build_profile(name, N, prims)


@st.composite
def profile_pairs(draw, max_m=4, max_rank=9, symbols=SYMBOL_NAMES):
    N = draw(st.integers(2, max_rank))
    p = draw(profile_st(name="A", N=N, max_m=max_m, symbols=symbols))
    q = draw(profile_st(name="B", N=N, max_m=max_m, symbols=symbols))
    return p, q


def assignments(symbols=SYMBOL_NAMES, lo=0, hi=3):
    return st.fixed_dictionaries({name: st.integers(lo, hi) for name in symbols})


def primitive_values(profile: LefschetzProfile, assignment) -> list[int]:
    return [p.evaluate(assignment) for p in profile.primitive_right]


def renamed(p: LefschetzProfile, name: str) -> LefschetzProfile:
    """The profile `p` under another name."""
    return LefschetzProfile(name, p.ambient_rank_N, p.primitive_right, p.primitive_left)


@contextlib.contextmanager
def time_budget(seconds: float, what: str):
    """Raise TimeoutError inside the block once `seconds` of wall time pass."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took more than {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


# -- integer reference computations -------------------------------------------


def ref_ruled_join(p_vals: list[int], q_vals: list[int], i: int) -> int:
    return sum(
        a * b
        for i1, a in enumerate(p_vals)
        for i2, b in enumerate(q_vals)
        if i1 + i2 >= i - 1
    )


def ref_flat_join(prim_lists: list[list[int]], i: int) -> int:
    """Exhaustive enumeration over index tuples of the n-fold join component."""
    n = len(prim_lists)
    total = 0
    stack = [(0, 0, 1)]
    while stack:
        k, index_sum, product = stack.pop()
        if k == n:
            if index_sum >= i + 1 - n:
                total += product
            continue
        for idx, value in enumerate(prim_lists[k]):
            stack.append((k + 1, index_sum + idx, product * value))
    return total


def ref_component_rank(p_vals: list[int], k: int) -> int:
    return sum(p_vals[k:])


def ref_total(p_vals: list[int]) -> int:
    return sum((j + 1) * v for j, v in enumerate(p_vals))


def ref_duality_total(N: int, c_vals: list[int]) -> int:
    """(N - 1) * (c_0 + c_1 + ...) - N * (c_1 + c_2 + ...), summed by loops."""
    total = 0
    for c in c_vals:
        total += c
    higher = 0
    for i in range(1, len(c_vals)):
        higher += c_vals[i]
    return (N - 1) * total - N * higher


def ref_deep_component(N: int, prim_lists: list[list[int]], total_of) -> int:
    """Deep component of the n-universal hyperplane by its recursive definition,
    deep[S] = total[S] - sum over proper K of S of deep[K] * prod_{i in S - K} h_i,
    with h_i the sum of the components k >= 1 of profile i. total[()] = N,
    total[(i,)] = (N - 1) * total_i, and total_of(S) gives the rest.
    """
    n = len(prim_lists)
    h = [sum(ref_component_rank(v, k) for k in range(1, len(v))) for v in prim_lists]
    deep: dict[tuple[int, ...], int] = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if size == 0:
                value = N
            elif size == 1:
                value = (N - 1) * ref_total(prim_lists[subset[0]])
            else:
                value = total_of(subset)
            for kept_size in range(size):
                for kept in itertools.combinations(subset, kept_size):
                    product = deep[kept]
                    for i in subset:
                        if i not in kept:
                            product *= h[i]
                    value -= product
            deep[subset] = value
    return deep[tuple(range(n))]


# -- reference subset walk --------------------------------------------------------
#
# The hyperplane resolution and inclusion-exclusion sum that the closed form in
# `hpdcalc.engine` replaced, kept verbatim as its reference: every subset of
# every resolved subset is walked (3^n steps) and the deep component sums 2^n
# terms. `ref_deep_component_walk` and `ref_n_hyperplane_walk` return what
# `deep_component` and `n_hyperplane_sod` computed through it.

_zero = InvariantExpr.const(0)


def _coerce(value: Coercible) -> InvariantExpr:
    return InvariantExpr._coerce(value)


def _require_moderate(profile: LefschetzProfile) -> None:
    if not profile.is_moderate:
        raise NonModerate(
            f"category {profile.name!r} has length {profile.length_m} >= "
            f"ambient rank {profile.ambient_rank_N}; duality operations need length < rank"
        )


def two_hyperplane_rank(a1: Coercible, a2: Coercible, e: Coercible, N: int) -> InvariantExpr:
    """Invariant of the simultaneous-hyperplane incidence for a pair with totals
    a1, a2 and fiber-product invariant e."""
    return _coerce(e) + (N - 2) * _coerce(a1) * _coerce(a2)


def _resolve_h_total(
    profiles: Sequence[LefschetzProfile],
    totals: Sequence[InvariantExpr],
    workspace: Workspace,
) -> InvariantExpr:
    """All applicable sources (disjointness, declared pair intersection) must
    agree; silence is Underdetermined, disagreement is a hard error. A single
    category counts as disjoint, so it resolves to (N - 1) * total. `totals`
    holds the profiles' total invariants."""
    N = profiles[0].ambient_rank_N
    n = len(profiles)
    names = [p.name for p in profiles]
    candidates: list[tuple[str, InvariantExpr]] = []
    if workspace.are_disjoint(names):
        product = InvariantExpr.const(1)
        for total in totals:
            product = product * total
        candidates.append(("disjointness formula", (N - n) * product))
    if n == 2:
        e = workspace.intersection(names[0], names[1])
        if e is not None:
            candidates.append(("declared intersection", two_hyperplane_rank(*totals, e, N)))
    if not candidates:
        raise Underdetermined(
            f"invariant of the simultaneous hyperplane for {', '.join(names)} is not "
            "derivable: declare disjointness or a pair intersection"
        )
    first_source, first_value = candidates[0]
    for source, value in candidates[1:]:
        if value != first_value:
            raise ConflictingDeclarations(
                f"hyperplane total for {', '.join(names)}: {first_source} gives "
                f"{first_value} but {source} gives {value}"
            )
    return first_value


def _proper_subsets(subset: tuple[int, ...]):
    """Each proper subset with its complement, in block order: larger first,
    then `combinations` order."""
    for size in range(len(subset) - 1, -1, -1):
        for kept in itertools.combinations(subset, size):
            yield kept, [i for i in subset if i not in kept]


def _hyperplanes(
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> tuple[dict[tuple[int, ...], InvariantExpr], list[InvariantExpr], list[list[InvariantExpr]]]:
    """Validate the profiles; return the resolved hyperplane total of every
    subset, keyed by index tuple, -h_i for each profile (h_i sums its
    components k >= 1) and the component ranks.

    The empty subset's total is N and a singleton's is (N - 1) * total. The
    full set resolves first; then, depth first, each proper subset of size
    >= 2 in block order followed by its own subsets, so the first error raised
    is that of this order. Each profile's total invariant is computed once.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    N = same_ambient(*profiles)
    for p in profiles:
        _require_moderate(p)
    ranks = [p.component_ranks() for p in profiles]
    totals = [p.total_invariant() for p in profiles]
    total = {(): InvariantExpr.const(N)}
    total.update(((i,), (N - 1) * t) for i, t in enumerate(totals))

    def resolve(subset: tuple[int, ...]) -> None:
        chosen = [profiles[i] for i in subset]
        total[subset] = _resolve_h_total(chosen, [totals[i] for i in subset], workspace)
        for kept, _ in _proper_subsets(subset):
            if kept not in total:
                resolve(kept)

    resolve(tuple(range(len(profiles))))
    return total, [r[0] - t for r, t in zip(ranks, totals)], ranks


def _deep(
    subset: tuple[int, ...],
    total: dict[tuple[int, ...], InvariantExpr],
    negated: Sequence[InvariantExpr],
    products: dict[tuple[int, ...], InvariantExpr],
) -> InvariantExpr:
    """The deep component of a subset K by inclusion-exclusion:

        deep[K] = sum over J in K of total[J] * prod over i in K - J of (-h_i).

    It inverts total[K] = sum over J in K of deep[J] * prod over i in K - J
    of h_i, which holds because the blocks of a kept subset J sum to deep[J]
    times those h_i. A term with a zero h_i is skipped. `products` caches the
    products of -h_i by dropped index tuple, starting from {(): 1}.
    """
    free = [i for i in subset if negated[i]]
    value = _zero
    for size in range(len(free) + 1):
        for dropped in itertools.combinations(free, size):
            if dropped not in products:
                products[dropped] = products[dropped[:-1]] * negated[dropped[-1]]
            kept = tuple(i for i in subset if i not in dropped)
            value = value + total[kept] * products[dropped]
    return value


def ref_deep_component_walk(
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> InvariantExpr:
    total, negated, _ = _hyperplanes(profiles, workspace)
    full = tuple(range(len(profiles)))
    return _deep(full, total, negated, {(): InvariantExpr.const(1)})


def ref_n_hyperplane_walk(
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> tuple[InvariantExpr, InvariantExpr, list[InvariantExpr]]:
    """The deep component, the full set's total and every block invariant, in
    block order."""
    total, negated, ranks = _hyperplanes(profiles, workspace)
    products = {(): InvariantExpr.const(1)}
    full = tuple(range(len(profiles)))
    c_invariant = _deep(full, total, negated, products)
    blocks = [c_invariant]
    for kept, complement in _proper_subsets(full):
        ranges = [range(1, profiles[i].length_m) for i in complement]
        if not all(ranges):
            continue
        deep = _deep(kept, total, negated, products)
        for tup in itertools.product(*ranges):
            inv = deep
            for i, k in zip(complement, tup):
                inv = inv * ranks[i][k]
            blocks.append(inv)
    return c_invariant, total[full], blocks


def ref_join_window(p_vals: list[int], q_vals: list[int], i: int, upper: int) -> int:
    """Refined join part i: the pairs with i - 1 <= i1 + i2 <= upper."""
    total = 0
    for i1 in range(len(p_vals)):
        for i2 in range(len(q_vals)):
            if i - 1 <= i1 + i2 <= upper:
                total += p_vals[i1] * q_vals[i2]
    return total


def ref_find_witness(lhs: InvariantExpr, rhs: InvariantExpr) -> dict[str, int]:
    """Scan of the box {0..B}^k in lexicographic order, over the k symbols of
    lhs - rhs in sorted order, with B = max(5, the largest per-symbol degree).

    Works on the raw term tuples: the difference is a plain dict and each
    point is evaluated by an explicit loop.
    """
    diff: dict[tuple[str, ...], int] = {}
    for sign, expr in ((1, lhs), (-1, rhs)):
        for mono, coeff in expr.terms:
            diff[mono] = diff.get(mono, 0) + sign * coeff
    diff = {mono: coeff for mono, coeff in diff.items() if coeff}
    if not diff:
        raise ValueError("polynomials are equal; no witness exists")
    names = sorted({name for mono in diff for name in mono})
    bound = max([5] + [mono.count(name) for mono in diff for name in mono])
    witness = {name: 0 for expr in (lhs, rhs) for mono, _ in expr.terms for name in mono}
    for values in itertools.product(range(bound + 1), repeat=len(names)):
        point = dict(zip(names, values))
        value = 0
        for mono, coeff in diff.items():
            for name in mono:
                coeff *= point[name]
            value += coeff
        if value != 0:
            witness.update(point)
            return dict(sorted(witness.items()))
    raise AssertionError("distinct polynomials with no point in the box")


# -- reference lexer ------------------------------------------------------------

_DIGITS = frozenset("0123456789")


class Token(NamedTuple):
    kind: str  # ident | int | punct | end
    text: str
    span: Span


def token_tuples(lexed: Lexed) -> list[tuple[str, str, Span]]:
    """The (kind, text, span) of each piece `hpdcalc.poly.tokenize` lexed, the
    form of a `ref_tokenize` token. The kind is read from the word, and the
    span is resolved for every piece."""
    tokens = []
    for i, word in enumerate(lexed.words):
        if not word:
            kind = "end"
        elif word[0] in _DIGITS:
            kind = "int"
        elif word.isidentifier():
            kind = "ident"
        else:
            kind = "punct"
        tokens.append((kind, word, lexed.span(i)))
    return tokens


def ref_tokenize(text: str) -> list[Token]:
    """The character-at-a-time lexer that `hpdcalc.poly.tokenize` replaced, kept
    verbatim as its reference: one character per step, no regular expression."""
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


# -- reference workspace ----------------------------------------------------------
#
# Disjointness stored pairwise: the workspace's pair loop, the validator's
# conflict loop and the canonical printer as they were when every pair of a
# group's members was stored as a zero intersection.


def ref_workspace_build(
    symbols: Sequence[str],
    categories: Sequence[LefschetzProfile],
    intersections: dict | None = None,
    disjoint_sets: Sequence[Sequence[str]] = (),
    intersect_spans: dict | None = None,
) -> Workspace:
    """A workspace whose `intersections` holds a 0 for each pair in a group.

    With `intersect_spans` (sorted pair -> span), conflicts are first sought
    in the order the groups come, as the validator reports them; the
    intersections must then be keyed by sorted pair.
    """
    if intersect_spans is not None:
        for group in disjoint_sets:
            for pair in itertools.combinations(sorted(group), 2):
                value = intersections.get(pair)
                if value and value.is_constant():
                    raise ConflictingIntersection(
                        f"{pair[0]}, {pair[1]} declared disjoint but intersect with constant {value}",
                        intersect_spans[pair],
                    )

    cats = {p.name: p for p in categories}
    names = set(cats)
    warnings: list[str] = []
    groups = tuple(sorted({frozenset(group) for group in disjoint_sets}, key=sorted))
    for group in groups:
        for member in group:
            if member not in names:
                raise UnknownCategory(f"disjoint declaration names unknown category {member!r}")

    pairs: dict[tuple[str, str], InvariantExpr] = {}
    for (a, b), value in (intersections or {}).items():
        if a not in names:
            raise UnknownCategory(f"intersection names unknown category {a!r}")
        if b not in names:
            raise UnknownCategory(f"intersection names unknown category {b!r}")
        pairs[tuple(sorted((a, b)))] = InvariantExpr._coerce(value)

    for group in groups:
        members = sorted(group)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                key = tuple(sorted((a, b)))
                declared = pairs.get(key)
                if not declared:
                    pairs[key] = _coerce(0)
                elif declared.is_constant():
                    raise ConflictingIntersection(
                        f"{a}, {b} declared disjoint but intersect with constant {declared}"
                    )
                else:
                    warnings.append(
                        f"intersection of {a}, {b} declared as {declared} but the pair is "
                        "declared disjoint; disjointness forces 0"
                    )
                    pairs[key] = _coerce(0)

    return Workspace(
        symbols=frozenset(symbols),
        categories=cats,
        intersections=pairs,
        disjoint_sets=groups,
        warnings=tuple(warnings),
    )


def ref_intersection(ws: Workspace, a: str, b: str) -> InvariantExpr | None:
    return ws.intersections.get(tuple(sorted((a, b))))


def ref_are_disjoint(ws: Workspace, names: Sequence[str]) -> bool:
    names = list(names)
    wanted = set(names)
    if len(wanted) < len(names):
        return False
    return len(wanted) <= 1 or any(wanted <= group for group in ws.disjoint_sets)


def ref_print_canonical(ws: Workspace) -> str:
    """Canonical text with one intersect line per stored pair."""
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
    for a, b in sorted(ws.intersections):
        value = ws.intersections[(a, b)]
        rank = ws.categories[a].ambient_rank_N
        lines.append(f"intersect {a}, {b} over P({rank}) = {value};")
    for group in sorted(sorted(g) for g in ws.disjoint_sets):
        lines.append("disjoint " + ", ".join(group) + ";")
    for name in sorted(ws.dual_profiles):
        dual = ws.dual_profiles[name]
        lines.append(f"dual {name} primitive {_poly_list_text(dual.primitive_right)};")
    return "".join(line + "\n" for line in lines)
