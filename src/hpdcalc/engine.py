"""Semiorthogonal-decomposition constructions as pure invariant bookkeeping.

Every operation here consumes profiles (plus a frozen workspace where declared
data is needed) and produces block lists or component lists whose invariants
satisfy a closed-form total; the property suite pins each closed form. A check
that compares only the deep component of the n-universal hyperplane uses
`deep_component`, which builds no block. The deep component inverts the
resolved subset totals over the subset lattice, which collapses to a closed
form in O(n) multiplications,

    deep = N * prod_i c0_i - sum_i t_i * prod_{j != i} c0_j + excess terms,

with c0_i the component 0 and t_i the total invariant of profile i; see
`_hyperplanes` for the excess terms and the order of resolution errors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    ConflictingDeclarations,
    MissingDisjointness,
    NonModerate,
    Underdetermined,
    UnresolvedBaseLocus,
)
from .model import (
    BASE_L_DUAL,
    BASE_V,
    BASE_V_DUAL,
    LefschetzProfile,
    SodBlock,
    SodExpr,
    Workspace,
    build_profile,
    same_ambient,
    tail_sums,
)
from .poly import Coercible, InvariantExpr

__all__ = [
    "projective_bundle_sod",
    "blowup_sod",
    "hyperplane_sod",
    "universal_hyperplane_sod",
    "duality_total",
    "hpd_total",
    "two_hyperplane_rank",
    "NHyperplaneResult",
    "n_hyperplane_sod",
    "deep_component",
    "ruled_join_components",
    "JoinResult",
    "join_components",
    "join_sod",
    "join_profile",
    "n_join_components",
    "n_join_profile",
    "RefinedBlowupResult",
    "refined_blowup_profile",
    "profile_from_components",
    "SUBSET_READING_NOTE",
]

_zero = InvariantExpr.const(0)
_one = InvariantExpr.const(1)

# Emitted whenever the n-universal-hyperplane block structure is used: the
# source statement tensors over the subset I, but the n = 2 proof tensors over
# its complement, and the engine follows the proof.
SUBSET_READING_NOTE = (
    "n-universal-hyperplane blocks tensor component factors over the complement "
    "of the subset I (proof-consistent reading)"
)

_DUAL_SPACE = "D(P(V*))"


def _require_moderate(profile: LefschetzProfile) -> None:
    if not profile.is_moderate:
        raise NonModerate(
            f"category {profile.name!r} has length {profile.length_m} >= "
            f"ambient rank {profile.ambient_rank_N}; duality operations need length < rank"
        )


def _coerce(value: Coercible) -> InvariantExpr:
    return InvariantExpr._coerce(value)


# -- block labels ---------------------------------------------------------------


def _hpd(name: str) -> str:
    return f"hpd({name}; {BASE_V_DUAL})"


def _fiber(parts: Sequence[str], base: str) -> str:
    return f"fiber({', '.join(parts)}; {base})"


def _pullback(label: str, morphism: str) -> str:
    return f"pullback({label}; {morphism})"


# -- bundle formulas ----------------------------------------------------------


def projective_bundle_sod(cat: str, inv: Coercible, r: int) -> SodExpr:
    """P^{r-1}-bundle decomposition: r twists of the pulled-back category."""
    if r < 1:
        raise ValueError("bundle rank must be at least 1")
    inv = _coerce(inv)
    pulled = _pullback(cat, "pi")
    return SodExpr(BASE_V, tuple(SodBlock(pulled, t, inv) for t in range(r)))


def blowup_sod(cat_inv: Coercible, center_inv: Coercible, r: int) -> SodExpr:
    """Blow-up along a center of codimension r: one pullback block, r-1 center copies."""
    if r < 2:
        raise ValueError("center codimension must be at least 2")
    cat_inv = _coerce(cat_inv)
    center_inv = _coerce(center_inv)
    blocks = [SodBlock(_pullback("cat", "beta"), 0, cat_inv)]
    blocks += [SodBlock("center", t, center_inv) for t in range(r - 1)]
    return SodExpr(BASE_V, tuple(blocks))


def hyperplane_sod(cat_inv: Coercible, base_locus_inv: Coercible, r: int) -> SodExpr:
    """Generalized hyperplane section for a rank-r bundle: base locus plus r-1 twists."""
    if r < 2:
        raise ValueError("bundle rank must be at least 2")
    cat_inv = _coerce(cat_inv)
    blocks = [SodBlock(_pullback("base_locus", "j.rho"), 0, _coerce(base_locus_inv))]
    blocks += [SodBlock(_pullback("cat", "pi"), t, cat_inv) for t in range(1, r)]
    return SodExpr(BASE_V, tuple(blocks))


# -- universal hyperplanes and duality totals ---------------------------------


def duality_total(N: int, components: Sequence[InvariantExpr]) -> InvariantExpr:
    """The duality total over rank N of a component list c: the universal-hyperplane
    total (N - 1) * sum(c) less the twisted blocks N * (c_1 + c_2 + ...), which
    is N * c_0 - sum(c)."""
    return N * components[0] - sum(components, _zero)


def hpd_total(profile: LefschetzProfile) -> InvariantExpr:
    """Invariant of the dual category: the duality total of its components."""
    _require_moderate(profile)
    return duality_total(profile.ambient_rank_N, profile.component_ranks())


def universal_hyperplane_sod(profile: LefschetzProfile) -> SodExpr:
    """Decomposition of the universal hyperplane, the n = 1 case of the
    n-universal hyperplane: the dual category, then one exterior-product block
    per higher component."""
    return n_hyperplane_sod([profile], Workspace()).sod


def two_hyperplane_rank(a1: Coercible, a2: Coercible, e: Coercible, N: int) -> InvariantExpr:
    """Invariant of the simultaneous-hyperplane incidence for a pair with totals
    a1, a2 and fiber-product invariant e."""
    return _coerce(e) + (N - 2) * _coerce(a1) * _coerce(a2)


@dataclass(frozen=True)
class NHyperplaneResult:
    """Block list of the n-universal hyperplane plus the derived deep component."""

    sod: SodExpr
    c_invariant: InvariantExpr
    h_total: InvariantExpr
    warnings: tuple[str, ...]


def _resolve_h_total(
    profiles: Sequence[LefschetzProfile],
    totals: Sequence[InvariantExpr],
    workspace: Workspace,
    explicit: InvariantExpr | None,
) -> InvariantExpr:
    """All applicable sources (explicit, disjointness, declared pair intersection)
    must agree; silence is Underdetermined, disagreement is a hard error. A
    single category counts as disjoint, so it resolves to (N - 1) * total.
    `totals` holds the profiles' total invariants."""
    N = profiles[0].ambient_rank_N
    n = len(profiles)
    names = [p.name for p in profiles]
    candidates: list[tuple[str, InvariantExpr]] = []
    if explicit is not None:
        candidates.append(("explicit declaration", _coerce(explicit)))
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
            "derivable: declare disjointness, a pair intersection, or an explicit total"
        )
    first_source, first_value = candidates[0]
    for source, value in candidates[1:]:
        if value != first_value:
            raise ConflictingDeclarations(
                f"hyperplane total for {', '.join(names)}: {first_source} gives "
                f"{first_value} but {source} gives {value}"
            )
    return first_value


def _c_label(names: Sequence[str]) -> str:
    if len(names) == 0:
        return _DUAL_SPACE
    if len(names) == 1:
        return _hpd(names[0])
    return _fiber([_hpd(name) for name in names], BASE_V_DUAL)


def _proper_subsets(subset: tuple[int, ...]):
    """Each proper subset with its complement, in block order: larger first,
    then `combinations` order."""
    for size in range(len(subset) - 1, -1, -1):
        for kept in itertools.combinations(subset, size):
            yield kept, [i for i in subset if i not in kept]


def _leave_one_out(
    factors: Sequence[InvariantExpr], weights: Sequence[InvariantExpr]
) -> tuple[InvariantExpr, InvariantExpr]:
    """The product of the factors f_k and the sum of w_k times the product of
    the other factors, in one pass of 3 multiplications per entry: the running
    sum is multiplied by each new factor (the product rule), so every term
    picks up its suffix product as the pass goes on."""
    product, weighted = _one, _zero
    for factor, weight in zip(factors, weights):
        weighted = weighted * factor + product * weight
        product = product * factor
    return product, weighted


def _hyperplanes(
    profiles: Sequence[LefschetzProfile], workspace: Workspace, h_total: Coercible | None
) -> tuple[InvariantExpr, Callable[[tuple[int, ...]], InvariantExpr], list[list[InvariantExpr]]]:
    """Validate the profiles and resolve the hyperplane totals; return the
    full set's total, deep[K] as a function of an index tuple K, and the
    component ranks.

    With c0_i the component 0, t_i the total invariant and h_i = t_i - c0_i
    the sum of the components k >= 1 of profile i, a subset J in one disjoint
    group resolves to (N - |J|) * prod_J t_j; so do the empty set (N) and the
    singletons. Write total[J] as that plus an excess d_J. Inverting
    total[K] = sum over J in K of deep[J] * prod_{K - J} h_i (Rota's Moebius
    inversion over the subset lattice) then collapses to

        deep[K] = N * prod_K c0_i - sum_{i in K} t_i * prod_{K - i} c0_j
                  + sum over J in K with an excess of d_J * prod_{K - J} (-h_i).

    Only the full set and, for n = 3, a pair with a declared intersection and
    no shared group can have an excess: any other subset of size >= 2 resolves
    by disjointness alone.

    The error raised is the first one met by resolving the full set, with
    the explicit total, and then depth first each proper subset in block
    order followed by its own subsets. Past the full set, that is the error
    of the first (n - 1)-subset in `combinations` order that does not lie in
    one disjoint group and, for n = 3, has no declared intersection: when
    every (n - 1)-subset lies in a group, so does every smaller subset.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    N = same_ambient(*profiles)
    for p in profiles:
        _require_moderate(p)
    ranks = [p.component_ranks() for p in profiles]
    totals = [p.total_invariant() for p in profiles]
    names = [p.name for p in profiles]
    full = tuple(range(len(profiles)))

    def excess(subset: tuple[int, ...], resolved: InvariantExpr) -> InvariantExpr:
        return resolved - (N - len(subset)) * math.prod((totals[i] for i in subset), start=_one)

    full_total = _resolve_h_total(
        profiles, totals, workspace, None if h_total is None else _coerce(h_total)
    )
    excesses: dict[tuple[int, ...], InvariantExpr] = {}
    if not workspace.are_disjoint(names):
        for kept in itertools.combinations(full, len(full) - 1):
            if not workspace.are_disjoint([names[i] for i in kept]):
                # Past n = 3 this raises: a subset of size >= 3 other than the
                # full set has only the disjointness formula.
                chosen = [profiles[i] for i in kept]
                resolved = _resolve_h_total(chosen, [totals[i] for i in kept], workspace, None)
                excesses[kept] = excess(kept, resolved)
        excesses[full] = excess(full, full_total)

    def deep(subset: tuple[int, ...]) -> InvariantExpr:
        product, weighted = _leave_one_out(
            [ranks[i][0] for i in subset], [totals[i] for i in subset]
        )
        value = N * product - weighted
        for part, extra in excesses.items():
            if set(part) <= set(subset):
                negated = [ranks[i][0] - totals[i] for i in subset if i not in part]
                value = value + extra * math.prod(negated, start=_one)
        return value

    return full_total, deep, ranks


def _warnings(profiles: Sequence[LefschetzProfile]) -> tuple[str, ...]:
    return (SUBSET_READING_NOTE,) if len(profiles) > 1 else ()


def deep_component(
    profiles: Sequence[LefschetzProfile],
    workspace: Workspace,
    h_total: Coercible | None = None,
) -> tuple[InvariantExpr, tuple[str, ...]]:
    """The deep component of the n-universal hyperplane and its warnings.

    Resolves the same totals, and raises the same first error, as
    `n_hyperplane_sod`, but builds no block. The closed form

        deep = N * prod_i c0_i - sum_i t_i * prod_{j != i} c0_j + excess terms

    (c0_i the component 0 and t_i the total invariant of profile i) costs
    O(n) multiplications; the excess terms come from an explicit or
    pair-declared total of the full set and, for n = 3, declared pair
    intersections. The first error is that of the full set, then that of the
    first (n - 1)-subset in `combinations` order that lies in no disjoint
    group (for n = 3: a pair with no declared intersection either).
    """
    _, deep, _ = _hyperplanes(profiles, workspace, h_total)
    return deep(tuple(range(len(profiles)))), _warnings(profiles)


def n_hyperplane_sod(
    profiles: Sequence[LefschetzProfile],
    workspace: Workspace,
    h_total: Coercible | None = None,
) -> NHyperplaneResult:
    """Decompose the simultaneous universal hyperplane of n categories.

    Blocks: the deep component first, then one block per proper subset I and
    per tuple of component indices i_k >= 1 over the complement of I, ordered
    by decreasing subset size. The invariant of such a block is deep[I] times
    the components i_k; deep[I] is derived only for subsets that have blocks,
    each by the closed form of `deep_component` restricted to I, which also
    gives the first error. For one category this is the universal hyperplane,
    whose deep component is the dual.
    """
    full_total, deep_of, ranks = _hyperplanes(profiles, workspace, h_total)
    names = [p.name for p in profiles]
    full = tuple(range(len(profiles)))
    c_invariant = deep_of(full)
    blocks = [SodBlock(_c_label(names), 0, c_invariant)]
    for kept, complement in _proper_subsets(full):
        ranges = [range(1, profiles[i].length_m) for i in complement]
        if not all(ranges):
            continue
        deep = deep_of(kept)
        c_label = _c_label([names[i] for i in kept])
        for tup in itertools.product(*ranges):
            inv = deep
            for i, k in zip(complement, tup):
                inv = inv * ranks[i][k]
            parts = [f"{names[i]}_{k}" for i, k in zip(complement, tup)]
            blocks.append(SodBlock(_fiber(parts + [c_label], "B"), sum(tup), inv))
    return NHyperplaneResult(
        SodExpr(BASE_V_DUAL, tuple(blocks)), c_invariant, full_total, _warnings(profiles)
    )


# -- joins ---------------------------------------------------------------------


def ruled_join_components(p: LefschetzProfile, q: LefschetzProfile) -> list[InvariantExpr]:
    """Component invariants of the ruled join, the flat join of the pair: the
    pairs (i1, i2) surviving in component i are those with i1 + i2 >= i - 1."""
    return n_join_components([p, q])


def n_join_components(profiles: Sequence[LefschetzProfile]) -> list[InvariantExpr]:
    """Flat disjoint-join components: tuples with i_1 + ... + i_n >= i + 1 - n."""
    if not profiles:
        raise ValueError("need at least one profile")
    same_ambient(*profiles)
    # by_sum[s] sums the primitive products of the index tuples with sum s;
    # convolve one factor at a time.
    by_sum = list(profiles[0].primitive_right)
    for p in profiles[1:]:
        by_sum = InvariantExpr._convolve(by_sum, p.primitive_right)
    # Component i is the tail of by_sum from index sum max(0, i + 1 - n).
    tails = tail_sums(by_sum)
    return [tails[0]] * (len(profiles) - 1) + tails


def n_join_profile(
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> list[InvariantExpr]:
    """Workspace-checked flat join: the inputs must carry a disjointness declaration."""
    names = [p.name for p in profiles]
    if len(profiles) > 1 and not workspace.are_disjoint(names):
        raise MissingDisjointness(
            f"flat join of {', '.join(names)} needs a declared disjointness group"
        )
    return n_join_components(profiles)


@dataclass(frozen=True)
class JoinResult:
    """Join of two profiles: N-1 components, each the refined part plus the
    surviving intersection part."""

    p_name: str
    q_name: str
    ambient_rank_N: int
    jbar: tuple[InvariantExpr, ...]
    jprime: tuple[InvariantExpr, ...]
    intersection_invariant: InvariantExpr
    e_invariant: InvariantExpr
    components: tuple[InvariantExpr, ...]
    total: InvariantExpr

    def conserved_total(self) -> InvariantExpr:
        """Closed form from the blow-up/removal bookkeeping (in terms of the
        raw intersection invariant); equals `total` under the perp-consistent
        component bound."""
        N = self.ambient_rank_N
        value = (N - 1) * self.intersection_invariant
        for i, jbar in enumerate(self.jbar):
            value = value + jbar
            if i >= N - 1:
                value = value - N * jbar
        return value

    def to_sod(self) -> SodExpr:
        return join_sod([self.p_name, self.q_name], self.components)


def join_sod(names: Sequence[str], components: Sequence[InvariantExpr]) -> SodExpr:
    """Decomposition of a join over P(V): component i at twist i."""
    label = f"join({', '.join(names)})"
    return SodExpr(BASE_V, tuple(SodBlock(label, i, inv) for i, inv in enumerate(components)))


def _refine(
    components: Sequence[InvariantExpr], r: int, base: InvariantExpr, clip: int
) -> tuple[list[InvariantExpr], InvariantExpr]:
    """Refined blow-up over a rank-r subspace, clip >= r - 1: the parts i < r - 1,
    each components[i] less components[clip] (0 past the end), and the
    base-locus part, base less every component from r on."""
    padded = list(components) + [_zero] * (clip + 1 - len(components))
    parts = [padded[i] - padded[clip] for i in range(r - 1)]
    return parts, base - sum(components[r:], _zero)


def join_components(
    p: LefschetzProfile,
    q: LefschetzProfile,
    e: Coercible,
    *,
    include_boundary_pairs: bool = False,
) -> JoinResult:
    """Join two profiles given the fiber-product invariant e: the refined blow-up
    of their ruled join over the diagonal rank-N subspace, with base locus e.

    `include_boundary_pairs` admits pairs with i1 + i2 = N - 2 into the refined
    components (a known-inconsistent variant kept as a regression control); the
    default excludes them, as forced by the orthogonality definition.
    """
    N = same_ambient(p, q)
    e = _coerce(e)
    jbar = ruled_join_components(p, q)
    jprime, e_part = _refine(jbar, N, e, N if include_boundary_pairs else N - 1)
    components = tuple(jp + e_part for jp in jprime)
    return JoinResult(
        p_name=p.name,
        q_name=q.name,
        ambient_rank_N=N,
        jbar=tuple(jbar),
        jprime=tuple(jprime),
        intersection_invariant=e,
        e_invariant=e_part,
        components=components,
        total=sum(components, _zero),
    )


def join_profile(
    p: LefschetzProfile,
    q: LefschetzProfile,
    workspace: Workspace,
    *,
    include_boundary_pairs: bool = False,
) -> JoinResult:
    """Join with the fiber-product invariant resolved from the workspace."""
    same_ambient(p, q)
    e = workspace.require_intersection(p.name, q.name)
    return join_components(p, q, e, include_boundary_pairs=include_boundary_pairs)


def profile_from_components(
    name: str,
    N: int,
    components: Sequence[Coercible],
    *,
    allow_nonmoderate: bool = False,
) -> LefschetzProfile:
    """Rebuild a profile from weakly-descending component invariants."""
    comps = [_coerce(c) for c in components]
    while len(comps) > 1 and comps[-1] == _zero:
        comps.pop()
    prims = [a - b for a, b in zip(comps, comps[1:] + [_zero])]
    return build_profile(name, N, prims, allow_nonmoderate=allow_nonmoderate)


# -- refined blow-up -----------------------------------------------------------


@dataclass(frozen=True)
class RefinedBlowupResult:
    """Components of the refined blow-up over a rank-ell linear subspace."""

    name: str
    ambient_rank: int
    c_l_invariant: InvariantExpr
    components: tuple[InvariantExpr, ...]
    total: InvariantExpr

    def to_sod(self) -> SodExpr:
        blocks = tuple(
            SodBlock(_pullback(self.name, "beta"), k, inv)
            for k, inv in enumerate(self.components)
        )
        return SodExpr(BASE_L_DUAL, blocks)


def refined_blowup_profile(
    p: LefschetzProfile,
    ell: int,
    base_locus_inv: Coercible | None,
) -> RefinedBlowupResult:
    """Restrict a profile to a rank-ell subspace: clip components below ell - 1
    and fold in the surviving base-locus part."""
    N = p.ambient_rank_N
    if not 2 <= ell <= N:
        raise ValueError(f"subspace rank must satisfy 2 <= ell <= {N}, got {ell}")
    if base_locus_inv is None:
        raise UnresolvedBaseLocus(
            f"no invariant available for the base locus of {p.name!r}"
        )
    a_prime, c_l = _refine(p.component_ranks(), ell, _coerce(base_locus_inv), ell - 1)
    components = tuple(a + c_l for a in a_prime)
    return RefinedBlowupResult(
        name=p.name,
        ambient_rank=ell,
        c_l_invariant=c_l,
        components=components,
        total=sum(components, _zero),
    )
