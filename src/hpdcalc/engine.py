"""Semiorthogonal-decomposition constructions as pure invariant bookkeeping.

Every operation here consumes profiles (plus a frozen workspace where declared
data is needed) and produces block lists or component lists whose invariants
satisfy a closed-form total; the property suite pins each closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

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


def projective_bundle_sod(cat: str, inv: Coercible, r: int, base: str = BASE_V) -> SodExpr:
    """P^{r-1}-bundle decomposition: r twists of the pulled-back category."""
    if r < 1:
        raise ValueError("bundle rank must be at least 1")
    inv = _coerce(inv)
    pulled = _pullback(cat, "pi")
    return SodExpr(base, tuple(SodBlock(pulled, t, inv) for t in range(r)))


def blowup_sod(
    cat_inv: Coercible,
    center_inv: Coercible,
    r: int,
    *,
    cat: str = "cat",
    center: str = "center",
    base: str = BASE_V,
) -> SodExpr:
    """Blow-up along a center of codimension r: one pullback block, r-1 center copies."""
    if r < 2:
        raise ValueError("center codimension must be at least 2")
    cat_inv = _coerce(cat_inv)
    center_inv = _coerce(center_inv)
    blocks = [SodBlock(_pullback(cat, "beta"), 0, cat_inv)]
    blocks += [SodBlock(center, t, center_inv) for t in range(r - 1)]
    return SodExpr(base, tuple(blocks))


def hyperplane_sod(
    cat_inv: Coercible,
    base_locus_inv: Coercible,
    r: int,
    *,
    cat: str = "cat",
    base_locus: str = "base_locus",
    base: str = BASE_V,
) -> SodExpr:
    """Generalized hyperplane section for a rank-r bundle: base locus plus r-1 twists."""
    if r < 2:
        raise ValueError("bundle rank must be at least 2")
    cat_inv = _coerce(cat_inv)
    blocks = [SodBlock(_pullback(base_locus, "j.rho"), 0, _coerce(base_locus_inv))]
    blocks += [SodBlock(_pullback(cat, "pi"), t, cat_inv) for t in range(1, r)]
    return SodExpr(base, tuple(blocks))


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
    workspace: Workspace,
    explicit: InvariantExpr | None,
) -> InvariantExpr:
    """All applicable sources (explicit, disjointness, declared pair intersection)
    must agree; silence is Underdetermined, disagreement is a hard error. A
    single category counts as disjoint, so it resolves to (N - 1) * total."""
    N = profiles[0].ambient_rank_N
    n = len(profiles)
    names = [p.name for p in profiles]
    candidates: list[tuple[str, InvariantExpr]] = []
    if explicit is not None:
        candidates.append(("explicit declaration", _coerce(explicit)))
    if workspace.are_disjoint(names):
        product = InvariantExpr.const(1)
        for p in profiles:
            product = product * p.total_invariant()
        candidates.append(("disjointness formula", (N - n) * product))
    if n == 2:
        e = workspace.intersection(names[0], names[1])
        if e is not None:
            value = two_hyperplane_rank(
                profiles[0].total_invariant(), profiles[1].total_invariant(), e, N
            )
            candidates.append(("declared intersection", value))
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


def _deep_components(
    profiles: Sequence[LefschetzProfile],
    ranks: Sequence[Sequence[InvariantExpr]],
    workspace: Workspace,
    resolved: InvariantExpr,
) -> dict[tuple[int, ...], InvariantExpr]:
    """The deep component of every subset of the profiles, the full set included.

    The blocks of a kept subset K of S sum to deep[K] times the product of h_i
    over S minus K, where h_i sums the components k >= 1 of profile i. So
    deep[S] is the resolved total of S minus those products; no block is built.
    Each subset is derived once, when a superset first needs it, so subsets
    resolve in block order (supersets first). The empty subset and the
    singletons need no declarations: N and the duals.
    """
    N = profiles[0].ambient_rank_N
    higher = [sum(r[1:], _zero) for r in ranks]
    deep = {(): InvariantExpr.const(N)}
    deep.update(((i,), duality_total(N, r)) for i, r in enumerate(ranks))

    def derive(subset: tuple[int, ...], total: InvariantExpr) -> InvariantExpr:
        for kept, complement in _proper_subsets(subset):
            if kept not in deep:
                kept_total = _resolve_h_total([profiles[i] for i in kept], workspace, None)
                deep[kept] = derive(kept, kept_total)
            if all(higher[i] for i in complement):  # else the blocks of K sum to 0
                part = deep[kept]
                for i in complement:
                    part = part * higher[i]
                total = total - part
        return total

    full = tuple(range(len(profiles)))
    deep[full] = derive(full, resolved)
    return deep


def n_hyperplane_sod(
    profiles: Sequence[LefschetzProfile],
    workspace: Workspace,
    h_total: Coercible | None = None,
) -> NHyperplaneResult:
    """Decompose the simultaneous universal hyperplane of n categories.

    Blocks: the deep component first, then one block per proper subset I and
    per tuple of component indices i_k >= 1 over the complement of I, ordered
    by decreasing subset size. The deep component's invariant is the resolved
    hyperplane total minus every other block. For one category this is the
    universal hyperplane, whose deep component is the dual.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    same_ambient(*profiles)
    for p in profiles:
        _require_moderate(p)
    explicit = None if h_total is None else _coerce(h_total)
    resolved = _resolve_h_total(profiles, workspace, explicit)
    ranks = [p.component_ranks() for p in profiles]
    deep = _deep_components(profiles, ranks, workspace, resolved)

    names = [p.name for p in profiles]
    full = tuple(range(len(profiles)))
    blocks = [SodBlock(_c_label(names), 0, deep[full])]
    for kept, complement in _proper_subsets(full):
        c_label = _c_label([names[i] for i in kept])
        ranges = [range(1, profiles[i].length_m) for i in complement]
        for tup in itertools.product(*ranges):
            inv = deep[kept]
            for i, k in zip(complement, tup):
                inv = inv * ranks[i][k]
            parts = [f"{names[i]}_{k}" for i, k in zip(complement, tup)]
            blocks.append(SodBlock(_fiber(parts + [c_label], "B"), sum(tup), inv))
    warnings = (SUBSET_READING_NOTE,) if len(profiles) > 1 else ()
    return NHyperplaneResult(SodExpr(BASE_V_DUAL, tuple(blocks)), deep[full], resolved, warnings)


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
    by_sum = [InvariantExpr.const(1)]
    for p in profiles:
        conv = [_zero] * (len(by_sum) + p.length_m - 1)
        for s, a in enumerate(by_sum):
            for k, b in enumerate(p.primitive_right):
                conv[s + k] = conv[s + k] + a * b
        by_sum = conv
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
