"""Semiorthogonal-decomposition constructions as pure invariant bookkeeping.

Every operation here consumes profiles (plus a frozen workspace where declared
data is needed) and produces block lists or component lists whose invariants
satisfy a closed-form total; the property suite pins each closed form. A check
that compares only the deep component of the n-universal hyperplane uses
`deep_component`, which builds no block. The deep component inverts the
resolved subset totals over the subset lattice, which collapses to a closed
form in O(n) multiplications,

    deep = N * prod_i c0_i - sum_i t_i * prod_{j != i} c0_j + e,

with c0_i the component 0 and t_i the total invariant of profile i. The
excess e is the one place declared intersections enter (`_excess`): 0 for a
disjoint set, the declared intersection for a pair outside any group.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Sequence

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
    "NHyperplaneResult",
    "n_hyperplane_sod",
    "deep_component",
    "ruled_join_components",
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

# A note of every check that reads the n-universal-hyperplane blocks of two or
# more categories: the source statement tensors over the subset I, but the
# n = 2 proof tensors over its complement, and the engine follows the proof.
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


# -- block labels ---------------------------------------------------------------


def _hpd(name: str) -> str:
    return f"hpd({name}; {BASE_V_DUAL})"


def _fiber(parts: Sequence[str], base: str) -> str:
    return f"fiber({', '.join(parts)}; {base})"


def _pullback(label: str, morphism: str) -> str:
    return f"pullback({label}; {morphism})"


def _join(names: Sequence[str]) -> str:
    return f"join({', '.join(names)})"


# -- bundle formulas ----------------------------------------------------------


def projective_bundle_sod(cat: str, inv: Coercible, r: int) -> SodExpr:
    """P^{r-1}-bundle decomposition: r twists of the pulled-back category."""
    if r < 1:
        raise ValueError("bundle rank must be at least 1")
    inv = InvariantExpr._coerce(inv)
    pulled = _pullback(cat, "pi")
    return SodExpr(BASE_V, tuple(SodBlock(pulled, t, inv) for t in range(r)))


def blowup_sod(cat_inv: Coercible, center_inv: Coercible, r: int) -> SodExpr:
    """Blow-up along a center of codimension r: one pullback block, r-1 center copies."""
    if r < 2:
        raise ValueError("center codimension must be at least 2")
    cat_inv = InvariantExpr._coerce(cat_inv)
    center_inv = InvariantExpr._coerce(center_inv)
    blocks = [SodBlock(_pullback("cat", "beta"), 0, cat_inv)]
    blocks += [SodBlock("center", t, center_inv) for t in range(r - 1)]
    return SodExpr(BASE_V, tuple(blocks))


def hyperplane_sod(cat_inv: Coercible, base_locus_inv: Coercible, r: int) -> SodExpr:
    """Generalized hyperplane section for a rank-r bundle: base locus plus r-1 twists."""
    if r < 2:
        raise ValueError("bundle rank must be at least 2")
    cat_inv = InvariantExpr._coerce(cat_inv)
    blocks = [SodBlock(_pullback("base_locus", "j.rho"), 0, InvariantExpr._coerce(base_locus_inv))]
    blocks += [SodBlock(_pullback("cat", "pi"), t, cat_inv) for t in range(1, r)]
    return SodExpr(BASE_V, tuple(blocks))


# -- universal hyperplanes and duality totals ---------------------------------


def duality_total(N: int, components: Sequence[InvariantExpr]) -> InvariantExpr:
    """The duality total over rank N of a component list c: the universal-hyperplane
    total (N - 1) * sum(c) less the twisted blocks N * (c_1 + c_2 + ...), which
    is N * c_0 - sum(c)."""
    return InvariantExpr._combine([(N - 1, components[0])] + [(-1, c) for c in components[1:]])


def hpd_total(profile: LefschetzProfile) -> InvariantExpr:
    """Invariant of the dual category: the duality total of its components."""
    _require_moderate(profile)
    return duality_total(profile.ambient_rank_N, profile.component_ranks())


def universal_hyperplane_sod(profile: LefschetzProfile) -> SodExpr:
    """Decomposition of the universal hyperplane, the n = 1 case of the
    n-universal hyperplane: the dual category, then one exterior-product block
    per higher component."""
    return n_hyperplane_sod([profile], Workspace()).sod


class NHyperplaneResult(NamedTuple):
    """Block list of the n-universal hyperplane plus the derived deep component."""

    sod: SodExpr
    c_invariant: InvariantExpr
    h_total: InvariantExpr


def _excess(profiles: Sequence[LefschetzProfile], workspace: Workspace) -> InvariantExpr:
    """The excess e of the full set's simultaneous-hyperplane total over the
    disjointness value (N - n) * prod_i t_i, from the one declaration that
    applies: 0 for a disjoint set (a single category counts as one), the
    declared intersection for a pair outside any group; any other set is
    Underdetermined. A directly built workspace that gives a grouped pair a
    nonzero intersection is a conflict."""
    names = [p.name for p in profiles]
    e = workspace.intersection(*names) if len(names) == 2 else None
    if not workspace.are_disjoint(names):
        if e is None:
            raise Underdetermined(
                f"invariant of the simultaneous hyperplane for {', '.join(names)} is not "
                "derivable: declare disjointness or a pair intersection"
            )
        return e
    if e:
        p, q = profiles
        value = (p.ambient_rank_N - 2) * p.total_invariant() * q.total_invariant()
        raise ConflictingDeclarations(
            f"hyperplane total for {', '.join(names)}: disjointness formula gives "
            f"{value} but declared intersection gives {value + e}"
        )
    return _zero


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
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> tuple[
    list[InvariantExpr],
    InvariantExpr,
    Callable[[tuple[int, ...]], InvariantExpr],
    list[list[InvariantExpr]],
]:
    """Validate the profiles and resolve the full set's excess e (`_excess`);
    return the total invariants, e, deep[K] as a function of an index tuple
    K, and the component ranks.

    With c0_i the component 0, t_i the total invariant and h_i = t_i - c0_i
    the sum of the components k >= 1 of profile i, a subset J in one disjoint
    group resolves to the total (N - |J|) * prod_J t_j; so do the empty set
    (N) and the singletons. Inverting total[K] = sum over J in K of deep[J] *
    prod_{K - J} h_i (Rota's Moebius inversion over the subset lattice) then
    collapses to

        deep[K] = N * prod_K c0_i - sum_{i in K} t_i * prod_{K - i} c0_j.

    Only the full set can carry an excess: a set of n >= 3 resolves only
    inside one disjoint group, and then every subset does too. So e is added
    to the full set's deep component alone.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    N = same_ambient(*profiles)
    for p in profiles:
        _require_moderate(p)
    ranks = [p.component_ranks() for p in profiles]
    totals = [p.total_invariant() for p in profiles]
    excess = _excess(profiles, workspace)

    def deep(subset: tuple[int, ...]) -> InvariantExpr:
        product, weighted = _leave_one_out(
            [ranks[i][0] for i in subset], [totals[i] for i in subset]
        )
        value = N * product - weighted
        return value + excess if len(subset) == len(profiles) else value

    return totals, excess, deep, ranks


def deep_component(profiles: Sequence[LefschetzProfile], workspace: Workspace) -> InvariantExpr:
    """The deep component of the n-universal hyperplane.

    Raises the same error as `n_hyperplane_sod`, which names the full set,
    but builds no block. The closed form of `_hyperplanes`

        deep = N * prod_i c0_i - sum_i t_i * prod_{j != i} c0_j + e

    (c0_i the component 0 and t_i the total invariant of profile i, e the
    excess) costs O(n) multiplications.
    """
    _, _, deep, _ = _hyperplanes(profiles, workspace)
    return deep(tuple(range(len(profiles))))


def n_hyperplane_sod(
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> NHyperplaneResult:
    """Decompose the simultaneous universal hyperplane of n categories.

    Blocks: the deep component first, then one block per proper subset I and
    per tuple of component indices i_k >= 1 over the complement of I, ordered
    by decreasing subset size. The invariant of such a block is deep[I] times
    the components i_k; deep[I] is derived only for subsets that have blocks,
    each by the closed form of `deep_component` restricted to I. The total is
    (N - n) * prod_i t_i + e. For one category this is the universal
    hyperplane, whose deep component is the dual.
    """
    totals, excess, deep_of, ranks = _hyperplanes(profiles, workspace)
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
    h_total = (profiles[0].ambient_rank_N - len(full)) * math.prod(totals, start=_one) + excess
    return NHyperplaneResult(SodExpr(BASE_V_DUAL, tuple(blocks)), c_invariant, h_total)


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


def join_sod(names: Sequence[str], components: Sequence[InvariantExpr]) -> SodExpr:
    """Decomposition of a join over P(V): component i at twist i."""
    return _sod(BASE_V, _join(names), components)


def _sod(space: str, label: str, components: Sequence[InvariantExpr]) -> SodExpr:
    return SodExpr(space, tuple(SodBlock(label, i, inv) for i, inv in enumerate(components)))


def join_components(
    p: LefschetzProfile,
    q: LefschetzProfile,
    e: Coercible,
    *,
    include_boundary_pairs: bool = False,
) -> RefinedBlowupResult:
    """Join two profiles given the fiber-product invariant e: the refined blow-up
    of their ruled join over the diagonal rank-N subspace, with base locus e.

    `include_boundary_pairs` admits pairs with i1 + i2 = N - 2 into the refined
    components (a known-inconsistent variant kept as a regression control); the
    default excludes them, as forced by the orthogonality definition.
    """
    N = same_ambient(p, q)
    jbar = ruled_join_components(p, q)
    clip = N if include_boundary_pairs else N - 1
    return _refine(BASE_V, _join([p.name, q.name]), jbar, N, InvariantExpr._coerce(e), clip)


def join_profile(
    p: LefschetzProfile,
    q: LefschetzProfile,
    workspace: Workspace,
    *,
    include_boundary_pairs: bool = False,
) -> RefinedBlowupResult:
    """Join with the fiber-product invariant resolved from the workspace."""
    same_ambient(p, q)
    e = workspace.require_intersection(p.name, q.name)
    return join_components(p, q, e, include_boundary_pairs=include_boundary_pairs)


def profile_from_components(
    name: str, N: int, components: Sequence[Coercible]
) -> LefschetzProfile:
    """Rebuild a profile from weakly-descending component invariants. A list as
    long as the rank is admitted; every duality operation still refuses it."""
    comps = [InvariantExpr._coerce(c) for c in components]
    while len(comps) > 1 and comps[-1] == _zero:
        comps.pop()
    prims = [a - b for a, b in zip(comps, comps[1:] + [_zero])]
    return build_profile(name, N, prims, allow_nonmoderate=True)


# -- refined blow-up -----------------------------------------------------------


class RefinedBlowupResult(NamedTuple):
    """Refined blow-up of a component list `jbar` over a rank-r subspace,
    r = `ambient_rank`, with base-locus invariant `intersection_invariant`.

    Its r - 1 components are the refined parts `jprime` plus the base-locus
    part `e_invariant`. Only the refined parts up to the last one that can be
    nonzero are stored (`head`, at most len(jbar) of them); every later part
    is 0 by construction, so no field grows with r. A join is the refined
    blow-up of its ruled join over the diagonal rank-N subspace, with base
    locus the fiber-product invariant e.
    """

    space: str
    label: str
    ambient_rank: int
    jbar: tuple[InvariantExpr, ...]
    intersection_invariant: InvariantExpr
    head: tuple[InvariantExpr, ...]
    e_invariant: InvariantExpr

    @property
    def jprime(self) -> tuple[InvariantExpr, ...]:
        return self.head + (_zero,) * (self.ambient_rank - 1 - len(self.head))

    @property
    def components(self) -> tuple[InvariantExpr, ...]:
        e, zeros = self.e_invariant, self.ambient_rank - 1 - len(self.head)
        return tuple(part + e for part in self.head) + (e,) * zeros

    @property
    def total(self) -> InvariantExpr:
        parts = [(1, part) for part in self.head]
        return InvariantExpr._combine(parts + [(self.ambient_rank - 1, self.e_invariant)])

    def conserved_total(self) -> InvariantExpr:
        """Closed form from the blow-up/removal bookkeeping (in terms of the
        raw base-locus invariant); equals `total` under the perp-consistent
        component bound."""
        r = self.ambient_rank
        parts = [(1 if i < r - 1 else 1 - r, c) for i, c in enumerate(self.jbar)]
        return InvariantExpr._combine([(r - 1, self.intersection_invariant)] + parts)

    def to_sod(self) -> SodExpr:
        return _sod(self.space, self.label, self.components)


def _refine(
    space: str,
    label: str,
    components: Sequence[InvariantExpr],
    r: int,
    base: InvariantExpr,
    clip: int,
) -> RefinedBlowupResult:
    """Refined blow-up over a rank-r subspace, clip >= r - 1: the parts i < r - 1,
    each components[i] less components[clip] (0 past the end), and the
    base-locus part, base less every component from r on. A part past the end
    is 0 less components[clip], so it is 0 unless clip < len(components), and
    then no part lies past the end, since r - 1 <= clip. So the head is the
    parts up to the end of the list, and nothing is built per rank."""
    cut = components[clip] if clip < len(components) else _zero
    head = tuple(c - cut for c in components[: r - 1])
    e_part = InvariantExpr._combine([(1, base)] + [(-1, c) for c in components[r:]])
    return RefinedBlowupResult(space, label, r, tuple(components), base, head, e_part)


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
    base = InvariantExpr._coerce(base_locus_inv)
    label = _pullback(p.name, "beta")
    return _refine(BASE_L_DUAL, label, p.component_ranks(), ell, base, ell - 1)
