"""Data model: Lefschetz profiles, SOD expressions, workspaces.

A profile records a category's Lefschetz data as primitive-block invariants
p_0..p_{m-1}. Its components are their tail sums p_k + ... + p_{m-1}, and the
category's total invariant is the sum of the components over the twisted
chain, sum_j (j+1) * p_j. An SOD block is labeled by the string reports
print, such as ``hpd(A; P(V*))``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    AmbientMismatch,
    ConflictingIntersection,
    ImplausibleProfile,
    LeftRightMismatch,
    NonModerate,
    UnknownCategory,
    UnresolvedIntersection,
)
from .poly import Coercible, InvariantExpr

__all__ = [
    "BASE_V",
    "BASE_V_DUAL",
    "BASE_L_DUAL",
    "LefschetzProfile",
    "SodBlock",
    "SodExpr",
    "Workspace",
    "build_profile",
]

BASE_V = "P(V)"
BASE_V_DUAL = "P(V*)"
BASE_L_DUAL = "P(L*)"


_ZERO = InvariantExpr.const(0)


def tail_sums(values: Sequence[InvariantExpr]) -> list[InvariantExpr]:
    """values[k] + values[k + 1] + ... for each k: len(values) - 1 additions."""
    return list(itertools.accumulate(reversed(values)))[::-1]


def weighted_total(values: Sequence[InvariantExpr]) -> InvariantExpr:
    """sum_j (j+1) * values[j], the sum of the tail sums, collected once."""
    return InvariantExpr._combine(enumerate(values, 1))


class _ProfileFields(NamedTuple):
    name: str
    ambient_rank_N: int
    primitive_right: tuple[InvariantExpr, ...]
    primitive_left: tuple[InvariantExpr, ...]


class LefschetzProfile(_ProfileFields):
    """Additive-invariant data of a Lefschetz category over P(V), rank N.

    Unlike its named-tuple base, the class has no `__slots__`, so its cached
    values have a `__dict__` to live in."""

    @property
    def length_m(self) -> int:
        return len(self.primitive_right)

    @property
    def is_moderate(self) -> bool:
        return self.length_m < self.ambient_rank_N

    # A profile is frozen, so its tail sums and total are computed once.
    @cached_property
    def _components(self) -> tuple[InvariantExpr, ...]:
        return tuple(tail_sums(self.primitive_right))

    @cached_property
    def _total(self) -> InvariantExpr:
        return weighted_total(self.primitive_right)

    def component_rank(self, k: int) -> InvariantExpr:
        """Invariant of the k-th component: the tail sum of primitives from k."""
        if k < 0:
            raise ValueError("component index must be nonnegative")
        return self._components[k] if k < self.length_m else _ZERO

    def component_ranks(self) -> list[InvariantExpr]:
        return list(self._components)

    def total_invariant(self) -> InvariantExpr:
        """Sum over the twisted chain: equals sum_j (j+1) * primitive_right[j]."""
        return self._total


def build_profile(
    name: str,
    N: int,
    primitive_right: Sequence[Coercible],
    primitive_left: Sequence[Coercible] | None = None,
    *,
    allow_nonmoderate: bool = False,
) -> LefschetzProfile:
    """Validate and freeze a profile; left data defaults to the right data."""
    if N < 2:
        raise ValueError(f"ambient rank must be at least 2, got {N}")
    right = tuple(map(InvariantExpr._coerce, primitive_right))
    if not right:
        raise ValueError("a profile needs at least one primitive block")
    left = right if primitive_left is None else tuple(map(InvariantExpr._coerce, primitive_left))
    profile = LefschetzProfile(name, N, right, left)
    if profile.length_m >= N and not allow_nonmoderate:
        raise NonModerate(
            f"category {name!r} has length {profile.length_m} >= ambient rank {N}"
        )
    if len(left) != len(right):
        raise LeftRightMismatch(
            f"category {name!r}: left data has {len(left)} blocks, right has {len(right)}"
        )
    # Equal lists have equal totals; only a distinct left list is summed.
    if left != right:
        weighted_left = weighted_total(left)
        if weighted_left != profile.total_invariant():
            raise LeftRightMismatch(
                f"category {name!r}: left total {weighted_left} != right total "
                f"{profile.total_invariant()}"
            )
    for j, p in enumerate(right):
        if p.at_ones() < 0:
            raise ImplausibleProfile(
                f"category {name!r}: primitive {j} is {p}, negative at all-ones"
            )
    return profile


# -- SOD expressions ----------------------------------------------------------


class SodBlock(NamedTuple):
    """One block: its report label, its twist and its invariant."""

    term: str
    twist: int
    invariant: InvariantExpr

    def to_json_dict(self) -> dict:
        return {
            "term": self.term,
            "twist": self.twist,
            "invariant": str(self.invariant),
        }


class SodExpr(NamedTuple):
    """An ordered block list; order is semantically significant."""

    base_tag: str
    blocks: tuple[SodBlock, ...]

    def total(self) -> InvariantExpr:
        return InvariantExpr._combine((1, block.invariant) for block in self.blocks)

    def to_json_dict(self, name: str) -> dict:
        return {
            "name": name,
            "base": self.base_tag,
            "blocks": [block.to_json_dict() for block in self.blocks],
        }


# -- workspace ----------------------------------------------------------------


def _pair_key(a: str, b: str) -> tuple[str, str]:
    lo, hi = sorted((a, b))
    return (lo, hi)


def _group_index(groups: Iterable[Iterable[str]]) -> dict[str, set[int]]:
    """Each name's positions in a sequence of groups."""
    index: dict[str, set[int]] = {}
    for i, group in enumerate(groups):
        for name in group:
            index.setdefault(name, set()).add(i)
    return index


def _drop_grouped_pairs(index: dict[str, set[int]], pairs: dict) -> tuple[list, list]:
    """Drop each pair sharing a group from `pairs`, least (first group holding it,
    pair) first; return the warnings and the (pair, message) of each conflict."""
    shared = {(a, b): index.get(a, set()) & index.get(b, set()) for a, b in pairs if a != b}
    warnings, conflicts = [], []
    for _, (a, b) in sorted((min(common), key) for key, common in shared.items() if common):
        value = pairs.pop((a, b))
        if not value.is_constant():
            note = f"intersection of {a}, {b} declared as {value} but the pair is declared disjoint"
            warnings.append(note + "; disjointness forces 0")
        elif value:
            message = f"{a}, {b} declared disjoint but intersect with constant {value}"
            conflicts.append(((a, b), message))
    return warnings, conflicts


_EMPTY = MappingProxyType({})


class _WorkspaceFields(NamedTuple):
    symbols: frozenset[str] = frozenset()
    categories: Mapping[str, LefschetzProfile] = _EMPTY
    intersections: Mapping[tuple[str, str], InvariantExpr] = _EMPTY
    disjoint_sets: tuple[frozenset[str], ...] = ()
    dual_profiles: Mapping[str, LefschetzProfile] = _EMPTY
    warnings: tuple[str, ...] = ()


class Workspace(_WorkspaceFields):
    """Frozen set of declarations consumed by the engine and the checks.

    Intersections are symmetric. A disjoint group is stored once: its pairs' zeros
    are looked up, not stored, so validation is linear in its size. Equality
    ignores the warnings, the last field; the subclass keeps a `__dict__` for
    its cached group index.
    """

    def __eq__(self, other) -> bool:
        return isinstance(other, Workspace) and self[:-1] == other[:-1]

    def __ne__(self, other) -> bool:  # the tuple's own != would compare the warnings
        return not self == other

    @staticmethod
    def build(
        symbols: Iterable[str] = (),
        categories: Iterable[LefschetzProfile] = (),
        intersections: Mapping[tuple[str, str], Coercible] | None = None,
        disjoint_sets: Iterable[Iterable[str]] = (),
        dual_profiles: Mapping[str, LefschetzProfile] | None = None,
    ) -> Workspace:
        """Normalize and validate declarations into a frozen workspace."""
        cats = {p.name: p for p in categories}
        names = set(cats)

        # Deduplicate and order groups canonically so workspace equality does
        # not depend on declaration order.
        groups = tuple(sorted({frozenset(group) for group in disjoint_sets}, key=sorted))
        for group in groups:
            for member in group:
                if member not in names:
                    raise UnknownCategory(
                        f"disjoint declaration names unknown category {member!r}"
                    )
        # A group of fewer than two distinct names states nothing.
        groups = tuple(group for group in groups if len(group) > 1)
        index = _group_index(groups)

        pairs: dict[tuple[str, str], InvariantExpr] = {}
        for (a, b), value in (intersections or {}).items():
            if a not in names:
                raise UnknownCategory(f"intersection names unknown category {a!r}")
            if b not in names:
                raise UnknownCategory(f"intersection names unknown category {b!r}")
            pairs[_pair_key(a, b)] = InvariantExpr._coerce(value)

        warnings, conflicts = _drop_grouped_pairs(index, pairs)
        if conflicts:
            raise ConflictingIntersection(conflicts[0][1])

        duals = dict(dual_profiles or {})
        for name in duals:
            if name not in names:
                raise UnknownCategory(f"dual declaration names unknown category {name!r}")

        ws = Workspace(frozenset(symbols), cats, pairs, groups, duals, tuple(warnings))
        ws.__dict__["_groups_of"] = index  # fills the cached property: one index per workspace
        return ws

    # -- lookups -----------------------------------------------------------

    @cached_property
    def _groups_of(self) -> dict[str, set[int]]:
        return _group_index(self.disjoint_sets)

    def category(self, name: str) -> LefschetzProfile:
        try:
            return self.categories[name]
        except KeyError:
            raise UnknownCategory(f"unknown category {name!r}") from None

    def intersection(self, a: str, b: str) -> InvariantExpr | None:
        """The declared value, else 0 for two names sharing a group."""
        value = self.intersections.get(_pair_key(a, b))
        return _ZERO if value is None and self.are_disjoint((a, b)) else value

    def require_intersection(self, a: str, b: str) -> InvariantExpr:
        value = self.intersection(a, b)
        if value is None:
            raise UnresolvedIntersection(
                f"no declared intersection invariant for {a}, {b} over {BASE_V}"
            )
        return value

    def are_disjoint(self, names: Iterable[str]) -> bool:
        """Whether the names are declared disjoint: at most one name, or
        distinct names that are all members of one shared group."""
        names = list(names)
        wanted = set(names)
        if len(wanted) < len(names):
            return False
        groups = (self._groups_of.get(name, set()) for name in wanted)
        return len(wanted) <= 1 or bool(set.intersection(*groups))

    def dual_of(self, name: str) -> LefschetzProfile | None:
        return self.dual_profiles.get(name)


def same_ambient(*profiles: LefschetzProfile) -> int:
    """The ambient rank the profiles share, or AmbientMismatch."""
    p = profiles[0]
    for q in profiles[1:]:
        if q.ambient_rank_N != p.ambient_rank_N:
            raise AmbientMismatch(
                f"{p.name} lives over rank {p.ambient_rank_N}, "
                f"{q.name} over rank {q.ambient_rank_N}"
            )
    return p.ambient_rank_N
