"""Data model: Lefschetz profiles, SOD expressions, workspaces.

A profile records a category's Lefschetz data as primitive-block invariants
p_0..p_{m-1}. Its components are their tail sums p_k + ... + p_{m-1}, and the
category's total invariant is the sum of the components over the twisted
chain, sum_j (j+1) * p_j. An SOD block is labeled by the string reports
print, such as ``hpd(A; P(V*))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

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


def _coerce_all(values: Iterable[Coercible]) -> tuple[InvariantExpr, ...]:
    return tuple(InvariantExpr._coerce(v) for v in values)


def tail_sums(values: Sequence[InvariantExpr]) -> list[InvariantExpr]:
    """values[k] + values[k + 1] + ... for each k: len(values) - 1 additions."""
    return list(itertools.accumulate(reversed(values)))[::-1]


def weighted_total(values: Sequence[InvariantExpr]) -> InvariantExpr:
    """sum_j (j+1) * values[j], as the sum of the tail sums."""
    return sum(tail_sums(values), _ZERO)


@dataclass(frozen=True)
class LefschetzProfile:
    """Additive-invariant data of a Lefschetz category over P(V), rank N."""

    name: str
    ambient_rank_N: int
    primitive_right: tuple[InvariantExpr, ...]
    primitive_left: tuple[InvariantExpr, ...]

    @property
    def length_m(self) -> int:
        return len(self.primitive_right)

    @property
    def is_moderate(self) -> bool:
        return self.length_m < self.ambient_rank_N

    def component_rank(self, k: int) -> InvariantExpr:
        """Invariant of the k-th component: the tail sum of primitives from k."""
        if k < 0:
            raise ValueError("component index must be nonnegative")
        return self.component_ranks()[k] if k < self.length_m else _ZERO

    def component_ranks(self) -> list[InvariantExpr]:
        return tail_sums(self.primitive_right)

    def total_invariant(self) -> InvariantExpr:
        """Sum over the twisted chain: equals sum_j (j+1) * primitive_right[j]."""
        return weighted_total(self.primitive_right)

    def renamed(self, name: str) -> LefschetzProfile:
        return LefschetzProfile(name, self.ambient_rank_N, self.primitive_right, self.primitive_left)


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
    right = _coerce_all(primitive_right)
    if not right:
        raise ValueError("a profile needs at least one primitive block")
    left = right if primitive_left is None else _coerce_all(primitive_left)
    profile = LefschetzProfile(name, N, right, left)
    if profile.length_m >= N and not allow_nonmoderate:
        raise NonModerate(
            f"category {name!r} has length {profile.length_m} >= ambient rank {N}"
        )
    if len(left) != len(right):
        raise LeftRightMismatch(
            f"category {name!r}: left data has {len(left)} blocks, right has {len(right)}"
        )
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


@dataclass(frozen=True)
class SodBlock:
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


@dataclass(frozen=True)
class SodExpr:
    """An ordered block list; order is semantically significant."""

    base_tag: str
    blocks: tuple[SodBlock, ...]

    def total(self) -> InvariantExpr:
        return sum((block.invariant for block in self.blocks), _ZERO)

    def to_json_dict(self, name: str = "") -> dict:
        body = {
            "base": self.base_tag,
            "blocks": [block.to_json_dict() for block in self.blocks],
        }
        if name:
            return {"name": name, **body}
        return body


# -- workspace ----------------------------------------------------------------


def _pair_key(a: str, b: str) -> tuple[str, str]:
    lo, hi = sorted((a, b))
    return (lo, hi)


@dataclass(frozen=True, eq=True)
class Workspace:
    """Frozen set of declarations consumed by the engine and the checks.

    Intersections are symmetric; a declared disjoint group forces the pairwise
    intersection invariant over P(V) to zero.
    """

    symbols: frozenset[str] = frozenset()
    categories: Mapping[str, LefschetzProfile] = field(default_factory=dict)
    intersections: Mapping[tuple[str, str], InvariantExpr] = field(default_factory=dict)
    disjoint_sets: tuple[frozenset[str], ...] = ()
    dual_profiles: Mapping[str, LefschetzProfile] = field(default_factory=dict)
    warnings: tuple[str, ...] = field(default=(), compare=False)

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
        warnings: list[str] = []

        # Deduplicate and order groups canonically so workspace equality does
        # not depend on declaration order.
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
            pairs[_pair_key(a, b)] = InvariantExpr._coerce(value)

        for group in groups:
            members = sorted(group)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    key = _pair_key(a, b)
                    declared = pairs.get(key)
                    if not declared:
                        pairs[key] = _ZERO
                    elif declared.is_constant():
                        raise ConflictingIntersection(
                            f"{a}, {b} declared disjoint but intersect with constant {declared}"
                        )
                    else:
                        warnings.append(
                            f"intersection of {a}, {b} declared as {declared} but the pair is "
                            "declared disjoint; disjointness forces 0"
                        )
                        pairs[key] = _ZERO

        duals = dict(dual_profiles or {})
        for name in duals:
            if name not in names:
                raise UnknownCategory(f"dual declaration names unknown category {name!r}")

        return Workspace(
            symbols=frozenset(symbols),
            categories=cats,
            intersections=pairs,
            disjoint_sets=groups,
            dual_profiles=duals,
            warnings=tuple(warnings),
        )

    # -- lookups -----------------------------------------------------------

    def category(self, name: str) -> LefschetzProfile:
        try:
            return self.categories[name]
        except KeyError:
            raise UnknownCategory(f"unknown category {name!r}") from None

    def intersection(self, a: str, b: str) -> InvariantExpr | None:
        return self.intersections.get(_pair_key(a, b))

    def require_intersection(self, a: str, b: str) -> InvariantExpr:
        value = self.intersection(a, b)
        if value is None:
            raise UnresolvedIntersection(
                f"no declared intersection invariant for {a}, {b} over {BASE_V}"
            )
        return value

    def are_disjoint(self, names: Iterable[str]) -> bool:
        """Whether the named categories are pairwise disjoint; a name listed
        twice is never disjoint from itself."""
        names = list(names)
        wanted = set(names)
        if len(wanted) < len(names):
            return False
        return len(wanted) <= 1 or any(wanted <= group for group in self.disjoint_sets)

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
