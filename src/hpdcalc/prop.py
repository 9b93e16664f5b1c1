"""Seeded property suites over randomly drawn profiles.

Each suite replays deterministically from its seed: one `random.Random`
stream drives every draw, and each case yields a family of exact polynomial
identities as (label, lhs, rhs). `run_property` decides them in order with
`checks._first_violation`, as every check row is decided, stops the case at the
first violation and reports it with an integer witness separating the sides.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from .checks import (
    _first_violation,
    check_join_linear,
    check_thm_cone_part1,
    check_thm_cone_part2,
    find_witness,
)
from .engine import (
    blowup_sod,
    hpd_total,
    hyperplane_sod,
    join_components,
    n_hyperplane_sod,
    n_join_components,
    profile_from_components,
    projective_bundle_sod,
    ruled_join_components,
    universal_hyperplane_sod,
)
from .model import _ZERO, LefschetzProfile, Workspace, build_profile
from .poly import InvariantExpr
from .report import check_row

__all__ = [
    "PROPERTY_NAMES",
    "MAX_LENGTH_CAP",
    "MAX_RANK_CAP",
    "MAX_SYMBOLS_CAP",
    "CaseFailure",
    "PropertyOutcome",
    "PropReport",
    "run_property",
    "run_suite",
]

# Hard caps; the drawn sizes keep every case cheap enough for large runs.
MAX_LENGTH_CAP = 6
MAX_RANK_CAP = 9
MAX_SYMBOLS_CAP = 3

_SYMBOL_POOL = ("e", "x", "y")


class CaseFailure(NamedTuple):
    case_index: int
    detail: str
    lhs: InvariantExpr
    rhs: InvariantExpr
    witness: dict[str, int]


class PropertyOutcome(NamedTuple):
    name: str
    seed: int
    cases: int
    passes: int
    failure: CaseFailure | None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_json_dict(self) -> dict:
        notes = [f"{self.passes}/{self.cases} cases passed", f"seed={self.seed}"]
        name = f"prop:{self.name}"
        if self.failure is None:
            return check_row(name, "", "", "pass", None, notes)
        notes.append(
            f"first counterexample at case {self.failure.case_index}: {self.failure.detail}"
        )
        return check_row(
            name, self.failure.lhs, self.failure.rhs, "fail", self.failure.witness, notes
        )


class PropReport(NamedTuple):
    seed: int
    cases: int
    outcomes: tuple[PropertyOutcome, ...]

    def all_passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def check_rows(self) -> list[dict]:
        return [outcome.to_json_dict() for outcome in self.outcomes]


class _Bounds(NamedTuple):
    """The size bounds of a suite's draws; `run_property` checks each against its cap."""

    max_length: int
    max_rank: int
    max_symbols: int
    mutate_join_bound: bool


# -- random draws ------------------------------------------------------------------


def _draw_symbols(rng: random.Random, bounds: _Bounds) -> tuple[str, ...]:
    return _SYMBOL_POOL[: rng.randint(0, bounds.max_symbols)]


def _draw_invariant(
    rng: random.Random, symbols: Sequence[str], *, nonzero: bool = False
) -> InvariantExpr:
    # Nonnegative coefficients keep every profile plausible by construction.
    constant = rng.randint(1 if nonzero and not symbols else 0, 3)
    value = InvariantExpr._linear(constant, [(name, rng.randint(0, 3)) for name in symbols])
    return InvariantExpr.const(1) if nonzero and not value else value


def _draw_profile(
    rng: random.Random,
    symbols: Sequence[str],
    bounds: _Bounds,
    name: str,
    *,
    rank: int | None = None,
    max_length: int | None = None,
    nonzero_top: bool = False,
) -> LefschetzProfile:
    cap = bounds.max_length if max_length is None else max_length
    if rank is None:
        length = rng.randint(1, min(cap, bounds.max_rank - 1))
        rank = rng.randint(length + 1, bounds.max_rank)
    else:
        length = rng.randint(1, min(cap, rank - 1))
    primitives = [_draw_invariant(rng, symbols) for _ in range(length)]
    if nonzero_top:
        primitives[-1] = _draw_invariant(rng, symbols, nonzero=True)
    return build_profile(name, rank, primitives)


# -- the conservation suite ----------------------------------------------------------

# Every SOD-producing operation must reproduce its closed-form total, and the
# two-step join must balance its blow-up/removal bookkeeping.


def _conservation_case(rng: random.Random, bounds: _Bounds):
    symbols = _draw_symbols(rng, bounds)
    p = _draw_profile(rng, symbols, bounds, "P")

    fiber_rank = rng.randint(1, 4)
    bundle = projective_bundle_sod("P", p.total_invariant(), fiber_rank)
    yield ("projective bundle total", bundle.total(), fiber_rank * p.total_invariant())

    cat_inv = _draw_invariant(rng, symbols)
    center_inv = _draw_invariant(rng, symbols)
    codim = rng.randint(2, 5)
    blow = blowup_sod(cat_inv, center_inv, codim)
    yield ("blow-up total", blow.total(), cat_inv + (codim - 1) * center_inv)
    section = hyperplane_sod(cat_inv, center_inv, codim)
    yield ("hyperplane section total", section.total(), center_inv + (codim - 1) * cat_inv)

    universal = universal_hyperplane_sod(p)
    expected = (p.ambient_rank_N - 1) * p.total_invariant()
    yield ("universal hyperplane total", universal.total(), expected)
    yield ("dual block of the universal hyperplane", universal.blocks[0].invariant, hpd_total(p))

    rank = rng.randint(2, bounds.max_rank)
    a = _draw_profile(rng, symbols, bounds, "A", rank=rank)
    b = _draw_profile(rng, symbols, bounds, "B", rank=rank)
    expected = a.total_invariant() * b.component_rank(0) + a.component_rank(0) * b.total_invariant()
    yield ("ruled join total", sum(ruled_join_components(a, b), _ZERO), expected)

    e = _draw_invariant(rng, symbols)
    join = join_components(a, b, e, include_boundary_pairs=bounds.mutate_join_bound)
    yield ("join conservation", join.total, join.conserved_total())

    ws = Workspace.build(categories=[a, b], disjoint_sets=[["A", "B"]])
    pair = n_hyperplane_sod([a, b], ws)
    expected = (rank - 2) * a.total_invariant() * b.total_invariant()
    yield ("disjoint double-hyperplane total", pair.h_total, expected)
    yield ("double-hyperplane block sum", pair.sod.total(), pair.h_total)


# -- the join-law suite ---------------------------------------------------------------

# Flat n-fold joins of disjoint inputs must agree with an independent
# index-walk oracle, with every reordering, and with both two-fold nestings.


def _oracle_flat_join(profiles: Sequence[LefschetzProfile]) -> list[InvariantExpr]:
    # Depth-first walk; a tuple with index sum s feeds components i <= s + n - 1.
    n = len(profiles)
    width = sum(p.length_m for p in profiles)
    out = [_ZERO] * width
    one = InvariantExpr.const(1)

    def walk(depth: int, index_sum: int, partial: InvariantExpr) -> None:
        if depth == n:
            for i in range(min(index_sum + n - 1, width - 1) + 1):
                out[i] = out[i] + partial
            return
        for j, prim in enumerate(profiles[depth].primitive_right):
            walk(depth + 1, index_sum + j, partial * prim)

    walk(0, 0, one)
    return out


def _nested_pair(p: LefschetzProfile, q: LefschetzProfile) -> LefschetzProfile:
    ruled = ruled_join_components(p, q)
    return profile_from_components(f"{p.name}*{q.name}", p.ambient_rank_N, ruled)


def _join_laws_case(rng: random.Random, bounds: _Bounds):
    symbols = _draw_symbols(rng, bounds)
    rank = rng.randint(2, bounds.max_rank)
    per_factor = min(3, bounds.max_length, rank - 1)
    triple = [
        _draw_profile(
            rng, symbols, bounds, name, rank=rank, max_length=per_factor, nonzero_top=True
        )
        for name in ("A", "B", "C")
    ]

    flat = n_join_components(triple)
    yield ("flat triple join vs index-walk oracle", flat, _oracle_flat_join(triple))

    shuffled = list(triple)
    rng.shuffle(shuffled)
    yield ("triple join commutativity", flat, n_join_components(shuffled))

    left = ruled_join_components(_nested_pair(triple[0], triple[1]), triple[2])
    yield ("left nesting vs flat join", flat, left)
    right = ruled_join_components(triple[0], _nested_pair(triple[1], triple[2]))
    yield ("right nesting vs flat join", flat, right)


# -- the splitting suite ---------------------------------------------------------------

# Ambient-enlargement and linear-subspace identities, checked through the
# public check functions so both derivation routes stay exercised.


def _splitting_case(rng: random.Random, bounds: _Bounds):
    symbols = _draw_symbols(rng, bounds)
    ws = Workspace.build()

    rank_one = rng.randint(2, min(6, bounds.max_rank))
    p = _draw_profile(rng, symbols, bounds, "P", rank=rank_one)
    added = rng.randint(1, 5)

    cone_one = check_thm_cone_part1(p, added, ws)
    yield ("ambient enlargement, dual side", cone_one.lhs, cone_one.rhs)
    cone_two = check_thm_cone_part2(p, added)
    yield ("ambient enlargement, join side", cone_two.lhs, cone_two.rhs)

    count = rng.randint(1, 3)
    parts = []
    for index in range(count):
        sub_rank = rng.randint(2, 5)
        parts.append(
            _draw_profile(rng, symbols, bounds, f"S{index}", rank=sub_rank, max_length=3)
        )
    linear = check_join_linear(parts)
    yield ("join of complementary subspaces", linear.lhs, linear.rhs)


_RUNNERS: dict[str, Callable] = {
    "conservation": _conservation_case,
    "join-laws": _join_laws_case,
    "splitting": _splitting_case,
}

PROPERTY_NAMES = tuple(_RUNNERS)


# -- drivers ---------------------------------------------------------------------------


def run_property(
    name: str,
    seed: int,
    cases: int,
    *,
    max_length: int = 5,
    max_rank: int = 9,
    max_symbols: int = 2,
    mutate_join_bound: bool = False,
) -> PropertyOutcome:
    """Run one suite; deterministic in (name, seed) and the bounds."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown property {name!r}; expected one of {PROPERTY_NAMES}")
    if cases < 0:
        raise ValueError("cases must be nonnegative")
    if not 1 <= max_length <= MAX_LENGTH_CAP:
        raise ValueError(f"max_length must be in 1..{MAX_LENGTH_CAP}, got {max_length}")
    if not 2 <= max_rank <= MAX_RANK_CAP:
        raise ValueError(f"max_rank must be in 2..{MAX_RANK_CAP}, got {max_rank}")
    if not 0 <= max_symbols <= MAX_SYMBOLS_CAP:
        raise ValueError(f"max_symbols must be in 0..{MAX_SYMBOLS_CAP}, got {max_symbols}")
    bounds = _Bounds(max_length, max_rank, max_symbols, mutate_join_bound)
    rng = random.Random(f"{name}:{seed}")
    runner = _RUNNERS[name]

    passes = 0
    failure = None
    for index in range(cases):
        violation = _first_violation(runner(rng, bounds))
        if violation is None:
            passes += 1
        elif failure is None:
            detail, lhs, rhs = violation
            failure = CaseFailure(index, detail, lhs, rhs, find_witness(lhs, rhs))
    return PropertyOutcome(name, seed, cases, passes, failure)


def run_suite(
    seed: int, cases: int, *, properties: Sequence[str] = PROPERTY_NAMES, **bounds
) -> PropReport:
    """Run the named suites with a shared seed and per-suite streams; the
    bounds are passed on to `run_property`."""
    outcomes = tuple(run_property(name, seed, cases, **bounds) for name in properties)
    return PropReport(seed, cases, outcomes)
