"""Duality identities evaluated as named checks.

Each check states exact identities (label, lhs, rhs) whose sides come from
independent construction chains. One rule, `_first_violation`, decides every
identity, here and in the property suites; a failure carries an integer witness
separating the sides. All results are invariant-level statements about
additive data, never claims about the categories themselves.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

from .engine import (
    _leave_one_out,
    deep_component,
    duality_total,
    hpd_total,
    join_profile,
    n_join_components,
    ruled_join_components,
)
from .errors import JoinNotModerate, MissingDisjointness
from .model import _ZERO, LefschetzProfile, Workspace, build_profile, same_ambient
from .poly import InvariantExpr
from .report import check_row

__all__ = [
    "CheckResult",
    "find_witness",
    "check_main_theorem",
    "check_n_hpd_center",
    "check_thm_cone_part1",
    "check_thm_cone_part2",
    "check_join_linear",
    "check_dual_profile",
    "INVARIANT_LEVEL_NOTE",
    "SUBSET_READING_NOTE",
]

INVARIANT_LEVEL_NOTE = (
    "invariant-level consequence: equality of additive invariants, not a proof "
    "of equivalence"
)

# A note of every check that reads the n-universal-hyperplane blocks of two or
# more categories: the source statement tensors over the subset I, but the
# n = 2 proof tensors over its complement, and the engine follows the proof.
SUBSET_READING_NOTE = (
    "n-universal-hyperplane blocks tensor component factors over the complement "
    "of the subset I (proof-consistent reading)"
)


class CheckResult(NamedTuple):
    name: str
    lhs: InvariantExpr
    rhs: InvariantExpr
    status: str
    witness: dict[str, int] | None
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return check_row(self.name, self.lhs, self.rhs, self.status, self.witness, self.notes)


def find_witness(lhs: InvariantExpr, rhs: InvariantExpr) -> dict[str, int]:
    """Integer assignment at which two distinct polynomials evaluate apart.

    Names every symbol of either side, in sorted order; symbols absent from
    the difference are 0. On the k symbols of the difference the witness is
    the lexicographically first point of {0..B}^k at which the sides differ,
    B = max(5, largest per-symbol degree). Each symbol in turn takes the least
    value that leaves the difference nonzero in the symbols still free. That
    value is at most B, since a nonzero polynomial of degree at most B in each
    symbol does not vanish on a grid of B + 1 points per axis, so the cost is
    polynomial in the size of the difference, not exponential in k.
    """
    diff = lhs - rhs
    if diff.is_zero():
        raise ValueError("polynomials are equal; no witness exists")
    witness = {name: 0 for name in sorted(lhs.symbols() | rhs.symbols())}
    rest = diff
    for name in sorted(diff.symbols()):
        value = 0
        while not (fixed := rest.substitute(name, value)):
            value += 1
        witness[name] = value
        rest = fixed
    # One exact evaluation confirms what the construction guarantees.
    if diff.evaluate(witness) == 0:
        raise AssertionError("distinct polynomials with no witness in the search box")
    return witness


def _first_violation(identities) -> tuple[str, InvariantExpr, InvariantExpr] | None:
    """The first identity whose sides differ, as (detail, lhs, rhs), or None. A list
    compares entry by entry, a missing entry read as 0; its first differing
    component is named, with those two entries as the sides, so a witness exists."""
    for label, lhs, rhs in identities:
        listed = isinstance(lhs, list)
        pairs = itertools.zip_longest(lhs, rhs, fillvalue=_ZERO) if listed else [(lhs, rhs)]
        for i, (x, y) in enumerate(pairs):
            if x != y:
                return (f"{label}, component {i}" if listed else label), x, y
    return None


def _result(name: str, identities: Sequence[tuple], notes: Sequence[str] = ()) -> CheckResult:
    violation = _first_violation(identities)
    detail, lhs, rhs = violation or identities[0]
    if violation is None:
        return CheckResult(name, lhs, rhs, "pass", None, tuple(notes))
    if all(detail != label for label, _, _ in identities):  # the sides are list entries
        notes = (*notes, f"first violation: {detail}")
    return CheckResult(name, lhs, rhs, "fail", find_witness(lhs, rhs), tuple(notes))


def _over_ambient(p: LefschetzProfile, N: int) -> LefschetzProfile:
    """The same Lefschetz data regarded inside a larger projective space."""
    return build_profile(p.name, N, p.primitive_right, p.primitive_left)


# -- the checks -----------------------------------------------------------------


def check_main_theorem(
    p: LefschetzProfile,
    q: LefschetzProfile,
    workspace: Workspace,
    *,
    include_boundary_pairs: bool = False,
) -> CheckResult:
    """Duality total of the join versus the deep component of the double
    universal hyperplane; the two sides never share a construction step."""
    N = same_ambient(p, q)
    join = join_profile(p, q, workspace, include_boundary_pairs=include_boundary_pairs)
    # N * c_0 - sum(c) over the N - 1 components c_i = jprime_i + e_invariant;
    # the refined parts past the head are 0.
    lhs = duality_total(N, join.head) + join.e_invariant
    deep = deep_component([p, q], workspace)
    notes = [
        INVARIANT_LEVEL_NOTE,
        f"derived invariant of the fiber product of the two duals: {lhs}",
        SUBSET_READING_NOTE,
    ]
    return _result("main_theorem", [("main_theorem", lhs, deep)], notes)


def check_n_hpd_center(
    profiles: Sequence[LefschetzProfile], workspace: Workspace
) -> CheckResult:
    """Center of the joined dual versus the product of the input centers.

    With declared dual profiles both sides are independent; without them the
    dual centers are derived through the center equivalence itself and the
    comparison is a consistency statement only. The length claim for the
    joined dual is reported in the notes; it is only checkable against
    declared dual data.
    """
    names = [p.name for p in profiles]
    if not workspace.are_disjoint(names):
        raise MissingDisjointness(
            f"center check for {', '.join(names)} needs a declared disjointness group"
        )
    same_ambient(*profiles)

    rhs = math.prod((p.component_rank(0) for p in profiles), start=InvariantExpr.const(1))

    duals = [workspace.dual_of(name) for name in names]
    notes = [INVARIANT_LEVEL_NOTE]
    if all(d is not None for d in duals):
        for p, d in zip(profiles, duals):
            same_ambient(p, d)
        joined = n_join_components(duals)
        lhs = joined[0]
        claimed = sum(d.length_m for d in duals)
        top = joined[-1]
        if top.at_ones() > 0:
            notes.append(f"length of the joined dual: {claimed} (sum of declared dual lengths)")
        else:
            notes.append(
                f"length claim {claimed}: top component invariant vanishes, so the "
                "minimal representation may be shorter; not refutable at invariant level"
            )
    else:
        lhs = rhs
        notes.append(
            "no declared dual profiles: dual centers derived via the center "
            "equivalence; length claim underdetermined"
        )
    return _result("n_hpd_center", [("n_hpd_center", lhs, rhs)], notes)


def check_thm_cone_part1(
    p: LefschetzProfile, N2: int, workspace: Workspace
) -> CheckResult:
    """Duality total after enlarging the ambient space versus the join of the
    dual with the profile of the complementary linear subspace."""
    if N2 < 1:
        raise ValueError("the added subspace rank must be positive")
    N = p.ambient_rank_N + N2
    lhs = hpd_total(_over_ambient(p, N))

    dual = workspace.dual_of(p.name)
    notes = [INVARIANT_LEVEL_NOTE]
    if dual is not None:
        dual_total, dual_center = dual.total_invariant(), dual.component_rank(0)
        notes.append("dual side from the declared dual profile")
    else:
        dual_total, dual_center = hpd_total(p), p.component_rank(0)
        notes.append("dual side derived: duality total and center equivalence")
    rhs = dual_total + dual_center * N2
    return _result("cone_part1", [("cone_part1", lhs, rhs)], notes)


def check_thm_cone_part2(p: LefschetzProfile, N2: int) -> CheckResult:
    """Duality total of the join with a full linear subspace versus the
    duality total in the original ambient space."""
    if N2 < 1:
        raise ValueError("the added subspace rank must be positive")
    N = p.ambient_rank_N + N2
    if p.length_m + N2 >= N:
        raise JoinNotModerate(
            f"join of {p.name} with a rank-{N2} subspace has length "
            f"{p.length_m + N2} over rank {N}"
        )
    subspace = build_profile("L", N, [0] * (N2 - 1) + [1])
    jbar = ruled_join_components(_over_ambient(p, N), subspace)
    lhs = duality_total(N, jbar)
    rhs = hpd_total(p)
    return _result("cone_part2", [("cone_part2", lhs, rhs)], (INVARIANT_LEVEL_NOTE,))


def check_join_linear(profiles: Sequence[LefschetzProfile]) -> CheckResult:
    """For categories in complementary linear subspaces: duality total of
    their join versus the join of their small duals,
    sum_k hpd_total(p_k) * prod_{j != k} c0_j.

    Each small dual is derived from its input (duality total over its own
    subspace, center equivalence). With N the sum of the ranks N_k, that sum
    is N * prod_k c0_k - sum_k t_k * prod_{j != k} c0_j expanded: the deep
    component of the simultaneous universal hyperplane over the split ambient
    space, in which every sub-collection is disjoint. So the check compares
    two sides only: the join's duality total, then the join of the small duals.
    """
    N = sum(p.ambient_rank_N for p in profiles)
    components = n_join_components([_over_ambient(p, N) for p in profiles])
    lhs = duality_total(N, components)

    _, rhs = _leave_one_out(
        [p.component_rank(0) for p in profiles], [hpd_total(p) for p in profiles]
    )

    notes = [
        INVARIANT_LEVEL_NOTE,
        "splitting of the ambient space taken from the declared per-category ranks",
    ]
    if len(profiles) >= 2:
        notes.append(SUBSET_READING_NOTE)
    return _result("join_linear", [("join_linear", lhs, rhs)], notes)


def check_dual_profile(
    p: LefschetzProfile, declared_dual: LefschetzProfile
) -> CheckResult:
    """Validate a declared dual profile: its total, its center, and the
    double-dual total must all match the values derived from the original."""
    same_ambient(p, declared_dual)
    identities = [
        ("dual total", declared_dual.total_invariant(), hpd_total(p)),
        ("center", declared_dual.component_rank(0), p.component_rank(0)),
        ("double-dual total", hpd_total(declared_dual), p.total_invariant()),
    ]
    notes = [INVARIANT_LEVEL_NOTE]
    for label, lhs, rhs in identities:
        verdict = "fail" if _first_violation([(label, lhs, rhs)]) else "pass"
        notes.append(f"{label}: {verdict} ({lhs} vs {rhs})")
    return _result("dual_profile", identities, notes)
