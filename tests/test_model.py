"""Profile validation, component arithmetic, SOD equality, workspace invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpdcalc.dsl import print_canonical
from hpdcalc.errors import (
    ConflictingIntersection,
    ImplausibleProfile,
    LeftRightMismatch,
    NonModerate,
    UnknownCategory,
    UnresolvedIntersection,
)
from hpdcalc import model
from hpdcalc.model import SodBlock, SodExpr, Workspace, build_profile
from hpdcalc.poly import InvariantExpr, const, sym

from support import (
    assignments,
    count_calls,
    primitive_values,
    profile_st,
    ref_component_rank,
    ref_total,
)


def gr25():
    # Rectangular Lefschetz collection of Gr(2,5): five components of rank 2,
    # so the only nonzero primitive sits at index 4; total = 10 = C(5,2).
    return build_profile("Gr25", 10, [0, 0, 0, 0, 2])


def test_build_profile_gr25():
    p = gr25()
    assert p.length_m == 5
    assert [p.component_rank(k) for k in range(5)] == [const(2)] * 5
    assert p.total_invariant() == 10


def test_build_profile_point():
    p = build_profile("pt", 3, [1])
    assert p.length_m == 1
    assert p.total_invariant() == 1
    assert p.component_rank(0) == 1


def test_component_rank_beyond_length_is_zero():
    p = gr25()
    assert p.component_rank(5) == 0
    assert p.component_rank(12) == 0


def test_nonmoderate_rejected_without_override():
    with pytest.raises(NonModerate):
        build_profile("PV", 4, [0, 0, 0, 1])
    p = build_profile("PV", 4, [0, 0, 0, 1], allow_nonmoderate=True)
    assert not p.is_moderate
    assert p.total_invariant() == 4


def test_symbolic_total():
    a, b = sym("a"), sym("b")
    p = build_profile("X", 5, [a, b])
    assert p.total_invariant() == a + 2 * b


def test_left_defaults_to_right_and_mismatch_detected():
    p = build_profile("X", 5, [1, 1])
    assert p.primitive_left == p.primitive_right

    # weighted totals must agree: 1 + 2*1 = 3 vs 2 + 2*0 = 2
    with pytest.raises(LeftRightMismatch):
        build_profile("X", 5, [1, 1], [2, 0])

    # (3, 0) weighs to 3 = 1 + 2*1: accepted even though blockwise different
    q = build_profile("X", 5, [1, 1], [3, 0])
    assert q.primitive_left == (const(3), const(0))


def test_left_length_must_match():
    with pytest.raises(LeftRightMismatch):
        build_profile("X", 5, [1, 1], [3])


def test_negative_primitive_screening():
    with pytest.raises(ImplausibleProfile):
        build_profile("X", 5, [sym("a") - 3])
    # a - 1 + 1 is fine after cancellation at all-ones
    build_profile("X", 5, [sym("a")])


def test_primitives_reconstructed_from_components():
    p = build_profile("X", 9, [sym("a"), 2, sym("b"), 0, 1])
    for k in range(p.length_m):
        assert p.primitive_right[k] == p.component_rank(k) - p.component_rank(k + 1)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_total_at_ones_nonnegative(prims):
    p = build_profile("X", 9, prims)
    assert p.total_invariant().at_ones() >= 0
    ranks = [p.component_rank(k).at_ones() for k in range(p.length_m + 1)]
    assert all(x >= y for x, y in zip(ranks, ranks[1:]))


@given(profile_st(), assignments())
def test_components_and_total_match_integer_reference(p, assignment):
    p_vals = primitive_values(p, assignment)
    ranks = [c.evaluate(assignment) for c in p.component_ranks()]
    assert ranks == [ref_component_rank(p_vals, k) for k in range(p.length_m)]
    for k in range(p.length_m + 2):
        assert p.component_rank(k).evaluate(assignment) == ref_component_rank(p_vals, k)
    assert p.total_invariant().evaluate(assignment) == ref_total(p_vals)


def test_component_ranks_additions_scale_with_length(monkeypatch):
    # One right-to-left pass: m - 1 additions, not one tail sum per component.
    x = sym("x")
    p = build_profile("X", 21, [x + k for k in range(20)])
    calls = count_calls(monkeypatch, InvariantExpr, "__add__")
    assert len(p.component_ranks()) == 20
    assert len(calls) <= 19


def test_profile_tail_sums_are_computed_once(monkeypatch):
    x = sym("x")
    tails = count_calls(monkeypatch, model, "tail_sums")
    p = build_profile("X", 9, [x + 1, 2, x])
    first = (p.component_rank(0), p.total_invariant(), p.component_ranks())
    assert len(tails) == 1
    tails.clear()
    adds = count_calls(monkeypatch, InvariantExpr, "__add__")
    for _ in range(3):
        assert (p.component_rank(0), p.total_invariant(), p.component_ranks()) == first
    assert tails == [] and adds == []
    # Each call returns a fresh list.
    p.component_ranks().clear()
    assert p.component_ranks() == first[2] == [2 * x + 3, x + 2, x]


def test_only_a_distinct_left_list_is_summed(monkeypatch):
    x = sym("x")
    tails = count_calls(monkeypatch, model, "tail_sums")
    build_profile("X", 9, [x, 1], [x, 1])
    assert tails == []
    build_profile("X", 9, [x, 1], [x - 2, 2])
    assert len(tails) == 2
    with pytest.raises(LeftRightMismatch):
        build_profile("X", 9, [x, 1], [x, 2])


# -- SOD expressions ----------------------------------------------------------


def block(name, twist, inv):
    return SodBlock(name, twist, InvariantExpr._coerce(inv))


def test_sod_total_and_equality():
    x = SodExpr("P(V)", (block("A", 0, sym("e")), block("A", 1, 3)))
    assert x.total() == sym("e") + 3
    assert x == x

    reordered = SodExpr("P(V)", (block("A", 1, 3), block("A", 0, sym("e"))))
    assert x != reordered

    # e vs e + 0 are the same canonical form
    y = SodExpr("P(V)", (block("A", 0, sym("e") + 0), block("A", 1, 3)))
    assert x == y

    other_base = SodExpr("P(V*)", x.blocks)
    assert x != other_base


# -- workspace ----------------------------------------------------------------


def test_workspace_symmetric_intersection():
    p = build_profile("A", 6, [1, 1])
    q = build_profile("B", 6, [2])
    ws = Workspace.build(
        symbols=["e"],
        categories=[p, q],
        intersections={("B", "A"): sym("e")},
    )
    assert ws.intersection("A", "B") == sym("e")
    assert ws.intersection("B", "A") == sym("e")
    assert ws.intersection("A", "A") is None
    with pytest.raises(UnresolvedIntersection):
        ws.require_intersection("A", "A")


def test_workspace_disjoint_forces_zero():
    p = build_profile("A", 6, [1])
    q = build_profile("B", 6, [1])
    ws = Workspace.build(categories=[p, q], disjoint_sets=[["A", "B"]])
    assert ws.are_disjoint(["A", "B"])
    assert not ws.are_disjoint(["A", "C"])
    assert ws.intersection("A", "B") == 0


def test_workspace_repeated_name_is_not_disjoint():
    # A category is never disjoint from itself, even inside a declared group.
    p = build_profile("A", 6, [1])
    q = build_profile("B", 6, [1])
    ws = Workspace.build(categories=[p, q], disjoint_sets=[["A", "B"]])
    assert ws.are_disjoint(["A"])
    assert not ws.are_disjoint(["A", "A"])
    assert not ws.are_disjoint(["A", "B", "A"])


def test_workspace_conflicting_constant_intersection():
    p = build_profile("A", 6, [1])
    q = build_profile("B", 6, [1])
    with pytest.raises(ConflictingIntersection):
        Workspace.build(
            categories=[p, q],
            intersections={("A", "B"): 2},
            disjoint_sets=[["A", "B"]],
        )


def test_workspace_symbolic_conflict_warns_and_zeroes():
    p = build_profile("A", 6, [1])
    q = build_profile("B", 6, [1])
    ws = Workspace.build(
        symbols=["e"],
        categories=[p, q],
        intersections={("A", "B"): sym("e")},
        disjoint_sets=[["A", "B"]],
    )
    assert ws.intersection("A", "B") == 0
    assert len(ws.warnings) == 1
    assert "disjoint" in ws.warnings[0]


def test_workspace_unknown_references():
    p = build_profile("A", 6, [1])
    with pytest.raises(UnknownCategory):
        Workspace.build(categories=[p], intersections={("A", "Z"): 0})
    with pytest.raises(UnknownCategory):
        Workspace.build(categories=[p], disjoint_sets=[["A", "Z"]])
    with pytest.raises(UnknownCategory):
        Workspace.build(categories=[p], dual_profiles={"Z": p})
    with pytest.raises(UnknownCategory):
        Workspace.build(categories=[p]).category("Z")


def test_workspace_build_order_independent():
    p = build_profile("A", 6, [1, 1])
    q = build_profile("B", 6, [2])
    first = Workspace.build(
        symbols=["e", "f"],
        categories=[p, q],
        intersections={("A", "B"): sym("e")},
    )
    second = Workspace.build(
        symbols=["f", "e"],
        categories=[q, p],
        intersections={("B", "A"): sym("e")},
    )
    assert first == second
    assert print_canonical(first) == print_canonical(second)
