"""Profile validation, component arithmetic, SOD equality, workspace invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpdcalc.dsl import parse, print_canonical, validate
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
    ref_are_disjoint,
    ref_component_rank,
    ref_intersection,
    ref_print_canonical,
    ref_total,
    ref_workspace_build,
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


# -- disjointness against the pairwise reference ----------------------------------

GROUP_NAMES = ("A", "B", "C", "D")
# 0 and symbolic values are dropped inside a group, a nonzero constant conflicts.
PAIR_VALUES = (const(0), const(2), const(3), sym("e"), sym("e") + sym("f"))


@st.composite
def disjointness_declarations(draw):
    """Groups (overlapping, repeated, reordered, with repeated members) and
    declared intersections keyed by unordered pair, self-pairs included."""
    groups = draw(
        st.lists(st.lists(st.sampled_from(GROUP_NAMES), min_size=2, max_size=5), max_size=4)
    )
    if groups and draw(st.booleans()):
        groups.append(list(reversed(draw(st.sampled_from(groups)))))
    keys = st.tuples(st.sampled_from(GROUP_NAMES), st.sampled_from(GROUP_NAMES)).map(
        lambda pair: tuple(sorted(pair))
    )
    pairs = draw(st.dictionaries(keys, st.sampled_from(PAIR_VALUES), max_size=6))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    probes = draw(
        st.lists(st.lists(st.sampled_from(GROUP_NAMES + ("Z",)), max_size=4), max_size=8)
    )
    return groups, pairs, flips, probes


def _outcome(build):
    try:
        return build(), None
    except ConflictingIntersection as err:
        return None, (type(err), str(err))


def _assert_same_workspace(ws, ref, probes):
    for a in GROUP_NAMES:
        for b in GROUP_NAMES:
            assert ws.intersection(a, b) == ref_intersection(ref, a, b)
    for names in probes:
        assert ws.are_disjoint(names) == ref_are_disjoint(ref, names)
    assert ws.warnings == ref.warnings
    # The reference lists a 0 for each pair in a group; the canonical text
    # states the group once and lists only the other pairs. A group of one
    # distinct name states nothing, so the workspace drops it and its text
    # has no `disjoint` line for it.
    grouped_zeros = {
        f"intersect {a}, {b} over P({ref.categories[a].ambient_rank_N}) = 0;"
        for a, b in ref.intersections
        if a != b and any({a, b} <= group for group in ref.disjoint_sets)
    }
    lone_groups = {
        f"disjoint {name};" for group in ref.disjoint_sets if len(group) == 1 for name in group
    }
    dropped = grouped_zeros | lone_groups
    ref_lines = ref_print_canonical(ref).splitlines()
    expected = [line for line in ref_lines if line not in dropped]
    assert len(ref_lines) - len(expected) == len(dropped)
    assert print_canonical(ws).splitlines() == expected
    assert validate(parse(print_canonical(ws))) == ws


@settings(max_examples=300, deadline=None)
@given(disjointness_declarations())
def test_disjointness_matches_the_pairwise_reference(decl):
    groups, pairs, flips, probes = decl
    profiles = [build_profile(name, 4, [1]) for name in GROUP_NAMES]
    symbols = ["e", "f"]
    declared = {(b, a) if flip else (a, b): v for ((a, b), v), flip in zip(pairs.items(), flips)}

    ws, err = _outcome(lambda: Workspace.build(symbols, profiles, declared, groups))
    ref, ref_err = _outcome(lambda: ref_workspace_build(symbols, profiles, declared, groups))
    assert err == ref_err
    if ws is not None:
        _assert_same_workspace(ws, ref, probes)
        # Declared in another order, the workspace and its text are the same.
        reordered = Workspace.build(
            symbols[::-1],
            profiles[::-1],
            dict(reversed([(key[::-1], v) for key, v in declared.items()])),
            [group[::-1] for group in reversed(groups)],
        )
        assert reordered == ws
        assert reordered.warnings == ws.warnings
        assert print_canonical(reordered) == print_canonical(ws)

    # The same declarations as a file: conflicts follow the groups' order and
    # carry the span of the intersect statement.
    file_groups = [list(dict.fromkeys(group)) for group in groups]
    file_groups = [group for group in file_groups if len(group) >= 2]
    lines = ["symbol e, f;"] + [f"category {p.name} over P(4) primitive [1];" for p in profiles]
    spans = {}
    for (a, b), value in declared.items():
        spans[tuple(sorted((a, b)))] = (len(lines) + 1, 1)
        lines.append(f"intersect {a}, {b} over P(4) = {value};")
    lines += ["disjoint " + ", ".join(group) + ";" for group in file_groups]
    ws, err = _outcome(lambda: validate(parse("\n".join(lines) + "\n")))
    ref, ref_err = _outcome(
        lambda: ref_workspace_build(symbols, profiles, pairs, file_groups, spans)
    )
    assert err == ref_err
    if ws is not None:
        _assert_same_workspace(ws, ref, probes)
