"""Engine tests: fixed decompositions with hand-checked invariants, plus
property tests cross-checked against the integer reference loops in support.py."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpdcalc import checks, engine, poly
from hpdcalc.checks import check_join_linear, check_main_theorem
from hpdcalc.cli import main
from hpdcalc.dsl import print_canonical
from hpdcalc.engine import (
    blowup_sod,
    deep_component,
    duality_total,
    hpd_total,
    hyperplane_sod,
    join_components,
    join_profile,
    n_hyperplane_sod,
    n_join_components,
    n_join_profile,
    profile_from_components,
    projective_bundle_sod,
    refined_blowup_profile,
    ruled_join_components,
    universal_hyperplane_sod,
)
from hpdcalc.errors import (
    AmbientMismatch,
    ConflictingDeclarations,
    HpdcalcError,
    MissingDisjointness,
    NonModerate,
    Underdetermined,
    UnresolvedBaseLocus,
    UnresolvedIntersection,
)
from hpdcalc.model import Workspace, build_profile
from hpdcalc.poly import InvariantExpr, const, sym

from support import (
    SYMBOL_NAMES,
    assignments,
    count_calls,
    primitive_exprs,
    primitive_values,
    profile_pairs,
    profile_st,
    ref_component_rank,
    ref_deep_component,
    ref_deep_component_walk,
    ref_duality_total,
    ref_flat_join,
    ref_join_window,
    ref_n_hyperplane_walk,
    ref_ruled_join,
    ref_total,
    renamed,
    two_hyperplane_rank,
)

E = sym("e")


def gr25():
    # Rank-10 ambient, five components of rank 2 (a rectangular collection of
    # length 5 whose primitive part sits entirely in the last slot).
    return build_profile("Gr25", 10, [0, 0, 0, 0, 2])


def point(name="pt", N=3):
    return build_profile(name, N, [1])


# -- bundle and blow-up formulas ----------------------------------------------


def test_projective_bundle_blocks():
    sod = projective_bundle_sod("A", sym("a"), 2)
    assert [b.twist for b in sod.blocks] == [0, 1]
    assert sod.total() == 2 * sym("a")

    assert projective_bundle_sod("A", sym("a"), 1).total() == sym("a")
    assert projective_bundle_sod("Gr25", 10, 9).total() == 90

    with pytest.raises(ValueError):
        projective_bundle_sod("A", 1, 0)


def test_blowup_totals():
    a, z = sym("a"), sym("z")
    sod = blowup_sod(a, z, 3)
    assert sod.total() == a + 2 * z
    assert len(sod.blocks) == 3

    assert blowup_sod(a, 0, 5).total() == a

    ruled_join_blowup = blowup_sod(40, E, 10)
    assert ruled_join_blowup.total() == 40 + 9 * E
    assert len(ruled_join_blowup.blocks) == 10


def test_hyperplane_totals():
    a, z = sym("a"), sym("z")
    sod = hyperplane_sod(a, z, 2)
    assert sod.total() == z + a
    assert [b.twist for b in sod.blocks] == [0, 1]

    assert hyperplane_sod(a, 0, 2).total() == a

    # Hyperplane section of the rank-10 bundle over the product of two copies
    # of the rank-10 example, fibered in lines: section total must agree with
    # the incidence total plus the removed ambient product blocks.
    incidence = hyperplane_sod(200, E, 10)
    assert incidence.total() == E + 1800
    assert incidence.total() == two_hyperplane_rank(10, 10, E, 10) + 10 * 100


# -- universal hyperplanes and duality totals ---------------------------------


def test_universal_hyperplane_fixed_values():
    sod = universal_hyperplane_sod(gr25())
    assert [str(b.invariant) for b in sod.blocks] == ["10", "20", "20", "20", "20"]
    assert [b.twist for b in sod.blocks] == [0, 1, 2, 3, 4]
    assert sod.total() == 90
    assert sod.blocks[0].term == "hpd(Gr25; P(V*))"


def test_universal_hyperplane_length_one():
    sod = universal_hyperplane_sod(point(N=3))
    assert len(sod.blocks) == 1
    assert sod.blocks[0].invariant == 2

    a = sym("a")
    symbolic = universal_hyperplane_sod(build_profile("A", 6, [a]))
    assert symbolic.blocks[0].invariant == 5 * a


def test_hpd_total_fixed_values():
    assert hpd_total(gr25()) == 10

    # Hyperplanes through a point form a projective space of one dimension
    # less; its invariant comes out of the bundle formula, not this op.
    for N in range(2, 10):
        oracle = projective_bundle_sod("O", 1, N - 1).total()
        assert hpd_total(point(N=N)) == oracle == N - 1

    rectangular = build_profile("R", 5, [0, 3])
    assert rectangular.component_ranks() == [const(3), const(3)]
    assert hpd_total(rectangular) == 9


def test_hpd_requires_moderate():
    squeezed = build_profile("X", 2, [1, 1], allow_nonmoderate=True)
    with pytest.raises(NonModerate):
        hpd_total(squeezed)
    with pytest.raises(NonModerate):
        universal_hyperplane_sod(squeezed)


@given(st.lists(primitive_exprs(), min_size=1, max_size=6), st.integers(2, 12), assignments())
def test_duality_total_matches_integer_reference(components, N, assignment):
    c_vals = [c.evaluate(assignment) for c in components]
    assert duality_total(N, components).evaluate(assignment) == ref_duality_total(N, c_vals)


@given(profile_st(), assignments())
def test_hpd_total_matches_integer_reference(p, assignment):
    p_vals = primitive_values(p, assignment)
    c_vals = [ref_component_rank(p_vals, k) for k in range(p.length_m)]
    assert hpd_total(p).evaluate(assignment) == ref_duality_total(p.ambient_rank_N, c_vals)


def test_two_hyperplane_rank():
    def pair_total(p, q, **declarations):
        ws = Workspace.build(categories=[p, q], **declarations)
        return n_hyperplane_sod([p, q], ws).h_total

    assert pair_total(point("A"), point("B"), disjoint_sets=[("A", "B")]) == 1

    a1, a2 = sym("a1"), sym("a2")
    p, q = build_profile("A", 7, [a1]), build_profile("B", 7, [a2])
    disjoint = pair_total(p, q, disjoint_sets=[("A", "B")])
    # Disjoint case: the incidence is a bundle of projective spaces of
    # dimension N-3 over the product, so the bundle formula is an oracle.
    assert disjoint == projective_bundle_sod("AxB", a1 * a2, 5).total()

    p, q = gr25(), renamed(gr25(), "Gr25g")
    assert pair_total(p, q, intersections={("Gr25", "Gr25g"): E}) == E + 800


def test_n_hyperplane_specializes_to_universal():
    ws = Workspace.build(categories=[gr25()])
    result = n_hyperplane_sod([gr25()], ws)
    assert result.sod == universal_hyperplane_sod(gr25())
    assert result.c_invariant == hpd_total(gr25())
    assert result.h_total == 90
    assert result.warnings == ()


def test_n_hyperplane_pair_fixed_chain():
    p, q = gr25(), renamed(gr25(), "Gr25g")
    ws = Workspace.build(symbols=["e"], categories=[p, q], intersections={("Gr25", "Gr25g"): E})
    result = n_hyperplane_sod([p, q], ws)

    assert result.h_total == E + 800
    # One deep block, then 4 + 4 singleton-subset blocks and 16 empty-subset
    # blocks; the deep invariant is the total minus 80 + 80 + 640.
    assert len(result.sod.blocks) == 25
    assert result.c_invariant == E
    assert result.sod.blocks[0].invariant == E
    assert result.warnings != ()

    singleton = [b.invariant for b in result.sod.blocks[1:9]]
    assert all(v == 20 for v in singleton)
    empty = [b.invariant for b in result.sod.blocks[9:]]
    assert all(v == 40 for v in empty)


def test_n_hyperplane_disjoint_length_one_profiles():
    x, y = sym("x"), sym("y")
    p = build_profile("A", 6, [x])
    q = build_profile("B", 6, [y])
    ws = Workspace.build(categories=[p, q], disjoint_sets=[("A", "B")])
    result = n_hyperplane_sod([p, q], ws)
    assert len(result.sod.blocks) == 1
    assert result.c_invariant == 4 * x * y


def test_n_hyperplane_three_declared_pairs():
    # Declared pair intersections resolve pairs only: three categories that
    # share no disjoint group leave their own total underdetermined.
    profiles = [build_profile(name, 5, [1, 1]) for name in "ABC"]
    intersections = {("A", "B"): 0, ("B", "C"): 2, ("A", "C"): 1}
    ws = Workspace.build(categories=profiles, intersections=intersections)
    for construction in (n_hyperplane_sod, deep_component):
        with pytest.raises(Underdetermined, match="hyperplane for A, B, C is not derivable"):
            construction(profiles, ws)


def test_n_hyperplane_undeclared_pair_names_its_subset():
    # Of three categories with two declared pairs, each declared pair
    # resolves on its own; the undeclared pair A, C is named in its error.
    a, b, c = (build_profile(name, 5, [1, 1]) for name in "ABC")
    ws = Workspace.build(categories=[a, b, c], intersections={("A", "B"): 0, ("B", "C"): 2})
    t = a.total_invariant()
    assert n_hyperplane_sod([a, b], ws).h_total == two_hyperplane_rank(t, t, 0, 5)
    assert n_hyperplane_sod([b, c], ws).h_total == two_hyperplane_rank(t, t, 2, 5)
    for construction in (n_hyperplane_sod, deep_component):
        with pytest.raises(Underdetermined, match="hyperplane for A, C is not derivable"):
            construction([a, c], ws)


def test_n_hyperplane_resolution_rules():
    p = point("A", 4)
    q = point("B", 4)

    bare = Workspace.build(categories=[p, q])
    with pytest.raises(Underdetermined):
        n_hyperplane_sod([p, q], bare)

    disjoint = Workspace.build(categories=[p, q], disjoint_sets=[("A", "B")])
    assert n_hyperplane_sod([p, q], disjoint).h_total == 2

    # Workspace.build drops the zero intersection of a grouped pair; a
    # workspace built directly keeps it, and it agrees with the group.
    declared_zero = Workspace(
        categories={"A": p, "B": q},
        intersections={("A", "B"): const(0)},
        disjoint_sets=(frozenset(["A", "B"]),),
    )
    result = n_hyperplane_sod([p, q], declared_zero)
    assert result.h_total == 2
    assert deep_component([p, q], declared_zero) == result.c_invariant == 2


def test_a_grouped_pair_with_a_declared_intersection_conflicts():
    # Workspace.build drops the intersection of a grouped pair. A workspace
    # built directly keeps both routes, and they must agree.
    profiles = [build_profile(name, 5, [1, 1]) for name in ("P0", "P1")]
    ws = Workspace(
        symbols=frozenset(["x"]),
        categories={p.name: p for p in profiles},
        intersections={("P0", "P1"): sym("x")},
        disjoint_sets=(frozenset(["P0", "P1"]),),
    )
    message = (
        "hyperplane total for P0, P1: disjointness formula gives 27 "
        "but declared intersection gives x + 27"
    )
    for construction in (n_hyperplane_sod, deep_component):
        with pytest.raises(ConflictingDeclarations) as error:
            construction(profiles, ws)
        assert str(error.value) == message


@st.composite
def resolving_hyperplanes(draw):
    """n = 2..4 profiles whose simultaneous hyperplane resolves, with the route:
    one disjoint group of all n, or for n = 2 a declared pair intersection."""
    n = draw(st.integers(2, 4))
    N = draw(st.integers(2, 6))
    profiles = [draw(profile_st(name=f"P{i}", N=N, max_m=3)) for i in range(n)]
    names = [p.name for p in profiles]
    groups, pairs = [], {}
    if n > 2 or draw(st.booleans()):
        groups = [names]
    else:
        pairs = {tuple(names): draw(primitive_exprs())}
    ws = Workspace.build(
        symbols=SYMBOL_NAMES, categories=profiles, intersections=pairs, disjoint_sets=groups
    )
    return profiles, ws


@given(resolving_hyperplanes())
def test_n_hyperplane_blocks_sum_to_the_resolved_total(case):
    # The deep components come from factorized sums, the blocks from index
    # tuples; the two must agree on the total.
    profiles, ws = case
    result = n_hyperplane_sod(profiles, ws)
    assert result.sod.total() == result.h_total
    assert result.sod.blocks[0].invariant == result.c_invariant


@st.composite
def single_profiles(draw):
    p = draw(profile_st(name="P0", max_m=3, max_rank=6))
    return [p], Workspace.build(symbols=SYMBOL_NAMES, categories=[p])


@given(st.one_of(single_profiles(), resolving_hyperplanes()), assignments())
def test_deep_component_matches_the_recursive_reference(case, assignment):
    # The reference subtracts the deep components of every proper subset, over
    # integers; the engine sums signed totals by inclusion-exclusion.
    profiles, ws = case
    N = profiles[0].ambient_rank_N
    values = [primitive_values(p, assignment) for p in profiles]
    totals = [ref_total(v) for v in values]

    def total_of(subset):
        names = [profiles[i].name for i in subset]
        if ws.are_disjoint(names):
            product = 1
            for i in subset:
                product *= totals[i]
            return (N - len(subset)) * product
        return ws.intersection(*names).evaluate(assignment) + (N - 2) * totals[0] * totals[1]

    expected = ref_deep_component(N, values, total_of)
    deep = deep_component(profiles, ws)
    result = n_hyperplane_sod(profiles, ws)
    assert deep.evaluate(assignment) == expected
    assert result.c_invariant.evaluate(assignment) == expected
    assert result.sod.blocks[0].invariant == result.c_invariant == deep


# Workspaces in which the full set lies in no disjoint group, though some of
# its subsets resolve. The error names the full set.
def _malformed(case):
    x = sym("x")
    names = {"triangle": "ABC", "two-pairs": "ABC", "quadruple": "ABCDE"}.get(case, "ABCD")
    N = 5 if len(names) == 3 else 6
    profiles = [build_profile(name, N, [x + 1, 1, 2]) for name in names]
    intersections, groups = {
        "triangle": ({("B", "C"): 2}, []),
        "two-pairs": ({("A", "B"): x, ("A", "C"): 1}, []),
        "quadruple": ({}, [["A", "B", "C", "D"], ["A", "B", "C", "E"]]),
        "triple": ({("A", "D"): x}, [["A", "B", "C"]]),
        "pairs": ({}, [["A", "B"], ["C", "D"]]),
        "one-group": ({}, [["A", "B", "C"]]),
    }[case]
    ws = Workspace.build(
        symbols=["x"], categories=profiles, intersections=intersections, disjoint_sets=groups
    )
    return profiles, ws


_FIRST_ERROR = {
    "triangle": "A, B, C",
    "two-pairs": "A, B, C",
    "quadruple": "A, B, C, D, E",
    "triple": "A, B, C, D",
    "pairs": "A, B, C, D",
    "one-group": "A, B, C, D",
}


@pytest.mark.parametrize("case", sorted(_FIRST_ERROR))
def test_first_resolution_error_is_pinned(case):
    profiles, ws = _malformed(case)
    message = (
        f"invariant of the simultaneous hyperplane for {_FIRST_ERROR[case]} is not "
        "derivable: declare disjointness or a pair intersection"
    )
    with pytest.raises(Underdetermined) as sod_error:
        n_hyperplane_sod(profiles, ws)
    with pytest.raises(Underdetermined) as deep_error:
        deep_component(profiles, ws)
    assert str(sod_error.value) == str(deep_error.value) == message


@st.composite
def hyperplane_workspaces(draw):
    """n = 1..5 profiles over one rank, sometimes with one name listed twice,
    in a workspace of mixed declarations: disjoint groups (random ones, every
    (n - 1)-subset, all names or none), declared pair intersections (0 or
    symbolic inside a group, any value outside one, self-intersections
    included; every pair in the "declared" layout)."""
    n = draw(st.integers(1, 5))
    N = draw(st.integers(3, 6))
    profiles = [draw(profile_st(name=f"P{i}", N=N, max_m=3)) for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        source, target = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        profiles[target] = profiles[source]
    names = sorted({p.name for p in profiles})
    layout = draw(st.sampled_from(["none", "random", "leave-one-out", "all", "declared"]))
    if layout == "random" and len(names) > 1:
        groups = draw(st.lists(st.sets(st.sampled_from(names), min_size=2), max_size=3))
    elif layout == "leave-one-out":
        groups = [{p.name for p in profiles if p is not left_out} for left_out in profiles]
    else:
        groups = [names] if layout == "all" else []
    pairs = {}
    for a, b in itertools.combinations_with_replacement(names, 2):
        if layout == "declared" or draw(st.booleans()):
            shared = a != b and any({a, b} <= set(group) for group in groups)
            pairs[a, b] = draw(st.sampled_from([0, sym("x")]) if shared else primitive_exprs())
    ws = Workspace.build(
        symbols=SYMBOL_NAMES, categories=profiles, intersections=pairs, disjoint_sets=groups
    )
    return profiles, ws


def _outcome(construction, *args):
    """The value a construction returns, or the type and text of its error."""
    try:
        return construction(*args)
    except HpdcalcError as error:
        return type(error), str(error)


def _sod_values(result):
    return result.c_invariant, result.h_total, [b.invariant for b in result.sod.blocks]


def _self_pair():
    # P0 listed twice is no disjoint pair: it resolves through its declared
    # self-intersection, which its deep component exceeds the disjoint value by.
    x = sym("x")
    p = build_profile("P0", 5, [x + 1, 1])
    ws = Workspace.build(symbols=SYMBOL_NAMES, categories=[p], intersections={("P0", "P0"): x})
    return [p, p], ws


@example(_self_pair())
@settings(max_examples=200, deadline=None)
@given(hyperplane_workspaces())
def test_closed_form_matches_the_subset_walk(case):
    # Same value, or the same first error, as the inclusion-exclusion sum over
    # the depth-first subset walk, for the deep component and every block.
    profiles, ws = case
    deep = _outcome(deep_component, profiles, ws)
    assert deep == _outcome(ref_deep_component_walk, profiles, ws)
    sod = _outcome(lambda: _sod_values(n_hyperplane_sod(profiles, ws)))
    assert sod == _outcome(ref_n_hyperplane_walk, profiles, ws)


_JOIN_LINEAR_DEEP = {
    3: "12*x*x*x + 129*x*x + 456*x + 528",
    4: "20*x*x*x*x + 300*x*x*x + 1680*x*x + 4160*x + 3840",
}

# Per malformed workspace: the exit code of `check` on a file with
# main_theorem(A, B), main_theorem(B, C) and join_linear over every category,
# and the status of each row.
_CLI_OUTCOME = {
    "triangle": (3, ["underdetermined", "pass", "pass"]),
    "triple": (0, ["pass", "pass", "pass"]),
    "pairs": (3, ["pass", "underdetermined", "pass"]),
    "one-group": (0, ["pass", "pass", "pass"]),
}


@pytest.mark.parametrize("case", sorted(_CLI_OUTCOME))
def test_malformed_workspaces_through_join_linear_and_the_cli(case, tmp_path, capsys):
    # join_linear reads no workspace: it compares the join with the small duals
    # of its inputs, so the declarations above cannot reach it.
    profiles, ws = _malformed(case)
    result = check_join_linear(profiles)
    assert result.status == "pass"
    assert str(result.lhs) == str(result.rhs) == _JOIN_LINEAR_DEEP[len(profiles)]

    names = ", ".join(p.name for p in profiles)
    path = tmp_path / "malformed.hpd"
    path.write_text(
        print_canonical(ws)
        + f"check main_theorem(A, B);\ncheck main_theorem(B, C);\ncheck join_linear({names});\n",
        encoding="utf-8",
    )
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    expected_code, statuses = _CLI_OUTCOME[case]
    assert (code, err) == (expected_code, "")
    assert out.splitlines()[-1] == f"warning: {engine.SUBSET_READING_NOTE}"
    out = out.rsplit("\n", 2)[0]
    rows = [line.split(": ")[1].split(" ")[0] for line in out.splitlines()]
    assert rows == statuses


# -- joins ---------------------------------------------------------------------


def test_ruled_join_fixed_values():
    comps = ruled_join_components(gr25(), renamed(gr25(), "Gr25g"))
    assert len(comps) == 10
    assert all(c == 4 for c in comps)

    p1, p2 = point("p1", 2), point("p2", 2)
    assert ruled_join_components(p1, p2) == [const(1), const(1)]

    zero = build_profile("Z", 10, [0, 0])
    assert all(c == 0 for c in ruled_join_components(gr25(), zero))

    with pytest.raises(AmbientMismatch):
        ruled_join_components(point("a", 3), point("b", 4))


@given(profile_pairs(), assignments())
def test_ruled_join_matches_integer_reference(pair, assignment):
    p, q = pair
    comps = ruled_join_components(p, q)
    p_vals, q_vals = primitive_values(p, assignment), primitive_values(q, assignment)
    for i, comp in enumerate(comps):
        assert comp.evaluate(assignment) == ref_ruled_join(p_vals, q_vals, i)


@given(profile_pairs())
def test_ruled_join_total_closed_form(pair):
    p, q = pair
    total = sum(ruled_join_components(p, q), InvariantExpr.const(0))
    closed = p.total_invariant() * q.component_rank(0) + p.component_rank(0) * q.total_invariant()
    assert total == closed


def test_flat_join_three_points():
    points = [point(f"p{i}", 4) for i in range(3)]
    comps = n_join_components(points)
    assert comps == [const(1), const(1), const(1)]


@given(profile_pairs())
def test_flat_join_two_equals_ruled(pair):
    assert n_join_components(list(pair)) == ruled_join_components(*pair)


@given(profile_st())
def test_flat_join_one_is_component_ranks(p):
    assert n_join_components([p]) == p.component_ranks()


def test_flat_join_requires_disjointness_declaration():
    p, q = point("A", 5), point("B", 5)
    bare = Workspace.build(categories=[p, q])
    with pytest.raises(MissingDisjointness):
        n_join_profile([p, q], bare)
    declared = Workspace.build(categories=[p, q], disjoint_sets=[("A", "B")])
    assert n_join_profile([p, q], declared) == ruled_join_components(p, q)


def test_join_fixed_rank_ten_pair():
    p, q = gr25(), renamed(gr25(), "Gr25g")
    result = join_components(p, q, E)
    assert all(jp == 0 for jp in result.jprime)
    assert result.e_invariant == E
    assert len(result.components) == 9
    assert all(c == E for c in result.components)
    assert result.total == 9 * E
    assert result.total == result.conserved_total()

    sod = result.to_sod()
    assert [b.twist for b in sod.blocks] == list(range(9))
    assert sod.total() == 9 * E


def test_join_two_points_in_rank_three():
    # Components run i = 0..N-2; for N = 3 the join of two points is the
    # two-block line, and nothing survives past the last slot.
    result = join_components(point("a"), point("b"), 0)
    assert list(result.components) == [const(1), const(1)]


@given(profile_pairs(max_m=3))
def test_join_disjoint_small_reduces_to_ruled(pair):
    p, q = pair
    if p.length_m + q.length_m > p.ambient_rank_N - 1:
        return
    result = join_components(p, q, 0)
    jbar = ruled_join_components(p, q)
    padded = jbar + [InvariantExpr.const(0)] * (p.ambient_rank_N - 1 - len(jbar))
    assert list(result.components) == padded


@given(profile_pairs(), assignments())
def test_join_commutes(pair, assignment):
    p, q = pair
    left = join_components(p, q, E)
    right = join_components(q, p, E)
    assert left.components == right.components
    assert left.total == right.total


@given(profile_pairs())
def test_join_conservation_identity(pair):
    p, q = pair
    result = join_components(p, q, E)
    assert result.total == result.conserved_total()


def test_join_boundary_mutation_breaks_conservation():
    p, q = gr25(), renamed(gr25(), "Gr25g")
    mutated = join_components(p, q, E, include_boundary_pairs=True)
    assert all(c == E + 4 for c in mutated.components)
    assert mutated.total != mutated.conserved_total()


def test_join_profile_resolves_intersection_from_workspace():
    p, q = gr25(), renamed(gr25(), "Gr25g")
    ws = Workspace.build(symbols=["e"], categories=[p, q], intersections={("Gr25", "Gr25g"): E})
    assert join_profile(p, q, ws).total == 9 * E

    bare = Workspace.build(categories=[p, q])
    with pytest.raises(UnresolvedIntersection):
        join_profile(p, q, bare)


@given(st.data())
def test_iterated_join_equals_flat_formula(data):
    # Disjoint triples with enough ambient room: the two-step join must agree
    # with the one-shot formula, checked entry by entry.
    m_list = [data.draw(st.integers(1, 2), label=f"m{i}") for i in range(3)]
    total_m = sum(m_list)
    N = data.draw(st.integers(total_m + 1, 9), label="N")
    profiles = [
        build_profile(
            f"P{i}",
            N,
            [data.draw(st.integers(0, 3), label=f"prim{i}.{j}") for j in range(m_list[i])],
        )
        for i in range(3)
    ]
    first = join_components(profiles[0], profiles[1], 0)
    merged = profile_from_components("P01", N, first.components)
    second = join_components(merged, profiles[2], 0)

    flat = n_join_components(profiles)
    for i, value in enumerate(second.components):
        expected = flat[i] if i < len(flat) else InvariantExpr.const(0)
        assert value == expected


@given(st.data(), assignments())
def test_flat_join_matches_exhaustive_enumeration(data, assignment):
    n = data.draw(st.integers(1, 6), label="n")
    N = data.draw(st.integers(5, 9), label="N")
    profiles = []
    for i in range(n):
        m = data.draw(st.integers(1, 4), label=f"m{i}")
        prims = [data.draw(primitive_exprs(), label=f"prim{i}.{j}") for j in range(m)]
        profiles.append(build_profile(f"P{i}", N, prims))
    prim_lists = [primitive_values(p, assignment) for p in profiles]
    comps = n_join_components(profiles)
    assert len(comps) == sum(p.length_m for p in profiles)
    for i, comp in enumerate(comps):
        assert comp.evaluate(assignment) == ref_flat_join(prim_lists, i)


@given(profile_pairs(), assignments())
def test_join_refined_parts_match_integer_window(pair, assignment):
    p, q = pair
    N = p.ambient_rank_N
    p_vals, q_vals = primitive_values(p, assignment), primitive_values(q, assignment)
    for boundary, upper in ((False, N - 3), (True, N - 2)):
        result = join_components(p, q, E, include_boundary_pairs=boundary)
        assert len(result.jprime) == N - 1
        for i, jp in enumerate(result.jprime):
            assert jp.evaluate(assignment) == ref_join_window(p_vals, q_vals, i, upper)


def test_flat_join_multiplications_scale_with_output(monkeypatch):
    # One index-sum pass: at most n * m * L products, not one per index tuple
    # and component.
    x = sym("x")
    profiles = [build_profile(f"P{i}", 5, [x, 1, x + 1, 2]) for i in range(6)]
    calls = count_calls(monkeypatch, InvariantExpr, "__mul__")
    comps = n_join_components(profiles)
    assert len(comps) == 24
    assert len(calls) <= 6 * 24 * 4


def test_flat_join_canonicalizes_once_per_index_sum(monkeypatch):
    # Companion to the guard above, which counts `*`: the convolutions collect
    # one term dict per output index sum (7 + 10 + 13 + 16 + 19). The 18 tail
    # sums collect nothing: an addition deletes a cancelled term in place.
    x = sym("x")
    profiles = [build_profile(f"P{i}", 5, [x, 1, x + 1, 2]) for i in range(6)]
    collected = count_calls(monkeypatch, poly, "_collected")
    comps = n_join_components(profiles)
    assert len(comps) == 24
    assert len(collected) == 65


def test_checks_build_no_blocks(monkeypatch):
    # main_theorem compares a deep component, join_linear the join's duality
    # total with the small duals: neither builds a block.
    p, q = gr25(), renamed(gr25(), "Gr25g")
    pair = Workspace.build(symbols=["e"], categories=[p, q], intersections={("Gr25", "Gr25g"): E})
    parts = [build_profile(f"P{i}", 4, [1, sym("x"), 2]) for i in range(4)]
    built = count_calls(monkeypatch, engine, "SodBlock")
    results = [check_main_theorem(p, q, pair), check_join_linear(parts)]
    assert [r.status for r in results] == ["pass", "pass"]
    assert built == []


def test_join_linear_builds_no_workspace_and_no_deep_component(monkeypatch):
    # Over the split ambient space the deep component is the join of the small
    # duals (test_split_deep_component_is_the_join_of_small_duals), so the
    # check does not build it.
    parts = [build_profile(f"P{i}", 4, [1, sym("x"), 2]) for i in range(4)]
    built = count_calls(monkeypatch, Workspace, "build")
    deep = count_calls(monkeypatch, engine, "deep_component")
    deep_in_checks = count_calls(monkeypatch, checks, "deep_component")
    assert check_join_linear(parts).status == "pass"
    assert built == deep == deep_in_checks == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_deep_component_is_the_join_of_small_duals(data):
    # With N the sum of the ranks N_k and every input regarded over P(N) in one
    # disjoint group, the deep component equals sum_k hpd_total(p_k) times the
    # other inputs' component 0, and the subset walk agrees.
    n = data.draw(st.integers(2, 4), label="n")
    profiles = [
        data.draw(
            profile_st(name=f"A{k}", N=data.draw(st.integers(2, 4), label=f"N{k}"), max_m=3),
            label=f"p{k}",
        )
        for k in range(n)
    ]
    N = sum(p.ambient_rank_N for p in profiles)
    enlarged = [
        build_profile(f"part{k}", N, p.primitive_right, p.primitive_left)
        for k, p in enumerate(profiles)
    ]
    split_ws = Workspace.build(categories=enlarged, disjoint_sets=[[p.name for p in enlarged]])
    _, rhs = engine._leave_one_out(
        [p.component_rank(0) for p in profiles], [hpd_total(p) for p in profiles]
    )
    deep = deep_component(enlarged, split_ws)
    assert deep == rhs == ref_deep_component_walk(enlarged, split_ws)


def _six_disjoint_triples():
    names = [f"P{i}" for i in range(6)]
    profiles = [build_profile(name, 8, [1, 0, 1]) for name in names]
    return profiles, Workspace.build(categories=profiles, disjoint_sets=[names])


def test_n_hyperplane_resolves_each_subset_once(monkeypatch):
    # Only the full set is resolved: every proper subset of one disjoint group
    # takes the disjointness formula, which the closed form folds in.
    profiles, ws = _six_disjoint_triples()
    calls = count_calls(monkeypatch, engine, "_excess")
    result = n_hyperplane_sod(profiles, ws)
    assert len(result.sod.blocks) == 3**6
    assert len(calls) == 1


def test_n_hyperplane_builds_only_the_returned_blocks(monkeypatch):
    # Inner subsets contribute their deep components, never blocks.
    profiles, ws = _six_disjoint_triples()
    built = count_calls(monkeypatch, engine, "SodBlock")
    result = n_hyperplane_sod(profiles, ws)
    assert len(built) == len(result.sod.blocks) == 3**6


def test_n_hyperplane_skips_products_for_length_one_factors(monkeypatch):
    # A length-one profile has no component k >= 1, so a kept subset whose
    # complement holds one has no blocks. The 57 resolved totals need most of
    # the products; multiplying by those zero sums would need about 1650.
    x = sym("x")
    lengths = (2, 2, 1, 1, 1, 1)
    profiles = [
        build_profile(f"P{i}", 14, [x + 1] * (m - 1) + [2 * x + 1]) for i, m in enumerate(lengths)
    ]
    ws = Workspace.build(categories=profiles, disjoint_sets=[[p.name for p in profiles]])
    calls = count_calls(monkeypatch, InvariantExpr, "__mul__")
    result = n_hyperplane_sod(profiles, ws)
    assert len(result.sod.blocks) == 4
    assert len(calls) <= 300


@pytest.mark.parametrize("copies", [1, 2])
def test_deep_component_multiplies_linearly_in_n(copies, monkeypatch):
    # 3 products per profile for the closed form and 1 for its N factor:
    # 3n + 1, where the inclusion-exclusion sum needs products over subsets.
    # The disjoint set's excess is 0 and costs none.
    x = sym("x")
    lengths = (2, 2, 1, 1, 1, 1) * copies
    profiles = [
        build_profile(f"P{i}", 14 * copies, [x + 1] * (m - 1) + [2 * x + 1])
        for i, m in enumerate(lengths)
    ]
    ws = Workspace.build(categories=profiles, disjoint_sets=[[p.name for p in profiles]])
    calls = count_calls(monkeypatch, InvariantExpr, "__mul__")
    monkeypatch.setattr(InvariantExpr, "__rmul__", InvariantExpr.__mul__)
    deep = deep_component(profiles, ws)
    assert len(calls) == 3 * len(profiles) + 1
    monkeypatch.undo()
    expected = ref_deep_component_walk(profiles, ws)
    assert deep == expected == n_hyperplane_sod(profiles, ws).c_invariant


# -- refined blow-up ------------------------------------------------------------


def test_refined_blowup_branches():
    p = build_profile("A", 6, [2, 1])

    empty = refined_blowup_profile(p, 4, 0)
    assert empty.c_l_invariant == 0
    assert list(empty.components) == [const(3), const(1), const(0)]
    assert empty.ambient_rank == 4

    z = sym("z")
    nonempty = refined_blowup_profile(p, 4, z)
    assert nonempty.c_l_invariant == z
    assert list(nonempty.components) == [3 + z, 1 + z, z]


def test_refined_blowup_validates_inputs():
    p = build_profile("A", 6, [2, 1])
    with pytest.raises(UnresolvedBaseLocus):
        refined_blowup_profile(p, 4, None)
    with pytest.raises(ValueError):
        refined_blowup_profile(p, 1, 0)
    with pytest.raises(ValueError):
        refined_blowup_profile(p, 7, 0)


def test_refined_blowup_reproduces_join_step():
    p, q = gr25(), renamed(gr25(), "Gr25g")
    jbar = ruled_join_components(p, q)
    ruled = profile_from_components("RJ", 20, jbar)
    clipped = refined_blowup_profile(ruled, 10, E)
    join = join_components(p, q, E)
    assert clipped.components == join.components
    assert clipped.c_l_invariant == join.e_invariant


@given(profile_pairs(max_m=3))
def test_refined_blowup_matches_join_internals(pair):
    p, q = pair
    N = p.ambient_rank_N
    jbar = ruled_join_components(p, q)
    ruled = profile_from_components("RJ", 2 * N, jbar)
    clipped = refined_blowup_profile(ruled, N, E)
    join = join_components(p, q, E)
    assert clipped.components == join.components


# -- profile reconstruction -----------------------------------------------------


def test_profile_from_components_reconstructs():
    p = gr25()
    rebuilt = profile_from_components("Gr25", 10, p.component_ranks())
    assert rebuilt == p

    stripped = profile_from_components("S", 5, [2, 1, 0, 0])
    assert stripped.length_m == 2
