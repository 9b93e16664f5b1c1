"""Check-level tests: frozen numeric cases for each theorem identity, negative
controls that must fail with witnesses, and randomized symbolic sweeps."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpdcalc.checks import (
    check_dual_profile,
    check_join_linear,
    check_main_theorem,
    check_n_hpd_center,
    check_thm_cone_part1,
    check_thm_cone_part2,
    find_witness,
)
from hpdcalc.errors import JoinNotModerate, MissingDisjointness
from hpdcalc.model import Workspace, build_profile
from hpdcalc.poly import InvariantExpr, const, sym

from support import profile_st, ref_find_witness

E = sym("e")


def gr25(name="Gr25"):
    return build_profile(name, 10, [0, 0, 0, 0, 2])


def point(name="pt", N=3):
    return build_profile(name, N, [1])


def pair_workspace(p, q, e=None, disjoint=False):
    return Workspace.build(
        symbols=[s for s in (e.symbols() if e is not None else ())],
        categories=[p, q],
        intersections={} if e is None else {(p.name, q.name): e},
        disjoint_sets=[(p.name, q.name)] if disjoint else [],
    )


# -- witness search -------------------------------------------------------------


def test_find_witness_separates_constants():
    assert find_witness(const(3), const(5)) == {}


def test_find_witness_small_box():
    x = sym("x")
    w = find_witness(x * x, x)
    assert (w["x"] ** 2) != w["x"]


def test_find_witness_widens_beyond_default_box():
    x = sym("x")
    vanishing_on_box = const(1)
    for k in range(6):
        vanishing_on_box = vanishing_on_box * (x - k)
    w = find_witness(vanishing_on_box, const(0))
    assert w["x"] == 6


def test_find_witness_rejects_equal_inputs():
    with pytest.raises(ValueError):
        find_witness(sym("x"), sym("x"))


def test_find_witness_is_sorted_and_zero_off_the_difference():
    lhs = sym("z") * sym("b") + sym("m")
    rhs = sym("m")
    w = find_witness(lhs, rhs)
    assert list(w) == sorted(w)
    assert w == {"b": 1, "m": 0, "z": 1}


def test_find_witness_fixes_one_symbol_at_a_time(monkeypatch):
    # A box scan needs 6^39 evaluations before it reaches the all-ones point;
    # the construction evaluates once, to confirm its result.
    budget = [1]
    evaluate = InvariantExpr.evaluate

    def counted(self, assignment):
        budget[0] -= 1
        if budget[0] < 0:
            raise AssertionError("find_witness evaluated the difference too often")
        return evaluate(self, assignment)

    monkeypatch.setattr(InvariantExpr, "evaluate", counted)
    names = [f"x{i}" for i in range(1, 41)]
    product = const(7)
    for name in names:
        product = product * sym(name)
    assert find_witness(product, const(0)) == {name: 1 for name in sorted(names)}


SMALL_SYMBOLS = ("a", "b", "c", "d")


@st.composite
def witness_polys(draw):
    """Polynomials in up to four symbols, some multiplied by (s - 0)...(s - j)
    so that they vanish on the default box along s and need B > 5."""
    expr = const(draw(st.integers(-3, 3)))
    for _ in range(draw(st.integers(0, 3))):
        term = const(draw(st.integers(-3, 3)))
        for name in draw(st.lists(st.sampled_from(SMALL_SYMBOLS), max_size=3)):
            term = term * sym(name)
        expr = expr + term
    if draw(st.booleans()):
        name = draw(st.sampled_from(SMALL_SYMBOLS))
        for k in range(draw(st.integers(1, 7))):
            expr = expr * (sym(name) - k)
    return expr


@settings(deadline=None)
@given(witness_polys(), witness_polys())
def test_find_witness_matches_the_box_scan(lhs, rhs):
    assume(lhs != rhs)
    w = find_witness(lhs, rhs)
    assert w == ref_find_witness(lhs, rhs)
    assert list(w) == sorted(w)


# -- main theorem ----------------------------------------------------------------


def test_main_theorem_rank_ten_pair():
    p, q = gr25(), gr25("Gr25g")
    ws = pair_workspace(p, q, e=E)
    result = check_main_theorem(p, q, ws)
    assert result.status == "pass"
    assert result.lhs == E
    assert result.rhs == E
    assert result.witness is None


def test_main_theorem_disjoint_points():
    p, q = point("A"), point("B")
    ws = pair_workspace(p, q, disjoint=True)
    result = check_main_theorem(p, q, ws)
    assert result.status == "pass"
    assert result.lhs == 1
    assert result.rhs == 1


def test_main_theorem_symmetric():
    p, q = build_profile("A", 6, [1, 2]), build_profile("B", 6, [3])
    ws = pair_workspace(p, q, e=E)
    left = check_main_theorem(p, q, ws)
    right = check_main_theorem(q, p, ws)
    assert left.lhs == right.lhs
    assert left.rhs == right.rhs
    assert left.status == right.status == "pass"


def test_main_theorem_negative_control():
    p, q = gr25(), gr25("Gr25g")
    ws = pair_workspace(p, q, e=E)
    result = check_main_theorem(p, q, ws, include_boundary_pairs=True)
    assert result.status == "fail"
    assert result.witness is not None
    gap = result.lhs.evaluate(result.witness) - result.rhs.evaluate(result.witness)
    assert gap != 0


@given(st.data())
def test_main_theorem_random_disjoint_pairs(data):
    N = data.draw(st.integers(2, 7), label="N")
    p = data.draw(profile_st(name="A", N=N, max_m=3), label="p")
    q = data.draw(profile_st(name="B", N=N, max_m=3), label="q")
    ws = pair_workspace(p, q, disjoint=True)
    assert check_main_theorem(p, q, ws).status == "pass"


@given(st.data())
def test_main_theorem_random_symbolic_intersection(data):
    N = data.draw(st.integers(2, 7), label="N")
    p = data.draw(profile_st(name="A", N=N, max_m=3), label="p")
    q = data.draw(profile_st(name="B", N=N, max_m=3), label="q")
    ws = pair_workspace(p, q, e=E)
    assert check_main_theorem(p, q, ws).status == "pass"


# -- center and length of the joined dual ----------------------------------------


def test_center_two_points_without_duals():
    p, q = point("A", 4), point("B", 4)
    ws = pair_workspace(p, q, disjoint=True)
    result = check_n_hpd_center([p, q], ws)
    assert result.status == "pass"
    assert result.lhs == 1
    assert any("underdetermined" in note for note in result.notes)


def test_center_rank_ten_pair_with_declared_duals():
    p, q = gr25(), gr25("Gr25g")
    ws = Workspace.build(
        categories=[p, q],
        disjoint_sets=[("Gr25", "Gr25g")],
        dual_profiles={"Gr25": gr25(), "Gr25g": gr25("Gr25g")},
    )
    result = check_n_hpd_center([p, q], ws)
    assert result.status == "pass"
    assert result.lhs == 4
    assert result.rhs == 4
    assert any("length of the joined dual: 10" in note for note in result.notes)


def test_center_single_profile_with_corrupt_dual_fails():
    p = gr25()
    bad_dual = build_profile("Gr25", 10, [1, 0, 0, 0, 2])
    ws = Workspace.build(categories=[p], dual_profiles={"Gr25": bad_dual})
    result = check_n_hpd_center([p], ws)
    assert result.status == "fail"
    assert result.witness == {}


def test_center_requires_disjointness():
    p, q = point("A", 4), point("B", 4)
    ws = Workspace.build(categories=[p, q])
    with pytest.raises(MissingDisjointness):
        check_n_hpd_center([p, q], ws)


# -- ambient extension (cone) ------------------------------------------------------


def test_cone_part1_point():
    p = point("pt", 2)
    ws = Workspace.build(categories=[p])
    result = check_thm_cone_part1(p, 2, ws)
    assert result.status == "pass"
    assert result.lhs == 3
    assert result.rhs == 3


def test_cone_part1_rank_ten():
    ws = Workspace.build(categories=[gr25()])
    result = check_thm_cone_part1(gr25(), 3, ws)
    assert result.status == "pass"
    assert result.lhs == 16


def test_cone_part2_point():
    p = point("pt", 2)
    result = check_thm_cone_part2(p, 1)
    assert result.status == "pass"
    assert result.lhs == 1
    assert result.rhs == 1


def test_cone_part2_rank_ten():
    result = check_thm_cone_part2(gr25(), 2)
    assert result.status == "pass"
    assert result.lhs == 10


def test_cone_part2_guards_join_length():
    # Unreachable for moderate inputs (length < own rank), so only a
    # non-moderate profile can trip the guard.
    p = build_profile("A", 3, [1, 1, 1], allow_nonmoderate=True)
    with pytest.raises(JoinNotModerate):
        check_thm_cone_part2(p, 1)


@given(st.data())
def test_cone_parts_random(data):
    N1 = data.draw(st.integers(2, 6), label="N1")
    N2 = data.draw(st.integers(1, 5), label="N2")
    p = data.draw(profile_st(name="A", N=N1, max_m=5), label="p")
    ws = Workspace.build(categories=[p])
    assert check_thm_cone_part1(p, N2, ws).status == "pass"
    assert check_thm_cone_part2(p, N2).status == "pass"


# -- linear splitting --------------------------------------------------------------


def test_join_linear_two_points():
    p, q = point("A", 2), point("B", 2)
    result = check_join_linear([p, q])
    assert result.status == "pass"
    assert result.lhs == 2
    assert result.rhs == 2
    assert any("agrees" in note for note in result.notes)


def test_join_linear_rank_ten_plus_point():
    p, q = gr25(), point("pt", 2)
    result = check_join_linear([p, q])
    assert result.status == "pass"
    assert result.lhs == 12


def test_join_linear_single_input():
    result = check_join_linear([gr25()])
    assert result.status == "pass"
    assert result.lhs == 10


@given(st.data())
def test_join_linear_random(data):
    n = data.draw(st.integers(1, 3), label="n")
    profiles = [
        data.draw(
            profile_st(name=f"A{i}", N=data.draw(st.integers(2, 5), label=f"N{i}"), max_m=3),
            label=f"p{i}",
        )
        for i in range(n)
    ]
    assert check_join_linear(profiles).status == "pass"


# -- dual profile validation --------------------------------------------------------


def test_dual_profile_self_dual():
    result = check_dual_profile(gr25(), gr25())
    assert result.status == "pass"
    assert all("fail" not in note for note in result.notes)


def test_dual_profile_corrupted_center():
    corrupted = build_profile("Gr25d", 10, [1, 0, 0, 0, 2])
    result = check_dual_profile(gr25(), corrupted)
    assert result.status == "fail"
    assert result.witness == {}
    assert any("fail" in note for note in result.notes)


@given(st.data())
def test_dual_profile_rectangular_family(data):
    # Rectangular data is closed under duality: length m with constant
    # component c over rank N pairs with length N - m at the same c.
    N = data.draw(st.integers(3, 9), label="N")
    m = data.draw(st.integers(1, N - 1), label="m")
    c = data.draw(st.integers(1, 4), label="c")
    p = build_profile("R", N, [0] * (m - 1) + [c])
    dual = build_profile("Rd", N, [0] * (N - m - 1) + [c])
    result = check_dual_profile(p, dual)
    assert result.status == "pass"
