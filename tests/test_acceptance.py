"""Release acceptance gate.

One test per numbered criterion, in order. Every comparison is exact (integer
polynomial equality); the only tolerances are the stated runtime budgets.
Each test prints one `ACCEPTANCE n: PASS` line on success; under `pytest -v`
the per-test PASSED/FAILED lines give the same one-line-per-criterion view.
"""

import random
import time

import pytest

from hpdcalc import catalog
from hpdcalc.checks import check_main_theorem, check_thm_cone_part1, check_thm_cone_part2
from hpdcalc.dsl import parse, print_canonical, validate
from hpdcalc.engine import (
    hpd_total,
    join_components,
    join_profile,
    n_hyperplane_sod,
    projective_bundle_sod,
)
from hpdcalc.errors import HpdcalcError
from hpdcalc.model import Workspace, build_profile
from hpdcalc.poly import parse_expr
from hpdcalc.prop import run_property

E = parse_expr("e")


def _report(criterion, label):
    print(f"ACCEPTANCE {criterion}: PASS - {label}")


def _timed(limit_seconds):
    start = time.perf_counter()

    def check(label):
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, f"{label} took {elapsed:.2f}s (limit {limit_seconds}s)"

    return check


def _gr25_pair():
    ws = validate(
        parse(
            "symbol e;"
            "category Gr25 over P(10) primitive [0,0,0,0,2];"
            "category Gr25g over P(10) primitive [0,0,0,0,2];"
            "intersect Gr25, Gr25g over P(10) = e;"
        )
    )
    return ws.category("Gr25"), ws.category("Gr25g"), ws


def test_criterion_1_gr25_join_reproduction():
    deadline = _timed(1.0)
    p, q, ws = _gr25_pair()
    join = join_profile(p, q, ws)
    # Nine components, all equal to the intersection invariant; every refined
    # part vanishes because no index pair reaches the cutoff.
    assert join.components == (E,) * 9
    assert all(jp == 0 for jp in join.jprime)
    report, matched, notes = catalog.compare_case("gr25-join")
    assert matched, notes
    blocks = report["sods"][0]["blocks"]
    assert [b["invariant"] for b in blocks] == ["e"] * 9
    deadline("gr25 join reproduction")
    _report(1, "join of the Gr(2,5) pair is nine components of e")


def test_criterion_2_main_theorem_identity_on_gr25():
    deadline = _timed(1.0)
    p, q, ws = _gr25_pair()
    result = check_main_theorem(p, q, ws)
    assert result.status == "pass"
    assert result.lhs == E and result.rhs == E

    # Route 1: duality total of the nine e-components: 9*9e - 10*8e = e.
    assert 9 * (9 * E) - 10 * (8 * E) == E
    # Route 2: the double-hyperplane total e + 800 loses 80 + 80 + 640 to the
    # non-deep blocks, leaving e.
    pair = n_hyperplane_sod([p, q], ws)
    assert pair.h_total == parse_expr("e + 800")
    assert pair.c_invariant == E
    invariants = [block.invariant for block in pair.sod.blocks]
    assert len(invariants) == 25
    assert invariants[0] == E
    assert sum(v.constant_value() for v in invariants[1:9]) == 160
    assert sum(v.constant_value() for v in invariants[9:]) == 640
    deadline("main theorem identity")
    _report(2, "duality identity e = e on both derivation routes")


def test_criterion_3_duality_totals_against_the_bundle_oracle():
    gr25 = build_profile("Gr25", 10, [0, 0, 0, 0, 2])
    assert hpd_total(gr25) == 10
    for rank in range(2, 10):
        point = build_profile("pt", rank, [1])
        # Hyperplanes through a point form a projective space of one lower
        # rank: a bundle with rank - 1 twists of an invariant-1 block.
        oracle = projective_bundle_sod("pt", 1, rank - 1).total()
        assert hpd_total(point) == oracle == rank - 1
    _report(3, "dual totals: Gr(2,5) gives 10, points give N - 1")


def test_criterion_4_conservation_suite_1000_cases():
    deadline = _timed(30.0)
    outcome = run_property(
        "conservation", seed=1, cases=1000, max_length=5, max_rank=9, max_symbols=2
    )
    assert outcome.passed and outcome.passes == 1000
    deadline("conservation suite")
    _report(4, "1000 seeded cases: closed-form totals and join conservation")


def test_criterion_5_join_laws_500_triples():
    deadline = _timed(30.0)
    outcome = run_property("join-laws", seed=1, cases=500)
    assert outcome.passed and outcome.passes == 500
    deadline("join-law suite")
    _report(5, "500 disjoint triples: flat, reordered, and nested joins agree")


def test_criterion_6_splitting_identities_500_cases_plus_fixtures():
    deadline = _timed(30.0)
    outcome = run_property("splitting", seed=1, cases=500)
    assert outcome.passed and outcome.passes == 500

    ws = Workspace.build()
    point = build_profile("pt", 3, [1])
    assert check_thm_cone_part1(point, 2, ws).lhs == 4
    assert check_thm_cone_part2(point, 2).lhs == 2
    gr25 = build_profile("Gr25", 10, [0, 0, 0, 0, 2])
    enlarged = check_thm_cone_part1(gr25, 3, ws)
    assert enlarged.status == "pass"
    assert enlarged.lhs == 16 and enlarged.rhs == 16
    deadline("splitting suite")
    _report(6, "ambient-splitting identities, including the 16 = 16 fixture")


def test_criterion_7_negative_controls_have_teeth():
    mutated = run_property("conservation", seed=1, cases=1000, mutate_join_bound=True)
    assert not mutated.passed
    failure = mutated.failure
    assert failure.detail == "join conservation"
    assert (failure.lhs - failure.rhs).evaluate(failure.witness) != 0

    p, q, ws = _gr25_pair()
    corrupted = join_components(p, q, E, include_boundary_pairs=True)
    assert corrupted.components == (parse_expr("e + 4"),) * 9
    broken = check_main_theorem(p, q, ws, include_boundary_pairs=True)
    assert broken.status == "fail"
    assert broken.witness is not None
    assert (broken.lhs - broken.rhs).evaluate(broken.witness) != 0
    _report(7, "flipped refined-pair bound fails with reported witnesses")


def _strip_comments(src):
    # Mutations must land in code, not prose, to guarantee the file breaks.
    return "\n".join(line.split("#", 1)[0] for line in src.splitlines())


def _breaking_mutations():
    def stray_character(src, rng):
        loc = src.index(";", rng.randrange(len(src) // 2))
        return src[:loc] + "$" + src[loc:]

    def drop_last_semicolon(src, rng):
        loc = src.rindex(";")
        return src[:loc] + src[loc + 1 :]

    def mangle_keyword(src, rng):
        return src.replace("category", "categry", 1)

    def shrink_rank(src, rng):
        loc = src.index("P(")
        close = src.index(")", loc)
        return src[: loc + 2] + "1" + src[close:]

    def undeclared_reference(src, rng):
        return src + "\ncheck dual_profile(Missing);\n"

    return [stray_character, drop_last_semicolon, mangle_keyword, shrink_rank, undeclared_reference]


def test_criterion_8_round_trip_and_seeded_malformed_inputs():
    sources = [catalog.case_source(name) for name in catalog.case_names()]
    for source in sources:
        ws = validate(parse(source))
        canonical = print_canonical(ws)
        again = validate(parse(canonical))
        assert again == ws
        assert print_canonical(again) == canonical

    rng = random.Random(20260814)
    stripped = [_strip_comments(source) for source in sources]
    mutations = _breaking_mutations()
    for index in range(10):
        source = rng.choice(stripped)
        corrupted = rng.choice(mutations)(source, rng)
        assert corrupted != source
        with pytest.raises(HpdcalcError) as excinfo:
            validate(parse(corrupted))
        span = excinfo.value.span
        assert span is not None, f"malformed input {index} lost its span"
        line, column = span
        assert line >= 1 and column >= 1
    _report(8, "canonical round-trip fixed point; 10 malformed inputs carry spans")
