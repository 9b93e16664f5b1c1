"""Property-suite driver tests: determinism, bounds, and the mutation control."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from support import assignments, primitive_values, profile_st, ref_flat_join

from hpdcalc import prop
from hpdcalc.cli import main
from hpdcalc.model import build_profile
from hpdcalc.poly import parse_expr
from hpdcalc.prop import (
    MAX_LENGTH_CAP,
    MAX_RANK_CAP,
    MAX_SYMBOLS_CAP,
    PROPERTY_NAMES,
    _Bounds,
    _draw_invariant,
    _draw_profile,
    _draw_symbols,
    _oracle_flat_join,
    run_property,
    run_suite,
)


def test_every_named_property_passes_on_a_short_run():
    report = run_suite(seed=1, cases=60)
    assert report.all_passed()
    assert [o.name for o in report.outcomes] == list(PROPERTY_NAMES)
    assert all(o.passes == 60 for o in report.outcomes)


def test_zero_cases_is_a_trivial_pass():
    report = run_suite(seed=5, cases=0)
    assert report.all_passed()
    rows = report.check_rows()
    assert all(row["status"] == "pass" for row in rows)
    assert all("0/0 cases passed" in row["notes"][0] for row in rows)


def test_reports_are_deterministic_for_a_seed():
    first = run_suite(seed=42, cases=40).check_rows()
    second = run_suite(seed=42, cases=40).check_rows()
    assert json.dumps(first, sort_keys=False) == json.dumps(second, sort_keys=False)


def test_rows_match_the_report_schema():
    row = run_property("conservation", seed=3, cases=5).to_json_dict()
    assert list(row) == ["name", "lhs", "rhs", "status", "witness", "notes"]
    assert row["name"] == "prop:conservation"
    assert row["status"] == "pass"
    assert row["witness"] is None


def test_flipped_join_bound_fails_conservation_with_witness():
    clean = run_property("conservation", seed=1, cases=200)
    assert clean.passed
    mutated = run_property("conservation", seed=1, cases=200, mutate_join_bound=True)
    assert not mutated.passed
    failure = mutated.failure
    assert failure.detail == "join conservation"
    gap = failure.lhs - failure.rhs
    assert gap.evaluate(failure.witness) != 0
    row = mutated.to_json_dict()
    assert row["status"] == "fail"
    assert row["witness"] == failure.witness
    assert any("first counterexample" in note for note in row["notes"])


def test_a_swapped_join_component_fails_join_laws_with_a_witness(tmp_path, capsys, monkeypatch):
    # Swapping the last two components of a three-input join keeps their sum,
    # so only a component-by-component comparison can name a witness.
    real = prop.n_join_components

    def swapped(profiles):
        components = real(profiles)
        if len(profiles) == 3:
            components[-2], components[-1] = components[-1], components[-2]
        return components

    monkeypatch.setattr(prop, "n_join_components", swapped)
    report_path = tmp_path / "swapped.json"
    assert main(["prop", "--seed", "1", "--cases", "20", "--json", str(report_path)]) == 1
    assert capsys.readouterr().err == ""
    row = json.loads(report_path.read_text())["checks"][1]
    assert row["name"] == "prop:join-laws"
    assert row["status"] == "fail"
    assert re.search(r"first counterexample at case \d+: .*, component \d+$", row["notes"][-1])
    lhs, rhs = parse_expr(row["lhs"]), parse_expr(row["rhs"])
    assert lhs.evaluate(row["witness"]) != rhs.evaluate(row["witness"])


def test_prop_report_bytes_are_pinned(tmp_path, capsys):
    """`prop --seed 1 --cases 100 --json PATH` prints and writes exactly these
    bytes. The digests were recorded from the code as it stood before the
    arithmetic operators built their results through the trusted canonical
    constructor; a change to either digest is a change to the report."""
    report_path = tmp_path / "prop.json"
    assert main(["prop", "--seed", "1", "--cases", "100", "--json", str(report_path)]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "02a52fdca16ea656b251be500e1ca27e4b3b37ddd03d141ac47970e3bcede5ae"
    )
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == (
        "10af34712d817f8a36c35cbb6e50b18999ea095f710c88218d4d70b4584eadfb"
    )


def test_failing_prop_report_bytes_are_pinned(tmp_path, capsys):
    """`prop --seed 1 --cases 150 --mutate-join-bound --json PATH` prints and
    writes exactly these bytes. A failing report names the case index, both
    sides, the witness and the pass counts, so a change to the random draw
    stream changes it even where every suite still passes."""
    report_path = tmp_path / "prop.json"
    argv = ["prop", "--seed", "1", "--cases", "150", "--mutate-join-bound", "--json"]
    assert main([*argv, str(report_path)]) == 1
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "472927f981b4bd1645b320a37d85dbb5a51001bf81280d8837047e2221f85181"
    )
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == (
        "560a7536b587e9334c63c5d5fae21e5cb05e0487c893cebf93210ad15579487b"
    )


def test_the_draw_stream_is_pinned():
    """300 seeded rounds of symbols, an invariant and a profile at the caps,
    printed: the values drawn and the state the stream is left in. A report
    shows a drawn value only where a case fails, so this pins the draws
    themselves; the digest was recorded when each draw was still a sum of
    `const` and `symbol` values."""
    rng = random.Random("draws:1")
    bounds = _Bounds(MAX_LENGTH_CAP, MAX_RANK_CAP, MAX_SYMBOLS_CAP, False)
    lines = []
    for index in range(300):
        symbols = _draw_symbols(rng, bounds)
        lines.append(str(_draw_invariant(rng, symbols, nonzero=index % 2 == 0)))
        p = _draw_profile(rng, symbols, bounds, "P", nonzero_top=index % 3 == 0)
        lines.append(f"{p.ambient_rank_N} " + ", ".join(map(str, p.primitive_right)))
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == (
        "794df11d7bf1303b41c9c1150f01a62a8624b9ceded15c07d2e372cb5d591ff4"
    )
    assert rng.random() == 0.44738139557378287


def test_suites_at_the_caps_pass_and_the_control_fails():
    caps = {
        "max_length": MAX_LENGTH_CAP,
        "max_rank": MAX_RANK_CAP,
        "max_symbols": MAX_SYMBOLS_CAP,
    }
    report = run_suite(seed=1, cases=100, **caps)
    assert report.all_passed()
    assert all(o.passes == 100 for o in report.outcomes)
    mutated = run_suite(seed=1, cases=100, mutate_join_bound=True, **caps)
    assert [o.name for o in mutated.outcomes if not o.passed] == ["conservation"]
    assert mutated.outcomes[0].failure.detail == "join conservation"


def test_mutation_does_not_touch_the_other_suites():
    for name in ("join-laws", "splitting"):
        assert run_property(name, seed=1, cases=30, mutate_join_bound=True).passed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_length": 0},
        {"max_length": MAX_LENGTH_CAP + 1},
        {"max_rank": 1},
        {"max_rank": MAX_RANK_CAP + 1},
        {"max_symbols": -1},
        {"max_symbols": MAX_SYMBOLS_CAP + 1},
    ],
)
def test_out_of_range_bounds_are_rejected(kwargs):
    with pytest.raises(ValueError):
        run_property("conservation", seed=1, cases=1, **kwargs)


def test_unknown_property_and_negative_cases_are_rejected():
    with pytest.raises(ValueError):
        run_property("nope", seed=1, cases=1)
    with pytest.raises(ValueError):
        run_property("conservation", seed=1, cases=-1)


def test_suite_can_run_a_subset_of_properties():
    report = run_suite(seed=2, cases=10, properties=("splitting",))
    assert [o.name for o in report.outcomes] == ["splitting"]


def test_oracle_walk_on_three_points():
    points = [build_profile(n, 4, [1]) for n in "ABC"]
    assert _oracle_flat_join(points) == [1, 1, 1]


@settings(max_examples=40, deadline=None)
@given(
    p=profile_st(name="A", max_m=3),
    q=profile_st(name="B", max_m=3),
    values=assignments(),
)
def test_oracle_walk_matches_integer_enumeration(p, q, values):
    # The walk only reads primitive lists; ambient ranks need not match.
    symbolic = _oracle_flat_join([p, q])
    lists = [primitive_values(p, values), primitive_values(q, values)]
    for i, component in enumerate(symbolic):
        assert component.evaluate(values) == ref_flat_join(lists, i)
