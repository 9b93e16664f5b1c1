"""Seeded job generators for the four benchmark workloads.

A job is one `hpdcalc` command line plus, for `check` jobs, the declaration
file it reads. Each job carries the answer the benchmark expects, computed
with `oracle` from the generated data, never with hpdcalc itself.

Jobs come in cycles with a fixed composition of size classes; the seed
shuffles each cycle and draws every value inside it. A fixed composition
keeps the median and the tail percentile inside one size class on every
seed, so runs on different seeds agree. Within a stream no two jobs have the
same input (catalog jobs excepted: the catalog takes no input).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

import oracle as op

# Returned by `hpdcalc check` per the documented exit codes.
EXIT_PASS, EXIT_FAIL, EXIT_UNDERDETERMINED = 0, 1, 3


@dataclass(frozen=True)
class Row:
    """Expected report row. `value` maps an integer point to the expected
    value of both sides (pass) or of the right side (fail); `planted` is the
    difference planted between the sides of a fail row."""

    name: str
    status: str
    value: Callable[[dict], int] | None = None
    planted: dict | None = None


@dataclass
class Job:
    kind: str  # check | catalog | prop
    label: str  # size class, a key of GENERATORS
    source: str = ""
    args: tuple = ()
    rows: list = field(default_factory=list)
    symbols: tuple = ()
    point: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        statuses = {row.status for row in self.rows}
        if "fail" in statuses:
            return EXIT_FAIL
        if "underdetermined" in statuses:
            return EXIT_UNDERDETERMINED
        return EXIT_PASS


# -- profiles ---------------------------------------------------------------------


@dataclass
class Profile:
    name: str
    N: int
    prims: list  # oracle polynomials

    def at(self, point: dict) -> list:
        return [op.evaluate(a, point) for a in self.prims]

    def decl(self) -> str:
        body = ", ".join(op.to_text(a) for a in self.prims)
        return f"category {self.name} over P({self.N}) primitive [{body}];"

    def dual_decl(self, planted: dict | None = None) -> str:
        prims = op.dual_primitives(self.N, self.prims)
        if planted:
            prims[0] = op.add(prims[0], planted)
        return f"dual {self.name} primitive [{', '.join(op.to_text(b) for b in prims)}];"


def _poly(rng: random.Random, symbols) -> dict:
    """A plausible primitive: nonnegative constant plus nonnegative symbol terms."""
    poly = op.const(rng.randint(0, 3))
    for name in symbols:
        if rng.random() < 0.5:
            poly = op.add(poly, op.scale(op.sym(name), rng.randint(1, 3)))
    return poly


def _profile(rng, name, N, length, symbols) -> Profile:
    return Profile(name, N, [_poly(rng, symbols) for _ in range(length)])


def _shaped(rng: random.Random, length: int, symbols, symbolic: int) -> list:
    """`length` nonzero constant primitives, `symbolic` of them (at seeded
    positions) plus a symbol term: the seed moves values, not the term
    structure that sets a job's cost."""
    prims = [op.const(rng.randint(1, 3)) for _ in range(length)]
    for j in rng.sample(range(length), symbolic):
        prims[j] = op.add(prims[j], op.scale(op.sym(rng.choice(symbols)), rng.randint(1, 3)))
    return prims


def _header(symbols) -> list:
    return [f"symbol {', '.join(symbols)};"] if symbols else []


def _point(rng: random.Random, symbols) -> dict:
    return {name: rng.randint(2, 10**6) for name in symbols}


# -- expected values, as functions of an integer point --------------------------------


def _duality_total_at(p: Profile, n2: int):
    """Duality total of p regarded over rank N + n2 (cone_part1 gives both
    sides this value; dual_profile and cone_part2 use n2 = 0)."""
    return lambda pt: op.duality_total(p.N + n2, p.at(pt))


def _center_product_at(ps):
    def value(pt):
        out = 1
        for p in ps:
            out *= op.center(p.at(pt))
        return out

    return value


def _join_linear_at(ps):
    return lambda pt: op.join_linear_value([(p.N, p.at(pt)) for p in ps])


def _main_theorem_at(p: Profile, q: Profile, e: dict):
    return lambda pt: op.main_theorem_value(p.N, p.at(pt), q.at(pt), op.evaluate(e, pt))


# -- decl-files ----------------------------------------------------------------------

_SYMBOL_POOL = ("e", "u", "v", "w", "s", "t")
_NAME_POOL = ("Gr", "Pt", "Qd", "Cb", "Ln", "Sx")


def small_file(rng: random.Random) -> Job:
    """2-6 categories over one rank, 1-4 checks of every kind; data for some
    checks is withheld, which makes them underdetermined (exit 3)."""
    symbols = tuple(sorted(rng.sample(_SYMBOL_POOL, rng.randint(1, 3))))
    N = rng.randint(4, 8)
    count = rng.randint(2, 6)
    names = [f"{base}{rng.randint(0, 99)}" for base in rng.sample(_NAME_POOL, count)]
    cats = [_profile(rng, n, N, rng.randint(1, min(4, N - 1)), symbols) for n in names]
    lines = _header(symbols) + [p.decl() for p in cats]
    rows, checks = [], []
    group = rng.sample(cats, rng.randint(2, min(3, count))) if rng.random() < 0.6 else []
    if group:
        lines.append(f"disjoint {', '.join(p.name for p in group)};")
    duals: dict = {}
    intersections: dict = {}

    for kind in rng.sample(
        ["main_theorem", "n_hpd_center", "cone_part1", "cone_part2", "join_linear", "dual_profile"],
        rng.randint(1, 4),
    ):
        if kind == "main_theorem":
            p, q = rng.sample(cats, 2)
            if p in group and q in group:
                e = {}
            else:
                key = tuple(sorted((p.name, q.name)))
                if key not in intersections:
                    intersections[key] = None if rng.random() < 0.25 else _poly(rng, symbols)
                e = intersections[key]
            status = "underdetermined" if e is None else "pass"
            value = _main_theorem_at(p, q, e) if status == "pass" else None
            rows.append(Row(kind, status, value))
            checks.append(f"check main_theorem({p.name}, {q.name});")
        elif kind == "n_hpd_center":
            if group and rng.random() < 0.75:
                args, status = group, "pass"
            else:
                args = rng.sample(cats, rng.randint(1, 2))
                covered = all(p in group for p in args)
                status = "pass" if len(args) == 1 or covered else "underdetermined"
            rows.append(Row(kind, status, _center_product_at(args) if status == "pass" else None))
            checks.append(f"check n_hpd_center({', '.join(p.name for p in args)});")
        elif kind in ("cone_part1", "cone_part2"):
            p = rng.choice(cats)
            n2 = rng.randint(1, 4)
            value = _duality_total_at(p, n2) if kind == "cone_part1" else _duality_total_at(p, 0)
            rows.append(Row(kind, "pass", value))
            checks.append(f"check {kind}({p.name}, n2={n2});")
        elif kind == "join_linear":
            args = rng.sample(cats, rng.randint(1, min(3, count)))
            rows.append(Row(kind, "pass", _join_linear_at(args)))
            checks.append(f"check join_linear({', '.join(p.name for p in args)});")
        else:
            p = rng.choice(cats)
            declared = duals.setdefault(p.name, rng.random() < 0.75)
            rows.append(Row(kind, "pass" if declared else "underdetermined", _duality_total_at(p, 0) if declared else None))
            checks.append(f"check dual_profile({p.name});")

    for (a, b), e in sorted(intersections.items()):
        if e is not None:
            lines.append(f"intersect {a}, {b} over P({N}) = {op.to_text(e)};")
    lines += [p.dual_decl() for p in cats if duals.get(p.name)]
    return _check_job("small", lines + checks, rows, symbols, rng)


def library_file(rng: random.Random) -> Job:
    """A few hundred categories with intersections, disjoint groups and
    declared duals, and two checks: the parse and validate path at scale."""
    symbols = ("a", "b", "c", "d")
    count = rng.randint(240, 300)
    cats = []
    for index in range(count):
        N = rng.randint(5, 12)
        cats.append(_profile(rng, f"L{index}x{rng.randint(0, 999)}", N, rng.randint(1, 4), symbols))
    lines = ["# generated library file"] + _header(symbols) + [p.decl() for p in cats]
    by_rank: dict = {}
    for p in cats:
        by_rank.setdefault(p.N, []).append(p)
    pools = [group for group in by_rank.values() if len(group) >= 5]
    used: set = set()
    for _ in range(2):
        group = rng.sample(rng.choice(pools), 3)
        if not used & {p.name for p in group}:
            used |= {p.name for p in group}
            lines.append(f"disjoint {', '.join(p.name for p in group)};")
    for _ in range(20):
        p, q = rng.sample(rng.choice(pools), 2)
        if p.name not in used and q.name not in used:
            used |= {p.name, q.name}
            lines.append(f"intersect {p.name}, {q.name} over P({p.N}) = {op.to_text(_poly(rng, symbols))};")
    with_dual = rng.sample(cats, 12)
    lines += [p.dual_decl() for p in with_dual]
    target, other = with_dual[0], rng.choice(cats)
    n2 = rng.randint(1, 4)
    rows = [Row("dual_profile", "pass", _duality_total_at(target, 0)), Row("cone_part1", "pass", _duality_total_at(other, n2))]
    lines += [f"check dual_profile({target.name});", f"check cone_part1({other.name}, n2={n2});"]
    return _check_job("library", lines, rows, symbols, rng)


def catalog_job(rng: random.Random) -> Job:
    return Job("catalog", "catalog", args=("catalog",))


# -- deep-constructions -----------------------------------------------------------------


def center_file(rng: random.Random, n: int) -> Job:
    """n disjoint categories over rank 5 with declared duals of length 4:
    the center check joins the duals, L^n index tuples per component."""
    symbols = ("a",)
    N = 5
    cats = [Profile(f"C{k}", N, _shaped(rng, N - 1, symbols, 1)) for k in range(n)]
    lines = _header(symbols) + [p.decl() for p in cats] + [p.dual_decl() for p in cats]
    lines.append(f"disjoint {', '.join(p.name for p in cats)};")
    lines.append(f"check n_hpd_center({', '.join(p.name for p in cats)});")
    return _check_job(f"center-n{n}", lines, [Row("n_hpd_center", "pass", _center_product_at(cats))], symbols, rng)


def linear_file(rng: random.Random, lengths: tuple) -> Job:
    """Categories of the given lengths in complementary subspaces: join_linear
    builds the flat n-fold join and the n-fold simultaneous hyperplane."""
    symbols = ("a",)
    cats = []
    n = len(lengths)
    for k, length in enumerate(lengths):
        cats.append(Profile(f"S{k}", length + 1, _shaped(rng, length, symbols, 1)))
    lines = _header(symbols) + [p.decl() for p in cats]
    lines.append(f"check join_linear({', '.join(p.name for p in cats)});")
    return _check_job(f"linear-n{n}", lines, [Row("join_linear", "pass", _join_linear_at(cats))], symbols, rng)


def main_theorem_file(rng: random.Random, N: int) -> Job:
    """Two categories of length N-1 over rank N meeting in a symbolic
    intersection: the join and the double universal hyperplane at size N."""
    symbols = ("e",)
    p, q = (Profile(name, N, _shaped(rng, N - 1, symbols, 2)) for name in ("P", "Q"))
    e = op.add(op.sym("e"), op.const(rng.randint(0, 9)))
    lines = _header(symbols) + [p.decl(), q.decl()]
    lines += [f"intersect P, Q over P({N}) = {op.to_text(e)};", "check main_theorem(P, Q);"]
    return _check_job(f"main-N{N}", lines, [Row("main_theorem", "pass", _main_theorem_at(p, q, e))], symbols, rng)


# -- refutations ----------------------------------------------------------------------------


def refutation_file(rng: random.Random, k: int) -> Job:
    """A declared dual whose total is off by a planted polynomial in k
    symbols that vanishes whenever any of them is 0; beside it, a confirming
    cone check. The dual_profile check must fail with a separating witness."""
    symbols = tuple(f"x{i}" for i in range(1, k + 1))
    N = 8
    p = Profile("P", N, _shaped(rng, 3, symbols[:3], 2))
    other = Profile("R", N, _shaped(rng, 2, symbols[:2], 1))
    planted = {symbols: rng.randint(1, 9)}
    lines = _header(symbols) + [p.decl(), other.decl(), p.dual_decl(planted)]
    n2 = rng.randint(1, 3)
    lines += ["check dual_profile(P);", f"check cone_part1(R, n2={n2});"]
    rows = [Row("dual_profile", "fail", _duality_total_at(p, 0), planted), Row("cone_part1", "pass", _duality_total_at(other, n2))]
    return _check_job(f"k{k}", lines, rows, symbols, rng)


# -- prop-suites ----------------------------------------------------------------------------

PROP_CASES = 10


def prop_job(rng: random.Random) -> Job:
    seed = rng.randrange(1, 2**31)
    return Job("prop", "prop", args=("prop", "--seed", str(seed), "--cases", str(PROP_CASES)))


# -- workloads ---------------------------------------------------------------------------------


def _check_job(label, lines, rows, symbols, rng) -> Job:
    return Job("check", label, "\n".join(lines) + "\n", ("check",), rows, tuple(symbols), _point(rng, symbols))


GENERATORS = {
    "small": small_file,
    "library": library_file,
    "catalog": catalog_job,
    "center-n4": lambda rng: center_file(rng, 4),
    "center-n5": lambda rng: center_file(rng, 5),
    "linear-n4": lambda rng: linear_file(rng, (3, 3, 3, 3)),
    "linear-n5": lambda rng: linear_file(rng, (2, 2, 2, 2, 2)),
    "linear-n6": lambda rng: linear_file(rng, (2, 2, 1, 1, 1, 1)),
    "main-N16": lambda rng: main_theorem_file(rng, 16),
    "main-N24": lambda rng: main_theorem_file(rng, 24),
    "main-N32": lambda rng: main_theorem_file(rng, 32),
    "prop": prop_job,
    **{f"k{k}": (lambda rng, k=k: refutation_file(rng, k)) for k in range(4, 9)},
}

# One cycle's composition per workload, as (size class, jobs per cycle); the
# reasons for each workload are in BENCHMARK.json and README.md.
WORKLOADS = {
    "decl-files": (("small", 16), ("catalog", 1), ("library", 3)),
    "deep-constructions": (
        ("linear-n4", 1),
        ("main-N16", 1),
        ("center-n4", 1),
        ("linear-n5", 1),
        ("main-N24", 4),
        ("linear-n6", 1),
        ("main-N32", 1),
        ("center-n5", 1),
    ),
    "prop-suites": (("prop", 10),),
    "refutations": tuple((f"k{k}", 1) for k in range(4, 9)),
}


def jobs(workload: str, seed: int, stream: str):
    """Endless job stream, one shuffled cycle at a time; same arguments, same jobs."""
    rng = random.Random(f"perfbench:{workload}:{seed}:{stream}")
    seen: set = set()
    while True:
        slots = [label for label, count in WORKLOADS[workload] for _ in range(count)]
        rng.shuffle(slots)
        for label in slots:
            while True:
                job = GENERATORS[label](rng)
                key = hashlib.sha256(repr((job.source, job.args)).encode()).digest()
                if job.kind == "catalog" or key not in seen:
                    break
            seen.add(key)
            yield job


def cycle_length(workload: str) -> int:
    return sum(count for _, count in WORKLOADS[workload])
