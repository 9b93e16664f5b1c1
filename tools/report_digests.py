"""Print one `sha256  label` line per CLI run of a source checkout.

    python3 tools/report_digests.py ROOT [--jobs N] [--seed S] > digests.txt

Each line digests the exit code, stdout, stderr and `--json` bytes of one
in-process `hpdcalc.cli.main` call against `ROOT/src`:

- the six stored goldens (their bytes) and `catalog`;
- `check --json` on each catalog declaration file;
- `prop` at seeds 1, 3 and 7 (100 cases each) and the
  `--mutate-join-bound` control (seed 1, 150 cases), which exits 1;
- the first N jobs of each perfbench workload's main stream at seed S, taken
  from `ROOT/perfbench/workloads.py`;
- `check` on each of a fixed set of `main_theorem` sources over P(64),
  P(2000) and P(20000) (`MAIN_THEOREM`), each of which must exit 0;
- `check` on each of a fixed set of malformed sources (`MALFORMED`), each of
  which must exit 2 with its one diagnostic line, so the diff covers the
  (line, column) of parser, validator and check-stage errors too.

Run it on two checkouts and `diff` the outputs: an empty diff means every
report byte and exit code is the same. Check files are written under a
temporary directory and named relatively, so paths do not enter the digests.
Stdlib only; nothing under `ROOT` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import itertools
import os
import sys
import tempfile

PROP_RUNS = [
    ["--seed", "1", "--cases", "100"],
    ["--seed", "3", "--cases", "100"],
    ["--seed", "7", "--cases", "100"],
    ["--seed", "1", "--cases", "150", "--mutate-join-bound"],
]

_CAT = "category A over P(3) primitive [1, 1];\n"

# Name -> source. Between them they blame every kind of position the syntax
# tree keeps (statement keywords, names, check arguments, symbol uses) and
# the parser's cursor, on lines after comments, in a CRLF file and on lines
# with non-ASCII names, which are lexed one word at a time.
MALFORMED = {
    "cursor-missing-bracket": "category A over P(3) primitive [1 2];\n",
    "cursor-missing-paren": "category A over P(3) primitive [1, (2 + 3];\n",
    "cursor-end-of-input": "symbol x;\ncategory A over P(3) primitive [1, x  # unfinished",
    "cursor-keyword-start": _CAT + "  over A;\n",
    "cursor-long-literal-in-sum": "category A over P(3) primitive [1 + 2*" + "7" * 4301 + "];\n",
    "cursor-long-n2": _CAT + "check cone_part1(A, n2=" + "9" * 4301 + ");\n",
    "cursor-unknown-check": _CAT + "check main_theorm(A, A);\n",
    "cursor-n2-zero": _CAT + "check cone_part2(A, n2=0);\n",
    "cursor-n2-twice": _CAT + "check cone_part1(A, n2=2, n2=3);\n",
    "cursor-positional-after-n2": _CAT + "check cone_part1(n2=2, A);\n",
    "cursor-keyword-not-taken": _CAT + "check main_theorem(A, k=2);\n",
    "statement-arity": _CAT + "check main_theorem(A);\n",
    "statement-disjoint-one-name": _CAT + "disjoint A;\n",
    "left-undeclared-symbol": "symbol a;\ncategory A over P(3) primitive [1, a] left [1, q];\n",
    "intersect-undeclared-symbol": _CAT + "category B over P(3) primitive [1, 1];\n"
    "intersect A, B over P(3) = 1 + (2 - z) * 3;\n",
    "disjoint-unknown-category": _CAT + "category B over P(3) primitive [1, 1];\n"
    "\n# groups\ndisjoint A, B,\n   C;\n",
    "disjoint-listed-twice": _CAT + "category B over P(3) primitive [1, 1];\ndisjoint A, B, A;\n",
    "check-unknown-category": _CAT + "check main_theorem(A,  Zed);\n",
    "symbol-declared-twice": "symbol a, b;\nsymbol c, b;\n",
    "category-declared-twice": _CAT + "# again\n" + _CAT,
    "symbol-and-category": "symbol A;\n" + _CAT,
    "rank-below-two": "category A over P(1) primitive [1];\n",
    "nonmoderate": "category A over P(2) primitive [1, 1];\n",
    "ambient-mismatch": _CAT + "category B over P(4) primitive [1, 1];\nintersect A, B over P(3) = 0;\n",
    "conflicting-intersection": _CAT + "category B over P(3) primitive [1, 1];\n"
    "disjoint A, B;\nintersect A, B over P(3) = 1;\n",
    "dual-declared-twice": _CAT + "dual A primitive [1, 1];\ndual A primitive [1, 1];\n",
    "check-stage-ambient-mismatch": _CAT + "category B over P(4) primitive [1, 1];\n"
    "check main_theorem(A, B);\n",
    "crlf-left-undeclared-symbol": "symbol a;\r\ncategory A over P(3) primitive [1, a] left [1, q];\r\n",
    "crlf-cursor": "symbol a;\r\ncategory A over P(3) primitive [1, a\r\n  left [1];\r\n",
    "after-comments": "# header\n   # indented note\nsymbol a; # trailing\n"
    "category A over P(3) primitive [1, a + b];\n",
    "non-ascii-undeclared-symbol": "symbol \u00e9t\u00e9;\n"
    "category A over P(3) primitive [1, \u00e9t\u00e9] left [1, \u00e7a + \u00e9t\u00e9];\n",
    "non-ascii-cursor": "symbol \u00e9t\u00e9;\ncategory A over P(3) primitive [\u00e9t\u00e9 \u00e9t\u00e9];\n",
    "non-ascii-then-unknown-category": "symbol \u00e9t\u00e9;\n"
    "category \u00c9 over P(3) primitive [1, \u00e9t\u00e9];\ncheck join_linear(\u00c9, \u00c8);\n",
}


def _main_theorem_source(N: int, la: int, lb: int, declared_e: bool) -> str:
    """main_theorem on two profiles of lengths la and lb over P(N): primitives
    [a, 0, ..., 0, 2] and [1, 0, ..., 0, b], disjoint or with a declared e."""

    def primitives(length: int, first: str, last: str) -> str:
        return ", ".join([first] + ["0"] * (length - 2) + [last] if length > 1 else [first])

    pair = f"intersect A, B over P({N}) = e + a;" if declared_e else "disjoint A, B;"
    return (
        "symbol a, b, e;\n"
        f"category A over P({N}) primitive [{primitives(la, 'a', '2')}];\n"
        f"category B over P({N}) primitive [{primitives(lb, '1', 'b')}];\n"
        f"{pair}\ncheck main_theorem(A, B);\n"
    )


# Name -> source. la + lb lies below N - 1 (the join's components past the
# ruled join form a long run of base-locus parts), at N - 1 (an empty run) and
# above it (the refined parts are clipped). The long pair over P(20000) is
# mostly zeros: a join costs what its nonzero primitive pairs cost, but a
# convolution that copied its accumulator list once per entry took 0.55-0.9 s
# on each of its two sources.
MAIN_THEOREM = {
    f"P({N}) la={la} lb={lb} {'e' if declared_e else 'disjoint'}": _main_theorem_source(
        N, la, lb, declared_e
    )
    for N, la, lb in [
        (64, 2, 3), (64, 31, 32), (64, 40, 50),
        (2000, 1, 2), (2000, 1000, 999), (2000, 1500, 1400),
        (20000, 2, 2), (20000, 40, 60), (20000, 10000, 9999),
    ]
    for declared_e in (False, True)
}


def _digest(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big") + part)
    return hasher.hexdigest()


def _run(cli, argv: list, root: str) -> tuple[int, str]:
    """The exit code and digest of one call, with `--json report.json` appended."""
    with contextlib.suppress(FileNotFoundError):
        os.remove("report.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--json", "report.json"])
    try:
        with open("report.json", "rb") as handle:
            report = handle.read()
    except FileNotFoundError:
        report = b""
    # A traceback names the checkout's own files.
    stderr = err.getvalue().replace(root, "ROOT")
    return code, _digest(str(code).encode(), out.getvalue().encode(), stderr.encode(), report)


def _check(cli, source: str, root: str) -> tuple[int, str]:
    with open("job.hpd", "w", encoding="utf-8") as handle:
        handle.write(source)
    return _run(cli, ["check", "job.hpd"], root)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", help="source checkout to run")
    parser.add_argument("--jobs", type=int, default=40, help="perfbench jobs per workload")
    parser.add_argument("--seed", type=int, default=1, help="perfbench job seed")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from hpdcalc import cli

    catalog_dir = os.path.join(root, "src", "hpdcalc", "_catalog")
    start_dir = os.getcwd()
    lines = []
    for path in sorted(glob.glob(os.path.join(catalog_dir, "golden", "*.json"))):
        with open(path, "rb") as handle:
            lines.append((_digest(handle.read()), f"golden {os.path.basename(path)}"))
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        lines.append((_run(cli, ["catalog"], root)[1], "catalog"))
        for path in sorted(glob.glob(os.path.join(catalog_dir, "*.hpd"))):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            lines.append((_check(cli, source, root)[1], f"check {os.path.basename(path)}"))
        for prop_args in PROP_RUNS:
            lines.append((_run(cli, ["prop", *prop_args], root)[1], " ".join(["prop", *prop_args])))
        for workload in sorted(workloads.WORKLOADS):
            stream = workloads.jobs(workload, args.seed, "main")
            for i, job in enumerate(itertools.islice(stream, args.jobs)):
                if job.kind == "check":
                    _, digest = _check(cli, job.source, root)
                else:
                    _, digest = _run(cli, list(job.args), root)
                lines.append((digest, f"{workload} seed={args.seed} #{i} {job.label}"))
        wrong = []
        for name, source in MAIN_THEOREM.items():
            code, digest = _check(cli, source, root)
            lines.append((digest, f"main_theorem {name}"))
            if code != 0:
                wrong.append(f"main_theorem {name} (exit {code})")
        for name, source in MALFORMED.items():
            code, digest = _check(cli, source, root)
            lines.append((digest, f"malformed {name}"))
            if code != 2:
                wrong.append(f"{name} (exit {code})")
        os.chdir(start_dir)
    if wrong:
        print(f"error: sources with the wrong exit code: {', '.join(wrong)}", file=sys.stderr)
        return 1
    for digest, label in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
