"""Command-line driver: check files, the example catalog, and property suites.

Exit codes partition outcomes: 0 all checks pass, 1 any check fails, 2 the
input cannot be parsed or validated (or usage is wrong), 3 at least one check
is underdetermined by the declared data (with no outright failure), 4 file
I/O failed, the input file is not valid UTF-8, or standard output was closed,
5 an internal error: an unexpected exception, reported with its traceback,
or running out of memory, reported in one line.

A call that names a known command first has the rest of argv read by that
command's own parser. Help, a missing or unknown command, and any leftover
argument take the full parse, so every usage message is argparse's own.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import catalog, prop
from .dsl import check_file
from .errors import HpdcalcError
from .report import build_report, input_digest, stable_json

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_UNDERDETERMINED = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _print_report(report: dict) -> None:
    for row in report["checks"]:
        if row["status"] == "pass":
            detail = f" (lhs = rhs = {row['lhs']})" if row["lhs"] != "" else ""
        elif row["status"] == "fail":
            detail = f" (lhs = {row['lhs']}, rhs = {row['rhs']}, witness = {row['witness']})"
        else:
            detail = f" ({'; '.join(row['notes'])})" if row["notes"] else ""
        print(f"check {row['name']}: {row['status']}{detail}")
    for sod in report["sods"]:
        blocks = ", ".join(
            f"{b['term']}({b['twist']}): {b['invariant']}" for b in sod["blocks"]
        )
        print(f"sod {sod['name']} over {sod['base']}: <{blocks}>")
    for warning in report["warnings"]:
        print(f"warning: {warning}")


def _finish(report: dict, json_path: str | None, code: int) -> int:
    """Write the JSON report when asked (first, so a closed stdout cannot cost
    it), print the report, and return the exit code."""
    failure = None
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(stable_json(report))
        except OSError as err:
            failure = err
    _print_report(report)
    if failure is not None:
        print(f"error: cannot write report: {failure}", file=sys.stderr)
        return EXIT_IO
    return code


def _exit_code_for(rows: list[dict]) -> int:
    statuses = {row["status"] for row in rows}
    if "fail" in statuses:
        return EXIT_FAIL
    if "underdetermined" in statuses:
        return EXIT_UNDERDETERMINED
    return EXIT_PASS


def cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_IO

    try:
        report = check_file(source, allow_nonmoderate=args.allow_nonmoderate)
    except HpdcalcError as err:
        print(f"{args.file}:{err}", file=sys.stderr)
        return EXIT_INVALID
    return _finish(report, args.json, _exit_code_for(report["checks"]))


def cmd_catalog(args) -> int:
    # An unknown case name is refused before any case runs, and only a golden
    # that cannot be written is an I/O error: an error raised while a case
    # runs is a bug, so it takes the internal-error path.
    if args.name:
        try:
            catalog.case_source(args.name)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INVALID
    try:
        report, ok = catalog.run_catalog(
            [args.name] if args.name else None, update_golden=args.update_golden
        )
    except catalog.GoldenWriteError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    return _finish(report, args.json, EXIT_PASS if ok else EXIT_FAIL)


def cmd_prop(args) -> int:
    bounds = {"max_length": args.max_length, "max_rank": args.max_rank_v}
    try:
        # Zero cases, or a negative count that is refused: only the arguments are checked.
        prop.run_suite(args.seed, min(args.cases, 0), **bounds)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    suite = prop.run_suite(
        args.seed, args.cases, mutate_join_bound=args.mutate_join_bound, **bounds
    )
    parameters = (
        f"prop seed={args.seed} cases={args.cases} max_length={args.max_length} "
        f"max_rank_v={args.max_rank_v} mutate_join_bound={args.mutate_join_bound}"
    )
    report = build_report(input_digest(parameters), suite.check_rows(), [], [])
    return _finish(report, args.json, EXIT_PASS if suite.all_passed() else EXIT_FAIL)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="hpdcalc",
        description="Symbolic duality checks for Lefschetz categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the check statements of a declaration file")
    check.add_argument("file", help="declaration file (.hpd)")
    check.add_argument("--json", metavar="PATH", help="write the JSON report here")
    check.add_argument(
        "--allow-nonmoderate",
        action="store_true",
        help="admit profiles with length >= ambient rank for non-duality operations",
    )

    cat = sub.add_parser("catalog", help="run built-in worked examples against goldens")
    cat.add_argument("name", nargs="?", help="single case to run (default: all)")
    cat.add_argument("--json", metavar="PATH", help="write the JSON report here")
    cat.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the stored golden files from this run",
    )

    prop_cmd = sub.add_parser("prop", help="run seeded property suites")
    prop_cmd.add_argument("--seed", type=int, default=1)
    prop_cmd.add_argument("--cases", type=int, default=100)
    prop_cmd.add_argument("--max-length", type=int, default=5, metavar="M")
    prop_cmd.add_argument("--max-rank-v", type=int, default=9, metavar="K")
    prop_cmd.add_argument("--json", metavar="PATH", help="write the JSON report here")
    prop_cmd.add_argument(
        "--mutate-join-bound",
        action="store_true",
        help="flip the refined-pair bound (negative control; must fail)",
    )
    for name, command in sub.choices.items():
        command.set_defaults(command=name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace `_parser().parse_args(argv)` gives, its errors included."""
    parser = _parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    # A leftover argument is the top-level parser's usage error.
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    # Looked up per call, so a rebound handler takes effect.
    handler = {"check": cmd_check, "catalog": cmd_catalog, "prop": cmd_prop}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError as err:
        # The reader went away (`hpdcalc catalog | head`). Point stdout at
        # devnull so the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to standard output: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        # Reported once this block is left, which frees the frames that filled memory.
        code = None
    except Exception as err:
        # A bug, not a verdict: exit 1 would read as "a check failed".
        print(f"error: internal error: {err!r}", file=sys.stderr)
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL
    if code is None:
        print("error: internal error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
