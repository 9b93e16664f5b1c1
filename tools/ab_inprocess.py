"""Time two hpdcalc source trees against each other in one interpreter, alternated.

    python3 tools/ab_inprocess.py PARENT_SRC CHANGE_SRC [--rounds N]

PARENT_SRC and CHANGE_SRC are directories that hold an `hpdcalc` package,
such as the `src` directories of two checkouts. Each package is copied under
its own name (`hpdcalc_parent`, `hpdcalc_change`) into a temporary directory,
so both load side by side; the package imports itself relatively.

The inputs are the small and library declaration files of the first two
cycles of perfbench's `decl-files` main stream at seed 1, and `prop.run_suite`
at 10 cases and the ten seeds of the first cycle of its `prop-suites` main
stream at seed 1, each read from this repository's `perfbench/workloads.py`.
They are timed as `dsl.check_file` and `prop.run_suite` calls. The files of the
first five cycles (`CLI_CYCLES`) of the `refutations` and `deep-constructions`
main streams at seed 1 are timed as whole `cli.main` calls, as perfbench's
`Runner` makes them: before each call its input file is written to the
temporary directory and the report the previous call left is removed, then
`check FILE --json PATH` runs with its output captured; only the calls are
timed. Both sides must give
byte-identical reports on every input (and, for `cli.main`, the same exit
codes and output), else the run stops with exit 1. Each round then times
every measure once per side, the parent first in even rounds and the change
first in odd ones, with a collection before each timing. Per measure it
prints the median and the quartiles of each side (ms per call), the change's
median minus the parent's, the parent's quartile distance, and the rounds in
which the change was faster.

perfbench normalizes every end-to-end time by a host-speed sample that moves
by tens of percent between runs, so its rates cannot resolve a change of a
few percent in one layer; two trees in one process, alternated, can. Stdlib
only; nothing is written outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

SIDES = ("parent", "change")
PROP_CASES = 10  # as in perfbench's prop-suites jobs
CLI_WORKLOADS = ("refutations", "deep-constructions")
# Cycles of each CLI workload read: 25 and 55 calls per round. With two cycles
# (10 and 22 calls) the parent's quartile distance was as wide as a 10% gain.
CLI_CYCLES = 5
REPORT = "report.json"


def _load(src: str, name: str, workdir: str):
    """The (dsl, prop, cli) modules of the package in `src`, copied as `name`."""
    shutil.copytree(
        os.path.join(src, "hpdcalc"),
        os.path.join(workdir, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tuple(importlib.import_module(f"{name}.{module}") for module in ("dsl", "prop", "cli"))


def _inputs() -> dict[str, list]:
    """The small and library file sources of two decl-files cycles at seed 1,
    the `prop --seed` values of one prop-suites cycle at seed 1, and the file
    sources of CLI_CYCLES cycles of each of CLI_WORKLOADS at seed 1."""
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    sys.path.insert(0, perfbench)
    import workloads

    stream = workloads.jobs("decl-files", 1, "main")
    jobs = list(itertools.islice(stream, 2 * workloads.cycle_length("decl-files")))
    inputs = {label: [j.source for j in jobs if j.label == label] for label in ("small", "library")}
    stream = workloads.jobs("prop-suites", 1, "main")
    jobs = itertools.islice(stream, workloads.cycle_length("prop-suites"))
    inputs["prop"] = [int(j.args[j.args.index("--seed") + 1]) for j in jobs]
    for workload in CLI_WORKLOADS:
        stream = workloads.jobs(workload, 1, "main")
        inputs[workload] = [
            j.source
            for j in itertools.islice(stream, CLI_CYCLES * workloads.cycle_length(workload))
        ]
    return inputs


def _measures(dsl, prop, cli, inputs, workdir: str) -> dict:
    """Name -> (inputs, the call timed on each, a step run before each call
    outside the clock, or None). A `cli.main` call's report file is `REPORT`
    in `workdir`."""
    infile = os.path.join(workdir, "job.hpd")

    def stage(text):
        with open(infile, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, REPORT))

    def check(text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", infile, "--json", os.path.join(workdir, REPORT)])
        return code, out.getvalue(), err.getvalue()

    return {
        "check_file small": (inputs["small"], dsl.check_file, None),
        "check_file library": (inputs["library"], dsl.check_file, None),
        f"prop.run_suite {PROP_CASES} cases": (
            inputs["prop"], lambda seed: prop.run_suite(seed, PROP_CASES).check_rows(), None
        ),
        **{f"cli.main {w}": (inputs[w], check, stage) for w in CLI_WORKLOADS},
    }


def _outputs(workdir: str, inputs, call, stage) -> str:
    """What the calls give, with each report a `cli.main` call wrote, as JSON."""
    results = []
    for x in inputs:
        if stage is not None:
            stage(x)
        results.append(call(x))
        if stage is not None:
            with open(os.path.join(workdir, REPORT), encoding="utf-8") as handle:
                results.append(handle.read())
    return json.dumps(results)


def _timed(inputs, call, stage) -> float:
    """Milliseconds per call, counting the calls only, as perfbench's `Runner` does."""
    gc.collect()
    spent = 0.0
    for x in inputs:
        if stage is not None:
            stage(x)
        start = time.perf_counter()
        call(x)
        spent += time.perf_counter() - start
    return spent * 1000 / len(inputs)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="directory holding the parent's hpdcalc package")
    parser.add_argument("change_src", help="directory holding the change's hpdcalc package")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds, at least 2")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    sys.dont_write_bytecode = True
    inputs = _inputs()
    with tempfile.TemporaryDirectory() as workdir:
        sys.path.insert(0, workdir)
        loaded = {
            side: _load(src, f"hpdcalc_{side}", workdir)
            for side, src in zip(SIDES, (args.parent_src, args.change_src))
        }
        measures = {side: _measures(*loaded[side], inputs, workdir) for side in SIDES}
        for name, measure in measures["parent"].items():
            if _outputs(workdir, *measure) != _outputs(workdir, *measures["change"][name]):
                print(f"error: the two trees give different reports on {name}", file=sys.stderr)
                return 1
        times = {(name, side): [] for name in measures["parent"] for side in SIDES}
        for r in range(args.rounds):
            for name in measures["parent"]:
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    times[name, side].append(_timed(*measures[side][name]))

    print(f"{args.rounds} rounds; reports identical on every input")
    print(f"{'measure':<28}{'parent p50 [q1, q3] ms':<30}{'change p50 [q1, q3] ms':<30}"
          f"{'delta p50':>10}{'parent IQR':>12}  change faster")
    for name in measures["parent"]:
        cells, medians = [], {}
        for side in SIDES:
            q1, q2, q3 = statistics.quantiles(times[name, side], n=4, method="inclusive")
            cells.append(f"{q2:.3f} [{q1:.3f}, {q3:.3f}]")
            medians[side] = (q2, q3 - q1)
        wins = sum(c < p for p, c in zip(times[name, "parent"], times[name, "change"]))
        delta = medians["change"][0] - medians["parent"][0]
        print(f"{name:<28}{cells[0]:<30}{cells[1]:<30}{delta:>+10.3f}"
              f"{medians['parent'][1]:>12.3f}  {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
