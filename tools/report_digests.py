"""Print one `sha256  label` line per CLI run of a source checkout.

    python3 tools/report_digests.py ROOT [--jobs N] [--seed S] > digests.txt

Each line digests the exit code, stdout, stderr and `--json` bytes of one
in-process `hpdcalc.cli.main` call against `ROOT/src`:

- the six stored goldens (their bytes) and `catalog`;
- `check --json` on each catalog declaration file;
- `prop` at seeds 1, 3 and 7 (100 cases each) and the
  `--mutate-join-bound` control (seed 1, 150 cases), which exits 1;
- the first N jobs of each perfbench workload's main stream at seed S, taken
  from `ROOT/perfbench/workloads.py`.

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


def _digest(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big") + part)
    return hasher.hexdigest()


def _run(cli, argv: list, root: str) -> str:
    """The digest of one call, with `--json report.json` appended."""
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
    return _digest(str(code).encode(), out.getvalue().encode(), stderr.encode(), report)


def _check(cli, source: str, root: str) -> str:
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
        lines.append((_run(cli, ["catalog"], root), "catalog"))
        for path in sorted(glob.glob(os.path.join(catalog_dir, "*.hpd"))):
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            lines.append((_check(cli, source, root), f"check {os.path.basename(path)}"))
        for prop_args in PROP_RUNS:
            lines.append((_run(cli, ["prop", *prop_args], root), " ".join(["prop", *prop_args])))
        for workload in sorted(workloads.WORKLOADS):
            stream = workloads.jobs(workload, args.seed, "main")
            for i, job in enumerate(itertools.islice(stream, args.jobs)):
                if job.kind == "check":
                    digest = _check(cli, job.source, root)
                else:
                    digest = _run(cli, list(job.args), root)
                lines.append((digest, f"{workload} seed={args.seed} #{i} {job.label}"))
        os.chdir(start_dir)
    for digest, label in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
