"""Seeded end-to-end benchmark of the hpdcalc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
One process, one thread, one closed-loop client: each job is one in-process
`hpdcalc.cli.main([...])` call on a freshly generated input, and the next job
starts when the previous one has been checked. Exit code and JSON report of
every job are checked against answers the benchmark derives itself
(`oracle.py`). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0` (times at the reference host speed, see `Host`), the per-layer
metrics of a traced run with `--trace 1`. Lines before it print every metric
by name and unit, the raw figures, `error_ratio` and the host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

JOB_LIMIT_S = 10.0  # a job running longer counts as failed
MIN_JOBS = 100  # so that at least ten samples lie beyond the tail percentile
TAIL_PERCENTILE = 90
MAX_RUN_S = 120.0
SETUP_PROBES = 9
CATALOG_CASES = ("gr25-join", "points-line", "three-points-plane", "cone-point", "cone-gr25", "refined-blowup")
PROP_PROPERTIES = ("conservation", "join-laws", "splitting")

# Untraced seconds per cycle at the commit that introduced the benchmark; the
# traced run replays a fixed number of cycles derived from these, so its
# counts repeat exactly for a given seed and --seconds.
TRACE_CYCLE_S = {"decl-files": 0.4, "deep-constructions": 2.6, "prop-suites": 1.3, "refutations": 0.8}

REPORT_KEYS = ["version", "input_digest", "checks", "sods", "warnings"]


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_LIMIT_S} s")


def load_program():
    """Import hpdcalc.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import hpdcalc.cli as cli
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import hpdcalc from {SRC}: {err}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: hpdcalc was imported from {cli.__file__}, not from {SRC}")
    return cli


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- verification ------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _value(text: str, point: dict, job) -> int:
    poly = oracle.parse(text)
    unknown = oracle.symbols(poly) - set(job.symbols)
    if unknown:
        raise AssertionError(f"undeclared symbols {sorted(unknown)} in {text!r}")
    return oracle.evaluate(poly, point)


def _verify_row(job, want, got: dict) -> None:
    if got["name"] != want.name or got["status"] != want.status:
        raise AssertionError(f"row {got['name']}: {got['status']}, expected {want.name}: {want.status}")
    if want.status == "underdetermined":
        if got["lhs"] or got["rhs"] or got["witness"] is not None or not got["notes"]:
            raise AssertionError(f"row {want.name}: malformed underdetermined row")
    elif want.status == "pass":
        if got["lhs"] != got["rhs"] or got["witness"] is not None:
            raise AssertionError(f"row {want.name}: pass with lhs {got['lhs']!r} != rhs {got['rhs']!r}")
        expected = want.value(job.point)
        if _value(got["lhs"], job.point, job) != expected:
            raise AssertionError(f"row {want.name}: {got['lhs']} is not {expected} at {job.point}")
    else:
        witness = got["witness"]
        if not isinstance(witness, dict) or not all(isinstance(v, int) for v in witness.values()):
            raise AssertionError(f"row {want.name}: fail without an integer witness")
        point = {name: 0 for name in job.symbols}
        point.update(witness)
        for side in ("lhs", "rhs"):
            missing = oracle.symbols(oracle.parse(got[side])) - set(witness)
            if missing:
                raise AssertionError(f"row {want.name}: witness misses {sorted(missing)}")
        lhs, rhs = _value(got["lhs"], point, job), _value(got["rhs"], point, job)
        planted = oracle.evaluate(want.planted, point)
        if lhs == rhs or lhs - rhs != planted or rhs != want.value(point):
            raise AssertionError(
                f"row {want.name}: witness {witness} gives {lhs} vs {rhs}, planted difference {planted}"
            )


def _verify_catalog(report: dict, goldens: dict) -> None:
    rows, sods, warnings = [], [], []
    for case in CATALOG_CASES:
        golden = goldens[case]
        rows += [{**row, "name": f"{case}:{row['name']}"} for row in golden["checks"]]
        rows.append(
            {"name": f"{case}:golden", "lhs": "", "rhs": "", "status": "pass", "witness": None,
             "notes": ["matches stored golden"]}
        )
        sods += [{**sod, "name": f"{case}:{sod['name']}"} for sod in golden["sods"]]
        warnings += [w for w in golden["warnings"] if w not in warnings]
    for field, want in (("checks", rows), ("sods", sods), ("warnings", warnings)):
        got = report[field]
        if len(got) != len(want):
            raise AssertionError(f"catalog {field}: {len(got)} entries, golden has {len(want)}")
        for got_item, want_item in zip(got, want):
            if got_item != want_item:
                keys = [k for k in want_item if got_item.get(k) != want_item[k]] if isinstance(want_item, dict) else []
                raise AssertionError(f"catalog {field} entry {want_item!r:.80} differs in {keys or 'value'}")


def _verify_prop(job, report: dict) -> None:
    seed, cases = job.args[2], job.args[4]
    parameters = f"prop seed={seed} cases={cases} max_length=5 max_rank_v=9 mutate_join_bound=False"
    if report["input_digest"] != _sha256(parameters):
        raise AssertionError("prop report digest does not match its parameters")
    want = [
        {"name": f"prop:{name}", "lhs": "", "rhs": "", "status": "pass", "witness": None,
         "notes": [f"{cases}/{cases} cases passed", f"seed={seed}"]}
        for name in PROP_PROPERTIES
    ]
    if report["checks"] != want or report["sods"] or report["warnings"]:
        raise AssertionError(f"prop report rows {report['checks']!r:.120} differ from the expected passes")


def verify(job, code: int, stdout: str, report: dict, goldens: dict) -> None:
    """Raise AssertionError unless the job's exit code and report are right."""
    if list(report) != REPORT_KEYS:
        raise AssertionError(f"report keys {list(report)}")
    if job.kind == "catalog":
        if code != 0:
            raise AssertionError(f"catalog exit code {code}")
        _verify_catalog(report, goldens)
        return
    if job.kind == "prop":
        if code != 0:
            raise AssertionError(f"prop exit code {code}")
        _verify_prop(job, report)
        return
    if code != job.exit_code:
        raise AssertionError(f"exit code {code}, expected {job.exit_code}")
    if report["input_digest"] != _sha256(job.source) or report["sods"]:
        raise AssertionError("check report digest or decompositions are wrong")
    if len(report["checks"]) != len(job.rows):
        raise AssertionError(f"{len(report['checks'])} rows, expected {len(job.rows)}")
    lines = stdout.splitlines()
    for index, (want, got) in enumerate(zip(job.rows, report["checks"])):
        _verify_row(job, want, got)
        if index >= len(lines) or not lines[index].startswith(f"check {want.name}: {want.status}"):
            raise AssertionError(f"stdout line {index + 1} does not report {want.name}: {want.status}")


# -- running jobs ------------------------------------------------------------------------------


class Runner:
    """Runs jobs in process against the imported CLI and checks each one."""

    def __init__(self, cli, workdir: str) -> None:
        self.cli = cli
        self.goldens = oracle.load_goldens(ROOT)
        self.infile = os.path.join(workdir, "job.hpd")
        self.outfile = os.path.join(workdir, "report.json")
        self.report_bytes = 0

    def argv(self, job) -> list:
        if job.kind == "check":
            return ["check", self.infile, "--json", self.outfile]
        return [*job.args, "--json", self.outfile]

    def run(self, job) -> tuple:
        """(seconds to verdict, error or None) for one job."""
        if job.kind == "check":
            with open(self.infile, "w", encoding="utf-8") as handle:
                handle.write(job.source)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.outfile)
        out, err = io.StringIO(), io.StringIO()
        argv = self.argv(job)
        code, error = None, None
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except JobTimeout as exc:
            error = str(exc)
        except SystemExit as exc:
            error = f"exited with {exc.code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # the job fails; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is None:
            try:
                self.report_bytes += os.path.getsize(self.outfile)
                verify(job, code, out.getvalue(), load_report(self.outfile), self.goldens)
            except (AssertionError, OSError, ValueError, KeyError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            error = f"{job.label} job ({' '.join(argv)}): {error}; stderr: {err.getvalue().strip()[:200]}"
        return elapsed, error


def run_cycles(runner, stream, cycle: int, *, seconds: float = 0.0, cycles: int = 0, between=None):
    """Whole cycles of jobs, until `seconds` have passed and MIN_JOBS are done,
    or exactly `cycles` cycles; `between(elapsed)` runs after each job.
    Returns [(label, seconds, error)]."""
    results = []
    start = time.perf_counter()
    while True:
        for _ in range(cycle):
            job = next(stream)
            elapsed, error = runner.run(job)
            results.append((job.label, elapsed, error))
            if between:
                between(time.perf_counter() - start)
        if cycles:
            if len(results) >= cycles * cycle:
                return results
        elif time.perf_counter() - start >= seconds and len(results) >= MIN_JOBS:
            return results
        if time.perf_counter() - start >= MAX_RUN_S:
            return results


# -- metrics -------------------------------------------------------------------------------------


def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter until it has imported hpdcalc.cli from src/."""
    code = (
        "import os, sys; sys.path.insert(0, sys.argv[1]); import hpdcalc.cli as cli; "
        "assert os.path.abspath(cli.__file__).startswith(sys.argv[1] + os.sep); print('ready', flush=True)"
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, SRC], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
    finally:
        proc.wait(timeout=60)
    if line != "ready\n" or proc.returncode != 0:
        raise SystemExit("perfbench: a fresh interpreter could not import hpdcalc.cli")
    return elapsed


# Host-speed calibration. On the shared 2-core VM where this benchmark was
# defined, identical jobs run up to 40% slower for a minute at a time, so raw
# times of runs on different seeds spread by up to 0.38 (see README.md).
# Between jobs a run therefore also times a fixed piece of pure-Python work
# that shares no code with hpdcalc, and reports its end-to-end times at the
# speed that work had when REFERENCE_S was measured: raw time * REFERENCE_S /
# median reference time. The raw figures and the factor are printed above
# the result.
_LINEAR = oracle.add(oracle.const(1), *(oracle.scale(oracle.sym(f"s{i}"), i + 1) for i in range(8)))
_SQUARE = oracle.mul(_LINEAR, _LINEAR)
REFERENCE_S = 0.010  # about the median of reference_seconds() on that VM
REFERENCE_SHARE = 0.02  # of the run's time spent on reference samples


def reference_seconds() -> float:
    start = time.perf_counter()
    for _ in range(8):
        oracle.mul(_SQUARE, _SQUARE)
    return time.perf_counter() - start


class Host:
    """Samples taken between jobs, spread over the run so that they see the
    same host as the jobs: SETUP_PROBES set-up probes and reference timings."""

    def __init__(self, seconds: float) -> None:
        setup_probe()  # writes the bytecode; not counted
        self.every = seconds / SETUP_PROBES
        self.setup: list = []
        self.reference: list = []

    def between(self, elapsed: float) -> None:
        if len(self.setup) < SETUP_PROBES and elapsed >= len(self.setup) * self.every:
            self.setup.append(setup_probe())
        while not self.reference or sum(self.reference) < REFERENCE_SHARE * elapsed:
            self.reference.append(reference_seconds())

    def setup_seconds(self) -> float:
        while len(self.setup) < SETUP_PROBES:
            self.setup.append(setup_probe())
        return statistics.median(self.setup)

    def slowdown(self) -> float:
        """How much slower than at REFERENCE_S the host ran during the run."""
        return statistics.median(self.reference) / REFERENCE_S


def tail_index(count: int) -> int:
    """Nearest-rank index of the TAIL_PERCENTILE in a sorted list of `count`."""
    return max(0, math.ceil(TAIL_PERCENTILE / 100 * count) - 1)


def end_to_end(results, cycle: int, setup: float) -> dict:
    """Raw end-to-end figures of a run, as {name: (value, unit)}."""
    # A failed job counts as missing every latency target.
    times = [JOB_LIMIT_S if error else elapsed for _, elapsed, error in results]
    ordered = sorted(times)
    windows = [times[i : i + cycle] for i in range(0, len(times) - cycle + 1, cycle)]
    return {
        "setup_s": (setup, "s"),
        "jobs_per_s": (statistics.median(len(w) / sum(w) for w in windows), "1/s"),
        "verdict_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "verdict_tail_ms": (1000.0 * ordered[tail_index(len(ordered))], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def at_reference_speed(raw: dict, slowdown: float) -> dict:
    """Times divided, and rates multiplied, by the run's host slowdown."""
    scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
    return {name: (value * scale.get(unit, 1.0), unit) for name, (value, unit) in raw.items()}


def host() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu or platform.processor()}


# -- main -------------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(cli, workdir)
        cycle = workloads.cycle_length(args.workload)
        run_cycles(runner, workloads.jobs(args.workload, args.seed, "warmup"), cycle, cycles=1)
        stream = workloads.jobs(args.workload, args.seed, "main")
        if args.trace:
            results, metrics = traced(runner, stream, cycle, args)
        else:
            host_samples = Host(args.seconds)
            results = run_cycles(runner, stream, cycle, seconds=args.seconds, between=host_samples.between)
            raw = end_to_end(results, cycle, host_samples.setup_seconds())
            slowdown = host_samples.slowdown()
            metrics = at_reference_speed(raw, slowdown)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [error for _, _, error in results if error]
    attempted = len(results)
    for error in errors[:5]:
        print(f"FAILED {error}")
    print(f"host {json.dumps(host())}")
    if args.trace:
        print(f"workload {args.workload} seed {args.seed}: {attempted // 2} jobs, untraced then traced")
    else:
        print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, tail = p{TAIL_PERCENTILE} "
              f"({attempted - 1 - tail_index(attempted)} samples beyond it)")
        print(f"host slowdown {slowdown} ({len(host_samples.reference)} reference samples); raw figures:")
        for name, (value, unit) in raw.items():
            print(f"raw {name} = {value} {unit}")
    print(f"metric error_ratio = {len(errors) / attempted:.6f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def traced(runner, stream, cycle: int, args):
    """Replay a fixed job list untraced, then traced; per-layer metrics."""
    cycles = max(1, int(args.seconds / (2.5 * TRACE_CYCLE_S[args.workload])))
    jobs = [next(stream) for _ in range(cycles * cycle)]
    plain = [runner.run(job) for job in jobs]
    tracer = tracing.Tracer()
    runner.report_bytes = 0
    tracer.install()
    try:
        traced_runs = []
        for index, job in enumerate(jobs):
            tracer.begin_job(index)
            traced_runs.append(runner.run(job))
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    metrics = tracer.metrics()
    metrics["report.bytes"] = (runner.report_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (sum(t for t, _ in traced_runs) / sum(t for t, _ in plain), "ratio")
    results = [(job.label, t, e) for job, (t, e) in zip(jobs, traced_runs)]
    results += [(job.label, t, e) for job, (t, e) in zip(jobs, plain)]
    return results, metrics


if __name__ == "__main__":
    sys.exit(main())
