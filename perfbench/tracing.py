"""Outside-in trace of hpdcalc: spans around each module's public functions.

`Tracer.install` replaces every public function of the traced modules (their
`__all__`) with a timing wrapper, in every hpdcalc module namespace that binds
it, so calls between modules are seen too (`engine.n_hyperplane_sod` is bound
in `engine` and in `checks`). `Workspace.build` is wrapped on its class. The
polynomial value type is instrumented with counters rather than spans, since
its operations run millions of times: constructions, additions and
multiplications (with their time), evaluations and the largest term count.

Spans carry an id, the id of the enclosing span and the job id; they stay in
memory until `write_spans`. A span's self time is its duration minus the time
of its child spans and of the polynomial operations called directly inside it,
which are booked to the `poly` layer instead. Timed values include the
wrappers' own cost: compare them between commits, not with untraced runs.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "dsl", "model", "engine", "checks", "poly", "report", "catalog", "prop")

_UNDERDETERMINED = ("Underdetermined", "UnresolvedIntersection", "MissingDisjointness", "UnresolvedBaseLocus")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Size labels for the scaling curves, read from the arguments without any
# polynomial arithmetic so the poly counters stay untouched.
_LABELS = {
    "engine.n_hyperplane_sod": lambda a, k: f"n{len(_arg(a, k, 0, 'profiles'))}",
    "engine.n_join_components": lambda a, k: f"n{len(_arg(a, k, 0, 'profiles'))}",
    "engine.join_profile": lambda a, k: f"N{_arg(a, k, 0, 'p').ambient_rank_N}",
    "checks.find_witness": lambda a, k: f"k{len(_arg(a, k, 0, 'lhs').symbols() | _arg(a, k, 1, 'rhs').symbols())}",
    "prop.run_property": lambda a, k: _arg(a, k, 0, "name"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []  # open frames: [start, child seconds, span id]
        self.job = -1
        self.active: dict = defaultdict(int)
        self.inclusive: dict = defaultdict(float)  # outermost calls only
        self.calls: dict = defaultdict(int)
        self.layer_self: dict = defaultdict(float)
        self.layer_time: dict = defaultdict(float)  # outermost calls into the layer
        self.curve: dict = defaultdict(float)
        self.curve_jobs: dict = defaultdict(set)
        self.counts: dict = defaultdict(int)
        self.root_seconds = 0.0
        self.jobs = 0
        # [calls, seconds] for + and *, [constructions, peak terms], [evaluations, inside find_witness]
        self.add_acc = [0, 0.0]
        self.mul_acc = [0, 0.0]
        self.init_acc = [0, 0]
        self.eval_acc = [0, 0]
        self._undo: list = []

    # -- jobs ------------------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self.jobs += 1

    # -- spans -----------------------------------------------------------------------

    def _wrap(self, fn, key: str):
        layer = key.split(".", 1)[0]
        label_of = _LABELS.get(key)
        on_exit = _HOOKS.get(key)
        stack, spans, active, clock = self.stack, self.spans, self.active, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else ""
            sid = len(spans) + len(stack)
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            active[key] += 1
            active[layer] += 1
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                active[layer] -= 1
                duration = end - frame[0]
                if not active[layer]:
                    tracer.layer_time[layer] += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_seconds += duration
                tracer.layer_self[layer] += duration - frame[1]
                tracer.calls[key] += 1
                if not active[key]:
                    tracer.inclusive[key] += duration
                    if label:
                        tracer.curve[key, label] += duration
                        tracer.curve_jobs[key, label].add(tracer.job)
                spans.append((sid, parent, tracer.job, key, label, frame[0], end, duration - frame[1]))
                if on_exit:
                    on_exit(tracer, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"hpdcalc.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        namespaces = [m for n, m in sys.modules.items() if n == "hpdcalc" or n.startswith("hpdcalc.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])

        workspace = modules["model"].Workspace
        build = workspace.__dict__["build"]
        self._patch(workspace, "build", staticmethod(self._wrap(build.__func__, "model.Workspace.build")))
        self._instrument_poly(modules["poly"].InvariantExpr)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _instrument_poly(self, cls) -> None:
        stack, clock = self.stack, time.perf_counter
        init_acc, eval_acc, active = self.init_acc, self.eval_acc, self.active
        original_init, original_eval = cls.__init__, cls.evaluate

        def timed(original, acc):
            def op(a, b):
                start = clock()
                result = original(a, b)
                spent = clock() - start
                acc[0] += 1
                acc[1] += spent
                if stack:
                    stack[-1][1] += spent
                return result

            return op

        def __init__(self, terms=None):
            original_init(self, terms)
            init_acc[0] += 1
            if len(self._terms) > init_acc[1]:
                init_acc[1] = len(self._terms)

        def evaluate(self, assignment):
            eval_acc[0] += 1
            if active["checks.find_witness"]:
                eval_acc[1] += 1
            return original_eval(self, assignment)

        add, mul = timed(cls.__add__, self.add_acc), timed(cls.__mul__, self.mul_acc)
        for attr, value in (
            ("__init__", __init__),
            ("evaluate", evaluate),
            ("__add__", add),
            ("__radd__", add),
            ("__mul__", mul),
            ("__rmul__", mul),
        ):
            self._patch(cls, attr, value)

    # -- results -------------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer figures by name, as (value, unit)."""
        ms = lambda key: 1000.0 * self.inclusive.get(key, 0.0)  # noqa: E731
        poly_ops = self.add_acc[1] + self.mul_acc[1]
        layer_self, layer_time = dict(self.layer_self), dict(self.layer_time)
        layer_self["poly"] = layer_self.get("poly", 0.0) + poly_ops
        layer_time["poly"] = layer_self["poly"]  # poly calls no other layer
        out = {
            "poly.constructions": (self.init_acc[0], "count"),
            "poly.mul_calls": (self.mul_acc[0], "count"),
            "poly.add_calls": (self.add_acc[0], "count"),
            "poly.peak_terms": (self.init_acc[1], "count"),
            "poly.evaluate_calls": (self.eval_acc[0], "count"),
            "poly.mul_ms": (1000.0 * self.mul_acc[1], "ms"),
            "poly.add_ms": (1000.0 * self.add_acc[1], "ms"),
            "engine.n_hyperplane_sod_ms": (ms("engine.n_hyperplane_sod"), "ms"),
            "engine.n_hyperplane_blocks": (self.counts["engine.n_hyperplane_blocks"], "count"),
            "engine.n_join_components_ms": (ms("engine.n_join_components"), "ms"),
            "engine.join_profile_ms": (ms("engine.join_profile"), "ms"),
            "engine.ruled_join_components_ms": (ms("engine.ruled_join_components"), "ms"),
            "engine.hpd_total_ms": (ms("engine.hpd_total"), "ms"),
        }
        for key, labels in CURVES.items():
            for label in labels:
                jobs = len(self.curve_jobs.get((key, label), ()))
                per_job = 1000.0 * self.curve.get((key, label), 0.0) / jobs if jobs else 0.0
                out[f"{key}_ms.{label}"] = (per_job, "ms")
                out[f"{key}_ms.{label}.jobs"] = (jobs, "count")
        witnesses = self.calls["checks.find_witness"]
        out.update(
            {
                "checks.main_theorem_ms": (ms("checks.check_main_theorem"), "ms"),
                "checks.n_hpd_center_ms": (ms("checks.check_n_hpd_center"), "ms"),
                "checks.join_linear_ms": (ms("checks.check_join_linear"), "ms"),
                "checks.cone_ms": (ms("checks.check_thm_cone_part1") + ms("checks.check_thm_cone_part2"), "ms"),
                "checks.dual_profile_ms": (ms("checks.check_dual_profile"), "ms"),
                "checks.find_witness_ms": (ms("checks.find_witness"), "ms"),
                "checks.find_witness_calls": (witnesses, "count"),
                "checks.witness_evaluations": (self.eval_acc[1], "count"),
                "checks.witness_yield": (witnesses / self.eval_acc[1] if self.eval_acc[1] else 0.0, "ratio"),
                "checks.verdicts_pass": (self.counts["verdict.pass"], "count"),
                "checks.verdicts_fail": (self.counts["verdict.fail"], "count"),
                "checks.verdicts_underdetermined": (self.counts["verdict.underdetermined"], "count"),
                "dsl.parse_ms": (ms("dsl.parse"), "ms"),
                "dsl.validate_ms": (ms("dsl.validate"), "ms"),
                "dsl.input_bytes": (self.counts["dsl.input_bytes"], "bytes"),
                "dsl.statements": (self.counts["dsl.statements"], "count"),
                "model.build_profile_ms": (ms("model.build_profile"), "ms"),
                "model.build_profile_calls": (self.calls["model.build_profile"], "count"),
                "model.workspace_build_ms": (ms("model.Workspace.build"), "ms"),
                "report.build_ms": (ms("report.build_report"), "ms"),
                "cli.self_ms": (1000.0 * layer_self.get("cli", 0.0), "ms"),
                "catalog.run_case_ms": (ms("catalog.run_case"), "ms"),
                "catalog.compare_ms": (ms("catalog.compare_case"), "ms"),
            }
        )
        for name in ("conservation", "join-laws", "splitting"):
            out[f"prop.{name}_ms"] = (1000.0 * self.curve.get(("prop.run_property", name), 0.0), "ms")
        out["prop.cases"] = (self.counts["prop.cases"], "count")
        total = self.root_seconds or 1.0
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (layer_self.get(layer, 0.0) / total, "ratio")
            out[f"{layer}.time_share"] = (layer_time.get(layer, 0.0) / total, "ratio")
        out["trace.jobs"] = (self.jobs, "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.job_ms"] = (1000.0 * self.root_seconds, "ms")
        return out


# Curve points reported per size label, with the number of jobs behind each.
CURVES = {
    "engine.n_hyperplane_sod": ("n4", "n5", "n6"),
    "engine.n_join_components": ("n4", "n5", "n6"),
    "engine.join_profile": ("N16", "N24", "N32"),
    "checks.find_witness": ("k4", "k5", "k6", "k7", "k8"),
}


def _count_parse(tracer, args, kwargs, result, error):
    tracer.counts["dsl.input_bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))
    if result is not None:
        tracer.counts["dsl.statements"] += len(result.statements)


def _count_blocks(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counts["engine.n_hyperplane_blocks"] += len(result.sod.blocks)


def _count_verdict(tracer, args, kwargs, result, error):
    if result is not None:
        tracer.counts[f"verdict.{result.status}"] += 1
    elif type(error).__name__ in _UNDERDETERMINED:
        tracer.counts["verdict.underdetermined"] += 1


def _count_cases(tracer, args, kwargs, result, error):
    tracer.counts["prop.cases"] += _arg(args, kwargs, 2, "cases")


_HOOKS = {
    "dsl.parse": _count_parse,
    "engine.n_hyperplane_sod": _count_blocks,
    "dsl.run_check": _count_verdict,
    "prop.run_property": _count_cases,
}
