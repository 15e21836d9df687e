"""In-memory span tracer that wraps relialloc's public functions from outside.

The package itself carries no instrumentation. ``Tracer.install`` replaces
each function listed in ``TRACED`` with a timing wrapper, in the defining
module and in every ``relialloc`` module that imported the name, and
``Tracer.uninstall`` puts the originals back. A span records
(id, name, start, end, parent, thread, run id, value); ``value`` carries a
per-call count where one is needed (draws, brute-force candidates, clamped
pilot estimates). Spans stay in memory until ``write_spans`` at the end.

Self time of a span is its duration minus the durations of its direct
children on the same thread. Spans opened in worker threads have no parent
on their own thread and count as roots there.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from relialloc.allocation import composition_count

#: Wrapped functions per module. ``Class.method`` entries patch the class.
#: ``experiments._map_replications`` is private but is the replication
#: driver shared by the experiment drivers and the CLI, so its span gives
#: the wall time that ``rep_concurrency`` divides by.
TRACED = {
    "experiments": (
        "replication_rng",
        "run_hybrid_expectation",
        "run_fixed_split_experiment",
        "run_convergence_sweep",
        "simulate_fixed_allocation",
        "empirical_variance",
        "_map_replications",
    ),
    "adaptive_sampling": (
        "hybrid_two_stage",
        "two_stage_subsystem",
        "plan_block_targets",
        "mle_cv",
        "pilot_size",
        "estimate_reliability",
        "SimulatedSource.draw_many",
    ),
    "allocation": (
        "integerize",
        "apportion",
        "component_fractions",
        "subsystem_weights",
        "subsystem_fractions",
        "rule_plan",
        "rule_allocation",
        "balanced_allocation",
        "brute_force_optimal",
    ),
    "variance_analysis": (
        "subsystem_variance",
        "system_variance",
        "lower_bound_subsystem",
        "lower_bound_system",
        "excess_variance",
    ),
    "system_model": (
        "subsystem_reliability",
        "system_reliability",
        "coeff_variation",
        "parse_system",
        "load_system",
    ),
}

LIBRARY_LAYERS = tuple(TRACED)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _draw_count(args, kwargs):
    # SimulatedSource.draw_many(self, i, j, count)
    return max(0, int(_arg(args, kwargs, 3, "count", 0)))


def _clamped(args, kwargs):
    # mle_cv(draws, successes): the clamp acts on all-failure or all-success pilots
    draws = _arg(args, kwargs, 0, "draws")
    successes = _arg(args, kwargs, 1, "successes")
    return int(successes <= 0 or successes >= draws)


def _candidates(args, kwargs):
    assignment = _arg(args, kwargs, 0, "assignment")
    total = _arg(args, kwargs, 1, "total")
    minimum = _arg(args, kwargs, 2, "min_per_slot", 1)
    return composition_count(total, assignment.topology.component_count, minimum)


VALUE_OF = {
    "adaptive_sampling.draw_many": _draw_count,
    "adaptive_sampling.mle_cv": _clamped,
    "allocation.brute_force_optimal": _candidates,
}


class Tracer:
    """Spans and per-call values for one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the caller's block."""
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), self.run_id, None)
            )

    def wrap(self, name: str, fn):
        tracer = self
        value_of = VALUE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                value = value_of(args, kwargs) if value_of is not None else None
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), tracer.run_id, value)
                )

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever relialloc bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("relialloc.cli")
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "relialloc" or key.startswith("relialloc."))
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"relialloc.{layer}"]
            for dotted in names:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[attr]
                    self._patch(owner, attr, self.wrap(f"{layer}.{attr}", original))
                    continue
                original = getattr(module, dotted)
                wrapper = self.wrap(f"{layer}.{dotted}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

def write_spans(spans, path: Path) -> None:
    """Write spans as JSON lines, one span per line, in id order."""
    keys = ("id", "name", "start", "end", "parent", "thread", "run_id", "value")
    with open(path, "w") as handle:
        for span in sorted(spans, key=lambda s: s[0]):
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def installed_wrappers() -> list[str]:
    """Names bound to a tracing wrapper anywhere in the loaded package."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == "relialloc" or key.startswith("relialloc.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, "__perfbench_traced__", False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for method, inner in vars(value).items():
                    if getattr(inner, "__perfbench_traced__", False):
                        found.append(f"{key}.{attr}.{method}")
    return found


def percentile(values, q: int) -> float:
    """q-th percentile by linear interpolation, 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(spans, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    ``ops`` is the number of operations the traced run performed
    (replications or queries), the base of the ``calls_per_op`` ratios.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, _, start, end, parent, thread, _, _ in spans:
        if parent is not None and by_id[parent][5] == thread:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    values = defaultdict(int)
    for sid, name, start, end, _, _, _, value in spans:
        calls[name] += 1
        durations[name].append(end - start)
        self_s[name] += end - start - child_time[sid]
        if value is not None:
            values[name] += value

    def us(name, q):
        return percentile(durations[name], q) * 1e6

    per_op = max(ops, 1)
    hybrid_s = sum(durations["adaptive_sampling.hybrid_two_stage"])
    driver_s = sum(durations["experiments._map_replications"])
    mle_calls = calls["adaptive_sampling.mle_cv"]
    candidates = values["allocation.brute_force_optimal"]
    brute_s = sum(durations["allocation.brute_force_optimal"])
    metrics = {
        "experiments.replication_rng.calls": calls["experiments.replication_rng"],
        "experiments.replication_rng.self_s": self_s["experiments.replication_rng"],
        "experiments.rep_concurrency": hybrid_s / driver_s if driver_s else 0.0,
        "adaptive_sampling.hybrid_two_stage.calls": calls["adaptive_sampling.hybrid_two_stage"],
        "adaptive_sampling.hybrid_two_stage.p50_us": us("adaptive_sampling.hybrid_two_stage", 50),
        "adaptive_sampling.hybrid_two_stage.p99_us": us("adaptive_sampling.hybrid_two_stage", 99),
        "adaptive_sampling.two_stage_subsystem.calls": calls["adaptive_sampling.two_stage_subsystem"],
        "adaptive_sampling.draw_many.calls": calls["adaptive_sampling.draw_many"],
        "adaptive_sampling.draw_many.self_s": self_s["adaptive_sampling.draw_many"],
        "adaptive_sampling.draws": values["adaptive_sampling.draw_many"],
        "adaptive_sampling.mle_cv.calls": mle_calls,
        "adaptive_sampling.mle_cv.clamped": values["adaptive_sampling.mle_cv"],
        "adaptive_sampling.clamped_share": (
            values["adaptive_sampling.mle_cv"] / mle_calls if mle_calls else 0.0
        ),
        "allocation.integerize.calls": calls["allocation.integerize"],
        "allocation.integerize.self_s": self_s["allocation.integerize"],
        "allocation.rule_allocation.calls": calls["allocation.rule_allocation"],
        "allocation.rule_allocation.p50_us": us("allocation.rule_allocation", 50),
        "allocation.brute_force_optimal.calls": calls["allocation.brute_force_optimal"],
        "allocation.brute_force_optimal.candidates": candidates,
        "allocation.brute_force_optimal.us_per_candidate": (
            brute_s * 1e6 / candidates if candidates else 0.0
        ),
        "variance_analysis.system_variance.calls": calls["variance_analysis.system_variance"],
        "variance_analysis.system_variance.p50_us": us("variance_analysis.system_variance", 50),
        "variance_analysis.lower_bound_system.calls": calls["variance_analysis.lower_bound_system"],
        "variance_analysis.lower_bound_system.p50_us": us("variance_analysis.lower_bound_system", 50),
        "system_model.subsystem_reliability.calls": calls["system_model.subsystem_reliability"],
        "system_model.subsystem_reliability.calls_per_op": (
            calls["system_model.subsystem_reliability"] / per_op
        ),
        "system_model.coeff_variation.calls": calls["system_model.coeff_variation"],
        "system_model.coeff_variation.calls_per_op": calls["system_model.coeff_variation"] / per_op,
        "cli.main.self_s": self_s["cli.main"],
    }
    for layer in LIBRARY_LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items() if name.startswith(layer + ".")
        )
    return metrics
