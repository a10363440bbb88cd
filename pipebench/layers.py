"""The traced pass: per-layer counts and time sums from wrapped public calls.

:class:`Tracer` keeps one aggregate per span name (calls, total time, self
time and named counts), never one record per call, so per-tick layers cost
two clock reads per call.  A layer's self time is its total minus the time
of the spans directly inside it.  :func:`installed` wraps each layer's
public functions for the duration of a ``with`` block and restores them
afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import repro.nhpp.model as nhpp_model
import repro.optimization.montecarlo as montecarlo
import repro.runtime.workload as runtime_workload
import repro.scaling.robustscaler as robustscaler
from repro.nhpp.intensity import PiecewiseConstantIntensity
from repro.nhpp.model import NHPPModel
from repro.periodicity.detector import PeriodicityDetector
from repro.scaling.base import Autoscaler
from repro.scaling.robustscaler import RobustScaler

#: The replay and summarize spans cover eval_pass's own per-replay timers
#: to within this share (plus 1 ms).
CLOSURE_TOLERANCE = 0.01


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # Open spans: [name, start, time of direct children].
        self._stack: list[list] = []

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, function, count=None):
        """``function`` inside a span; ``count(stat.counts, result)`` after it.

        A call made while a span of the same name is open (recursion) runs
        unwrapped, so it is timed once, as part of the outer call.
        """
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            self._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(self.stats[name].counts, result)
            return result

        return traced

    def take(self) -> dict[str, Stat]:
        """The stats so far; the tracer starts again from empty."""
        if self._stack:
            raise RuntimeError(f"spans still open: {[s[0] for s in self._stack]}")
        stats, self.stats = dict(self.stats), defaultdict(Stat)
        return stats


def _count_sampled(counts, result) -> None:
    counts["sampled_arrivals"] += int(result.size)


def _count_scenarios(counts, result) -> None:
    counts["scenario_queries"] += result.n_queries


def _count_response(counts, response) -> None:
    actions = len(response.actions) if response is not None else 0
    counts["actions"] += actions
    counts["empty_rounds"] += actions == 0


_HOOKS = ("initialize", "on_planning_tick", "on_query_arrival")


def _patch_points():
    """``(owner, attribute, span name, count)`` for every wrapped call."""
    points = [
        (PeriodicityDetector, "detect", "periodicity.detect", None),
        (nhpp_model, "fit_log_intensity", "nhpp.admm", None),
        (NHPPModel, "forecast", "nhpp.forecast", None),
        (runtime_workload, "replay", "runtime.reference_replay", None),
        (PiecewiseConstantIntensity, "shift", "nhpp.shift", None),
        (PiecewiseConstantIntensity, "cumulative", "nhpp.cumulative", None),
        (montecarlo, "sample_next_arrivals", "nhpp.sample", _count_sampled),
        (robustscaler, "generate_scenarios", "optimization.scenarios", _count_scenarios),
    ]
    for solver in ("solve_hp_constrained", "solve_rt_constrained", "solve_cost_constrained"):
        points.append((robustscaler, solver, "optimization.solve", None))
    # Every RobustScaler hook, wherever it is defined.  Wrapping the
    # base-class no-op arrival hook keeps passivity intact: the batched
    # engine compares the subclass attribute with that same (wrapped) object.
    for cls in (Autoscaler, RobustScaler):
        for hook in _HOOKS:
            if hook in vars(cls):
                points.append((cls, hook, "scaling.plan", _count_response))
    return points


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer's public calls with ``tracer`` for a ``with`` block."""
    originals = []
    try:
        for owner, attribute, name, count in _patch_points():
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def closure_problems(stats: dict[str, Stat], root: str) -> list[str]:
    """No self time under ``root`` is negative, and the self times sum to it.

    The sum holds by construction for spans nested under ``root``; it fails
    when a span was opened outside the root.  It shares the tracer's clock,
    so it says nothing about time the spans missed: :func:`coverage_problems`
    checks that against a clock the tracer does not read.
    """
    problems = []
    negative = [n for n, s in stats.items() if s.self_time < -1e-9]
    if negative:
        problems.append(f"{root}: negative self time in {negative}")
    total = stats[root].total
    summed = sum(s.self_time for s in stats.values())
    if abs(summed - total) > 1e-9 * max(1.0, total):
        problems.append(f"{root}: self times sum to {summed:.6f} s, root is {total:.6f} s")
    return problems


def coverage_problems(stats: dict[str, Stat], loop_seconds: float) -> list[str]:
    """The replay and summarize spans must account for the replay loop's time.

    ``loop_seconds`` is the sum of ``pipeline.eval_pass``'s own per-replay
    timers, read around the same calls by the pass itself.  The spans lie
    inside those timers, so they may fall short of them only by the row
    bookkeeping between the calls.
    """
    spanned = sum(
        stats[name].total for name in ("simulation.replay", "metrics.summarize") if name in stats
    )
    slack = CLOSURE_TOLERANCE * loop_seconds + 1e-3
    if not loop_seconds - slack <= spanned <= loop_seconds:
        return [
            f"eval: replay and summarize spans total {spanned:.4f} s, the pass's "
            f"own timers {loop_seconds:.4f} s (allowed gap {slack:.4f} s)"
        ]
    return []
