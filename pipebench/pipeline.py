"""The measured pipeline, driven through the package's public calls.

``make_trace`` -> ``prepare_workload`` -> scaler construction -> ``replay``
-> ``summarize_result``.  :func:`eval_pass` takes a ``span`` context-manager
factory: the untraced pass gives a no-op, the traced pass gives
:meth:`layers.Tracer.span`, so both passes run the same code.
"""

from __future__ import annotations

import contextlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import numpy as np

from repro.config import SimulationConfig
from repro.experiments.base import (
    build_robustscaler,
    make_trace,
    trace_defaults,
)
from repro.metrics.report import summarize_result
from repro.runtime.workload import PreparedWorkload, prepare_workload
from repro.scaling.robustscaler import RobustScalerObjective
from repro.simulation.runner import replay, resolve_engine
from repro.types import ArrivalTrace
from repro.workloads import get_scenario

from workloads import HP_TARGET, RT_BUDGET, Workload

Span = Callable[[str], ContextManager]

#: Summary columns that hold wall-clock planning time, not simulated outcomes.
_WALL_CLOCK_COLUMNS = ("mean_planning_seconds", "max_planning_seconds")


def no_span(name: str) -> ContextManager:
    return contextlib.nullcontext()


@dataclass
class Ops:
    """Operations attempted and failed in one run (fits and replays)."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @contextlib.contextmanager
    def attempt(self, what: str):
        """Count one operation; an exception inside counts it as failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed fit or replay is reported, not fatal
            traceback.print_exc()
            self.fail(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Prepared:
    """What the eval passes replay: the windows, the engine config, the model."""

    traces: list[ArrivalTrace]
    simulation: SimulationConfig
    workload: PreparedWorkload

    @property
    def period_bins(self) -> int:
        return self.workload.model.period_bins


def build_trace(w: Workload, seed: int) -> ArrivalTrace:
    return make_trace(w.scenario, scale=w.scale, seed=seed)


def train_fraction(w: Workload) -> float:
    return trace_defaults(w.scenario)["train_fraction"]


def prepare(w: Workload, trace: ArrivalTrace) -> Prepared:
    """Split, fit and forecast (``prepare_workload``), then cut the windows."""
    defaults = trace_defaults(w.scenario)
    workload = prepare_workload(
        trace,
        train_fraction=defaults["train_fraction"],
        bin_seconds=defaults["bin_seconds"],
        pending_time=get_scenario(w.scenario).pending_time,
        engine=resolve_engine(None),
    )
    windows = [workload.test.slice_time(start, end) for start, end in w.windows]
    return Prepared(windows, workload.simulation, workload)


def make_scalers(w: Workload, prepared: Prepared) -> list:
    """Fresh RobustScaler HP, RT and cost instances for one pass.

    ``build_robustscaler`` uses the experiments' ``default_planner()``: a 2 s
    planning interval and 500 Monte Carlo samples.
    """
    return [
        build_robustscaler(prepared.workload, objective, target)
        for objective, target in (
            (RobustScalerObjective.HIT_PROBABILITY, HP_TARGET),
            (RobustScalerObjective.RESPONSE_TIME, RT_BUDGET),
            (RobustScalerObjective.COST, w.cost_budget),
        )
    ]


def eval_pass(w: Workload, prepared: Prepared, ops: Ops, span: Span = no_span):
    """Replay and summarize every scaler on every trace of the workload.

    Returns ``(rows, results, seconds)``, one entry per replay, ``seconds``
    being its replay-and-summarize wall time.  A replay that raises is
    counted in ``ops`` and leaves no entry.
    """
    rows, results, seconds = [], [], []
    for scaler in make_scalers(w, prepared):
        for trace in prepared.traces:
            with ops.attempt(f"replay {scaler.name} on {trace.name}"):
                started = time.perf_counter()
                with span("simulation.replay"):
                    result = replay(trace, scaler, prepared.simulation)
                with span("metrics.summarize"):
                    row = summarize_result(result)
                seconds.append(time.perf_counter() - started)
                rows.append({"scaler": scaler.name, "trace": trace.name, **row})
                results.append((trace, result))
    return rows, results, seconds


def rows_signature(rows: list[dict]) -> str:
    """The simulated outcomes of ``rows`` as text, wall-clock columns dropped."""
    kept = [{k: v for k, v in row.items() if k not in _WALL_CLOCK_COLUMNS} for row in rows]
    return json.dumps(kept, sort_keys=True)


def decision_latencies(result) -> np.ndarray:
    """Policy hook latencies (seconds) of one replay, in call order.

    The batched engine pads ``planning_times`` with 0.0 for every arrival it
    served without calling a passive hook; those are dropped.
    """
    times = np.asarray(result.planning_times, dtype=float)
    return times[times != 0.0]


