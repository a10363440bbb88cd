"""Output checks.  They run outside the timed regions.

Each check returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.simulation.runner import replay

_COLUMNS = (
    "arrival_times",
    "processing_times",
    "hits",
    "waiting_times",
    "creation_times",
    "ready_times",
    "start_times",
    "pending_times",
    "proactive_flags",
)


def check_served_once(trace, result) -> list[str]:
    """Every query of ``trace`` is served exactly once, after it arrives."""
    where = f"{result.scaler_name} on {trace.name}"
    if result.n_queries != trace.n_queries:
        return [f"{where}: {result.n_queries} rows for {trace.n_queries} queries"]
    if not np.array_equal(result.arrival_times, trace.arrival_times):
        return [f"{where}: rows do not match the trace's arrivals"]
    start, ready = result.start_times, result.ready_times
    problems = []
    if not np.all(np.isfinite(start)):
        problems.append(f"{where}: a query was never started")
    elif not np.array_equal(start, np.maximum(ready, result.arrival_times)):
        problems.append(f"{where}: a query started before its instance or its arrival")
    if np.any(ready < result.creation_times):
        problems.append(f"{where}: an instance was ready before it was created")
    return problems


def check_planned(trace, result, effective_creations: Counter) -> list[str]:
    """No instance exists that no plan asked for, or before its plan.

    ``effective_creations`` counts ``max(action.creation_time, plan time)``
    over every action the policy returned: the engine creates a proactive
    instance at exactly that time, so each proactive row must consume one of
    them.  Cold starts are created at their query's arrival.
    """
    where = f"{result.scaler_name} on {trace.name}"
    proactive = result.proactive_flags
    cold = ~proactive
    if not np.array_equal(result.creation_times[cold], result.arrival_times[cold]):
        return [f"{where}: a cold start was not created at its query's arrival"]
    unplanned = Counter(result.creation_times[proactive].tolist()) - effective_creations
    if unplanned:
        return [f"{where}: {sum(unplanned.values())} instances were created without a plan"]
    return []


def same_rows(a, b) -> bool:
    """Whether two results hold the same simulated rows (planning wall time aside)."""
    return (
        a.n_queries == b.n_queries
        and a.unused_instance_cost == b.unused_instance_cost
        and a.n_unused_instances == b.n_unused_instances
        and len(a.planning_times) == len(b.planning_times)
        and all(np.array_equal(getattr(a, c), getattr(b, c)) for c in _COLUMNS)
    )


class _PlanRecorder:
    """Record the actions a scaler returns, with the time of each hook call."""

    def __init__(self, scaler) -> None:
        self.creations: Counter = Counter()
        # Instance attributes shadow the class hooks for both engines; the
        # batched engine's passivity test looks at the class, so it is kept.
        for hook in ("initialize", "on_planning_tick", "on_query_arrival"):
            setattr(scaler, hook, self._recording(getattr(scaler, hook)))

    def _recording(self, hook):
        def recorded(context):
            response = hook(context)
            if response is not None:
                for action in response.actions:
                    self.creations[max(float(action.creation_time), context.time)] += 1
            return response

        return recorded


def check_prefix(trace, make_scaler, simulation, reference_simulation) -> list[str]:
    """Replay ``trace`` on both engines and check parity, service and plans."""
    results = {}
    problems = []
    for label, config in (("default", simulation), ("reference", reference_simulation)):
        scaler = make_scaler()
        recorder = _PlanRecorder(scaler)
        result = replay(trace, scaler, config)
        results[label] = result
        problems += check_served_once(trace, result)
        problems += check_planned(trace, result, recorder.creations)
    if not same_rows(results["default"], results["reference"]):
        problems.append(
            f"{results['default'].scaler_name} on {trace.name}: the "
            f"{simulation.engine} engine's rows differ from the reference engine's"
        )
    return problems
