"""One benchmark run: the untraced end-to-end pass or the traced per-layer pass."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from checks import check_prefix, check_served_once
from layers import Stat, Tracer, closure_problems, coverage_problems, installed
from pipeline import (
    Ops,
    build_trace,
    decision_latencies,
    eval_pass,
    make_scalers,
    prepare,
    rows_signature,
    train_fraction,
)
from repro.telemetry import Recorder, use

# A fresh interpreter that imports the package, builds the trace and splits it.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.experiments.base import make_trace; "
    "make_trace(sys.argv[2], scale=float(sys.argv[3]), seed=int(sys.argv[4]))"
    ".split(float(sys.argv[5]))"
)


class Run:
    """State of one benchmark invocation: operations, problems, metrics."""

    def __init__(self, workload, seed: int, src: Path) -> None:
        self.w = workload
        self.seed = seed
        self.src = src
        self.ops = Ops()
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.detail: dict = {}

    def metric(self, name, value, unit, samples=1) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    # ------------------------------------------------------------ steps

    def time_setup(self) -> float | None:
        """Wall time of one fresh interpreter that imports, builds and splits."""
        command = [
            sys.executable,
            "-c",
            _SETUP_CODE,
            str(self.src),
            self.w.scenario,
            repr(self.w.scale),
            str(self.seed),
            repr(train_fraction(self.w)),
        ]
        with self.ops.attempt("setup"):
            started = time.perf_counter()
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=150)
            return time.perf_counter() - started
        return None

    def prepare(self, trace):
        """One prepare, checked; ``(prepared, seconds)``, or ``(None, 0.0)`` if it failed."""
        with self.ops.attempt("prepare"):
            started = time.perf_counter()
            prepared = prepare(self.w, trace)
            seconds = time.perf_counter() - started
            if prepared.period_bins == 0:
                raise RuntimeError("period detection found no period; the fit is aperiodic")
            return prepared, seconds
        return None, 0.0

    @staticmethod
    def prepared_signature(prepared):
        return (prepared.period_bins, prepared.workload.forecast.values.tobytes())

    def check_outputs(self, prepared, results) -> None:
        """Service checks on every result, then the two-engine prefix check."""
        for trace, result in results:
            self.problems += check_served_once(trace, result)
        busiest = max(prepared.traces, key=lambda trace: trace.n_queries)
        prefix = busiest.slice_time(0.0, min(self.w.parity_window_s, busiest.horizon))
        for index in range(len(make_scalers(self.w, prepared))):
            self.problems += check_prefix(
                prefix,
                lambda: make_scalers(self.w, prepared)[index],
                prepared.simulation,
                replace(prepared.simulation, engine="reference"),
            )

    # ------------------------------------------------------------ untraced

    def untraced(self) -> None:
        """Set-ups, prepares and eval passes, interleaved through the run.

        On a shared 2-vCPU VM the speed changes from one millisecond to the
        next, and for stretches of seconds to minutes.  Short units keep
        their fastest repeat: ``eval_s`` sums each replay's (about 0.1 s)
        fastest pass, and every planning round's latency is its fastest
        pass before the percentiles are taken.  Replays are deterministic,
        so the same replay and round do the same work in every pass.  Units
        of seconds keep their median repeat: ``setup_s`` and ``fit_s``.  A
        fast stretch rarely covers a whole prepare, so its fastest repeat
        depends on luck (NOTES.md has the figures).
        """
        trace = build_trace(self.w, self.seed)
        setup_times, prepare_times, passes = [], [], []
        prepared = None
        rounds = max(self.w.setup_repeats, self.w.prepare_repeats, self.w.eval_passes)
        for index in range(rounds):
            if index < self.w.setup_repeats:
                seconds = self.time_setup()
                if seconds is not None:
                    setup_times.append(seconds)
            if index < self.w.prepare_repeats:
                candidate, seconds = self.prepare(trace)
                if candidate is not None:
                    prepare_times.append(seconds)
                    if prepared is None:
                        prepared = candidate
                    elif self.prepared_signature(candidate) != self.prepared_signature(prepared):
                        self.problems.append("two prepares of one trace gave different models")
            if prepared is not None and index < self.w.eval_passes:
                passes.append(eval_pass(self.w, prepared, self.ops))
        if prepared is None or not setup_times or not passes:
            return
        if len({rows_signature(rows) for rows, _, _ in passes}) > 1:
            self.problems.append("eval passes of one run gave different rows")
            return
        self.check_outputs(prepared, passes[0][1])

        replay_seconds = np.array([seconds for _, _, seconds in passes])
        latencies = np.concatenate(
            [
                np.min([decision_latencies(result) for _, result in per_pass], axis=0)
                for per_pass in zip(*(results for _, results, _ in passes))
            ]
        )
        p50, p99 = np.percentile(latencies, [50, 99])
        self.metric("setup_s", statistics.median(setup_times), "s", len(setup_times))
        self.metric("fit_s", statistics.median(prepare_times), "s", len(prepare_times))
        self.metric("eval_s", replay_seconds.min(axis=0).sum(), "s", len(passes))
        self.metric("decision_p50_ms", p50 * 1e3, "ms", latencies.size)
        self.metric("decision_p99_ms", p99 * 1e3, "ms", latencies.size)
        self.detail.update(
            period_bins=prepared.period_bins,
            queries=trace.n_queries,
            replayed_queries=sum(t.n_queries for t in prepared.traces),
            eval_pass_s=replay_seconds.sum(axis=1).tolist(),
            prepare_s=prepare_times,
            setup_s=setup_times,
        )

    # -------------------------------------------------------------- traced

    def traced(self) -> None:
        """Prepare and one eval pass with every layer wrapped (see layers.py)."""
        tracer = Tracer()
        with tracer.span("workloads.build_trace"):
            trace = build_trace(self.w, self.seed)
        build = tracer.take()

        with installed(tracer), tracer.span("prepare"):
            prepared, _ = self.prepare(trace)
        prep = tracer.take()
        if prepared is None:
            return
        self.problems += closure_problems(prep, "prepare")

        # Untraced passes on both sides of the traced one, so that warm-up
        # and drift do not show up as tracing overhead.
        rows_untraced, _, before = eval_pass(self.w, prepared, self.ops)
        recorder = Recorder()
        with installed(tracer), use(recorder), tracer.span("eval"):
            rows, results, traced_seconds = eval_pass(self.w, prepared, self.ops, tracer.span)
        ev = tracer.take()
        _, _, after = eval_pass(self.w, prepared, self.ops)
        self.problems += closure_problems(ev, "eval")
        self.problems += coverage_problems(ev, sum(traced_seconds))
        if rows_signature(rows) != rows_signature(rows_untraced):
            self.problems.append("the traced and the untraced pass gave different rows")
        counters = recorder.snapshot()["counters"]
        hook_calls = sum(
            int(counters.get(f"engine.batched.{name}", 0))
            for name in ("replays", "planning_ticks", "hook_arrivals")
        )
        traced_calls = ev.get("scaling.plan", Stat()).calls
        if hook_calls != traced_calls:
            self.problems.append(
                f"the engine counted {hook_calls} hook calls, the tracer {traced_calls}"
            )
        self.check_outputs(prepared, results)
        self.layer_metrics(trace, prepared, results, build, prep, ev, hook_calls)
        overhead = sum(traced_seconds) - (sum(before) + sum(after)) / 2
        self.metric("tracing.overhead_s", overhead, "s", 3)
        self.detail.update(
            period_bins=prepared.period_bins,
            traced_prepare_s=prep["prepare"].total,
            traced_eval_s=ev["eval"].total,
        )

    def layer_metrics(self, trace, prepared, results, build, prep, ev, hook_calls) -> None:
        def stat(stats, name):
            return stats.get(name, Stat())

        m = self.metric
        m("workloads.build_trace_s", stat(build, "workloads.build_trace").total, "s")
        m("workloads.queries", trace.n_queries, "count")

        fit = prepared.workload.model.fit_result
        known = round(self.w.known_period_s / fit.bin_seconds)
        m("periodicity.detect_s", stat(prep, "periodicity.detect").total, "s")
        m("periodicity.period_bins", fit.period_bins, "bins")
        m("periodicity.period_error_bins", abs(fit.period_bins - known), "bins")

        admm = stat(prep, "nhpp.admm")
        iterations = fit.admm.n_iterations
        m("nhpp.admm_s", admm.total, "s")
        m("nhpp.admm_iterations", iterations, "count")
        m("nhpp.admm_converged", int(fit.admm.converged), "flag")
        m("nhpp.admm_ms_per_iter", 1e3 * admm.total / iterations, "ms")
        m("nhpp.forecast_s", stat(prep, "nhpp.forecast").total, "s")

        for name in (
            "nhpp.shift",
            "nhpp.cumulative",
            "nhpp.sample",
            "optimization.scenarios",
            "optimization.solve",
        ):
            s = stat(ev, name)
            m(f"{name}_calls", s.calls, "count")
            m(f"{name}_s", s.total, "s")
        m("nhpp.sampled_arrivals", stat(ev, "nhpp.sample").counts["sampled_arrivals"], "count")
        scenario_queries = stat(ev, "optimization.scenarios").counts["scenario_queries"]
        m("optimization.scenario_queries", scenario_queries, "count")

        plan = stat(ev, "scaling.plan")
        solves = stat(ev, "optimization.solve").calls
        actions = plan.counts["actions"]
        m("optimization.commit_ratio", actions / solves if solves else 0.0, "ratio")
        m("scaling.plan_calls", plan.calls, "count")
        m("scaling.plan_busy_s", plan.total, "s")
        m("scaling.plan_self_s", plan.self_time, "s")
        m("scaling.empty_rounds", plan.counts["empty_rounds"], "count")
        m("scaling.actions", actions, "count")

        replay = stat(ev, "simulation.replay")
        queries = sum(result.n_queries for _, result in results)
        m("simulation.replay_s", replay.total, "s")
        m("simulation.engine_self_s", replay.self_time, "s")
        m("simulation.queries", queries, "count")
        m("simulation.hook_calls", hook_calls, "count")
        m("simulation.queries_per_s", queries / replay.total if replay.total else 0.0, "1/s")
        m("metrics.summarize_s", stat(ev, "metrics.summarize").total, "s")
        m("runtime.reference_replay_s", stat(prep, "runtime.reference_replay").total, "s")
