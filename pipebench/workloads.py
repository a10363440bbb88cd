"""The benchmark's workloads: which trace, which windows, which scalers.

Each workload does a fixed amount of work per run.  ``--seed`` only changes
which arrivals ``make_trace`` draws; the scale, the replayed windows and the
scaler set are constants, chosen so that period detection finds the daily
cycle on every seed (see NOTES.md for the evidence).
"""

from __future__ import annotations

from dataclasses import dataclass

_HOUR = 3600.0
_DAY = 24 * _HOUR


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name:
        Workload name, as in BENCHMARK.json (NOTES.md gives the reasons).
    scenario, scale:
        Registry scenario and ``make_trace`` scale.
    known_period_s:
        The generator's daily cycle, against which the detected period is
        scored.
    windows:
        ``(start, end)`` seconds of the test split replayed by the
        RobustScaler HP/RT/cost variants.
    cost_budget:
        RobustScaler-cost idle budget (seconds), about a quarter of the
        workload's mean inter-arrival gap.
    setup_repeats, prepare_repeats, eval_passes:
        Repetitions per run, interleaved (see ``measure.Run.untraced``).
    parity_window_s:
        Length of the prefix replayed by both engines for the parity check.
    """

    name: str
    scenario: str
    scale: float
    known_period_s: float
    windows: tuple[tuple[float, float], ...]
    cost_budget: float
    setup_repeats: int = 3
    prepare_repeats: int = 4
    eval_passes: int = 8
    parity_window_s: float = 1800.0


#: RobustScaler-HP target and RobustScaler-RT waiting budget (a quarter of
#: the 13 s pending time, the middle of the Pareto experiment's RT grid).
HP_TARGET = 0.9
RT_BUDGET = 3.25


def _spread(test_seconds: float, count: int, length: float) -> tuple[tuple[float, float], ...]:
    """``count`` windows of ``length`` seconds, evenly spaced over the test split.

    Many short windows sample every phase of the day, so the replayed
    forecast mass, and with it the planner's work, varies little between
    seeds; one long window inherits the noise of a few hours of one seed.
    """
    step = test_seconds / count
    return tuple((i * step, i * step + length) for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crs-lowrate",
            scenario="crs",
            scale=0.5,
            known_period_s=_DAY,
            # The test split starts on a Thursday at noon.  Weekday working
            # hours only: at night an hour can pass without an arrival, and
            # the engine stops ticking at a window's last arrival.  Windows
            # 90 min apart see nearly independent intensity noise (it is
            # correlated over 75 min).
            windows=tuple(
                (start * _HOUR, start * _HOUR + 1200.0)
                for start in (0.5, 2, 3.5, 5, 20.5, 22, 23.5, 25, 26.5, 28)
            ),
            cost_budget=25.0,
        ),
        Workload(
            name="alibaba-highrate",
            scenario="alibaba",
            scale=1.0,
            known_period_s=_DAY,
            # The test split is the last of five days.
            windows=_spread(_DAY, 24, 120.0),
            cost_budget=0.2,
            eval_passes=6,
        ),
    )
}
