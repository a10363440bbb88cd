"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q pipebench/test_smoke.py

Every workload runs untraced and traced on a small ``google`` trace: each
metric named in BENCHMARK.json must be printed with its unit, and a
deliberately corrupted output must fail the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402,F401  (monkeypatched below)
import layers  # noqa: E402
import pipeline  # noqa: E402,F401
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: google@0.25: 12 hours, a 2-hour cycle that detection finds for seed 7.
TINY = {
    name: replace(
        w,
        scenario="google",
        scale=0.25,
        known_period_s=7200.0,
        windows=((0.0, 600.0), (1800.0, 2400.0)),
        cost_budget=1.0,
        setup_repeats=1,
        prepare_repeats=2,
        eval_passes=2,
        parity_window_s=300.0,
    )
    for name, w in WORKLOADS.items()
}


def run_tiny(capsys, name: str, trace: int) -> tuple[int, dict]:
    argv = ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    code = run.main(argv, workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, name, trace, section):
    code, result = run_tiny(capsys, name, trace)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected


def _drop_last_query(original):
    def replay(trace, scaler, config=None):
        last = float(trace.arrival_times[-1])
        return original(trace.slice_time(0.0, last), scaler, config)

    return replay


def _shift_one_wait(original):
    def replay(trace, scaler, config=None):
        result = original(trace, scaler, config)
        if config.engine != "reference":
            result.waiting_times[0] += 1.0
        return result

    return replay


@pytest.mark.parametrize(
    "module, corrupt",
    [("pipeline", _drop_last_query), ("checks", _shift_one_wait)],
    ids=["query-not-served", "engines-disagree"],
)
def test_a_broken_output_fails_the_run(capsys, monkeypatch, module, corrupt):
    target = sys.modules[module]
    monkeypatch.setattr(target, "replay", corrupt(target.replay))
    code, result = run_tiny(capsys, "crs-lowrate", 0)
    assert code == 1
    assert result["correct"] is False


def test_the_coverage_check_catches_time_outside_the_spans():
    stats = {
        "simulation.replay": layers.Stat(calls=2, total=0.5),
        "metrics.summarize": layers.Stat(calls=2, total=0.01),
    }
    assert layers.coverage_problems(stats, 0.512) == []
    assert layers.coverage_problems(stats, 0.6)  # 90 ms the spans missed
    assert layers.coverage_problems(stats, 0.4)  # spans longer than the pass's timers


def test_without_the_source_tree_it_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "crs-lowrate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
