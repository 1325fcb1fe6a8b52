"""Self-test of the benchmark, at tiny scale.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import run

run.bootstrap()

import calibrate  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
from elfdb import analyses  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

LAYERS = {"corpus", "reader", "model", "demangle", "disasm", "engine", "analyses", "cli"}


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.GATED)
    assert all(run.E2E_UNITS[m["name"]] == m["unit"] for m in SPEC["end_to_end"])
    assert [m["name"] for m in SPEC["per_layer"]] == run.layer_names()
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", "0", "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: run.E2E_UNITS[name] for name in run.GATED
    }
    for name, unit in {**run.E2E_UNITS, "error_rate": "ratio"}.items():
        line = next(l for l in report if l.startswith(name + " "))
        assert f" {unit} " in line and ("samples" in report[1])


def test_wrong_answer_raises_error_rate(monkeypatch):
    real = analyses.count_symbols
    monkeypatch.setattr(analyses, "count_symbols", lambda *a, **k: real(*a, **k) + 1)
    record = run.run_workload("synth-1e5", 4, 0.2, False, "tiny")
    cold = record["end_to_end"]["cold_query_s"][2]
    assert record["failed"] == cold > 0
    assert any("count_symbols" in e for e in record["errors"])
    assert run.result_line([record])["correct"] is False


def test_traced_run_has_a_span_for_every_layer():
    record = run.run_workload("syslib-audit", 5, 0.2, True, "tiny")
    assert record["failed"] == 0
    with open(os.path.join(run.ROOT, record["spans"])) as fh:
        spans = [json.loads(line) for line in fh]
    assert LAYERS <= {s["name"].split(".")[0] for s in spans}
    assert all(s["op"] is not None for s in spans)
    assert set(record["per_layer"]) == set(measure.LAYER_METRICS) | {"cli.import_s"}
    metrics = run.result_line([record])["metrics"]
    assert list(metrics) == run.layer_names()
    # Layer spans account for the op: little time is left to the harness.
    for kind, acc in record["accounting"].items():
        assert acc["harness_s"] < 0.1 * acc["op_span_s"], kind


def test_stopwatch_scales_by_probes_and_leaves_them_out():
    def slow_probe():  # takes 0.05 s of wall time, reports the host at half speed
        time.sleep(0.05)
        return 0.06

    def work():  # 0.5 s in short sleeps: a probe delays the work, not shortens it
        for _ in range(50):
            time.sleep(0.01)

    clock = calibrate.HostClock(slow_probe, reference_s=0.03, side=2)
    watch = calibrate.Stopwatch(clock, force=True, inside=True)
    work()
    watch.split()
    work()
    wall = watch.stop(force=True)
    inside = len(clock.probes) - 2 * clock.side
    assert inside >= 2  # the timer probed while the op ran
    # Counting the probes would add 0.05 s each.
    assert 0.95 < wall < 1.04
    assert watch.host_seconds() == pytest.approx(wall / 2)


def test_compare_refuses_different_fingerprints():
    base = {"workload": "w", "trace": 0, "scale": "full", "fingerprint": {"files": [["a", 1, "x"]]},
            "end_to_end": {m["name"]: [1.0, m["unit"], 1] for m in SPEC["end_to_end"]}}
    other = dict(base, fingerprint={"files": [["a", 1, "y"]]})
    assert compare.compare([base], [base], SPEC)
    with pytest.raises(ValueError):
        compare.compare([base], [other], SPEC)
