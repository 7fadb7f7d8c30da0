"""Smoke test of the benchmark: every workload, briefly, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    argv = ["bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def layer_busy(metrics):
    """Summed busy seconds per library layer (the module before the first dot)."""
    busy = {}
    for name, entry in metrics.items():
        if name.endswith(".busy_s") and not name.startswith(("op.", "cli.")):
            layer = name.split(".")[0]
            busy[layer] = busy.get(layer, 0) + entry["value"]
    return busy


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    doc = last_line(run(workload, 0))
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in doc["metrics"].values())
    record = json.loads((ROOT / "bench" / "out" / f"BENCH_{workload}_seed7_trace0.json").read_text())
    assert record["failed_ratio"] == 0
    assert record["undeclared_metrics"] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    doc = last_line(run(workload, 1))
    metrics = doc["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    record = json.loads((ROOT / "bench" / "out" / f"BENCH_{workload}_seed7_trace1.json").read_text())
    assert record["undeclared_metrics"] == []
    spans = json.loads((ROOT / "bench" / "out" / f"spans_{workload}_seed7.json").read_text())["spans"]
    assert len(spans) == metrics["trace.spans"]["value"] > 0
    busy = layer_busy(metrics)
    top = max(busy, key=busy.get)
    if workload == "monomial":
        assert top == "rewrite"
    elif workload == "scale":
        assert top in ("ladders", "sdm")
    elif workload == "cli":
        assert not any(busy.values()) and metrics["cli.sdm.calls"]["value"] % 3 == 0
    else:
        assert metrics["rewrite.normal_form.calls"]["value"] == 0
        assert all(busy.get(layer, 0) > 0 for layer in ("ladders", "decompose", "classgroup", "sdm"))
    if workload != "cli":
        assert metrics["cli.sdm.calls"]["value"] == 3
    assert metrics["cli.import_ms"]["value"] > 0 and metrics["cli.peak_rss_mb"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
