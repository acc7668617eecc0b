"""Tiny-scale smoke test of the benchmark harness (well under a minute).

    python -m pytest benchmarks/perf/test_smoke.py -q

One ``bench.py --scale smoke --trace 1`` run of every workload: each
metric named in BENCHMARK.json is printed with its unit, the
correctness checks ran and passed, every traced run wrote a parsable
trace.json with a residual key (a number only for the serve workload;
the others have a layer that is a difference of runs), and compare.py
refuses the smoke records.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _python(*args: str, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    proc = _python(
        str(HERE / "bench.py"), "--scale", "smoke", "--trace", "1",
        "--out", str(out), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, out


def _sections(stdout: str) -> dict[str, str]:
    """Printed output per workload, keyed by workload name."""
    parts = re.split(r"^workload (\S+)", stdout, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_every_metric_printed_with_its_unit(smoke):
    stdout, _ = smoke
    sections = _sections(stdout)
    assert sorted(sections) == sorted(WORKLOADS)
    for name, text in sections.items():
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            pattern = rf"^\s+{re.escape(m['name'])}\s+= \S+\s+{re.escape(m['unit'])}\b"
            assert re.search(pattern, text, re.M), (name, m["name"])


def test_result_lines(smoke):
    stdout, _ = smoke
    results = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
    per_workload, total = results[:-1], results[-1]
    assert len(per_workload) == len(WORKLOADS)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for res in per_workload:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == layer_names
    assert total["correct"]


def test_records_checks_and_traces(smoke):
    _, out = smoke
    paths = sorted(out.rglob("record.json"))
    assert sorted(json.loads(p.read_text())["workload"] for p in paths) == sorted(WORKLOADS)
    for path in paths:
        record = json.loads(path.read_text())
        assert record["fingerprint"]["scale"] == "smoke"
        assert record["checks"], record["workload"]
        assert all(c["ok"] for c in record["checks"]), record["checks"]
        assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        trace = json.loads((path.parent / "trace.json").read_text())
        if record["workload"] == "serve-mixed":
            assert isinstance(trace["residual"], float)
        else:
            assert trace["residual"] is None
        assert trace["spans"] and all("self" in s for s in trace["spans"])


def test_compare_refuses_smoke_records(smoke):
    _, out = smoke
    proc = _python(str(HERE / "compare.py"), str(out), str(out), timeout=60)
    assert proc.returncode == 2
    assert "smoke" in proc.stderr
