"""Self-test of the benchmark: every workload once, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/test_run.py

It checks that each run succeeds, fails no operation, and emits every
metric BENCHMARK.json declares, with its unit: the end-to-end metrics
untraced and the per-layer metrics traced.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_fails_nothing(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [l for l in lines if l.startswith("failure")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
        if not trace:
            assert emitted["value"] > 0, m["name"]
    # The report names every metric, with its unit, before the JSON line.
    for name, emitted in result["metrics"].items():
        assert any(l.split()[:1] == [name] and l.rstrip().endswith(emitted["unit"])
                   for l in lines[:-1]), name
    if not trace:
        assert any(l.split()[:2] == ["failed_ratio", "0"] for l in lines)


def test_exact_counts_repeat_for_a_fixed_seed():
    counts = []
    for _ in range(2):
        metrics = json.loads(run("block", 1).stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in (
            "lars.segments.lasso", "linalg.chol_append.failed", "io.bytes_written")})
    assert counts[0] == counts[1]


def test_fails_without_the_package_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "block", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
