"""Fast self-test of the benchmark: every workload at its tiny size.

Checks that each metric ``BENCHMARK.json`` declares is emitted with its
unit, that the output checks pass, that span self times are >= 0, that
every replication matches ``repro run`` (``--parity``), that the
benchmark refuses to run without the sources, and that nothing it does
touches the tracked ``BENCH_*.json`` snapshots or ``benchmarks/results/``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def snapshot() -> dict[str, str]:
    files = sorted(ROOT.glob("BENCH_*.json")) + sorted(
        (ROOT / "benchmarks" / "results").rglob("*")
    )
    return {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
        if path.is_file()
    }


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def result_of(*args: str) -> dict:
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", autouse=True)
def tracked_snapshots_untouched():
    before = snapshot()
    yield
    assert snapshot() == before


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_tiny(workload):
    common = ["--workload", workload, "--seed", str(SEED), "--tiny"]
    for trace, declared in (
        (0, BENCHMARK["end_to_end"]),
        (1, BENCHMARK["per_layer"]),
    ):
        result = result_of(*common, "--seconds", "0", "--trace", str(trace))
        assert result["correct"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
    spans = ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.csv"
    with spans.open(encoding="utf-8") as rows:
        assert next(rows).split(",")[4] == "self_ns"
        assert all(int(row.split(",")[4]) >= 0 for row in rows)
    assert result_of(*common, "--parity")["parity"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(
        "--workload", "ripple-paper", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
