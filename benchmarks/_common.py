"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper figure/table at *benchmark scale*
(smaller topology/workload than the paper so the whole suite runs in
minutes) and:

* asserts the qualitative claim of the figure (who wins, direction of
  the effect), so a regression in the algorithms fails the bench, and
* then prints the paper-shaped series/table.

With ``BENCH_WRITE=1`` a bench whose assertions passed also records its
output: the table in ``benchmarks/results/<name>.txt`` and, for the
benches that keep one, the canonical ``BENCH_*.json`` snapshot at the
repository root.  Without it the committed files are left alone, so a
plain test run leaves the tree clean.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Whether benches record their results and snapshots (``BENCH_WRITE=1``).
WRITE = os.environ.get("BENCH_WRITE", "") not in ("", "0")


def save_result(name: str, title: str, body: str) -> str:
    """Echo one regenerated figure; record it under ``BENCH_WRITE=1``.

    Call it after the bench's assertions, so a failing bench records
    nothing.
    """
    text = f"== {title} ==\n{body}\n"
    if WRITE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def write_snapshot(path: pathlib.Path, report: dict) -> None:
    """Record a ``BENCH_*.json`` snapshot under ``BENCH_WRITE=1``.

    Canonical serialization (fixed float digits, sorted keys) keeps the
    snapshot diffable across platforms and ``compare_bench.py`` stable.
    """
    if not WRITE:
        return
    from repro.eval.store import CANONICAL_DIGITS, canonicalize

    path.write_text(
        json.dumps(
            canonicalize(report, CANONICAL_DIGITS),
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )
        + "\n"
    )


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
