"""Perf-trajectory records: machine-readable ``BENCH_<name>.json`` files.

Every benchmark in this directory prints its numbers for humans; this helper
additionally writes them to a JSON document at the repository root so the
performance trajectory of the reproduction is diffable across commits.  A
record carries the git SHA it was measured at, the interpreter/platform, and
a free-form ``results`` payload owned by the benchmark.

The records are snapshots, not assertions: benchmarks still enforce their
own thresholds in-process.  Comparing two BENCH files answers "did this PR
move the needle", which a pass/fail threshold cannot.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any

__all__ = ["record_bench", "REPO_ROOT"]

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str | None:
    """The current commit SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def record_bench(name: str, results: Any, *, merge: bool = False,
                 **meta: Any) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root; returns the path.

    Args:
        name: Record name — keep it stable across commits so the file
            history *is* the perf trajectory.
        results: The benchmark's numbers (any JSON-serializable shape;
            ops/sec, wall seconds, probe counts, per-config rows, ...).
        merge: When True and a parseable ``BENCH_<name>.json`` already
            exists with dict-shaped results, update that document instead
            of replacing it: existing result rows and meta fields survive
            unless this call writes the same key.  Lets several benchmarks
            (or a smoke and a full run) share one record without the later
            writer erasing the earlier one's rows.
        **meta: Extra top-level fields (workload sizes, thresholds, ...).
    """
    doc: dict[str, Any] = {
        "bench": name,
        "git_sha": _git_sha(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    if merge and path.exists():
        try:
            previous = json.loads(path.read_text())
        except ValueError:
            previous = None
        if isinstance(previous, dict):
            prior_results = previous.pop("results", None)
            if isinstance(prior_results, dict) and isinstance(results, dict):
                results = {**prior_results, **results}
            doc = {**previous, **doc}
    doc.update(meta)
    doc["results"] = results
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nrecorded {path.name}")
    return path
