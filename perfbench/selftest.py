"""Fast self-test: every workload at toy size, untraced and traced.

    python3 perfbench/selftest.py

Runs ``run.py`` in a child process per workload and trace mode on the
small model (``--size toy``), through the same code path as a full run,
and checks the result line against BENCHMARK.json: exit status 0,
``correct``, at least one attempt, and exactly the declared metrics with
their units.  It also checks that a directory holding only the
benchmark, without the program's source, fails without a result line.
Not collected by pytest; the full benchmark stays out of tier-1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    child = run(ROOT, "--workload", workload, "--seed", "5",
                "--seconds", SECONDS, "--trace", str(trace), "--size", "toy")
    label = f"{workload} trace={trace}"
    if child.returncode != 0:
        raise AssertionError(f"{label}: exit {child.returncode}\n{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert set(result["metrics"]) == set(units), label
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], (label, name)
        assert isinstance(metric["value"], (int, float)), (label, name)
        if not trace:
            assert metric["value"] > 0, (label, name)
    if trace:
        assert "claim:" in child.stdout or workload == "fleet-blocks", label
    print(f"ok  {label}")


def check_without_source() -> None:
    """Only BENCHMARK.json and this directory: exit non-zero, no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        child = run(bare, "--workload", "serve-poisson", "--seed", "1",
                    "--seconds", SECONDS, "--trace", "0")
    assert child.returncode != 0, "a checkout without src/ must fail"
    assert '"correct"' not in child.stdout, "no result line without src/"
    print("ok  no source -> exit", child.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
