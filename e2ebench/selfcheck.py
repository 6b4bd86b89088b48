"""Smoke-sized self-check of the benchmark itself.

Usage (from the repository root)::

    python3 e2ebench/selfcheck.py

* runs every workload once at ``--scale smoke``, untraced and traced, and
  asserts that the run is correct and emits exactly the metrics and units
  ``BENCHMARK.json`` names;
* feeds the correctness checks a fixture front and sequence, then perturbed
  copies of it, which must be reported as failures;
* runs the benchmark in a directory holding only ``BENCHMARK.json`` and the
  benchmark's own files, where it must fail without printing a result.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        command += ["--scale", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode} {proc.stderr[-500:]}".rstrip())
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
            expect(result["correct"] is True, f"{label}: correctness checks pass")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: attempted >= 1, none failed")
            wanted = {entry["name"]: entry["unit"] for entry in spec[section]}
            emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
            expect(emitted == wanted, f"{label}: every {section} metric with its unit")


def fixture():
    """A three-evaluation search whose front is the two non-dominated points."""
    sequence = [
        {"encoding": [0, 0], "metrics": {"val_accuracy": 0.50, "energy_nj": 100.0}},
        {"encoding": [1, 0], "metrics": {"val_accuracy": 0.40, "energy_nj": 150.0}},
        {"encoding": [1, 1], "metrics": {"val_accuracy": 0.70, "energy_nj": 300.0}},
    ]
    result = {
        "num_evaluations": 3,
        "fresh_evaluations": 3,
        "stopped": False,
        "front": [
            {"encoding": [0, 0], "objectives": {"accuracy": 0.50, "energy": 100.0}},
            {"encoding": [1, 1], "objectives": {"accuracy": 0.70, "energy": 300.0}},
        ],
        "hypervolume_curve": [10.0, 10.0, 25.0],
    }
    return result, sequence


def check_negative_cases() -> None:
    result, sequence = fixture()
    expect(checks.check_search(result, sequence, 3) == [], "fixture search passes the checks")

    dominated = copy.deepcopy(result)
    dominated["front"].append({"encoding": [1, 0], "objectives": {"accuracy": 0.40, "energy": 150.0}})
    expect(bool(checks.check_search(dominated, sequence, 3)), "a dominated point on the front is reported")

    perturbed = copy.deepcopy(result)
    perturbed["front"][1]["objectives"]["energy"] = 90.0
    perturbed["front"][1]["objectives"]["accuracy"] = 0.75
    expect(bool(checks.check_search(perturbed, sequence, 3)), "a perturbed front point is reported")

    falling = copy.deepcopy(result)
    falling["hypervolume_curve"] = [10.0, 25.0, 20.0]
    expect(bool(checks.check_search(falling, sequence, 3)), "a falling hypervolume curve is reported")

    expect(bool(checks.check_search(result, sequence[:2], 3)), "a missing evaluation is reported")

    records = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=ROOT / ".e2ebench"))
    try:
        digest = checks.search_digest(result, sequence)
        expect(checks.check_repeatable(records, "fixture", digest) == [], "first digest is recorded")
        expect(checks.check_repeatable(records, "fixture", digest) == [], "same digest repeats")
        other = checks.search_digest(perturbed, sequence)
        expect(bool(checks.check_repeatable(records, "fixture", other)), "a different front on the same seed is reported")
    finally:
        shutil.rmtree(records)


def check_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".e2ebench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("search-cold", 0, cwd=bare)
        expect(proc.returncode != 0, "without the program: non-zero exit")
        expect('"correct"' not in proc.stdout, "without the program: no result printed")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    (ROOT / ".e2ebench").mkdir(exist_ok=True)
    check_negative_cases()
    check_bare_directory()
    check_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
