"""Correctness checks on search outputs, shared by every workload.

Each check returns a list of problems (empty when the output is correct), so
a run can report every failure at once.  The front and sequence formats are
those of ``repro pareto --output`` and of the launcher's search record.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence

# a front point is (maximised accuracy, minimised energy)
OBJECTIVES = (("accuracy", "val_accuracy", -1.0), ("energy", "energy_nj", 1.0))


def _minimised(objectives: Dict[str, float]) -> tuple:
    return tuple(sign * float(objectives[name]) for name, _, sign in OBJECTIVES)


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_front(front: Sequence[dict], hypervolume_curve: Sequence[float]) -> List[str]:
    """The front must be non-dominated and the hypervolume must never fall."""
    problems = []
    if not front:
        problems.append("empty Pareto front")
    points = [_minimised(point["objectives"]) for point in front]
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and _dominates(a, b):
                problems.append(f"front point {j} is dominated by front point {i}")
    for step, (before, after) in enumerate(zip(hypervolume_curve, hypervolume_curve[1:])):
        if after < before - 1e-9 * max(1.0, abs(before)):
            problems.append(f"hypervolume fell at step {step + 1}: {before} -> {after}")
    return problems


def check_front_matches_sequence(front: Sequence[dict], sequence: Sequence[dict]) -> List[str]:
    """The front must be exactly the non-dominated subset of what was evaluated."""
    evaluated = {
        tuple(item["encoding"]): _minimised(
            {name: item["metrics"][metric] for name, metric, _ in OBJECTIVES}
        )
        for item in sequence
    }
    expected = {
        encoding
        for encoding, values in evaluated.items()
        if not any(_dominates(other, values) for other in evaluated.values())
    }
    printed = {tuple(point["encoding"]) for point in front}
    if printed != expected:
        return [f"front {sorted(printed)} != non-dominated evaluations {sorted(expected)}"]
    return []


def check_search(result: dict, sequence: Sequence[dict], requested: int) -> List[str]:
    """A finished search: every requested evaluation ran fresh, outputs are consistent."""
    problems = []
    if result.get("stopped"):
        problems.append("search stopped early")
    if result.get("num_evaluations") != requested:
        problems.append(f"{result.get('num_evaluations')} evaluations, {requested} requested")
    if result.get("fresh_evaluations") != result.get("num_evaluations"):
        problems.append(
            f"{result.get('fresh_evaluations')} fresh of {result.get('num_evaluations')} evaluations"
        )
    if len(sequence) != requested:
        problems.append(f"search history holds {len(sequence)} evaluations, {requested} requested")
    if len({tuple(item["encoding"]) for item in sequence}) != len(sequence):
        problems.append("an architecture was evaluated twice")
    problems += check_front(result.get("front", []), result.get("hypervolume_curve", []))
    problems += check_front_matches_sequence(result.get("front", []), sequence)
    return problems


def search_digest(result: dict, sequence: Sequence[dict]) -> str:
    """Digest of the evaluated sequence, its metrics and the printed front."""
    payload = {
        "sequence": [[item["encoding"], item["metrics"]] for item in sequence],
        "front": result.get("front"),
        "hypervolume_curve": result.get("hypervolume_curve"),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def source_digest(root: Path) -> str:
    """Digest of the program and the benchmark: runs compare only within one version."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "e2ebench").glob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeatable(records_dir: Path, key: str, digest: str) -> List[str]:
    """Every run of one source version, workload and seed must do identical work.

    The first run records its digest under ``records_dir``; later runs (in
    this process or another) must match it.
    """
    path = records_dir / f"{key}.sha256"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return [f"{key}: evaluated sequence or front differs from an earlier run of this version and seed"]
        return []
    records_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return []
