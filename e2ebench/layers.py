"""Per-layer metrics derived from the spans :mod:`probes` records.

Times are totals over the run unless the name says otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: spans during which the search loop waits on an evaluation
WAIT_SPANS = ("cache.evaluate", "evaluate")


def load_spans(out_dir: Path) -> List[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines() if line)
    return spans


class SpanIndex:
    def __init__(self, spans: List[dict]) -> None:
        self.spans = spans
        self.by_id = {span["id"]: span for span in spans}
        self.by_name: Dict[str, List[dict]] = defaultdict(list)
        for span in spans:
            self.by_name[span["name"]].append(span)

    def ancestors(self, span: dict) -> Iterable[dict]:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def nearest(self, span: dict, names) -> Optional[str]:
        """Name of the closest ancestor among ``names``."""
        for ancestor in self.ancestors(span):
            if ancestor["name"] in names:
                return ancestor["name"]
        return None

    def total(self, name: str, where=None) -> float:
        return sum(duration(s) for s in self.by_name[name] if where is None or where(s))

    def count(self, name: str) -> int:
        return len(self.by_name[name])


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    spans: List[dict], info: dict, wall: Optional[float] = None, include_startup: bool = True
) -> Dict[str, float]:
    """Every per-layer metric computable from one traced run's spans.

    ``info`` is the launcher's record.  With ``wall`` (the traced search, or
    the traced job on ``serve``) ``bench.attributed_frac`` is measured
    against it, counting the start-up time only with ``include_startup``.
    """
    index = SpanIndex(spans)

    def in_training(span: dict) -> bool:
        return index.nearest(span, ("train.fit", "train.val", "eval.accuracy")) == "train.fit"

    fits = index.by_name["train.fit"]
    forward_s = index.total("train.forward", in_training)
    backward_s = index.total("train.backward", in_training)
    val_s = index.total("train.val", in_training)
    fit_s = sum(duration(span) for span in fits)

    # per evaluation: training samples, steps and the MACs of the architecture
    samples: Dict[str, int] = defaultdict(int)
    for span in index.by_name["train.batch_wait"]:
        samples[span["eval"]] += int(span.get("samples", 0))
    macs = {span["eval"]: span["macs"] for span in index.by_name["eval.macs"]}
    steps = {span["eval"]: span.get("steps", 0) for span in fits}
    compute_s: Dict[str, float] = defaultdict(float)
    for name in ("train.forward", "train.backward"):
        for span in index.by_name[name]:
            if in_training(span):
                compute_s[span["eval"]] += duration(span)
    counted = [key for key in compute_s if key in macs and samples.get(key)]
    gmac = sum(macs[key] * steps.get(key, 0) * samples[key] * 3 for key in counted) / 1e9

    evaluations = index.by_name["evaluate"]
    fused = sum(span.get("fused_steps", 0) for span in evaluations)
    fallback = sum(span.get("fallback_steps", 0) for span in evaluations)
    sparse = sum(span.get("sparse_steps", 0) for span in evaluations)
    dense = sum(span.get("dense_steps", 0) for span in evaluations)

    # search loop: optimize() minus the evaluations it waited on (the
    # outermost evaluation spans under it)
    waited = sum(
        duration(span)
        for name in WAIT_SPANS
        for span in index.by_name[name]
        if index.nearest(span, WAIT_SPANS + ("search.optimize",)) == "search.optimize"
    )
    loop_s = sum(duration(span) for span in index.by_name["search.optimize"]) - waited

    metrics = {
        "startup.import_s": info["imported"] - info["spawned"],
        "data.load_dataset_s": index.total("data.load_dataset"),
        "models.build_ms": index.total("models.build") * 1e3,
        "train.fit_s": statistics.median(duration(span) for span in fits) if fits else 0.0,
        "train.forward_s": forward_s,
        "train.backward_s": backward_s,
        "train.optim_s": index.total("train.optim", in_training),
        "train.batch_wait_s": index.total("train.batch_wait"),
        "train.val_s": val_s,
        "train.samples_per_s": sum(samples.values()) / (fit_s - val_s) if fit_s > val_s else 0.0,
        "train.gflop_per_s": gmac / sum(compute_s[key] for key in counted) if counted else 0.0,
        "eval.accuracy_s": index.total("eval.accuracy"),
        "eval.macs_ms": index.total("eval.macs") * 1e3,
        "snn.fused_frac": fused / (fused + fallback) if fused + fallback else 0.0,
        "snn.sparse_frac": sparse / (sparse + dense) if sparse + dense else 0.0,
        "search.loop_s": loop_s,
        "gp.fit_ms": index.total("gp.fit") * 1e3,
        "gp.fit_calls": index.count("gp.fit"),
        "gp.update_ms": index.total("gp.update") * 1e3,
        "gp.update_calls": index.count("gp.update"),
        "gp.predict_ms": index.total("gp.predict") * 1e3,
        "gp.predict_calls": index.count("gp.predict"),
        "pareto.hypervolume_ms": index.total("pareto.hypervolume") * 1e3,
        "store.put_ms": index.total("store.put") * 1e3,
        "store.reloads": index.count("store.reload"),
        "snapshot.put_ms": index.total("snapshot.put") * 1e3,
        "snapshot.bytes": sum(span.get("bytes", 0) for span in index.by_name["snapshot.put"]),
        "catalog.refresh_ms": (
            index.total("catalog.refresh") * 1e3 / index.count("catalog.refresh")
            if index.count("catalog.refresh")
            else 0.0
        ),
    }
    if wall is None:
        return metrics

    # the share of ``wall`` the layers account for, in the launching process
    def main_total(name: str, where=None) -> float:
        return index.total(name, lambda s: s["pid"] == info["pid"] and (where is None or where(s)))

    attributed = (
        main_total("data.load_dataset")
        + main_total("models.build")
        + main_total("train.fit")
        + main_total("eval.accuracy")
        + main_total("eval.macs")
        + main_total("store.put")
        + main_total("snapshot.put")
        + loop_s
    )
    if include_startup:
        attributed += metrics["startup.import_s"]
    metrics["bench.attributed_frac"] = attributed / wall
    return metrics
