"""Span recording around the public functions of each layer of ``repro``.

Loaded only by the traced launcher (``launcher.py --mode trace``).  It wraps
public classes and functions from the outside -- nothing under ``src/`` is
edited -- and keeps every span in memory until the launcher writes them once
``repro.cli.main`` returns (for ``repro serve`` that is after SIGTERM has
drained the server).

A span is ``{"name", "start", "end", "parent", "eval", "pid", ...attrs}``;
``eval`` is the candidate encoding of the enclosing evaluation, so the spans
of one evaluation share an identifier.  Times come from ``time.monotonic``
(``CLOCK_MONOTONIC``), which the benchmark process shares.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Recorder:
    """Span stacks per thread, one list of finished spans per process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: List[dict] = []
        self._count = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, eval_id: Optional[str] = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._count += 1
            span_id = f"{self._pid}:{self._count}"
        span = {
            "id": span_id,
            "name": name,
            "pid": self._pid,
            "thread": threading.get_ident(),
            "parent": parent["id"] if parent else None,
            "eval": eval_id if eval_id is not None else (parent["eval"] if parent else None),
            "start": time.monotonic(),
        }
        stack.append(span)
        return span

    def end(self, span: dict, **attrs) -> None:
        span["end"] = time.monotonic()
        span.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._spans.append(span)

    def flush(self) -> None:
        """Append the finished spans to ``spans-<pid>.jsonl``."""
        with self._lock:
            spans, self._spans = self._spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def _wrap(
    owner,
    attr: str,
    name: str,
    rec: Recorder,
    after: Optional[Callable] = None,
    eval_of: Optional[Callable] = None,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``after(span_attrs, args, result)`` may add attributes from the call's
    arguments and result once the timed call has returned; ``eval_of(args)``
    names the evaluation the span opens.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = rec.begin(name, eval_id=eval_of(args) if eval_of is not None else None)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            rec.end(span, error=True)
            raise
        attrs: Dict[str, object] = {}
        if after is not None:
            after(attrs, args, result)
        rec.end(span, **attrs)
        return result

    setattr(owner, attr, wrapper)


def _wrap_function_everywhere(module_name: str, attr: str, name: str, rec: Recorder) -> None:
    """Wrap a module function and every ``from ... import`` copy already loaded."""
    original = getattr(sys.modules[module_name], attr)
    holder = type("holder", (), {attr: staticmethod(original)})
    _wrap(holder, attr, name, rec)
    wrapper = holder.__dict__[attr]
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark attributes."""
    import repro.server.catalog  # noqa: F401  (loaded now so its copies get wrapped)
    import repro.server.jobs  # noqa: F401
    from repro.core.bayes_opt import BayesianOptimizer
    from repro.core.cache import CachedObjective, PersistentEvaluationStore
    from repro.core.objectives import AccuracyDropObjective
    from repro.core.pareto import ParetoFront
    from repro.core.snapshots import WeightSnapshotStore
    from repro.data.loaders import BatchLoader
    from repro.gp.gp import GaussianProcessRegressor
    from repro.models.template import NetworkTemplate
    from repro.nn.optim import SGD, Adam, Optimizer
    from repro.server.catalog import StoreCatalog
    from repro.snn.fused_step import fused_counters
    from repro.snn.mac import MACCounter
    from repro.snn.temporal import TemporalRunner
    from repro.tensor import Tensor
    from repro.tensor.sparse import sparse_counters
    from repro.training.snn_trainer import SNNTrainer

    _wrap_function_everywhere("repro.data", "load_dataset", "data.load_dataset", rec)
    _wrap_function_everywhere(
        "repro.training.trainer", "evaluate_classifier", "train.val", rec
    )
    _wrap(NetworkTemplate, "build", "models.build", rec)
    _wrap(BayesianOptimizer, "optimize", "search.optimize", rec)
    _wrap(CachedObjective, "__call__", "cache.evaluate", rec, eval_of=lambda args: _encoding(args[1]))
    _wrap(
        SNNTrainer,
        "fit",
        "train.fit",
        rec,
        after=lambda attrs, args, _r: attrs.update(steps=int(args[0].config.num_steps)),
    )
    _wrap(TemporalRunner, "forward", "train.forward", rec)
    _wrap(Tensor, "backward", "train.backward", rec)
    _wrap(Optimizer, "clip_grad_norm", "train.optim", rec)
    _wrap(SGD, "step", "train.optim", rec)
    _wrap(Adam, "step", "train.optim", rec)
    _wrap(SNNTrainer, "evaluate_with_firing_rate", "eval.accuracy", rec)
    _wrap(SNNTrainer, "evaluate", "eval.accuracy", rec)
    _wrap(
        MACCounter,
        "count",
        "eval.macs",
        rec,
        after=lambda attrs, _a, report: attrs.update(macs=float(report.total)),
    )
    for method in ("fit", "update", "predict"):
        _wrap(GaussianProcessRegressor, method, f"gp.{method}", rec)
    _wrap(ParetoFront, "hypervolume", "pareto.hypervolume", rec)
    _wrap(PersistentEvaluationStore, "put", "store.put", rec)
    _wrap(PersistentEvaluationStore, "reload", "store.reload", rec)
    _wrap(
        WeightSnapshotStore,
        "put",
        "snapshot.put",
        rec,
        after=lambda attrs, args, _r: attrs.update(
            bytes=int(sum(value.nbytes for value in args[1].values()))
        ),
    )
    _wrap(StoreCatalog, "refresh", "catalog.refresh", rec)

    original_loader_iter = BatchLoader.__iter__

    def loader_iter(self):
        batches = original_loader_iter(self)
        while True:
            span = rec.begin("train.batch_wait")
            try:
                inputs, targets = next(batches)
            except StopIteration:
                rec.end(span, samples=0)
                return
            rec.end(span, samples=int(len(targets)))
            yield inputs, targets

    BatchLoader.__iter__ = loader_iter

    original_evaluate = AccuracyDropObjective.__call__

    @functools.wraps(original_evaluate)
    def evaluate(self, spec):
        span = rec.begin("evaluate", eval_id=_encoding(spec))
        fused_before, sparse_before = fused_counters(), sparse_counters()
        try:
            return original_evaluate(self, spec)
        finally:
            fused_after, sparse_after = fused_counters(), sparse_counters()
            rec.end(
                span,
                **{k: fused_after[k] - fused_before.get(k, 0) for k in fused_after},
                **{k: sparse_after[k] - sparse_before.get(k, 0) for k in sparse_after},
            )

    AccuracyDropObjective.__call__ = evaluate


def _encoding(spec) -> str:
    return ",".join(str(int(v)) for v in spec.encode())
