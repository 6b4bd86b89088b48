"""Command-line interface for running the paper's experiments.

Usage (after installing the package)::

    python -m repro.cli figure1 --type asc --scale smoke
    python -m repro.cli table1  --datasets cifar10-dvs --models resnet18 --scale smoke
    python -m repro.cli figure3 --scale default --output results/figure3.json
    python -m repro.cli adapt   --dataset dvs128-gesture --model mobilenetv2
    python -m repro.cli pareto  --objectives accuracy,energy --energy-budget 50 --scale smoke
    python -m repro.cli serve   --port 8000 --cache-dir results/cache
    python -m repro.cli cache compact --cache-dir results/cache
    python -m repro.cli trace   results/pareto.trace.jsonl --chrome results/pareto.chrome.json
    python -m repro.cli lint    -- --list-rules
    python -m repro.cli info

Every batch sub-command prints the paper-style table/series to stdout,
optionally renders an ASCII chart (``--plot``), and can save the raw result
to JSON (``--output``) for later post-processing with
:mod:`repro.experiments.io`.  ``serve`` is the exception: it runs the same
engine as a long-lived HTTP service (job submission, Pareto/recommendation
queries answered from the cache, ``/healthz`` + ``/metrics``) until SIGTERM —
see ``docs/server.md``.  ``cache compact`` maintains the cache directory both
kinds of run share.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.data import available_datasets
from repro.experiments import (
    format_figure1,
    format_figure3,
    format_pareto,
    format_table1,
    get_scale,
    plot_pareto,
    run_figure1,
    run_figure3,
    run_pareto_front,
    run_table1,
)
from repro.experiments.io import save_result
from repro.experiments.plots import plot_figure1, plot_figure3
from repro.experiments.table1 import DEFAULT_DATASETS, DEFAULT_MODELS, run_table1_cell, Table1Result, Table1Row
from repro.models import available_models


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default=None, help="experiment scale: smoke, default or paper")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--output", default=None, help="optional path to save the result as JSON")
    parser.add_argument("--plot", action="store_true", help="also render an ASCII chart")


def _add_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the persistent evaluation store; candidate evaluations "
        "are appended there (JSONL) alongside content-addressed weight snapshots, "
        "and later runs sharing the directory re-use both: cached candidates are "
        "answered from disk and their weight updates are replayed into the "
        "shared weight store",
    )
    parser.add_argument(
        "--sharded-cache",
        action="store_true",
        help="use the sharded store layout (per-writer JSONL shards under "
        "<store>.shards/ with a merged read view), so several concurrent search "
        "processes can share --cache-dir without funnelling appends through one file",
    )


def _add_async_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--async-workers",
        type=int,
        default=0,
        help="run candidate evaluation on the asynchronous executor with this many "
        "persistent worker processes: as each evaluation finishes, its result is "
        "observed into the GP and a fresh candidate is proposed immediately, so no "
        "worker idles behind a batch barrier (0 = classic batch path)",
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a span trace of the whole run to PATH (JSONL, one span per "
        "line, worker-process spans stitched under their evaluation); analyse it "
        "afterwards with `repro trace PATH`",
    )
    parser.add_argument(
        "--trace-ops",
        action="store_true",
        help="with --trace, also record per-operator substrate spans (op.conv2d, "
        "op.matmul, op.neuron_step with sparse/dense routing) — voluminous",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Skip Connections in Spiking Neural Networks' (IPPS 2023)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure1 = subparsers.add_parser("figure1", help="run the Fig. 1 skip-connection sweep")
    figure1.add_argument("--type", dest="connection_type", choices=["dsc", "asc"], default="asc")
    figure1.add_argument("--dataset", default="cifar10-dvs", choices=available_datasets())
    _add_common_arguments(figure1)

    table1 = subparsers.add_parser("table1", help="run the Table I adaptation grid")
    table1.add_argument("--datasets", nargs="+", default=list(DEFAULT_DATASETS), choices=available_datasets())
    table1.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS), choices=available_models())
    _add_cache_argument(table1)
    _add_async_argument(table1)
    _add_common_arguments(table1)

    figure3 = subparsers.add_parser("figure3", help="run the Fig. 3 BO-vs-random-search comparison")
    figure3.add_argument("--dataset", default="cifar10-dvs", choices=available_datasets())
    figure3.add_argument("--model", default="resnet18", choices=available_models())
    figure3.add_argument("--runs", type=int, default=None, help="number of repeated runs")
    figure3.add_argument("--iterations", type=int, default=None, help="evaluations per run")
    _add_cache_argument(figure3)
    _add_async_argument(figure3)
    _add_common_arguments(figure3)

    adapt = subparsers.add_parser("adapt", help="run the adaptation pipeline for one dataset/model pair")
    adapt.add_argument("--dataset", default="cifar10-dvs", choices=available_datasets())
    adapt.add_argument("--model", default="resnet18", choices=available_models())
    _add_cache_argument(adapt)
    _add_async_argument(adapt)
    _add_common_arguments(adapt)

    pareto = subparsers.add_parser(
        "pareto",
        help="run the multi-objective Pareto search (accuracy/energy/latency trade-offs)",
    )
    pareto.add_argument("--dataset", default="cifar10-dvs", choices=available_datasets())
    pareto.add_argument("--model", default="resnet18", choices=available_models())
    pareto.add_argument(
        "--objectives",
        default="accuracy,energy",
        help="comma-separated objectives to trade off (accuracy, energy, macs, "
        "latency, latency_steps, firing_rate); each gets its own incremental GP "
        "surrogate. 'latency' is measured from repeated timed forward passes on "
        "the inference fast path (median of K runs, warmup excluded); "
        "'latency_steps' is the step-count proxy",
    )
    pareto.add_argument(
        "--energy-budget",
        type=float,
        default=None,
        help="hard constraint energy_nj <= budget: proposals are weighted by the "
        "posterior probability of staying within the budget, and the report "
        "flags which front points comply",
    )
    pareto.add_argument("--iterations", type=int, default=None, help="evaluations after the warm start")
    _add_cache_argument(pareto)
    _add_async_argument(pareto)
    _add_trace_arguments(pareto)
    _add_common_arguments(pareto)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived HTTP serving layer over the search + cache subsystems",
        description="Serve search-as-a-service over one cache directory: POST /jobs submits "
        "single- or multi-objective searches to background workers, GET /pareto and "
        "GET /recommend answer instantly from the accumulated evaluation store, and "
        "/healthz + /metrics (Prometheus text) make the process operable. SIGTERM drains "
        "in-flight evaluations before exiting. See docs/server.md for the endpoint catalog.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000, help="bind port (0 picks an ephemeral port)")
    serve.add_argument(
        "--cache-dir",
        required=True,
        help="cache directory served: /pareto and /recommend read every evaluation store "
        "in it, and submitted jobs append their evaluations to it (created if missing)",
    )
    serve.add_argument(
        "--scale",
        default=None,
        help="default experiment scale for submitted jobs (smoke, default or paper; "
        "each job may override it in its request body)",
    )
    serve.add_argument(
        "--async-workers",
        type=int,
        default=0,
        help="default worker processes per submitted job (0 = evaluate serially on the "
        "job's own thread; jobs may override per request)",
    )
    serve.add_argument(
        "--no-sharded-cache",
        action="store_true",
        help="make jobs write single-file stores instead of per-writer shards "
        "(sharded is the default so several server processes can share --cache-dir)",
    )

    cache = subparsers.add_parser(
        "cache",
        help="maintain a persistent evaluation cache directory (shared by batch runs and `serve`)",
    )
    cache.add_argument(
        "action",
        choices=["compact"],
        help="compact: fold per-writer shards into the base JSONL files — run it "
        "periodically on long-lived cache directories (e.g. one backing `repro serve`) "
        "so reads stay one-file cheap; safe under concurrent writers",
    )
    cache.add_argument(
        "--cache-dir",
        required=True,
        help="cache directory whose sharded stores (<name>.shards/) are compacted in place",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run repro-lint, the repo-specific static analyzer (requires a repo checkout)",
        description="Delegates to `python -m tools.analyze` from the repository root; "
        "arguments after `lint` are passed through (see docs/static_analysis.md).",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to tools.analyze (prefix with `--` to pass flags)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="analyse a recorded span trace (per-phase breakdown, critical path, slowest evaluations)",
        description="Reads a trace recorded with `repro pareto --trace PATH` (or a "
        "server job's traces/<job_id>.jsonl) and prints the per-phase time "
        "breakdown, the critical path and the slowest evaluations; --chrome "
        "exports the spans as Chrome trace-event JSON for chrome://tracing or "
        "ui.perfetto.dev. See docs/observability.md.",
    )
    trace.add_argument(
        "trace_file",
        help="trace to analyse: span JSONL (one span per line) or a JSON span array",
    )
    trace.add_argument(
        "--top", type=int, default=5, help="slowest evaluations listed (default 5)"
    )
    trace.add_argument(
        "--chrome",
        default=None,
        metavar="OUT",
        help="also write the spans as Chrome trace-event JSON to OUT",
    )

    subparsers.add_parser("info", help="list available datasets, models and scales")
    return parser


def _command_figure1(args) -> int:
    scale = get_scale(args.scale)
    result = run_figure1(args.connection_type, scale=scale, dataset=args.dataset, seed=args.seed)
    print(format_figure1(result))
    if args.plot:
        print()
        print(plot_figure1(result))
    if args.output:
        save_result(result, args.output)
        print(f"\nsaved to {args.output}")
    return 0


def _command_table1(args) -> int:
    scale = get_scale(args.scale)
    result = run_table1(
        scale=scale,
        datasets=args.datasets,
        models=args.models,
        seed=args.seed,
        async_workers=args.async_workers,
        cache_dir=args.cache_dir,
        cache_sharded=args.sharded_cache,
    )
    print(format_table1(result))
    if args.output:
        save_result(result, args.output)
        print(f"\nsaved to {args.output}")
    return 0


def _command_figure3(args) -> int:
    scale = get_scale(args.scale)
    result = run_figure3(
        scale=scale,
        dataset=args.dataset,
        model=args.model,
        num_runs=args.runs,
        iterations=args.iterations,
        seed=args.seed,
        cache_dir=args.cache_dir,
        cache_sharded=args.sharded_cache,
        async_workers=args.async_workers,
    )
    print(format_figure3(result))
    if args.plot:
        print()
        print(plot_figure3(result))
    if args.output:
        save_result(result, args.output)
        print(f"\nsaved to {args.output}")
    return 0


def _command_adapt(args) -> int:
    scale = get_scale(args.scale)
    adaptation = run_table1_cell(
        args.dataset,
        args.model,
        scale=scale,
        seed=args.seed,
        async_workers=args.async_workers,
        cache_dir=args.cache_dir,
        cache_sharded=args.sharded_cache,
    )
    print(adaptation.summary())
    print(f"best architecture: {adaptation.best_spec}")
    table = Table1Result()
    table.rows.append(Table1Row.from_result(args.dataset, args.model, adaptation))
    if args.output:
        save_result(table, args.output)
        print(f"saved to {args.output}")
    return 0


def _command_pareto(args) -> int:
    import contextlib

    from repro.trace import FlightRecorder, tracing

    scale = get_scale(args.scale)
    objectives = [name.strip() for name in args.objectives.split(",") if name.strip()]
    if args.trace:
        recorder = FlightRecorder(capacity=1 << 20, jsonl_path=args.trace)
        scope = tracing(recorder=recorder, ops=args.trace_ops)
    else:
        recorder = None
        scope = contextlib.nullcontext()
    with scope:
        result = run_pareto_front(
            scale=scale,
            dataset=args.dataset,
            model=args.model,
            objectives=objectives,
            energy_budget=args.energy_budget,
            iterations=args.iterations,
            seed=args.seed,
            cache_dir=args.cache_dir,
            cache_sharded=args.sharded_cache,
            async_workers=args.async_workers,
        )
    if recorder is not None:
        recorder.close()
        print(f"trace: {len(recorder)} spans written to {args.trace} (analyse with `repro trace {args.trace}`)")
    print(format_pareto(result))
    if args.plot:
        print()
        print(plot_pareto(result))
    if args.output:
        save_result(result, args.output)
        print(f"\nsaved to {args.output}")
    return 0


def _command_serve(args) -> int:
    import signal
    import threading

    from repro.server import ReproServer, ServerConfig

    server = ReproServer(
        ServerConfig(
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            scale=args.scale,
            async_workers=args.async_workers,
            sharded_cache=not args.no_sharded_cache,
        )
    )
    stop = threading.Event()

    def _signal_handler(signum, _frame):
        print(f"received {signal.Signals(signum).name}, shutting down...", flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, _signal_handler)
    signal.signal(signal.SIGINT, _signal_handler)
    server.start()
    print(
        f"serving on http://{args.host}:{server.port} (cache dir {args.cache_dir}, "
        f"{server.catalog.total_rows(refresh=False)} cached evaluations)",
        flush=True,
    )
    stop.wait()
    server.stop()
    rows = server.catalog.total_rows(refresh=False)
    print(f"shutdown complete: jobs drained, store holds {rows} evaluations", flush=True)
    return 0


def _command_cache(args) -> int:
    from pathlib import Path

    from repro.core.cache import ShardedEvaluationStore

    cache_dir = Path(args.cache_dir)
    shard_dirs = sorted(cache_dir.glob(f"*{ShardedEvaluationStore.SHARD_SUFFIX}"))
    if not shard_dirs:
        print(f"no sharded stores under {cache_dir}")
        return 0
    for shard_dir in shard_dirs:
        base = shard_dir.with_suffix(".jsonl")
        summary = ShardedEvaluationStore(base).compact()
        print(
            f"{base.name}: {summary['rows']} rows, "
            f"{summary['shards_merged']} shards merged, {summary['shards_kept']} kept"
        )
    return 0


def _command_lint(args) -> int:
    """Run the static analyzer from any directory inside a repo checkout.

    ``tools/`` is not part of the installed package (the analyzer inspects
    source trees, not installed modules), so locate the repository root by
    walking up from the current directory and import it from there.
    """
    from pathlib import Path

    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if (candidate / "tools" / "analyze" / "cli.py").is_file():
            if str(candidate) not in sys.path:
                sys.path.insert(0, str(candidate))
            # repro-lint: disable=undeclared-dependency (tools/ is the checkout's analyzer, found on disk above)
            from tools.analyze.cli import main as lint_main

            forwarded = [arg for arg in args.lint_args if arg != "--"]
            return lint_main(forwarded)
    print(
        "repro lint: no tools/analyze/ found above the current directory; "
        "run from a repository checkout",
        file=sys.stderr,
    )
    return 1


def _command_trace(args) -> int:
    import json
    from pathlib import Path

    from repro.trace import chrome_trace, format_summary, load_trace, summarize

    try:
        spans = load_trace(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"repro trace: cannot read {args.trace_file}: {error}", file=sys.stderr)
        return 1
    if not spans:
        print(f"repro trace: no spans in {args.trace_file}", file=sys.stderr)
        return 1
    print(format_summary(summarize(spans, top=args.top)))
    if args.chrome:
        payload = chrome_trace(spans)
        Path(args.chrome).write_text(json.dumps(payload) + "\n")
        print(f"\nchrome trace written to {args.chrome} ({len(payload['traceEvents'])} events)")
    return 0


def _command_info(_args) -> int:
    print("datasets:", ", ".join(available_datasets()))
    print("models:  ", ", ".join(available_models()))
    print("scales:   smoke, default, paper (select with --scale or REPRO_SCALE)")
    return 0


_COMMANDS = {
    "figure1": _command_figure1,
    "table1": _command_table1,
    "figure3": _command_figure3,
    "adapt": _command_adapt,
    "pareto": _command_pareto,
    "serve": _command_serve,
    "cache": _command_cache,
    "lint": _command_lint,
    "trace": _command_trace,
    "info": _command_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
