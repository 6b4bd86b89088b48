"""Run one ``repro`` CLI command in this process and report what the benchmark needs.

Usage::

    python3 e2ebench/launcher.py --mode plain|setup|trace --out DIR -- <repro cli args>

The launcher always hooks ``BayesianOptimizer.optimize`` (the search loop's
public entry point) to record when set-up ends and which architectures the
search evaluated, in order:

* ``plain`` runs the command with nothing else attached -- the timed run;
* ``setup`` stops the command at the entry into ``optimize()`` -- a set-up
  probe that costs the imports and data synthesis but trains nothing;
* ``trace`` additionally installs the span wrappers of :mod:`probes` and
  writes the spans to ``DIR/spans-<pid>.jsonl``.

``DIR/launcher.json`` receives the timestamps (``time.monotonic``), the
evaluated sequence and the exit code.  The parent passes its spawn time in
``E2EBENCH_SPAWN`` so set-up is measured from interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised at the entry into ``optimize()`` by a set-up probe."""


def environment() -> dict:
    """What the timings depend on besides the code: recorded with every result."""
    import platform

    import numpy
    from repro.training.parallel import start_method

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "start_method": start_method(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "setup", "trace"), required=True)
    parser.add_argument("--out", required=True, help="directory for launcher.json and span files")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="repro CLI arguments after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    out_dir = Path(args.out)
    info = {
        "spawned": float(os.environ.get("E2EBENCH_SPAWN", time.monotonic())),
        "launcher_start": time.monotonic(),
        "mode": args.mode,
        "pid": os.getpid(),
        "searches": [],
    }

    import repro.cli
    from repro.core.bayes_opt import BayesianOptimizer
    from repro.experiments import get_scale

    info["imported"] = time.monotonic()
    if "--scale" in command:
        scale = get_scale(command[command.index("--scale") + 1])
        info["requested_evaluations"] = int(scale.search_iterations)

    original_optimize = BayesianOptimizer.optimize

    def optimize(self, num_iterations, callback=None):
        search = {"entered": time.monotonic()}
        info["searches"].append(search)
        if args.mode == "setup":
            raise SetupDone
        history = original_optimize(self, num_iterations, callback)
        search["returned"] = time.monotonic()
        search["sequence"] = [
            {
                "encoding": [int(v) for v in record.spec.encode()],
                "metrics": {key: float(value) for key, value in record.metrics.items()},
            }
            for record in history.records
        ]
        return history

    BayesianOptimizer.optimize = optimize

    recorder = None
    if args.mode == "trace":
        import probes

        recorder = probes.Recorder(out_dir)
        probes.install(recorder)

    try:
        code = repro.cli.main(command)
    except SetupDone:
        code = 0
    info["main_returned"] = time.monotonic()
    info["exit_code"] = int(code)
    info["environment"] = environment()
    if recorder is not None:
        recorder.flush()
    (out_dir / "launcher.json").write_text(json.dumps(info))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
