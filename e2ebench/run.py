"""End-to-end benchmark of the skip-connection search: one workload per run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload search-cold --seed 1 --seconds 30 --trace 0

Every timed run starts ``repro`` in a fresh interpreter through
``e2ebench/launcher.py``, so imports and data synthesis count.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload once untraced
and once with span wrappers and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``e2ebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".e2ebench"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: a run must exit within 180 s; children are killed past this budget
RUN_BUDGET_S = 165.0

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import layers  # noqa: E402
import serve_load  # noqa: E402

SEARCH = ["--dataset", "cifar10-dvs", "--model", "resnet18", "--objectives", "accuracy,energy"]
#: the serve-mixed job, the same for every seed: it is the background load
#: (the seed draws the served rows and the queries); 20 evaluations keep it
#: running long enough for 100+ samples per endpoint at QUERY_RATE
JOB = {
    "dataset": "dvs128-gesture",
    "model": "mobilenetv2",
    "objectives": ["accuracy", "energy"],
    "iterations": 20,
    "seed": 0,
}
#: serve-mixed query rate (requests/s, /pareto and /recommend alternating)
QUERY_RATE = 14.0
#: closed-loop queries per endpoint in the idle query phase of search-cold
IDLE_QUERIES = 150
#: set-up probes per run, on top of the set-up of every timed repetition
SETUP_PROBES = 3


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed child)."""


class Child:
    """One launcher process in its own session, with its tree's peak RSS sampled."""

    def __init__(self, mode: str, command: List[str], out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self._log = open(out_dir / "stdout.txt", "w")
        self.spawned = time.monotonic()
        env = dict(
            os.environ,
            **THREAD_ENV,
            PYTHONPATH=str(ROOT / "src"),
            E2EBENCH_SPAWN=repr(self.spawned),
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py"), "--mode", mode, "--out", str(out_dir), "--", *command],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
        self.exited: Optional[float] = None
        self.peak_kb = 0
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _sample(self) -> None:
        while self.proc.poll() is None:
            self.peak_kb = max(self.peak_kb, tree_rss_kb(self.proc.pid))
            time.sleep(0.1)

    def wait(self, deadline: float) -> int:
        try:
            code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.out_dir.name}: timed out")
        finally:
            self.exited = time.monotonic()
            self._sampler.join()
            self._log.close()
        return code

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def terminate(self, deadline: float) -> int:
        """SIGTERM the launcher (``repro serve`` drains and exits), then reap the group."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.wait(deadline)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # anything left in its session
        except ProcessLookupError:
            pass
        return code

    def info(self) -> dict:
        path = self.out_dir / "launcher.json"
        return json.loads(path.read_text()) if path.exists() else {}

    def output(self) -> str:
        return (self.out_dir / "stdout.txt").read_text()


def tree_rss_kb(pid: int) -> int:
    """Resident set size of ``pid`` and all its descendants, in kB."""
    total, pending, seen = 0, [pid], set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return float(ordered[min(rank, len(ordered)) - 1])


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.deadline = time.monotonic() + RUN_BUDGET_S
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.environment: Dict[str, object] = {}
        self.version = checks.source_digest(ROOT)
        #: queries per endpoint a p90 needs (ten beyond it); smoke runs are too short
        self.min_samples = 1 if scale == "smoke" else 100

    def record_environment(self, info: dict) -> None:
        if not self.environment and info:
            self.environment = info.get("environment", {})

    def repeatable(self, key: str, digest: str) -> None:
        self.problems += checks.check_repeatable(WORK / "records" / self.version, key, digest)


# ----------------------------------------------------------------------
# search workloads


def run_search(run: Run, mode: str, tag: str, scale: Optional[str] = None) -> dict:
    """One search in a fresh process with a fresh cache dir; returns its timings."""
    scale = scale or run.scale
    out = run.dir / tag
    command = [
        "pareto", "--scale", scale, *SEARCH, "--seed", str(run.seed),
        "--cache-dir", str(out / "cache"), "--output", str(out / "result.json"),
    ]
    child = Child(mode, command, out)
    code = child.wait(run.deadline)
    info = child.info()
    run.record_environment(info)
    if code != 0 or not info.get("searches"):
        raise BenchError(f"{tag}: exit code {code}\n{child.output()[-2000:]}")
    search = info["searches"][0]
    rep = {
        "search_s": child.exited - child.spawned,
        "setup_s": search["entered"] - child.spawned,
        "peak_rss_mb": child.peak_kb / 1024.0,
        "info": info,
        "dir": child.out_dir,
    }
    if mode == "setup":
        return rep
    requested = info["requested_evaluations"]
    run.attempted += requested
    result = json.loads((child.out_dir / "result.json").read_text())["data"]
    sequence = search.get("sequence", [])
    problems = checks.check_search(result, sequence, requested)
    run.failed += max(0, requested - len(sequence))
    if scale == run.scale:
        run.repeatable(f"{run.workload}-{scale}-{run.seed}", checks.search_digest(result, sequence))
    run.problems += [f"{tag}: {problem}" for problem in problems]
    rep.update(
        evals=len(sequence),
        best_val_accuracy=max(item["metrics"]["val_accuracy"] for item in sequence),
        final_hypervolume=result["hypervolume_curve"][-1] if result["hypervolume_curve"] else 0.0,
    )
    rep["evals_per_s"] = rep["evals"] / (rep["search_s"] - rep["setup_s"])
    return rep


def search_workload(run: Run) -> Dict[str, float]:
    # untimed warm-up: compiles .pyc files and warms the page cache
    run_search(run, "plain", "warmup", scale="smoke")
    if run.trace:
        plain = run_search(run, "plain", "plain")
        traced = run_search(run, "trace", "traced")
        metrics = layers.layer_metrics(
            layers.load_spans(traced["dir"]), traced["info"], traced["search_s"], include_startup=True
        )
        metrics.update(
            {
                "bench.trace_overhead_frac": traced["search_s"] / plain["search_s"],
                "search.best_val_accuracy": traced["best_val_accuracy"],
                "search.final_hypervolume": traced["final_hypervolume"],
            }
        )
        session = serve_session(run, "trace", "queries", job=False)
        metrics.update(session["layers"])
        return metrics

    setups = [run_search(run, "setup", f"setup{i}")["setup_s"] for i in range(SETUP_PROBES)]
    reps = []
    measuring = time.monotonic()
    while True:
        rep = run_search(run, "plain", f"rep{len(reps)}")
        reps.append(rep)
        elapsed = time.monotonic() - measuring
        if elapsed + rep["search_s"] > run.seconds or time.monotonic() + 3 * rep["search_s"] > run.deadline:
            break
    session = serve_session(run, "plain", "queries", job=False)
    print(f"search reps: {[round(rep['search_s'], 3) for rep in reps]}  set-up probes: {[round(s, 3) for s in setups]}")
    return {
        "search_s": median(rep["search_s"] for rep in reps),
        "setup_s": median(setups + [rep["setup_s"] for rep in reps]),
        "evals_per_s": median(rep["evals_per_s"] for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        **session["latency"],
    }


# ----------------------------------------------------------------------
# serve sessions


def seeded_cache(run: Run) -> Path:
    """The serve cache dir for this seed, written once per run by a child process."""
    pristine = run.dir / "seeded"
    if not pristine.exists():
        env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, str(BENCH / "serve_load.py"), "seed", "--dir", str(pristine), "--seed", str(run.seed)],
            check=True,
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, run.deadline - time.monotonic()),
        )
    return pristine


def start_server(run: Run, mode: str, tag: str):
    """Start ``repro serve`` on a fresh copy of the seeded dir; wait for /healthz 200."""
    out = run.dir / tag
    cache = out / "cache"
    shutil.copytree(seeded_cache(run), cache)
    child = Child(mode, ["serve", "--port", "0", "--cache-dir", str(cache), "--scale", run.scale], out)
    port = None
    while time.monotonic() < run.deadline and child.proc.poll() is None:
        if port is None:
            for line in child.output().splitlines():
                if line.startswith("serving on http://"):
                    port = int(line.split(":")[2].split()[0])
        if port is not None:
            try:
                status, _ = serve_load.request(port, "GET", "/healthz", timeout=5)
            except OSError:
                status = None
            if status == 200:
                return child, port, time.monotonic() - child.spawned
        time.sleep(0.01)
    child.kill()
    raise BenchError(f"{tag}: server did not become healthy\n{child.output()[-2000:]}")


def scrape_handler_times(metrics_page: str) -> Dict[str, Dict[str, float]]:
    """``{endpoint: {"sum": seconds, "count": n}}`` of the ``repro_http_request_seconds`` histogram."""
    histogram: Dict[str, Dict[str, float]] = {}
    for line in metrics_page.splitlines():
        for field in ("sum", "count"):
            prefix = f"repro_http_request_seconds_{field}{{"
            if line.startswith(prefix):
                labels, value = line[len(prefix):].rsplit("} ", 1)
                endpoint = labels.split('endpoint="', 1)[1].split('"', 1)[0]
                histogram.setdefault(endpoint, {"sum": 0.0, "count": 0.0})[field] = float(value)
    return histogram


def idle_queries(run: Run, port: int, budgets: List[float]) -> List[dict]:
    """Closed loop on one connection: IDLE_QUERIES of each endpoint, alternating."""
    samples = []
    for index in range(2 * IDLE_QUERIES):
        kind = "pareto" if index % 2 == 0 else "recommend"
        path = "/pareto" if kind == "pareto" else f"/recommend?energy_budget={budgets[index // 2]}"
        sent = time.monotonic()
        status, body = serve_load.request(port, "GET", path)
        done = time.monotonic()
        ok = status == 200
        if not ok:
            run.problems.append(f"{path}: HTTP {status}")
        samples.append(
            {
                "kind": kind,
                "ok": ok,
                "latency_ms": (done - sent) * 1e3,
                "late_ms": 0.0,
                "service_ms": (done - sent) * 1e3,
                "rows": json.loads(body).get("rows_considered") if ok else None,
            }
        )
    return samples


def serve_session(run: Run, mode: str, tag: str, job: bool) -> dict:
    """Start a server, query it (during one search job, or idle), stop it, check it."""
    child, port, setup_s = start_server(run, mode, tag)
    budgets = serve_load.recommend_budgets(run.seed, 1000)
    job_doc: Dict[str, object] = {}
    try:
        status, body = serve_load.request(port, "GET", "/pareto")
        rows_before = json.loads(body)["rows_considered"]
        if job:
            payload = dict(JOB, scale=run.scale)
            status, body = serve_load.request(port, "POST", "/jobs", payload)
            if status != 202:
                raise BenchError(f"POST /jobs: HTTP {status}: {body[:500]!r}")
            job_id = json.loads(body)["id"]
            finished = threading.Event()

            def poll(connection) -> None:
                connection.request("GET", f"/jobs/{job_id}")
                document = json.loads(connection.getresponse().read())
                if document["state"] not in ("queued", "running"):
                    job_doc.update(document)
                    finished.set()

            load = serve_load.OpenLoop(port, QUERY_RATE, budgets, poll=poll).start()
            finished.wait(max(1.0, run.deadline - time.monotonic() - 10))
            load.stop()
            if not load.join(30):
                raise BenchError("load generator did not stop")
            samples, errors = load.samples, load.errors
            run.problems += errors
            if not finished.is_set():
                raise BenchError("serve job did not finish in time")
        else:
            samples = idle_queries(run, port, budgets)
        status, body = serve_load.request(port, "GET", "/pareto")
        rows_after = json.loads(body)["rows_considered"]
        handlers = scrape_handler_times(serve_load.request(port, "GET", "/metrics")[1].decode())
        events = b""
        if job:
            _, events = serve_load.request(port, "GET", f"/jobs/{job_doc['id']}/events?follow=0")
    finally:
        code = child.terminate(run.deadline)
    run.record_environment(child.info())
    if code != 0:
        run.problems.append(f"{tag}: server exited with code {code}")

    run.attempted += len(samples)
    run.failed += sum(1 for sample in samples if not sample["ok"])
    ok = [sample for sample in samples if sample["ok"]]
    latency = {}
    for kind in ("pareto", "recommend"):
        values = [sample["latency_ms"] for sample in ok if sample["kind"] == kind]
        if len(values) < run.min_samples:
            run.problems.append(f"{tag}: only {len(values)} /{kind} samples (p90 needs {run.min_samples})")
        latency[f"{kind}_p50_ms"] = percentile(values, 50) if values else float("nan")
        latency[f"{kind}_p90_ms"] = percentile(values, 90) if values else float("nan")
    # /recommend under load clusters at multiples of the 5 ms switch interval,
    # with about a tenth of the requests in the top cluster, so its p90 jumps
    # between clusters from run to run: reported, but not as a bounded metric
    recommend_p90 = latency.pop("recommend_p90_ms")

    result: Dict[str, object] = {"setup_s": setup_s, "latency": latency, "peak_rss_mb": child.peak_kb / 1024.0}
    if job:
        evals = job_check(run, tag, job_doc, events, rows_before, rows_after)
        curve = job_doc["result"]["hypervolume_curve"]
        result.update(
            job_s=job_doc["finished_at"] - job_doc["created_at"],
            evals=evals,
            quality={
                "search.best_val_accuracy": max(p["objectives"]["accuracy"] for p in job_doc["result"]["front"]),
                "search.final_hypervolume": curve[-1] if curve else 0.0,
            },
        )
    elif rows_after != rows_before:
        run.problems.append(f"{tag}: idle store changed from {rows_before} to {rows_after} rows")

    queried = [handlers.get(endpoint, {"sum": 0.0, "count": 0.0}) for endpoint in ("/pareto", "/recommend")]
    handled_ms = sum(h["sum"] for h in queried) * 1e3 / max(1.0, sum(h["count"] for h in queried))
    service_ms = statistics.fmean(sample["service_ms"] for sample in ok) if ok else 0.0
    result["layers"] = {
        "server.pareto_handler_ms": queried[0]["sum"] * 1e3 / max(1.0, queried[0]["count"]),
        "server.recommend_handler_ms": queried[1]["sum"] * 1e3 / max(1.0, queried[1]["count"]),
        # mean client service time minus mean handler time, both endpoints
        "server.wait_ms": service_ms - handled_ms,
        "server.rows_per_query": median(sample["rows"] for sample in ok) if ok else 0.0,
        "loadgen.late_ms": percentile([sample["late_ms"] for sample in ok], 90) if ok else 0.0,
        "loadgen.recommend_p90_ms": recommend_p90,
    }
    if mode == "trace":
        spans = layers.load_spans(child.out_dir)
        server_layers = layers.layer_metrics(spans, child.info())
        result["layers"]["catalog.refresh_ms"] = server_layers["catalog.refresh_ms"]
        result["layers"]["store.reloads"] = server_layers["store.reloads"]
        result["spans"] = spans
        result["info"] = child.info()
    return result


def job_check(run: Run, tag: str, job_doc: dict, events: bytes, rows_before: int, rows_after: int) -> int:
    """The job completed every evaluation; the store grew by exactly that many rows."""
    if job_doc.get("state") != "completed":
        run.problems.append(f"{tag}: job ended {job_doc.get('state')}: {job_doc.get('error')}")
        return 0
    result = job_doc["result"]
    requested = int(job_doc["evals_total"])
    sequence = [
        {
            "encoding": event["encoding"],
            "metrics": {
                "val_accuracy": event["objectives"]["accuracy"],
                "energy_nj": event["objectives"]["energy"],
            },
        }
        for event in map(json.loads, events.decode().splitlines())
        if event.get("type") == "evaluation"
    ]
    run.attempted += requested
    run.failed += max(0, requested - len(sequence))
    problems = checks.check_search(result, sequence, requested)
    if rows_after != rows_before + len(sequence):
        problems.append(f"/pareto rows_considered went {rows_before} -> {rows_after}, job evaluated {len(sequence)}")
    run.problems += [f"{tag}: {problem}" for problem in problems]
    run.repeatable(f"{run.workload}-{run.scale}-job", checks.search_digest(result, sequence))
    return len(sequence)


def serve_workload(run: Run) -> Dict[str, float]:
    # untimed warm-up: a smoke-scale search compiles the training modules the
    # job imports lazily; one server start warms the serving path
    run_search(run, "plain", "warmup-search", scale="smoke")
    serve_session_probe(run, "warmup")
    if run.trace:
        plain = serve_session(run, "plain", "plain", job=True)
        traced = serve_session(run, "trace", "traced", job=True)
        metrics = layers.layer_metrics(
            traced["spans"], traced["info"], traced["job_s"], include_startup=False
        )
        metrics["startup.import_s"] = traced["info"]["imported"] - traced["info"]["spawned"]
        metrics.update(traced["layers"])
        metrics["bench.trace_overhead_frac"] = traced["job_s"] / plain["job_s"]
        metrics.update(traced["quality"])
        return metrics
    setups = [serve_session_probe(run, f"setup{i}") for i in range(SETUP_PROBES)]
    session = serve_session(run, "plain", "main", job=True)
    return {
        "search_s": session["job_s"],
        "setup_s": median(setups + [session["setup_s"]]),
        "evals_per_s": session["evals"] / session["job_s"],
        "peak_rss_mb": session["peak_rss_mb"],
        **session["latency"],
    }


def serve_session_probe(run: Run, tag: str) -> float:
    """Start and stop a server: its set-up time."""
    child, _port, setup_s = start_server(run, "plain", tag)
    if child.terminate(run.deadline) != 0:
        run.problems.append(f"{tag}: server exited with a failure")
    return setup_s


# ----------------------------------------------------------------------

#: end-to-end metrics (tracing off), every workload: name -> unit
END_TO_END = {
    "search_s": "s",
    "setup_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pareto_p50_ms": "ms",
    "pareto_p90_ms": "ms",
    "recommend_p50_ms": "ms",
}

#: per-layer metrics (traced run), every workload: name -> unit
PER_LAYER = {
    "startup.import_s": "s",
    "data.load_dataset_s": "s",
    "models.build_ms": "ms",
    "train.fit_s": "s",
    "train.forward_s": "s",
    "train.backward_s": "s",
    "train.optim_s": "s",
    "train.batch_wait_s": "s",
    "train.val_s": "s",
    "train.samples_per_s": "1/s",
    "train.gflop_per_s": "GFLOP/s",
    "eval.accuracy_s": "s",
    "eval.macs_ms": "ms",
    "snn.fused_frac": "frac",
    "snn.sparse_frac": "frac",
    "search.loop_s": "s",
    "search.best_val_accuracy": "frac",
    "search.final_hypervolume": "acc.nJ",
    "gp.fit_ms": "ms",
    "gp.fit_calls": "count",
    "gp.update_ms": "ms",
    "gp.update_calls": "count",
    "gp.predict_ms": "ms",
    "gp.predict_calls": "count",
    "pareto.hypervolume_ms": "ms",
    "store.put_ms": "ms",
    "store.reloads": "count",
    "snapshot.put_ms": "ms",
    "snapshot.bytes": "B",
    "server.pareto_handler_ms": "ms",
    "server.recommend_handler_ms": "ms",
    "server.wait_ms": "ms",
    "server.rows_per_query": "count",
    "catalog.refresh_ms": "ms",
    "loadgen.late_ms": "ms",
    "loadgen.recommend_p90_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.attributed_frac": "frac",
}

WORKLOADS = {
    "search-cold": search_workload,
    "serve-mixed": serve_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark of the skip-connection search")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time one run measures for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="default", help="experiment scale (smoke for the self-check)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"e2ebench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    run = Run(args.workload, args.seed % 2**31, args.seconds, bool(args.trace), args.scale)
    try:
        metrics = WORKLOADS[args.workload](run)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        print(f"e2ebench: {args.workload} failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    units = PER_LAYER if run.trace else END_TO_END
    bad = [name for name in units if not isinstance(metrics.get(name), (int, float)) or metrics[name] != metrics[name]]
    if bad:
        print(f"e2ebench: {args.workload}: no value for {bad}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(dict(run.environment, seed=run.seed, workload=run.workload, scale=run.scale)))
    for problem in run.problems:
        print(f"INCORRECT: {problem}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
