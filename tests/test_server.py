"""Acceptance tests of the HTTP serving layer (`repro.server`).

Pins the issue's acceptance criteria end-to-end against real sockets:

* a fully-cached ``/recommend`` answers without any fresh evaluation — the
  store row count is unchanged and ``/metrics`` reports the cache hit;
* ``/metrics`` emits well-formed Prometheus exposition text;
* N concurrent clients hitting ``/pareto`` and ``/recommend`` during a live
  job each see a consistent snapshot (non-dominated front, parseable JSON,
  no 500s);
* graceful shutdown during an active job drains the executor: the job ends
  in a terminal state and every completed evaluation's row is on disk —
  the merged store equals the set of completed evaluations;
* ``repro serve`` exits cleanly on SIGTERM.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.cache import PersistentEvaluationStore
from repro.core.pareto import non_dominated_mask
from repro.server import ReproServer, ServerConfig
from repro.server.catalog import StoreCatalog

SEED_ROWS = [
    ("0,0,0,0", {"val_accuracy": 0.55, "energy_nj": 20.0, "latency_ms": 2.0}),
    ("0,2,1,0", {"val_accuracy": 0.75, "energy_nj": 42.0, "latency_ms": 3.1}),
    ("1,2,1,2", {"val_accuracy": 0.80, "energy_nj": 90.0, "latency_ms": 5.5}),
]


def seed_cache(cache_dir) -> None:
    store = PersistentEvaluationStore(os.path.join(str(cache_dir), "seed-demo.jsonl"))
    for key, metrics in SEED_ROWS:
        store.put(
            key,
            {
                "encoding": [int(v) for v in key.split(",")],
                "objective_value": 1.0 - metrics["val_accuracy"],
                "metrics": metrics,
            },
        )


def get_json(url: str):
    """(status, payload) of a GET; error bodies are JSON too."""
    try:
        with urllib.request.urlopen(url) as reply:
            return reply.status, json.load(reply)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def post_json(url: str, payload: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request) as reply:
            return reply.status, json.load(reply)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def wait_terminal(url: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, job = get_json(f"{url}/jobs/{job_id}")
        if job["state"] in ("completed", "failed", "stopped"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal within {timeout}s")


SMOKE_JOB = {
    "objectives": ["accuracy", "energy"],
    "scale": "smoke",
    "model": "single_block",
    "iterations": 3,
    "seed": 0,
}


@pytest.fixture()
def server(tmp_path):
    seed_cache(tmp_path)
    with ReproServer(ServerConfig(cache_dir=str(tmp_path), port=0)) as srv:
        yield srv


class TestReadEndpoints:
    def test_healthz_reports_store_and_jobs(self, server):
        status, health = get_json(server.url + "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["store"] == {"stores": 1, "rows": 3}
        assert health["jobs"]["running"] == 0

    def test_unknown_path_and_wrong_method(self, server):
        status, body = get_json(server.url + "/nope")
        assert status == 404 and "error" in body
        status, body = post_json(server.url + "/healthz", {})
        assert status == 405 and "allowed" in body["error"]

    def test_metrics_prometheus_well_formed(self, server):
        get_json(server.url + "/healthz")  # at least one observed request
        with urllib.request.urlopen(server.url + "/metrics") as reply:
            assert reply.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            page = reply.read().decode("utf-8")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.e+-]+|\+Inf|NaN)$"
        )
        names = set()
        for line in page.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                names.add(line.split()[2])
                continue
            assert sample.match(line), f"malformed sample line: {line!r}"
        assert {
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_store_rows",
            "repro_jobs_running",
            "repro_evals_in_flight",
            "repro_recommend_cache_hits_total",
        } <= names
        assert "repro_store_rows 3" in page
        assert 'endpoint="/healthz"' in page

    def test_pareto_front_is_non_dominated(self, server):
        status, front = get_json(server.url + "/pareto?objectives=accuracy,energy")
        assert status == 200
        assert front["rows_considered"] == 3
        assert front["stores"] == ["seed-demo"]
        values = np.array(
            [[-p["objectives"]["accuracy"], p["objectives"]["energy"]] for p in front["front"]]
        )
        assert non_dominated_mask(values).all()
        # the dominated seed row (0.75 acc at 42 nJ beats nothing) is present:
        # all three rows are mutually non-dominated on (accuracy, energy)
        assert len(front["front"]) == 3

    def test_pareto_unknown_objective_is_400(self, server):
        status, body = get_json(server.url + "/pareto?objectives=accuracy,bogus")
        assert status == 400 and "bogus" in body["error"]

    def test_recommend_answers_fully_from_cache(self, server):
        """Acceptance: no fresh evaluation — row count unchanged, hit counted."""
        rows_before = server.catalog.total_rows()
        status, reply = get_json(server.url + "/recommend?energy_budget=50")
        assert status == 200 and reply["found"]
        # under energy<=50 the 0.75-accuracy row wins (0.80 costs 90 nJ)
        assert reply["recommendation"]["key"] == "0,2,1,0"
        assert reply["recommendation"]["store"] == "seed-demo"
        assert reply["candidates"] == 2
        assert server.catalog.total_rows() == rows_before == 3
        page = server.registry.render()
        assert "repro_recommend_cache_hits_total 1" in page
        assert server.jobs.counts()["running"] == 0  # nothing was evaluated

    def test_recommend_multiple_budgets(self, server):
        status, reply = get_json(
            server.url + "/recommend?energy_budget=100&latency_budget=4"
        )
        assert status == 200
        assert reply["recommendation"]["key"] == "0,2,1,0"
        assert reply["constraints"] == {"energy_budget": 100.0, "latency_budget": 4.0}

    def test_recommend_miss_is_404_with_reason(self, server):
        status, reply = get_json(server.url + "/recommend?energy_budget=1")
        assert status == 404 and not reply["found"]
        assert reply["rows_considered"] == 3
        assert "no cached evaluation" in reply["reason"]
        assert "repro_recommend_cache_misses_total 1" in server.registry.render()

    def test_recommend_empty_store_names_the_cause(self, tmp_path):
        with ReproServer(ServerConfig(cache_dir=str(tmp_path / "empty"), port=0)) as srv:
            status, reply = get_json(srv.url + "/recommend?energy_budget=1")
        assert status == 404 and reply["reason"] == "evaluation store is empty"

    def test_recommend_bad_parameter_is_400(self, server):
        status, body = get_json(server.url + "/recommend?energy_budget=cheap")
        assert status == 400 and "energy_budget" in body["error"]


def raw_request(server, request: bytes, timeout: float = 5.0):
    """Send raw bytes; return (status, JSON body) of the reply.

    The socket timeout turns a handler that blocks on the request into a
    test failure instead of a hung suite.
    """
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    head, _, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode("utf-8")), head.decode("latin-1")


class TestMalformedRequests:
    @pytest.mark.parametrize("method, path", [("GET", "/healthz"), ("POST", "/jobs")])
    @pytest.mark.parametrize(
        "length, expected, reason",
        [
            ("abc", 400, "invalid Content-Length"),
            ("-1", 400, "invalid Content-Length"),
            ("+5", 400, "invalid Content-Length"),
            ("1e3", 400, "invalid Content-Length"),
            (str(2 << 20), 413, "exceeds"),
        ],
    )
    def test_bad_content_length_is_rejected_and_closes(self, server, method, path, length, expected, reason):
        request = f"{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        status, body, head = raw_request(server, request.encode("ascii"))
        assert status == expected
        assert reason in body["error"]
        # the reply must end the connection: recv() returned EOF above, and
        # the header says so, since the unread body cannot be framed
        assert "Connection: close" in head
        # the server is still healthy and counted the request as a 400
        assert get_json(server.url + "/healthz")[0] == 200

    def test_valid_content_length_still_reads_the_body(self, server):
        payload = json.dumps({"dataset": "imagenet"}).encode("utf-8")
        request = (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode("ascii")
            + payload
        )
        status, body, _ = raw_request(server, request)
        assert status == 400 and "imagenet" in body["error"]


class TestJobs:
    def test_validation_errors(self, server):
        status, body = post_json(server.url + "/jobs", {"dataset": "imagenet"})
        assert status == 400 and "imagenet" in body["error"]
        status, body = post_json(server.url + "/jobs", {"objectives": ["energy"]})
        assert status == 400 and "accuracy" in body["error"]
        status, body = get_json(server.url + "/jobs/job-deadbeef")
        assert status == 404

    def test_pareto_job_lifecycle_events_and_store(self, server):
        """Submit, stream events, verify the merged store holds every
        completed evaluation (acceptance)."""
        status, job = post_json(server.url + "/jobs", SMOKE_JOB)
        assert status == 202
        assert job["kind"] == "pareto" and job["state"] in ("queued", "running")
        job_id = job["id"]

        # the follow stream ends by itself once the job is terminal
        with urllib.request.urlopen(f"{server.url}/jobs/{job_id}/events") as stream:
            events = [json.loads(line.decode("utf-8")) for line in stream]
        assert [e["seq"] for e in events] == list(range(len(events)))
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states[0] == "running" and states[-1] == "completed"
        evaluations = [e for e in events if e["type"] == "evaluation"]
        assert len(evaluations) == SMOKE_JOB["iterations"]
        assert [e["completed"] for e in evaluations] == [1, 2, 3]
        for event in evaluations:
            assert set(event["objectives"]) == {"accuracy", "energy"}
            assert event["hypervolume"] >= 0.0

        final = wait_terminal(server.url, job_id)
        assert final["evals_completed"] == SMOKE_JOB["iterations"]
        assert final["evals_in_flight"] == 0
        assert final["result"]["front"], "terminal job carries its result"

        # acceptance: merged store == set of completed evaluations
        catalog = StoreCatalog(server.config.cache_dir)
        catalog.refresh()
        store_keys = {row["key"] for name, row in catalog.iter_rows() if name != "seed-demo"}
        event_keys = {",".join(str(v) for v in e["encoding"]) for e in evaluations}
        assert event_keys == store_keys

        # resumable, non-following reads of the finished stream
        with urllib.request.urlopen(
            f"{server.url}/jobs/{job_id}/events?since=2&follow=0"
        ) as stream:
            tail = [json.loads(line.decode("utf-8")) for line in stream]
        assert tail == [e for e in events if e["seq"] >= 2]

    def test_single_objective_job(self, server):
        status, job = post_json(
            server.url + "/jobs",
            {"objectives": "accuracy", "scale": "smoke", "model": "single_block", "iterations": 3},
        )
        assert status == 202 and job["kind"] == "search"
        final = wait_terminal(server.url, job["id"])
        assert final["state"] == "completed"
        result = final["result"]
        assert result["objective"] == "accuracy"
        assert result["num_evaluations"] == 3
        assert 0.0 <= result["best"]["accuracy"] <= 1.0
        assert len(result["incumbent_curve"]) == 3

    def test_concurrent_clients_see_consistent_snapshots(self, server):
        """N threads on /pareto + /recommend during a live job: every reply
        parses, no 500s, every front snapshot is internally non-dominated."""
        _, job = post_json(server.url + "/jobs", dict(SMOKE_JOB, iterations=4))
        failures = []
        done = threading.Event()

        def hammer():
            while not done.is_set():
                try:
                    status, front = get_json(server.url + "/pareto?objectives=accuracy,energy")
                    assert status == 200, f"/pareto -> {status}"
                    values = np.array(
                        [
                            [-p["objectives"]["accuracy"], p["objectives"]["energy"]]
                            for p in front["front"]
                        ]
                    )
                    assert values.size == 0 or non_dominated_mask(values).all()
                    status, reply = get_json(server.url + "/recommend?energy_budget=50")
                    assert status in (200, 404), f"/recommend -> {status}"
                    assert reply["rows_considered"] >= 3  # never below the seed
                    status, health = get_json(server.url + "/healthz")
                    assert status == 200 and health["status"] == "ok"
                except Exception as error:  # collected for the assert below
                    failures.append(repr(error))
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            final = wait_terminal(server.url, job["id"])
        finally:
            done.set()
            for thread in threads:
                thread.join(10.0)
        assert not failures, failures
        assert final["state"] == "completed"


class TestJobTrace:
    def test_trace_endpoint_serves_spans_summary_and_chrome(self, server):
        """Every job runs traced: the endpoint serves the flight-recorder
        ring in all three formats and the JSONL mirror lands on disk."""
        _, job = post_json(server.url + "/jobs", SMOKE_JOB)
        wait_terminal(server.url, job["id"])

        status, trace = get_json(f"{server.url}/jobs/{job['id']}/trace")
        assert status == 200
        assert trace["job_id"] == job["id"]
        assert trace["span_count"] == len(trace["spans"]) > 0
        names = {entry["name"] for entry in trace["spans"]}
        assert {"search", "evaluate", "cache.lookup", "train.epoch"} <= names
        # one trace per job, id derived from the job id
        assert {entry["trace_id"] for entry in trace["spans"]} == {f"t-{job['id']}"}
        # the JSONL mirror holds everything the ring saw (no drops expected
        # at smoke scale, so the two agree exactly)
        assert trace["jsonl_path"].endswith(f"{job['id']}.jsonl")
        from repro.trace import load_trace

        mirrored = load_trace(trace["jsonl_path"])
        assert len(mirrored) == trace["span_count"] + trace["dropped"]

        status, summary = get_json(f"{server.url}/jobs/{job['id']}/trace?format=summary")
        assert status == 200 and summary["job_id"] == job["id"]
        phase_names = {row["name"] for row in summary["phases"]}
        assert "evaluate" in phase_names and "search" in phase_names
        assert summary["evaluation_count"] >= 1
        assert summary["critical_path"][0]["name"] in ("pareto_front", "search")

        status, chrome = get_json(f"{server.url}/jobs/{job['id']}/trace?format=chrome")
        assert status == 200
        assert any(event.get("ph") == "X" for event in chrome["traceEvents"])

        status, body = get_json(f"{server.url}/jobs/{job['id']}/trace?format=bogus")
        assert status == 400 and "bogus" in body["error"]

    def test_trace_of_unknown_job_is_404(self, server):
        status, _ = get_json(server.url + "/jobs/job-deadbeef/trace")
        assert status == 404

    def test_observability_metrics_are_exported(self, server):
        page = server.registry.render()
        for name in (
            "repro_worker_occupancy",
            "repro_job_events_dropped_total",
            "repro_sparse_steps_total",
            "repro_dense_steps_total",
            "repro_sparse_probe_failures_total",
            "repro_store_lookup_hits_total",
            "repro_store_lookup_misses_total",
            "repro_store_lookup_hit_rate",
        ):
            assert f"# TYPE {name}" in page, name
        # idle server: no running jobs, so occupancy scrapes as zero
        assert "repro_worker_occupancy 0" in page

    def test_concurrent_metrics_scrapes_stay_consistent(self, server):
        """Satellite acceptance: parallel /metrics scrapes during a live job
        always parse, histogram buckets stay cumulative-monotone and end at
        the series count, and counters never go backwards."""
        _, job = post_json(server.url + "/jobs", dict(SMOKE_JOB, iterations=3))
        failures = []
        done = threading.Event()
        # label values may contain `{}` (route patterns like "/jobs/{id}"),
        # so the label block is matched greedily to the last closing brace
        sample_line = re.compile(
            r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{.*\})? (?P<value>[0-9.e+-]+|\+Inf|NaN)$'
        )

        def scrape():
            last_requests_total = {}
            while not done.is_set():
                try:
                    with urllib.request.urlopen(server.url + "/metrics") as reply:
                        page = reply.read().decode("utf-8")
                    buckets = {}  # labels-without-le -> [counts in render order]
                    counts = {}
                    for line in page.strip().splitlines():
                        if line.startswith("#"):
                            continue
                        match = sample_line.match(line)
                        assert match, f"malformed sample line: {line!r}"
                        name, labels = match.group("name"), match.group("labels") or ""
                        if match.group("value") == "NaN":
                            continue
                        value = float(match.group("value").replace("+Inf", "inf"))
                        if name == "repro_http_request_seconds_bucket":
                            # drop the `le` label: what remains matches _count
                            series = re.sub(r',?le="[^"]*"', "", labels).replace("{}", "")
                            buckets.setdefault(series, []).append(value)
                        elif name == "repro_http_request_seconds_count":
                            counts[labels] = value
                        elif name == "repro_http_requests_total":
                            previous = last_requests_total.get(labels, 0.0)
                            assert value >= previous, f"counter went backwards: {line!r}"
                            last_requests_total[labels] = value
                    for series, series_counts in buckets.items():
                        assert series_counts == sorted(series_counts), (
                            f"non-monotone buckets for {series}: {series_counts}"
                        )
                        assert series_counts[-1] == counts[series], (
                            f"+Inf bucket disagrees with _count for {series}"
                        )
                except Exception as error:  # collected for the assert below
                    failures.append(repr(error))
                    return

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            final = wait_terminal(server.url, job["id"])
        finally:
            done.set()
            for thread in threads:
                thread.join(10.0)
        assert not failures, failures
        assert final["state"] == "completed"
        # a completed job did store lookups: the callback-backed counters moved
        page = server.registry.render()
        hit_line = [l for l in page.splitlines() if l.startswith("repro_store_lookup_misses_total")]
        assert hit_line and float(hit_line[0].split()[-1]) >= 1.0


class TestGracefulShutdown:
    def test_stop_during_active_job_drains_and_loses_no_rows(self, tmp_path):
        """Acceptance: SIGTERM-equivalent stop during a job — the job reaches
        a terminal state and every completed evaluation's row is on disk."""
        seed_cache(tmp_path)
        server = ReproServer(ServerConfig(cache_dir=str(tmp_path), port=0)).start()
        _, job = post_json(server.url + "/jobs", dict(SMOKE_JOB, iterations=6))
        # wait until at least one evaluation completed, then pull the plug
        deadline = time.time() + 120.0
        while time.time() < deadline:
            _, snapshot = get_json(f"{server.url}/jobs/{job['id']}")
            if snapshot["evals_completed"] >= 1 or snapshot["state"] in (
                "completed",
                "failed",
                "stopped",
            ):
                break
            time.sleep(0.02)
        server.stop()  # blocks until the job thread joined

        tracked = server.jobs.get(job["id"])
        assert tracked.state in ("stopped", "completed")
        assert tracked.error is None
        completed_events = [e for e in tracked.events if e.get("type") == "evaluation"]
        assert tracked.evals_completed == len(completed_events)
        # no completed evaluation lost: each one's row is in the merged store
        catalog = StoreCatalog(str(tmp_path))
        catalog.refresh()
        store_keys = {row["key"] for name, row in catalog.iter_rows() if name != "seed-demo"}
        event_keys = {",".join(str(v) for v in e["encoding"]) for e in completed_events}
        assert event_keys == store_keys
        # a stopped-early job still recorded a (partial) result
        if tracked.state == "stopped":
            assert tracked.result["stopped"] is True
            assert tracked.evals_completed < 6

    def test_shutdown_rejects_new_work_and_healthz_turns_503(self, tmp_path):
        seed_cache(tmp_path)
        server = ReproServer(ServerConfig(cache_dir=str(tmp_path), port=0)).start()
        server.health.shutting_down = True
        status, health = get_json(server.url + "/healthz")
        assert status == 503 and health["status"] == "shutting-down"
        server.jobs._shutting_down = True
        status, body = post_json(server.url + "/jobs", SMOKE_JOB)
        assert status == 400 and "shutting down" in body["error"]
        server.stop()
        server.stop()  # idempotent


@pytest.mark.skipif(os.name != "posix", reason="SIGTERM semantics are POSIX")
class TestServeCommand:
    def test_sigterm_exits_cleanly(self, tmp_path):
        seed_cache(tmp_path)
        env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            banner = process.stdout.readline()
            assert "serving on http://" in banner
            assert "3 cached evaluations" in banner
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            status, health = get_json(f"http://127.0.0.1:{match.group(1)}/healthz")
            assert status == 200 and health["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shutdown complete: jobs drained" in out


class TestMetricsRegistry:
    """Unit coverage for the hand-rolled registry's exposition correctness."""

    def test_histogram_buckets_are_cumulative_and_monotone(self):
        from repro.server.metrics import Histogram

        histogram = Histogram("t_seconds", "test", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        rendered = {}
        for line in histogram.render():
            if line.startswith("t_seconds_bucket"):
                label, count = line.split(" ")
                rendered[label.split('le="')[1].rstrip('"}')] = float(count)
        # each `le` count includes every smaller bucket, ending at the total
        assert rendered == {"0.01": 2, "0.1": 3, "1": 4, "+Inf": 5}
        counts = [rendered["0.01"], rendered["0.1"], rendered["1"], rendered["+Inf"]]
        assert counts == sorted(counts)

    def test_callback_backed_counter_tracks_aggregate_and_rejects_inc(self):
        from repro.server.metrics import Counter

        backing = {"total": 0.0}
        counter = Counter("t_total", "test")
        counter.set_function(lambda: backing["total"])
        assert counter.value == 0.0
        backing["total"] = 3.0
        assert counter.value == 3.0
        assert any(line.endswith(" 3") for line in counter.render())
        # the two sourcing modes cannot be mixed
        with pytest.raises(ValueError, match="callback-backed"):
            counter.inc()

    def test_counter_callback_failure_is_nan_and_recorded(self):
        from repro.server.metrics import Counter

        counter = Counter("t_broken_total", "test")

        def explode() -> float:
            raise RuntimeError("aggregate vanished")

        counter.set_function(explode)
        value = counter.value
        assert value != value  # NaN
        assert counter._unlabelled().last_error == "RuntimeError: aggregate vanished"
        counter.set_function(lambda: 2.0)
        assert counter.value == 2.0

    def test_gauge_callback_failure_is_nan_and_recorded(self):
        from repro.server.metrics import Gauge

        gauge = Gauge("t_rows", "test")

        def explode() -> float:
            raise RuntimeError("backing store vanished")

        gauge.set_function(explode)
        value = gauge.get()
        assert value != value  # NaN
        child = gauge._unlabelled()
        assert child.last_error == "RuntimeError: backing store vanished"
        gauge.set_function(lambda: 7.0)
        assert gauge.get() == 7.0
        assert child.last_error is None
