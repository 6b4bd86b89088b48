"""The ``serve-mixed`` workload's inputs and its open-loop load generator.

``python3 e2ebench/serve_load.py seed --dir DIR --seed N`` writes the cache
directory the server starts from: ``ROWS`` synthetic evaluation rows spread
over ``STORES`` stores, written through the public
``ShardedEvaluationStore.put`` and drawn from ``N`` alone, so one seed always
gives the same directory (see :func:`seeded_rows`).

:class:`OpenLoop` sends ``GET /pareto`` and ``GET /recommend`` alternately on
a fixed schedule from at most two threads, whatever the server's latency, and
times each request from the moment it was due, so a stall also counts against
the requests queued behind it.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import threading
import time
from typing import Callable, Dict, List, Optional

ROWS = 2000
STORES = 4
#: seeded rows on the Pareto front; every other row is dominated by one of them
FRONT_ROWS = 4
#: encoding length and value range of the synthetic rows
ENCODING_LENGTH = 12


def seeded_rows(seed: int) -> List[dict]:
    """The rows the server starts from, drawn from ``seed`` alone.

    Every seed gives ``/pareto`` the same amount of work.  ``FRONT_ROWS``
    points on an accuracy-energy trade-off curve come first; every later row
    is made slightly worse than front point ``i % FRONT_ROWS`` -- by less than
    the gap to its neighbours, so that point is the only one dominating it and
    a front scan in insertion order stops at the same place for every seed.
    The seed moves the points within those limits and picks the encodings.
    """
    rng = random.Random(seed)
    front = []
    for k in range(FRONT_ROWS):
        t = (k + 0.5 + rng.uniform(-0.05, 0.05)) / FRONT_ROWS
        front.append((0.30 + 0.60 * t, 80.0 + 480.0 * t**1.5))
    rows = list(front)
    for index in range(ROWS - FRONT_ROWS):
        accuracy, energy = front[index % FRONT_ROWS]
        rows.append((accuracy - rng.uniform(0.005, 0.05), energy + rng.uniform(1.0, 20.0)))
    return [
        {
            "encoding": [rng.randrange(3) for _ in range(ENCODING_LENGTH)],
            "accuracy": round(accuracy, 6),
            "energy_nj": energy,
        }
        for accuracy, energy in rows
    ]


def recommend_budgets(seed: int, count: int) -> List[float]:
    """Energy budgets between the 20th and 90th percentile of the seeded rows.

    Every budget admits at least one seeded row, so every ``/recommend``
    succeeds.
    """
    energies = sorted(row["energy_nj"] for row in seeded_rows(seed))
    low, high = energies[len(energies) // 5], energies[(len(energies) * 9) // 10]
    rng = random.Random(seed + 1)
    return [round(rng.uniform(low, high), 3) for _ in range(count)]


def write_rows(directory: str, seed: int) -> int:
    from repro.core.cache import ShardedEvaluationStore

    stores = [
        ShardedEvaluationStore(f"{directory}/bench-seeded-{index}.jsonl", writer_id="seed")
        for index in range(STORES)
    ]
    per_store = ROWS // STORES
    for index, row in enumerate(seeded_rows(seed)):
        accuracy, energy = row["accuracy"], row["energy_nj"]
        stores[index // per_store].put(
            f"{index}:" + ",".join(map(str, row["encoding"])),
            {
                "encoding": row["encoding"],
                "objective_value": 1.0 - accuracy,
                "accuracy": accuracy,
                "metrics": {
                    "val_accuracy": accuracy,
                    "energy_nj": energy,
                    "macs": energy * 900.0,
                    "latency_steps": 6.0,
                },
            },
        )
    return sum(len(store) for store in stores)


class OpenLoop:
    """Send queries on a fixed schedule from two threads until :meth:`stop`.

    Request ``i`` is due at ``start + i / rate``; even indices query
    ``/pareto``, odd ones ``/recommend`` with the next budget.  ``poll`` is
    due once a second on the same threads and is not timed.
    """

    THREADS = 2

    def __init__(
        self,
        port: int,
        rate: float,
        budgets: List[float],
        poll: Callable[[http.client.HTTPConnection], None],
    ) -> None:
        self.port = port
        self.rate = rate
        self.budgets = budgets
        self.poll = poll
        self.samples: List[Dict[str, object]] = []
        self.errors: List[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._next_query = 0
        self._next_poll = 0
        self._start = 0.0
        self._workers: List[threading.Thread] = []

    def _take(self):
        """The earliest item not yet taken: (due, kind, index)."""
        with self._lock:
            query_due = self._start + self._next_query / self.rate
            poll_due = self._start + 0.5 + self._next_poll
            if poll_due < query_due:
                self._next_poll += 1
                return poll_due, "poll", self._next_poll - 1
            self._next_query += 1
            index = self._next_query - 1
            return query_due, "pareto" if index % 2 == 0 else "recommend", index

    def _run(self) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            while not self._stop.is_set():
                due, kind, index = self._take()
                delay = due - time.monotonic()
                if delay > 0 and self._stop.wait(delay):
                    return
                if kind == "poll":
                    self.poll(connection)
                    continue
                if kind == "pareto":
                    path = "/pareto"
                else:
                    budget = self.budgets[(index // 2) % len(self.budgets)]
                    path = f"/recommend?energy_budget={budget}"
                sent = time.monotonic()
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
                    with self._lock:
                        self.errors.append(f"{path}: {error!r}")
                        self.samples.append({"kind": kind, "ok": False})
                    continue
                done = time.monotonic()
                ok = status == 200
                rows = json.loads(body).get("rows_considered") if ok else None
                with self._lock:
                    if not ok:
                        self.errors.append(f"{path}: HTTP {status}")
                    self.samples.append(
                        {
                            "kind": kind,
                            "ok": ok,
                            "latency_ms": (done - due) * 1e3,
                            "late_ms": (sent - due) * 1e3,
                            "service_ms": (done - sent) * 1e3,
                            "rows": rows,
                        }
                    )
        finally:
            connection.close()

    def start(self) -> "OpenLoop":
        self._start = time.monotonic()
        self._workers = [
            threading.Thread(target=self._run, name=f"loadgen-{index}", daemon=True)
            for index in range(self.THREADS)
        ]
        for worker in self._workers:
            worker.start()
        return self

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float) -> bool:
        """Wait for both threads; False if one is still blocked on a request."""
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        return not any(worker.is_alive() for worker in self._workers)


def request(port: int, method: str, path: str, body: Optional[dict] = None, timeout: float = 60):
    """One request on a fresh connection, a JSON body if given: (status, raw response body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, raw
    finally:
        connection.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write the serve-mixed cache directory")
    parser.add_argument("action", choices=("seed",))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rows = write_rows(args.dir, args.seed)
    print(json.dumps({"rows": rows}))
    return 0 if rows == ROWS else 1


if __name__ == "__main__":
    raise SystemExit(main())
