"""The load generator: keep-alive closed loops and single requests."""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from common import Child, RunDir

#: Closed-loop callers, one keep-alive connection each (nproc = 2).
CONNECTIONS = 2
HEADERS = {"Content-Type": "application/json"}
#: Seconds a request may take before it counts as a transport error; a
#: run must end within three minutes, and a request takes ~50 ms.
TIMEOUT = 30.0


@dataclass
class Exchange:
    """One request as the client saw it."""

    index: int
    body: bytes
    status: int          # 0 on a transport error
    payload: bytes
    seconds: float


class Connection:
    """A persistent HTTP/1.1 connection that reconnects after an error."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=TIMEOUT)
        return self._conn

    def post(self, path: str, body: bytes) -> tuple[int, bytes, float]:
        """``(status, payload, seconds)``; status 0 on a transport error."""
        start = time.perf_counter()
        try:
            connection = self._connection()
            connection.request("POST", path, body=body, headers=HEADERS)
            response = connection.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, repr(exc).encode(), time.perf_counter() - start
        return status, payload, time.perf_counter() - start

    def get_json(self, path: str) -> dict:
        connection = self._connection()
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def post_fresh(host: str, port: int, path: str,
               body: bytes) -> tuple[int, bytes, float]:
    """One request on its own connection, connect and close included."""
    connection = Connection(host, port)
    try:
        return connection.post(path, body)
    finally:
        connection.close()


def closed_loop(host: str, port: int, path: str, feed, seconds: float,
                spans) -> tuple[list[Exchange], float]:
    """Each caller sends its next body only after the previous reply.

    Returns every exchange that started within *seconds*, and the wall
    time until the last one finished.
    """
    exchanges: list[Exchange] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def caller() -> None:
        connection = Connection(host, port)
        try:
            while time.perf_counter() < stop_at:
                index, body = feed.next()
                with spans.span("http.request", f"{path}#{index}"):
                    status, payload, elapsed = connection.post(path, body)
                with lock:
                    exchanges.append(Exchange(index, body, status, payload,
                                              elapsed))
        finally:
            connection.close()

    threads = [threading.Thread(target=caller, name=f"caller-{n}")
               for n in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("a closed-loop caller did not finish")
    wall = time.perf_counter() - start
    exchanges.sort(key=lambda exchange: exchange.index)
    return exchanges, wall


def launch(kind: str, rundir: RunDir, warmup_bodies: list[tuple[str, bytes]],
           tracing: bool = True) -> tuple[float, Child]:
    """Start a child with an empty artifact cache and send one request
    per pool the workload uses; returns (seconds until every pool
    answered, the child)."""
    start = time.perf_counter()
    child = Child(kind, rundir, tracing=tracing)
    try:
        for path, body in warmup_bodies:
            status, payload, _ = post_fresh(child.host, child.port, path, body)
            if status != 200:
                raise RuntimeError(
                    f"warm-up {path} answered {status}: {payload[:300]!r}")
    except BaseException:
        child.kill()
        raise
    return time.perf_counter() - start, child


def setup_times(kind: str, rundir: RunDir, warmup_bodies,
                count: int) -> list[float]:
    """Set-up seconds of *count* launches, each child stopped after."""
    samples = []
    for _ in range(count):
        seconds, child = launch(kind, rundir, warmup_bodies)
        child.stop()
        samples.append(seconds)
    return samples
