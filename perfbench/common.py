"""Shared plumbing for the benchmark: paths, stamps, percentiles, spans,
child processes and the hygiene checks that keep runs independent.

Nothing here starts a process or touches the file system at import time;
``run.py`` calls :func:`bootstrap` first, which puts the checkout's
``src`` directory on ``sys.path`` (the benchmark runs the program from
source, as a client of its public API).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

#: The checkout root (the benchmark directory's parent).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (gitignored).
OUT = ROOT / ".perfbench"
#: The benchmark's definition: workloads and metric names with units.
DEFINITION = ROOT / "BENCHMARK.json"


def bootstrap() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {SRC}/repro; run from a "
            "checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` defines."""
    spec = json.loads(DEFINITION.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation, honest at small N)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of *count* samples lie beyond the nearest-rank *q*-th."""
    return count - max(1, math.ceil(q / 100.0 * count))


# ---------------------------------------------------------------------------
# Spans: the benchmark's own trace of the public calls it makes
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span recorder: name, start, end, parent and request id.

    Spans nest per thread; a span's parent is the span open on the same
    thread when it started, and a span without a request id inherits its
    parent's.  ``enabled=False`` makes :meth:`span` a no-op (it yields
    ``None``), which is how the untraced runs measure without it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "request": request_id if request_id is not None
            else (parent["request"] if parent else None),
        }
        with self._lock:
            record["id"] = len(self.records)
            self.records.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``(seconds, result)`` of one call, recorded as a span."""
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        return record["end"] - record["start"], result

    def self_times(self, request_prefix: str = "") -> dict[str, list[float]]:
        """Seconds of self time per span name — a span's duration minus
        the part its children cover — over the spans whose request id
        starts with *request_prefix*."""
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        result: dict[str, list[float]] = {}
        for record in self.records:
            if not (record["request"] or "").startswith(request_prefix):
                continue
            own = record["end"] - record["start"] - child_time[record["id"]]
            result.setdefault(record["name"], []).append(own)
        return result

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and median self time (ms)."""
        return {
            name: {
                "count": len(values),
                "self_ms_total": sum(values) * 1e3,
                "self_ms_median": median(values) * 1e3,
            }
            for name, values in sorted(self.self_times().items())
        }

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Stamps
# ---------------------------------------------------------------------------


def source_revision() -> dict:
    """The git revision when the checkout is a repository, plus a digest
    of ``src/`` that identifies the code when it is not."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
        if completed.returncode == 0:
            revision = completed.stdout.strip()
    return {"git_revision": revision, "src_sha256": digest.hexdigest()[:16]}


def stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **source_revision(),
    }


# ---------------------------------------------------------------------------
# Processes and hygiene
# ---------------------------------------------------------------------------


class RunDir:
    """A fresh scratch directory for one run (artifact caches, temp
    files, child logs), removed at the end."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        self._caches = 0

    def fresh_cache(self) -> Path:
        self._caches += 1
        path = self.path / f"cache-{self._caches}"
        path.mkdir()
        return path

    def child_env(self, cache_dir: Path | None = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["TMPDIR"] = str(self.tmp)
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def pid_alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def port_open(port: int, host: str = "127.0.0.1") -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(0.5)
        return probe.connect_ex((host, port)) == 0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class LeftoverError(RuntimeError):
    """A run left a process alive or a port bound."""


def assert_gone(pids, ports, wait: float = 10.0) -> None:
    """Fail loudly when a process or a listening port outlives its stop."""
    deadline = time.monotonic() + wait
    while time.monotonic() < deadline:
        alive = [pid for pid in pids if pid_alive(pid)]
        bound = [port for port in ports if port_open(port)]
        if not alive and not bound:
            return
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    raise LeftoverError(
        f"left behind: processes {alive}, listening ports {bound}"
    )


class Child:
    """A process under test, started by ``child.py``.

    It prints one JSON line with its URL and the pids and ports under
    test, then serves until its stdin closes.
    """

    def __init__(self, kind: str, rundir: RunDir, tracing: bool = True) -> None:
        self.kind = kind
        self.cache_dir = rundir.fresh_cache()
        command = [sys.executable, str(Path(__file__).with_name("child.py")),
                   kind]
        if not tracing:
            command.append("--no-tracing")
        self.log_path = rundir.path / f"{kind}-{self.cache_dir.name}.log"
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, env=rundir.child_env(self.cache_dir), cwd=ROOT,
            )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError(
                f"{kind} child exited before serving: "
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        info = json.loads(line)
        self.host: str = info["host"]
        self.port: int = info["port"]
        self.pids: list[int] = [self.process.pid, *info.get("node_pids", [])]
        self.ports: list[int] = [self.port, *info.get("node_ports", [])]
        self.stopped = False

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of every process under test (fleet nodes too)."""
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def stop(self) -> None:
        """Close stdin (the child drains and exits), then verify that no
        process or port survived."""
        if self.stopped:
            return
        self.stopped = True
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
            raise LeftoverError(f"{self.kind} child did not stop in time")
        finally:
            self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"{self.kind} child exited with {self.process.returncode}: "
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        assert_gone(self.pids, self.ports)

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.stopped:
            return
        self.stopped = True
        for pid in reversed(self.pids):
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        self.process.wait(timeout=10)
        self.process.stdout.close()
        self.process.stdin.close()
