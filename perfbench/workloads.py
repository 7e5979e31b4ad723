"""The workloads' untraced runs, which give the end-to-end metrics.

Each workload is a closed loop of ``POST /v1/run`` requests: two callers
in one process, each on its own keep-alive connection, each sending its
next request only after the previous reply.  Every workload reports every
end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import bodies
from client import CONNECTIONS, closed_loop, launch, setup_times
from common import RunDir, beyond, median, percentile

WORKLOADS = ("http-small", "fleet-small")

#: Set-ups per run; ``setup_s`` is their median.  Half come before the
#: measured loop (the last one serves it) and half after, so that the
#: median spans the run rather than one stretch of host load.
SETUP_REPEATS = 8
PATH = "/v1/run"


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: every metric the run must report, with its unit (from
    #: ``BENCHMARK.json``)
    units: dict[str, str]
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    #: context printed and saved beside the metrics (sample counts,
    #: percentiles, per-mode rates, ...)
    notes: dict = field(default_factory=dict)

    def tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[:3])

    def put(self, name: str, value: float) -> None:
        if name not in self.units:
            raise KeyError(f"unknown metric {name}")
        self.metrics[name] = value

    def check_complete(self) -> None:
        missing = set(self.units) - set(self.metrics)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")


def run_untraced(workload: str, seed: int, seconds: float, spans,
                 units: dict[str, str]) -> Outcome:
    """One untraced run of a workload against a fresh child process."""
    from verify import Checker

    kind = "fleet" if workload == "fleet-small" else "server"
    warmup = [(PATH, body) for body in bodies.small_warmup()]
    feed = bodies.Feed(bodies.small_bodies(seed))
    outcome = Outcome(units)
    rundir = RunDir()
    child = None
    try:
        setups = setup_times(kind, rundir, warmup, SETUP_REPEATS // 2 - 1)
        seconds_to_ready, child = launch(kind, rundir, warmup)
        setups.append(seconds_to_ready)
        exchanges, wall = closed_loop(child.host, child.port, PATH, feed,
                                      seconds, spans)
        rss = child.peak_rss_mb()
        child.stop()
        setups += setup_times(kind, rundir, warmup,
                              SETUP_REPEATS - len(setups))
    finally:
        if child is not None:
            child.kill()
        rundir.remove()
    checker = Checker()
    latencies, rejected = [], 0
    for exchange in exchanges:
        problems = checker.check_run(exchange.body, exchange.status,
                                     exchange.payload)
        outcome.tally(problems)
        rejected += exchange.status == 429
        if not problems:
            latencies.append(exchange.seconds)
    if not latencies:
        raise RuntimeError(f"no request succeeded: {outcome.failures[:3]}")
    outcome.put("setup_s", median(setups))
    outcome.put("peak_rss_mb", rss)
    outcome.put("req_p50_ms", median(latencies) * 1e3)
    outcome.put("req_p99_ms", percentile(latencies, 99) * 1e3)
    outcome.put("req_per_s", len(latencies) / wall)
    outcome.notes["latency"] = {
        "samples": len(latencies),
        "samples_beyond_p99": beyond(len(latencies), 99),
        "p90_ms": percentile(latencies, 90) * 1e3,
    }
    outcome.notes["rejected_429"] = rejected
    outcome.notes["connections"] = CONNECTIONS
    outcome.notes["setup_repeats"] = SETUP_REPEATS
    outcome.check_complete()
    return outcome
