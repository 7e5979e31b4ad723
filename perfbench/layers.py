"""The traced run: the per-layer split.

Every traced run reports every per-layer metric, each measured on the
inputs that exercise it: the simulation layers on the paper's Figure 5.1
sieve (in process, every backend and run mode), the batch layers on
seeded ``/v1/batch`` bodies (in process), the server and router layers on
the workloads' seeded ``/v1/run`` bodies.

The benchmark records a span around every public call it makes (see
``common.Spans``) and takes every in-process timing from those spans;
spans inside the program are out of scope.  The wire round trip is split
by replaying the same bodies twice — over the wire, on keep-alive and on
fresh connections, and in process through the handler's public call
chain::

    parse_run_request / parse_batch_request -> PoolRegistry.pool_for
        -> SimulationPool.run_batch -> batch_result_to_json + json.dumps

— and ``server.edge_ms`` is what the wire adds to that chain.  Offsets
are calibrated the way SNIPPETS.md section 1 does (time an empty program
through the same harness and subtract it): a ``cycles: 0`` request and a
``cycles=0`` run per backend.
"""

from __future__ import annotations

import json
from itertools import islice

import bodies
from client import Connection, closed_loop, launch, post_fresh
from common import RunDir, Spans, median
from fig51 import BACKENDS, LANE_WIDTH, PAPER_CYCLES, Fig51, stats_counts
from workloads import Outcome

#: Bodies replayed per layer measurement.
SMALL_BODIES = 60
BATCH_BODIES = 8
PAIRS_TRACING = 100
PAIRS_ROUTER = 40
ROUTER_BLOCKS = 4
EMPTY_REPEATS = 30
REPEATS_FAST = {"interpreter": 3, "threaded": 5, "compiled": 15}
REPEATS_DEFAULT = 3
REPEATS_FIXED = 200
REPEATS_PREPARE = 5

#: The in-process chain's layers, in call order: (layer, span name).
CHAIN = (("parse", "protocol.parse"), ("pool_for", "server.pool_for"),
         ("run_batch", "pool.run_batch"), ("serialize", "protocol.serialize"))


def ms(samples) -> float:
    return median(samples) * 1e3


def us(samples) -> float:
    return median(samples) * 1e6


# ---------------------------------------------------------------------------
# Simulation layers: lowering -> compiler -> core / lanes
# ---------------------------------------------------------------------------


def simulation_layers(outcome: Outcome, bench: Fig51, spans: Spans,
                      rundir: RunDir) -> None:
    from repro import clear_prepare_cache
    from repro.compiler.cache import DiskCache
    from repro.compiler.codegen_python import generate_program_python
    from repro.compiler.compiled import CompiledBackend
    from repro.core.simulator import make_backend
    from repro.lowering import lower
    from repro.machines.library import get_machine

    spec = bench.sieve.spec
    machines = [get_machine(name).build() for name in bodies.SMALL_MACHINES]
    totals = [sum(spans.call("lowering.lower", lower, machine)[0]
                  for machine in machines)
              for _ in range(REPEATS_PREPARE)]
    outcome.put("lowering.lower_ms", ms(totals))
    counts = stats_counts(bench.reference_stats)
    outcome.put("lowering.evaluations_per_cycle",
                counts["component_evaluations"] / counts["cycles"])
    for name, value in counts.items():
        outcome.put(f"core.sim.{name}", value)

    program = lower(spec)
    outcome.put("compiler.generate_ms", ms(
        spans.call("compiler.generate", generate_program_python, program)[0]
        for _ in range(REPEATS_PREPARE)))
    for backend in BACKENDS:
        samples = []
        for _ in range(REPEATS_PREPARE):
            clear_prepare_cache()
            samples.append(spans.call(f"compiler.prepare_cold.{backend}",
                                      make_backend(backend).prepare, spec)[0])
        outcome.put(f"compiler.prepare_cold_ms.{backend}", ms(samples))

    disk = DiskCache(rundir.fresh_cache())
    clear_prepare_cache()
    CompiledBackend(disk=disk).prepare(spec)      # miss: fills the disk
    samples = []
    for _ in range(REPEATS_PREPARE):
        clear_prepare_cache()
        seconds, prepared = spans.call("compiler.prepare_disk_hit.compiled",
                                       CompiledBackend(disk=disk).prepare,
                                       spec)
        bench.record(bench.sieve.check(prepared.run(
            cycles=PAPER_CYCLES, trace=False, collect_stats=False)))
        samples.append(seconds)
    clear_prepare_cache()
    outcome.put("compiler.prepare_disk_hit_ms.compiled", ms(samples))
    outcome.put("compiler.disk_cache_hit_ratio",
                disk.stats.hits / disk.stats.requests)

    for backend in BACKENDS:
        fast = [bench.call(backend) for _ in range(REPEATS_FAST[backend])]
        fixed = []
        for _ in range(REPEATS_FIXED):
            seconds, result = spans.call(
                f"core.fixed.{backend}", bench.simulators[backend].run,
                cycles=0, trace=False, collect_stats=False)
            fixed.append(seconds)
        bench.record([] if result.cycles_run == 0 else ["cycles=0 ran"])
        outcome.put(f"core.run_ms.{backend}", ms(fast))
        outcome.put(f"core.run_fixed_us.{backend}", us(fixed))
        outcome.put(f"core.net_us_per_cycle.{backend}",
                    (median(fast) - median(fixed)) * 1e6 / PAPER_CYCLES)
        if backend != "interpreter":
            outcome.put(f"core.run_default_ms.{backend}", ms(
                bench.call(f"{backend}_default")
                for _ in range(REPEATS_DEFAULT)))
    lanes = [bench.call("compiled_lanes") for _ in range(REPEATS_DEFAULT)]
    outcome.put("lanes.run_ms_per_lane.compiled", ms(lanes) / LANE_WIDTH)
    # Figure 5.1's view of the same calls: simulated Mcycles per host
    # second of the median call, per run mode
    per_run_ms = {
        "interpreter": "core.run_ms.interpreter",
        "threaded": "core.run_ms.threaded",
        "compiled": "core.run_ms.compiled",
        "threaded_default": "core.run_default_ms.threaded",
        "compiled_default": "core.run_default_ms.compiled",
        "compiled_lanes": "lanes.run_ms_per_lane.compiled",
    }
    outcome.notes["sim_mcycles_per_s"] = {
        mode: PAPER_CYCLES / outcome.metrics[name] / 1e3
        for mode, name in per_run_ms.items()
    }
    outcome.notes["lane_width"] = LANE_WIDTH


# ---------------------------------------------------------------------------
# Serving layers in process: rtl -> protocol -> server registry -> pool
# ---------------------------------------------------------------------------


def chain_request(registry, spans: Spans, body: bytes, batch: bool,
                  request_id: str):
    """One body through the handler's public call chain, a span per
    layer; returns the batch result and the response bytes."""
    from repro.serving.protocol import (
        PROTOCOL_VERSION,
        batch_result_to_json,
        parse_batch_request,
        parse_run_request,
    )

    parse = parse_batch_request if batch else parse_run_request
    with spans.span("inproc.request", request_id):
        with spans.span("protocol.parse"):
            parsed = parse(json.loads(body), "threaded", "thread")
        with spans.span("server.pool_for"):
            pool, _degraded = registry.pool_for(parsed)
        with spans.span("pool.run_batch"):
            result = pool.run_batch(list(parsed.runs))
        with spans.span("protocol.serialize"):
            document = batch_result_to_json(result)
            if not batch:  # the /v1/run response shape
                document = {
                    "protocol": PROTOCOL_VERSION,
                    "backend": result.backend,
                    "executor": result.executor,
                    "result": document["items"][0]["result"],
                }
            payload = json.dumps(document).encode()
    return result, pool, payload


def replay_in_process(registry, spans: Spans, body_list, batch: bool,
                      outcome: Outcome, checker) -> dict[str, list]:
    """Every body through the chain twice — the first pass warms the
    pools — and the second pass's per-layer self times and counts."""
    kind = "batch" if batch else "run"
    check = checker.check_batch if batch else checker.check_run
    for index, body in enumerate(body_list):
        chain_request(registry, spans, body, batch, f"warm.{kind}#{index}")
    layers: dict[str, list] = {"bytes": [], "busy": [], "capacity": [],
                               "queue": [], "failed_items": []}
    for index, body in enumerate(body_list):
        result, pool, payload = chain_request(
            registry, spans, body, batch, f"inproc.{kind}#{index}")
        outcome.tally(check(body, 200, payload))
        layers["bytes"].append(len(payload))
        layers["busy"].append(sum(item.seconds for item in result.items))
        layers["capacity"].append(result.wall_seconds * pool.max_workers)
        layers["queue"].append(result.queue_seconds_mean)
        layers["failed_items"].append(sum(not item.ok
                                          for item in result.items))
    self_times = spans.self_times(f"inproc.{kind}#")
    for layer, span_name in CHAIN:
        layers[layer] = self_times[span_name]
    return layers


def serving_layers(outcome: Outcome, seed: int, spans: Spans,
                   rundir: RunDir, checker) -> dict:
    from repro.serving.protocol import resolve_spec
    from repro.serving.server import PoolRegistry

    small = list(islice(bodies.small_bodies(seed), SMALL_BODIES))
    batches = list(islice(bodies.batch_bodies(seed), BATCH_BODIES))
    named, inline = [], []
    for _ in range(3):
        for body in small:
            doc = json.loads(body)
            seconds, _ = spans.call("rtl.resolve_spec", resolve_spec, doc)
            (inline if "spec" in doc else named).append(seconds)
    outcome.put("rtl.resolve_spec_us.named", us(named))
    outcome.put("rtl.resolve_spec_us.inline", us(inline))

    registry = PoolRegistry(artifact_cache=rundir.fresh_cache())
    try:
        run = replay_in_process(registry, spans, small, False, outcome,
                                checker)
        batch = replay_in_process(registry, spans, batches, True, outcome,
                                  checker)
    finally:
        registry.close_all()
    outcome.put("protocol.parse_us.run", us(run["parse"]))
    outcome.put("protocol.serialize_us.run", us(run["serialize"]))
    outcome.put("protocol.response_bytes.run", median(run["bytes"]))
    outcome.put("server.pool_for_us", us(run["pool_for"]))
    outcome.put("protocol.parse_us.batch", us(batch["parse"]))
    outcome.put("protocol.serialize_us.batch", us(batch["serialize"]))
    outcome.put("protocol.response_bytes.batch", median(batch["bytes"]))
    outcome.put("pool.run_batch_ms", ms(batch["run_batch"]))
    outcome.put("pool.busy_ms", ms(batch["busy"]))
    outcome.put("pool.busy_share", sum(batch["busy"]) / sum(batch["capacity"]))
    outcome.put("pool.queue_ms", ms(batch["queue"]))
    outcome.put("pool.failed_items",
                sum(batch["failed_items"]) + sum(run["failed_items"]))
    return {"run": run, "batch": batch, "small": small, "batches": batches}


# ---------------------------------------------------------------------------
# Over the wire: server edge, tracing overhead, router
# ---------------------------------------------------------------------------


def wire_layers(outcome: Outcome, spans: Spans, checker, inproc: dict,
                server, untraced_server, fleet) -> None:
    body_list = inproc["small"]
    layers = inproc["run"]
    empties = bodies.empty_run_bodies()
    statuses = []

    def post(connection, body, name, request_id=None):
        """One request on *connection*, or on a fresh one for ``None``."""
        with spans.span(name, request_id):
            if connection is None:
                status, payload, seconds = post_fresh(
                    server.host, server.port, "/v1/run", body)
            else:
                status, payload, seconds = connection.post("/v1/run", body)
        statuses.append(status)
        return status, payload, seconds

    keepalive = Connection(server.host, server.port)
    kept, fresh, empty_kept, empty_fresh = [], [], [], []
    try:
        for index, body in enumerate(body_list):
            for connection, sink, name in ((keepalive, kept, "keepalive"),
                                           (None, fresh, "fresh")):
                status, payload, seconds = post(
                    connection, body, f"http.{name}", f"wire#{index}")
                outcome.tally(checker.check_run(body, status, payload))
                sink.append(seconds)
        for index in range(EMPTY_REPEATS):
            body = empties[index % len(empties)]
            for connection, sink, name in (
                    (keepalive, empty_kept, "keepalive"),
                    (None, empty_fresh, "fresh")):
                status, payload, seconds = post(
                    connection, body, f"http.empty.{name}")
                outcome.tally([] if status == 200 else [f"empty: {status}"])
                sink.append(seconds)
    finally:
        keepalive.close()
    outcome.put("server.roundtrip_ms.keepalive", ms(kept))
    outcome.put("server.roundtrip_ms.fresh", ms(fresh))
    outcome.put("server.empty_roundtrip_ms", ms(empty_kept))
    cycles = [json.loads(body)["cycles"] for body in body_list]
    outcome.put("server.net_us_per_cycle",
                (median(fresh) - median(empty_fresh)) * 1e6 / median(cycles))
    in_process = {layer: median(layers[layer]) for layer, _ in CHAIN}
    edge = median(kept) - sum(in_process.values())
    outcome.put("server.edge_ms", edge * 1e3)
    outcome.put("server.rejected_share", statuses.count(429) / len(statuses))
    outcome.notes["keepalive_roundtrip_split_ms"] = {
        **{layer: value * 1e3 for layer, value in in_process.items()},
        "edge": edge * 1e3,
        "roundtrip": median(kept) * 1e3,
        "bodies": len(body_list),
    }
    outcome.notes["empty_roundtrip_fresh_ms"] = ms(empty_fresh)

    # tracing on vs off: paired fresh-connection round trips, alternating
    # which server goes first
    ratios = []
    for index in range(PAIRS_TRACING):
        body = body_list[index % len(body_list)]
        timing = {}
        pair = (server, untraced_server)
        for target in (pair if index % 2 else pair[::-1]):
            with spans.span("http.tracing_pair"):
                status, payload, seconds = post_fresh(
                    target.host, target.port, "/v1/run", body)
            outcome.tally(checker.check_run(body, status, payload))
            timing[target is server] = seconds
        ratios.append(timing[True] / timing[False])
    outcome.put("tracing.server_overhead_ratio", median(ratios))

    # router: fleet vs single node on the same bodies over keep-alive, in
    # alternating blocks (alternating single requests would change how
    # the two connections' delayed ACKs interact)
    single = Connection(server.host, server.port)
    routed = Connection(fleet.host, fleet.port)
    times = {"single": [], "fleet": []}
    router_bodies = body_list[:PAIRS_ROUTER]
    try:
        for block in range(ROUTER_BLOCKS):
            order = (("single", single), ("fleet", routed))
            for name, connection in (order[::-1] if block % 2 else order):
                for body in router_bodies[block::ROUTER_BLOCKS]:
                    with spans.span(f"http.router_block.{name}"):
                        status, payload, seconds = connection.post(
                            "/v1/run", body)
                    outcome.tally(checker.check_run(body, status, payload))
                    times[name].append(seconds)
        stats = routed.get_json("/v1/stats")
    finally:
        single.close()
        routed.close()
    outcome.put("router.added_ms", ms(times["fleet"]) - ms(times["single"]))
    outcome.put("router.failovers", stats["router"]["failovers"])


def overhead_of_tracing(outcome: Outcome, workload: str, seed: int,
                        seconds: float, spans: Spans, server, fleet,
                        checker) -> None:
    """The workload's own closed loop, half untraced and half traced."""
    target = fleet if workload == "fleet-small" else server
    rates = []
    for recorder in (Spans(enabled=False), spans):
        feed = bodies.Feed(bodies.small_bodies(seed))
        exchanges, wall = closed_loop(target.host, target.port, "/v1/run",
                                      feed, seconds / 2, recorder)
        for exchange in exchanges:
            outcome.tally(checker.check_run(exchange.body, exchange.status,
                                            exchange.payload))
        rates.append(len(exchanges) / wall)
    outcome.put("bench.tracing_overhead_ratio", rates[0] / rates[1])


def run_traced(workload: str, seed: int, seconds: float, spans: Spans,
               units: dict[str, str]) -> Outcome:
    from verify import Checker

    outcome = Outcome(units)
    checker = Checker()
    rundir = RunDir()
    children = []
    try:
        bench = Fig51(spans)
        simulation_layers(outcome, bench, spans, rundir)
        inproc = serving_layers(outcome, seed, spans, rundir, checker)
        warm = [("/v1/run", body) for body in bodies.small_warmup()]
        for kind, tracing in (("server", True), ("server", False),
                              ("fleet", True)):
            children.append(launch(kind, rundir, warm, tracing=tracing)[1])
        server, untraced_server, fleet = children
        wire_layers(outcome, spans, checker, inproc, server, untraced_server,
                    fleet)
        overhead_of_tracing(outcome, workload, seed, seconds, spans, server,
                            fleet, checker)
        for child in children:
            child.stop()
    finally:
        for child in children:
            child.kill()
        rundir.remove()
    # every sieve run above was checked against the golden model
    outcome.attempted += bench.attempted
    outcome.failed += len(bench.failures)
    outcome.failures += bench.failures[:5]
    outcome.check_complete()
    return outcome
