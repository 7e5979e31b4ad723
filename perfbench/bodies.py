"""Seeded request bodies: the only input the program receives.

Every body is a pure function of the seed and its position in the
stream, so the same seed regenerates byte-identical bodies.
"""

from __future__ import annotations

import json
import random
import threading

#: The seven small bundled machines (every one but the sieve).
SMALL_MACHINES = ("counter", "fibonacci", "gcd", "traffic-light",
                  "tiny-computer", "fuzz-rom", "fuzz-datapath")
SMALL_CYCLES = (1, 256)
#: Every INLINE_EVERY-th small request carries its machine inline.
INLINE_EVERY = 8

BATCH_MACHINE = "stack-machine-sieve"
BATCH_BACKEND = "compiled"
BATCH_RUNS = (8, 32)
BATCH_CYCLES = (64, 512)
#: About one batch run in OVERRIDE_ONE_IN pins a component to 0.
OVERRIDE_ONE_IN = 16
#: Components of the bundled sieve machine that can be pinned to 0 for
#: any cycle count in BATCH_CYCLES without the run failing.
OVERRIDE_TARGETS = ("iszero", "alufn", "tosfill", "phinc")


def _encode(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode()


def inline_specs() -> dict[str, dict]:
    """Interchange-JSON documents of the small machines."""
    from repro.machines.library import get_machine
    from repro.rtl.interchange import spec_to_json

    return {name: spec_to_json(get_machine(name).build())
            for name in SMALL_MACHINES}


def small_bodies(seed: int):
    """``POST /v1/run`` bodies of http-small and fleet-small: default
    runs (no backend, executor, stats or trace field)."""
    specs = inline_specs()  # built now, not inside the measured loop

    def stream():
        rng = random.Random(f"small:{seed}")
        index = 0
        while True:
            machine = rng.choice(SMALL_MACHINES)
            cycles = rng.randint(*SMALL_CYCLES)
            if index % INLINE_EVERY == INLINE_EVERY - 1:
                yield _encode({"spec": specs[machine], "cycles": cycles})
            else:
                yield _encode({"machine": machine, "cycles": cycles})
            index += 1

    return stream()


def batch_bodies(seed: int):
    """``POST /v1/batch`` bodies for the batch layers, alternating
    default batches and fast-path batches."""
    rng = random.Random(f"batch:{seed}")
    index = 0
    while True:
        fast = index % 2 == 1
        runs = []
        for _ in range(rng.randint(*BATCH_RUNS)):
            run: dict = {"cycles": rng.randint(*BATCH_CYCLES)}
            if fast:
                run.update(collect_stats=False, trace=False)
            if rng.randrange(OVERRIDE_ONE_IN) == 0:
                run["override"] = {rng.choice(OVERRIDE_TARGETS): 0}
            runs.append(run)
        yield _encode({"machine": BATCH_MACHINE, "backend": BATCH_BACKEND,
                       "runs": runs})
        index += 1


def small_warmup() -> list[bytes]:
    """One request per pool the small bodies use: each machine by name
    and inline (the two forms are pooled apart)."""
    specs = inline_specs()
    return [_encode(form) for machine in SMALL_MACHINES
            for form in ({"machine": machine, "cycles": 1},
                         {"spec": specs[machine], "cycles": 1})]


def empty_run_bodies() -> list[bytes]:
    """``cycles: 0`` runs of each small machine: everything but the
    simulation."""
    return [_encode({"machine": machine, "cycles": 0})
            for machine in SMALL_MACHINES]


class Feed:
    """A body stream shared by several client threads, in order."""

    def __init__(self, bodies) -> None:
        self._bodies = bodies
        self._lock = threading.Lock()
        self._index = 0

    def next(self) -> tuple[int, bytes]:
        with self._lock:
            index = self._index
            self._index += 1
            return index, next(self._bodies)
