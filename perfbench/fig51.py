"""The paper's Figure 5.1 machine, in process: the microcoded stack
machine running the Sieve of Eratosthenes to 20 for 5545 cycles.

Every run is checked against the ISP golden model
(``prepare_sieve_workload``): the outputs a 5545-cycle run emits equal
the golden model's outputs after the instructions that fit in 5545
cycles, and one full-length run per backend, for the golden model's own
cycle count, emits the golden model's complete output.
"""

from __future__ import annotations


SIEVE_SIZE = 20
PAPER_CYCLES = 5545
BACKENDS = ("interpreter", "threaded", "compiled")
LANE_WIDTH = 8
#: Run modes: name -> (backend, run kind).  ``fast`` is the uninstrumented
#: path (no stats, no trace); ``default`` is ``run()`` with its defaults
#: (stats on, ``*`` trace marks honoured); ``lanes`` is one ``run_lanes``
#: group of LANE_WIDTH runs.
MODES = {
    "interpreter": ("interpreter", "fast"),
    "threaded": ("threaded", "fast"),
    "compiled": ("compiled", "fast"),
    "threaded_default": ("threaded", "default"),
    "compiled_default": ("compiled", "default"),
    "compiled_lanes": ("compiled", "lanes"),
}


class Sieve:
    """The Figure 5.1 specification and what the golden model expects."""

    def __init__(self) -> None:
        from repro.isa.isp import StackIspSimulator
        from repro.machines.sieve import prepare_sieve_workload
        from repro.machines.stack_machine import (
            CYCLES_PER_INSTRUCTION,
            build_stack_machine_spec,
        )

        self.workload = prepare_sieve_workload(SIEVE_SIZE)
        self.spec = build_stack_machine_spec(self.workload.program)
        self.full_cycles = self.workload.cycles_needed
        self.expected_full = list(self.workload.outputs)
        self.expected = StackIspSimulator(self.workload.program).run(
            max_instructions=PAPER_CYCLES // CYCLES_PER_INSTRUCTION
        ).outputs

    def check(self, result, cycles: int = PAPER_CYCLES) -> list[str]:
        expected = self.expected if cycles == PAPER_CYCLES else self.expected_full
        problems = []
        if result.cycles_run != cycles:
            problems.append(f"{result.cycles_run} cycles run, asked {cycles}")
        if result.output_integers() != expected:
            problems.append(
                f"outputs {result.output_integers()} != golden {expected}")
        return problems


def stats_counts(stats) -> dict:
    return {
        "cycles": stats.cycles,
        "component_evaluations": stats.component_evaluations,
        "memory_accesses": stats.total_memory_accesses,
    }


class Fig51:
    """The sieve prepared on every backend, with the reference statistics
    every default run must reproduce; records every check it makes.
    Timings come from the spans, so *spans* must be enabled."""

    def __init__(self, spans) -> None:
        from repro import Simulator, clear_prepare_cache

        self.spans = spans
        self.sieve = Sieve()
        self.failures: list[str] = []
        self.attempted = 0
        clear_prepare_cache()
        self.simulators = {}
        for backend in BACKENDS:
            with spans.span(f"compiler.prepare.{backend}"):
                self.simulators[backend] = Simulator(self.sieve.spec,
                                                     backend=backend)
        # golden full-length run and cross-backend statistics parity
        self.stats = {}
        for backend, simulator in self.simulators.items():
            full = simulator.run(cycles=self.sieve.full_cycles, trace=False,
                                 collect_stats=False)
            self.record(self.sieve.check(full, self.sieve.full_cycles))
            with spans.span(f"core.stats.{backend}"):
                result = simulator.run(cycles=PAPER_CYCLES, trace=False,
                                       collect_stats=True)
            self.record(self.sieve.check(result))
            self.stats[backend] = result.stats
        reference = self.stats["interpreter"]
        for backend, stats in self.stats.items():
            self.attempted += 1
            if stats != reference:
                self.failures.append(
                    f"{backend} statistics {stats_counts(stats)} != "
                    f"interpreter {stats_counts(reference)}")
        self.reference_stats = reference

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failures.extend(problems)

    def call(self, mode: str) -> float:
        """Seconds of one checked public call in *mode* (see MODES)."""
        from repro.core.iosystem import QueueIO

        backend, kind = MODES[mode]
        simulator = self.simulators[backend]
        with self.spans.span(f"core.{kind}.{backend}") as span:
            if kind == "fast":
                results = [simulator.run(cycles=PAPER_CYCLES, trace=False,
                                         collect_stats=False)]
            elif kind == "default":
                results = [simulator.run(cycles=PAPER_CYCLES)]
            else:
                outcomes = simulator.prepared.run_lanes(
                    cycles=PAPER_CYCLES,
                    ios=[QueueIO([], strict=False) for _ in range(LANE_WIDTH)],
                    collect_stats=False,
                )
                results = [outcome.result for outcome in outcomes]
        for result in results:
            if result is None:
                self.record(["lane failed"])
                continue
            problems = self.sieve.check(result)
            if kind == "default" and result.stats != self.reference_stats:
                problems.append(f"{mode} statistics differ")
            self.record(problems)
        return span["end"] - span["start"]
