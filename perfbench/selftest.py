"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

They are kept out of the repository's tier-1 suite (the file name does
not match ``test_*.py``) because the smokes start servers and fleets and
take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import OUT, bootstrap  # noqa: E402

bootstrap()

import bodies  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seconds: str = "1",
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def expected_units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = result_line(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_units(kind)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_same_seed_same_bodies():
    for stream in (bodies.small_bodies, bodies.batch_bodies):
        first = list(islice(stream(11), 300))
        again = list(islice(stream(11), 300))
        other = list(islice(stream(12), 300))
        assert first == again
        assert first != other


def test_small_bodies_follow_the_workload_definition():
    docs = [json.loads(body) for body in islice(bodies.small_bodies(5), 400)]
    inline = [doc for doc in docs if "spec" in doc]
    assert len(inline) == 400 // bodies.INLINE_EVERY
    for doc in docs:
        assert set(doc) <= {"machine", "spec", "cycles"}
        assert 1 <= doc["cycles"] <= 256
    assert {doc["machine"] for doc in docs if "machine" in doc} == set(
        bodies.SMALL_MACHINES)


def test_batch_bodies_follow_the_batch_definition():
    docs = [json.loads(body) for body in islice(bodies.batch_bodies(5), 200)]
    runs = [run for doc in docs for run in doc["runs"]]
    for index, doc in enumerate(docs):
        assert "executor" not in doc and doc["backend"] == "compiled"
        assert 8 <= len(doc["runs"]) <= 32
        fast = index % 2 == 1
        for run in doc["runs"]:
            assert 64 <= run["cycles"] <= 512
            assert ("collect_stats" in run) == fast
    overrides = sum("override" in run for run in runs)
    assert 0.5 / 16 < overrides / len(runs) < 2 / 16


def test_correct_result_passes_and_corrupted_result_counts_as_failed():
    from verify import Checker

    from repro.serving.protocol import result_to_json

    body = bodies.small_warmup()[0].replace(b'"cycles":1', b'"cycles":40')
    reference = Checker().reference(json.loads(body), {"cycles": 40})
    payload = {"result": result_to_json(reference)}
    checker = Checker()
    outcome = Outcome(units={})
    outcome.tally(checker.check_run(body, 200, json.dumps(payload).encode()))
    assert outcome.failed == 0
    corrupted = json.loads(json.dumps(payload))
    name = next(iter(corrupted["result"]["final_values"]))
    corrupted["result"]["final_values"][name] += 1
    outcome.tally(checker.check_run(body, 200,
                                    json.dumps(corrupted).encode()))
    stats_off = json.loads(json.dumps(payload))
    stats_off["result"]["stats"]["component_evaluations"] += 1
    outcome.tally(checker.check_run(body, 200,
                                    json.dumps(stats_off).encode()))
    outcome.tally(checker.check_run(body, 500, b"{}"))
    outcome.tally(checker.check_run(body, 200, b'{"result": {}}'))
    outcome.tally(checker.check_run(body, 200, b"not json"))
    assert (outcome.attempted, outcome.failed) == (6, 5)


def test_corrupted_sieve_output_counts_as_failed():
    from fig51 import PAPER_CYCLES, Sieve

    from repro import Simulator

    sieve = Sieve()
    result = Simulator(sieve.spec, backend="compiled").run(
        cycles=PAPER_CYCLES, trace=False, collect_stats=False)
    assert sieve.check(result) == []
    result.outputs.pop()
    assert sieve.check(result) != []


def test_refuses_to_run_without_the_program():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_bench("http-small", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
