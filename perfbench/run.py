"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload http-small --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload's end-to-end metrics; ``--trace 1``
is the separate traced run that gives the per-layer split.  Every
operation's result is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (stamp, notes, span summary) is written under
``.perfbench/results/`` and the traced run's spans beside it.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    LeftoverError,
    Spans,
    bootstrap,
    metric_units,
    stamp,
)
from layers import run_traced  # noqa: E402
from workloads import WORKLOADS, run_untraced  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()

    started = time.perf_counter()
    spans = Spans(enabled=bool(args.trace))
    if args.trace:
        outcome = run_traced(args.workload, args.seed, args.seconds, spans,
                             metric_units("per_layer"))
    else:
        outcome = run_untraced(args.workload, args.seed, args.seconds, spans,
                               metric_units("end_to_end"))
    record = {
        "stamp": stamp(args.workload, args.seed, args.seconds,
                       bool(args.trace)),
        "elapsed_s": time.perf_counter() - started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / outcome.attempted,
        "failures": outcome.failures,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in outcome.units.items()},
        "notes": outcome.notes,
        "spans": spans.summary() if args.trace else None,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        spans.write(results / f"{name}-spans.jsonl")
    for key, value in record["stamp"].items():
        print(f"# {key}: {value}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for span_name, entry in (record["spans"] or {}).items():
        print(f"# span {span_name}: count {entry['count']}, self ms "
              f"total {entry['self_ms_total']:.3f} "
              f"median {entry['self_ms_median']:.4f}")
    print(f"# failed_share: {record['failed_share']:.6f} "
          f"({outcome.failed}/{outcome.attempted})")
    for failure in outcome.failures[:5]:
        print(f"# failure: {failure}")
    for metric, entry in record["metrics"].items():
        print(f"{metric:40s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except LeftoverError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
