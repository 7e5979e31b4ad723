"""Correctness of every operation: HTTP results against in-process runs.

Each HTTP result is rebuilt with ``result_from_json`` and compared
bit-identical (``compare_results``) to an in-process run of the same
request; statistics are compared when the request asked for them, and the
trace text whenever the server sent one.  Reference runs are cached per
distinct (machine, backend, run) so repeats cost nothing.
"""

from __future__ import annotations

import json

from repro.core.comparison import compare_results
from repro.core.simulator import make_backend
from repro.serving.protocol import (
    RUN_FIELDS,
    resolve_backend,
    resolve_spec,
    result_from_json,
    result_to_json,
    run_request_from_json,
)

#: The server's default backend, used by bodies that set none.
SERVER_DEFAULT_BACKEND = "threaded"


class Checker:
    """Compares served results to cached in-process references."""

    def __init__(self) -> None:
        self._prepared: dict[tuple, object] = {}
        self._references: dict[tuple, object] = {}

    def _prepared_for(self, body: dict):
        spec, _label, pool_key = resolve_spec(body)
        backend = resolve_backend(body, SERVER_DEFAULT_BACKEND)
        key = (pool_key, backend)
        prepared = self._prepared.get(key)
        if prepared is None:
            prepared = make_backend(backend).prepare(spec)
            self._prepared[key] = prepared
        return key, prepared

    def reference(self, body: dict, run_doc: dict):
        key, prepared = self._prepared_for(body)
        run_key = key + (json.dumps(run_doc, sort_keys=True),)
        result = self._references.get(run_key)
        if result is None:
            request = run_request_from_json(run_doc)
            result = prepared.run(
                cycles=request.cycles, io=request.make_io(),
                trace=request.trace, collect_stats=request.collect_stats,
                override=request.override,
            )
            self._references[run_key] = result
        return result

    def check_result(self, body: dict, run_doc: dict, served: dict) -> list[str]:
        """Mismatches between one served result and its reference."""
        reference = self.reference(body, run_doc)
        problems = compare_results(reference, result_from_json(served))
        expected_backend = resolve_backend(body, SERVER_DEFAULT_BACKEND)
        if served["backend"] != expected_backend:
            problems.append(
                f"served by {served['backend']}, asked {expected_backend}"
            )
        if served["cycles_run"] != reference.cycles_run:
            problems.append(
                f"{served['cycles_run']} cycles run, "
                f"expected {reference.cycles_run}"
            )
        if run_doc.get("collect_stats", True):
            if served.get("stats") != result_to_json(reference)["stats"]:
                problems.append("statistics differ")
        elif "stats" in served:
            problems.append("statistics sent but not requested")
        expected_trace = (
            reference.trace.render()
            if reference.trace.enabled and len(reference.trace) else None
        )
        if served.get("trace_text") != expected_trace:
            problems.append("trace text differs")
        return problems

    def check_run(self, body_bytes: bytes, status: int,
                  payload: bytes) -> list[str]:
        """Check one ``POST /v1/run`` exchange."""
        if status != 200:
            return [f"HTTP {status}: {payload[:200]!r}"]
        body = json.loads(body_bytes)
        run_doc = {key: body[key] for key in RUN_FIELDS if key in body}
        try:
            return self.check_result(body, run_doc,
                                     json.loads(payload)["result"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed response: {exc!r}"]

    def check_batch(self, body_bytes: bytes, status: int,
                    payload: bytes) -> list[str]:
        """Check one ``POST /v1/batch`` exchange, item by item."""
        if status != 200:
            return [f"HTTP {status}: {payload[:200]!r}"]
        body = json.loads(body_bytes)
        try:
            items = json.loads(payload)["items"]
            if len(items) != len(body["runs"]):
                return [f"{len(items)} items for {len(body['runs'])} runs"]
            problems = []
            for run_doc, item in zip(body["runs"], items):
                if not item["ok"]:
                    problems.append(f"item {item['index']}: {item['error']}")
                    continue
                problems += [
                    f"item {item['index']}: {problem}" for problem in
                    self.check_result(body, run_doc, item["result"])
                ]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed response: {exc!r}"]
        return problems
