"""A process of its own for the program under test.

    python3 perfbench/child.py server [--no-tracing]
    python3 perfbench/child.py fleet

``server`` and ``fleet`` run a ``SimulationServer`` or a 2-node
``ServingFleet`` with their default settings, so the artifact cache is
the directory ``$REPRO_CACHE_DIR`` names (the benchmark passes a fresh
one per child).

Once ready, the child prints one JSON line — the address, and the pids
and ports of every process under test — and waits until its stdin
reaches end of file, then shuts down gracefully.  The load generator
never shares a process with the servers it measures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from urllib.parse import urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import bootstrap  # noqa: E402

FLEET_NODES = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("server", "fleet"))
    parser.add_argument("--no-tracing", action="store_true")
    args = parser.parse_args()
    bootstrap()
    from repro.serving import SimulationServer
    from repro.serving.router import ServingFleet

    if args.kind == "server":
        service = SimulationServer(port=0, tracing=not args.no_tracing).start()
        info = {"host": service.host, "port": service.port}
    else:
        service = ServingFleet(nodes=FLEET_NODES).start()
        nodes = service.supervisor.describe()
        info = {
            "host": service.router.host, "port": service.router.port,
            "node_pids": [node["pid"] for node in nodes],
            "node_ports": [urlsplit(node["url"]).port for node in nodes],
        }
    try:
        print(json.dumps(info), flush=True)
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        report = service.close()
    # a server reports whether its drain met the budget; a fleet reports
    # each node's drain
    clean = report is True or (
        isinstance(report, list) and all(node["clean"] for node in report))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
