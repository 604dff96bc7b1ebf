#!/usr/bin/env python
"""CI smoke: boot the query service and slam it with 10 clients.

Builds a small synthetic database, starts the asyncio server
in-process, and runs the load generator with 10 concurrent pipelining
clients executing the Query-Q template mix.  Exits non-zero when any
query errored, when the server counted an error, or when the token
lane did not finish idle -- the cheap always-on proof that the service
layer boots and serves under concurrency.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--clients 10]
        [--queries 10] [--scale 0.002] [--shards 1]
"""

from __future__ import annotations

import argparse
import sys

from repro.service.loadgen import run_loadgen
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=10)
    parser.add_argument("--queries", type=int, default=10,
                        help="queries per client")
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--shards", type=int, default=1,
                        help="serve a hash-partitioned fleet of N tokens")
    opts = parser.parse_args()

    db = build_synthetic(SyntheticConfig(scale=opts.scale,
                                         full_indexing=True),
                         shards=opts.shards)
    report = run_loadgen(db, n_clients=opts.clients,
                         n_queries=opts.queries)
    print(report.describe())
    print(f"lane     : {report.lane}")
    print(f"service  : {report.service}")

    failures = []
    if report.errors:
        failures.append(f"{report.errors} client-side errors")
    if report.service["errors_total"]:
        failures.append(
            f"{report.service['errors_total']} server-side errors")
    expected = opts.clients * opts.queries
    if report.n_queries != expected:
        failures.append(
            f"only {report.n_queries}/{expected} queries completed")
    if report.lane["queue_depth"]:
        failures.append("token lane did not finish idle")
    if "claim_underruns" not in report.service:
        failures.append("RAM-estimate misses (claim_underruns) unreported")
    if failures:
        print("SMOKE FAILED: " + "; ".join(failures))
        return 1
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
