#!/usr/bin/env python
"""The query service, end to end: throughput and snapshot isolation.

Boots the asyncio server over the paper's synthetic database and
demonstrates the service layer's three promises:

1. **Throughput** -- N pipelining clients drive the Query-Q template
   mix concurrently through one token; the load generator reports
   queries/sec, latency percentiles and the token lane's counters.
2. **One token lane** -- the token runs one statement at a time, so
   every statement is one job on a single FIFO lane; the counters show
   how long statements queued there, that the lane finished idle, and
   how often a measured RAM peak exceeded the cost model's estimate.
3. **Snapshot isolation** -- a reader's response carries the exact
   per-table ``(data, stats)`` generations it was pinned to, a
   writer's response carries its ``writer_seq`` and the post-write
   generation map, and a read after a write observes the new pin.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

import asyncio

from repro.service import AsyncGhostClient, GhostServer, run_loadgen
from repro.workloads.queries import query_q
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


async def snapshot_demo(db) -> None:
    """One reader and one writer, generation pins made visible."""
    async with GhostServer(db) as server:
        async with await AsyncGhostClient.connect(
                "127.0.0.1", server.port) as client:
            before = await client.execute(query_q(0.05))
            print(f"reader pinned generations: {before.generations}")

            write = await client.execute(
                "INSERT INTO T0 VALUES (0, 0, 10, 10, 5)")
            print(f"writer_seq={write.writer_seq} bumped T0 to "
                  f"{write.generations['T0']}")

            after = await client.execute(query_q(0.05))
            print(f"reader now pinned:         {after.generations}")
            assert after.generations["T0"] == write.generations["T0"]
            assert after.generations["T0"] != before.generations["T0"]

            stats = await client.server_stats()
            lane = stats["lane"]
            print(f"lane: {lane['jobs_total']} jobs, max queue depth "
                  f"{lane['max_queue_depth']}")
            assert stats["service"]["errors_total"] == 0


def main() -> None:
    db = build_synthetic(SyntheticConfig(scale=0.002,
                                         full_indexing=True))

    # -- 1 + 2: concurrent throughput through the one token lane -----
    report = run_loadgen(db, n_clients=6, n_queries=8)
    print(report.describe())
    assert report.errors == 0
    assert report.service["errors_total"] == 0
    assert report.lane["queue_depth"] == 0
    print(f"{report.lane['jobs_total']} statements took their FIFO turn "
          f"on the lane; {report.service['claim_underruns']} measured "
          f"RAM peaks exceeded their estimate\n")

    # -- 3: snapshot pins, writer_seq, generation maps ---------------
    asyncio.run(snapshot_demo(db))
    print("\nsnapshot isolation verified: reads pin one consistent "
          "generation state; writes serialize on the token lane.")


if __name__ == "__main__":
    main()
