"""Service throughput: N pipelining clients x the Query-Q template mix.

Boots the asyncio service over the benchmark synthetic database and
drives it with concurrent clients executing the Figure 10/12 templates
at mixed selectivities.  The interesting numbers are wall-clock ones
-- queries/sec through the whole stack (framing, the token lane,
thread handoff, token execution) and client-observed latency percentiles --
so unlike the figure drivers this benchmark's subject *is* the wall
clock.  The queries-per-second figure feeds ``BENCH_pr*.json`` and
``scripts/bench_compare.py`` warns when it regresses.
"""

import json
import pathlib

from repro.service.loadgen import run_loadgen

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

N_CLIENTS = 8
N_QUERIES = 12      # per client


def test_service_loadgen(benchmark, save_table, synthetic_db):
    report = benchmark.pedantic(
        run_loadgen, args=(synthetic_db,),
        kwargs={"n_clients": N_CLIENTS, "n_queries": N_QUERIES},
        rounds=1, iterations=1,
    )
    rows = [{
        "clients": report.n_clients,
        "queries": report.n_queries,
        "qps": round(report.qps, 1),
        "p50_ms": round(report.latency_p50_ms, 2),
        "p95_ms": round(report.latency_p95_ms, 2),
        "lane_wait_s": round(report.lane["wait_s_total"], 3),
        "max_queue": report.lane["max_queue_depth"],
        "claim_underruns": report.service["claim_underruns"],
        "errors": report.errors,
        "error_types": report.error_types,
    }]
    save_table("service_loadgen", rows,
               "Service load generator: wall-clock throughput and "
               "latency, N pipelining clients over one token")
    # a machine-readable point for the perf trajectory / regression diff
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "service_loadgen.json").write_text(json.dumps({
        "n_clients": report.n_clients,
        "n_queries": report.n_queries,
        "qps": report.qps,
        "latency_p50_ms": report.latency_p50_ms,
        "latency_p95_ms": report.latency_p95_ms,
        "lane": report.lane,
        "service": report.service,
        "error_types": report.error_types,
    }, indent=2) + "\n")

    # a single failed query fails the benchmark, and the per-type
    # buckets say what broke instead of a bare count
    assert report.error_types == {}
    assert report.errors == 0
    assert report.n_queries == N_CLIENTS * N_QUERIES
    assert report.qps > 0
    # the server saw no error either, the lane finished idle, and the
    # RAM-estimate misses are on record
    assert report.service["errors_total"] == 0
    assert report.lane["queue_depth"] == 0
    assert "claim_underruns" in report.service
