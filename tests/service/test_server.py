"""Server behavior over the wire: ops, errors, isolation bookkeeping."""

import asyncio

import pytest

from repro.service.client import AsyncGhostClient, GhostClient, ServiceError
from repro.service.server import plan_ram_claim
from repro.workloads.queries import query_q

from harness import serving

SELECT_T0 = "SELECT T0.id, T0.v1 FROM T0 WHERE T0.v1 < 3"
TEMPLATE = ("SELECT T0.id, T1.id, T12.id, T1.v1 "
            "FROM T0, T1, T12 "
            "WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
            "AND T1.v1 < ? AND T12.h2 = ?")


def test_ping_execute_and_oracle_parity(fresh_db):
    expected = sorted(fresh_db.reference_query(query_q(0.1))[1])
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            assert client.ping()
            result = client.execute(query_q(0.1))
            assert result.kind == "rows"
            assert result.columns == ["T0.id", "T1.id", "T12.id", "T1.v1"]
            assert sorted(result.rows) == expected
            # the pinned generations of every touched table ride along
            assert set(result.generations) == {"T0", "T1", "T12"}
            assert result.stats["ram_peak"] > 0
            assert result.stats["ram_peak"] <= result.stats["ram_claim"]


def test_writes_carry_seq_and_generations(fresh_db):
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            before = client.execute(SELECT_T0).generations["T0"]
            ins = client.execute(
                "INSERT INTO T0 VALUES (0, 0, 1, 1, 5)")
            assert ins.kind == "dml"
            assert ins.writer_seq == 1
            assert ins.rows_affected == 1
            assert ins.generations["T0"][0] == before[0] + 1
            dele = client.execute("DELETE FROM T0 WHERE T0.v1 = 1",)
            assert dele.writer_seq == 2
            assert dele.rows_affected >= 1
            assert dele.generations["T0"][0] == before[0] + 2
            # readers pin the post-write generations now
            after = client.execute(SELECT_T0)
            assert tuple(after.generations["T0"]) == \
                tuple(dele.generations["T0"])


def test_prepare_exec_stmt_and_plan_reuse(fresh_db):
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            stmt = client.prepare(TEMPLATE)
            first = client.exec_stmt(stmt, (100, 2))
            second = client.exec_stmt(stmt, (10, 2))
            assert len(first.rows) >= len(second.rows)
            stats = client.server_stats()
            assert stats["plan_cache"]["hits"] >= 1


def test_compact_over_the_wire(fresh_db):
    with serving(fresh_db) as server:
        with GhostClient(server.host, server.port) as client:
            client.execute("INSERT INTO T0 VALUES (1, 1, 2, 2, 3)")
            client.execute("DELETE FROM T0 WHERE T0.v1 = 2")
            result = client.compact("T0")
            assert result.kind == "compacted"
            assert result.raw["done"]
            assert result.writer_seq == 3
            # post-compaction reads still agree with the oracle
            rows = client.execute(SELECT_T0).rows
            assert sorted(rows) == sorted(
                fresh_db.reference_query(SELECT_T0)[1])


def test_error_responses_keep_connection_alive(db):
    with serving(db) as server:
        with GhostClient(server.host, server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.execute("SELEKT nonsense")
            assert exc.value.error_type == "SqlSyntaxError"
            with pytest.raises(ServiceError) as exc:
                client.prepare("INSERT INTO T0 VALUES (0, 0, 1, 1, 1)")
            assert "SELECT" in str(exc.value)
            with pytest.raises(ServiceError):
                client.exec_stmt(999, ())
            with pytest.raises(ServiceError) as exc:
                client._call({"op": "frobnicate"})
            assert "unknown op" in str(exc.value)
            assert client.ping()          # connection survived it all
            stats = client.server_stats()
            assert stats["service"]["errors_total"] == 4


def test_async_pipelining_many_concurrent_requests(db):
    expected = sorted(db.reference_query(query_q(0.01))[1])

    async def run(port):
        async with await AsyncGhostClient.connect("127.0.0.1",
                                                  port) as client:
            stmt = await client.prepare(TEMPLATE)
            results = await asyncio.gather(*[
                client.exec_stmt(stmt, (10, 2)) for _ in range(16)
            ])
            stats = await client.server_stats()
        return results, stats

    with serving(db) as server:
        results, stats = asyncio.run(run(server.port))
    for result in results:
        assert sorted(result.rows) == expected
    # one lane job per statement (the prepare and 16 executions)
    assert stats["lane"]["jobs_total"] == 17
    assert stats["lane"]["queue_depth"] == 0


def test_pipelined_writes_get_writer_seq_in_send_order(fresh_db):
    """The lane keeps arrival order: writes pipelined on one connection
    are applied -- and tagged -- in the order they were sent."""
    n = 20

    async def run(port):
        async with await AsyncGhostClient.connect("127.0.0.1",
                                                  port) as client:
            return await asyncio.gather(*[
                client.execute(f"INSERT INTO T0 VALUES (0, 0, {500 + i}, "
                               f"{500 + i}, 1)")
                for i in range(n)
            ])

    with serving(fresh_db) as server:
        results = asyncio.run(run(server.port))
    assert [r.writer_seq for r in results] == list(range(1, n + 1))
    gens = [r.generations["T0"][0] for r in results]
    assert gens == list(range(gens[0], gens[0] + n))


def test_reported_ram_peak_matches_solo_run(fresh_db):
    """Concurrent responses report per-query peaks, not a smeared one."""
    plan = fresh_db.plan_query(query_q(0.1))
    solo_peak = fresh_db.execute_plan(plan).stats.ram_peak
    assert solo_peak <= plan_ram_claim(plan, fresh_db.token.ram)

    async def run(port):
        async with await AsyncGhostClient.connect("127.0.0.1",
                                                  port) as client:
            return await asyncio.gather(*[
                client.execute(query_q(0.1)) for _ in range(6)
            ])

    with serving(fresh_db) as server:
        results = asyncio.run(run(server.port))
    for result in results:
        assert result.stats["ram_peak"] == solo_peak
