"""The asyncio query server: many clients, one secure token.

:class:`GhostServer` multiplexes any number of concurrent client
connections onto one :class:`~repro.core.ghostdb.GhostDB` (or sharded
fleet).  The token has one 64 KB secure RAM and one USB channel and
runs one statement at a time, so the server gives it exactly one
execution lane (:class:`~repro.service.lane.TokenLane`): a single
worker thread fed by a FIFO queue.  Every statement is one job on it:

* **a read** pins the per-table ``(data, stats)`` generations of every
  table it touches, plans against that pin and runs through
  :meth:`~repro.core.session.Session.execute_pinned`, all in the same
  job -- no write can land between pin and execution.  The response
  carries the pin; the measured ``ram_peak`` is checked against the
  cost model's estimate (:func:`plan_ram_claim`, per token on a
  fleet) and misses are counted in ``claim_underruns``;
* **a write** (INSERT/DELETE/compaction) checks the idempotency
  ledger, applies, recovers in place on :class:`PowerLoss`, and is
  tagged with a monotonically increasing ``writer_seq`` and the full
  post-write generation map.  Arrival order on the lane *is* the write
  order, which is what makes client-side oracles (and the concurrency
  property suite) possible;
* ``prepare`` and ``snapshot`` are one job each.

The event loop only frames requests, dispatches them and answers
``ping`` and ``stats``, so it stays responsive while the lane works.
"""

from __future__ import annotations

import argparse
import asyncio
import threading
from typing import Any, Dict, Optional, Tuple

from repro.core.ghostdb import GhostDB
from repro.core.plan import QueryPlan
from repro.core.session import PreparedStatement, Session
from repro.errors import GhostDBError, PowerLoss
from repro.hardware.ram import SecureRam
from repro.service.lane import TokenLane
from repro.service.protocol import FrameError, read_frame, write_frame
from repro.sql import ast
from repro.sql.parser import parse

#: estimate, in RAM pages, when a plan carries no costed estimate
#: (plans whose visible selections all sit on the anchor table produce
#: no cost report; measured peaks of such selects are ~2 pages, so 8
#: is a comfortably conservative envelope)
FALLBACK_CLAIM_PAGES = 8

#: every estimate is at least this much -- row assembly buffers exist
#: even for plans the cost model prices at zero RAM
MIN_CLAIM_PAGES = 2

#: per-connection in-flight request cap (backpressure on pipelining)
MAX_INFLIGHT_PER_CONNECTION = 32


def plan_ram_claim(plan: QueryPlan, ram: SecureRam) -> int:
    """The secure-RAM peak one planned SELECT is expected to reach.

    Uses the cost model's chosen estimate when the plan carries one
    (``cost_report`` exists only for cost-based choices with free
    tables), falling back to a conservative
    :data:`FALLBACK_CLAIM_PAGES` envelope otherwise, and adding the
    ordering step's priced peak on top of the floor.  Clamped into
    ``[MIN_CLAIM_PAGES * page, capacity]``.  A fleet plan is checked
    fragment by fragment, each against its own shard's RAM (see
    :meth:`~repro.shard.fleet.FleetQueryPlan.subplans`).
    """
    claim = MIN_CLAIM_PAGES * ram.page_size
    chosen = plan.cost_report.chosen if plan.cost_report else None
    if chosen is not None:
        claim = max(claim, chosen.estimate.ram_peak)
    else:
        claim = max(claim, FALLBACK_CLAIM_PAGES * ram.page_size)
    if plan.order is not None:
        order_chosen = plan.order.report.chosen \
            if plan.order.report else None
        if order_chosen is not None:
            claim = max(claim, order_chosen.ram_peak)
        else:
            claim = max(claim, FALLBACK_CLAIM_PAGES * ram.page_size)
    return min(claim, ram.capacity)


def _stats_block(stats, waited_s: float) -> Dict[str, Any]:
    """The compact per-response simulated-cost block."""
    return {
        "total_s": stats.total_s,
        "ram_peak": stats.ram_peak,
        "lane_wait_s": round(waited_s, 6),
        "bytes_to_secure": stats.bytes_to_secure,
        "bytes_to_untrusted": stats.bytes_to_untrusted,
        "result_rows": stats.result_rows,
    }


class _Connection:
    """Per-connection state: session, prepared statements, write lock."""

    def __init__(self, server: "GhostServer", session: Session):
        self.server = server
        self.session = session
        self.statements: Dict[int, PreparedStatement] = {}
        self.next_stmt_id = 1
        self.write_lock = asyncio.Lock()
        self.inflight = asyncio.Semaphore(MAX_INFLIGHT_PER_CONNECTION)


class GhostServer:
    """Serve one GhostDB to many concurrent wire clients."""

    def __init__(self, db: GhostDB, host: str = "127.0.0.1",
                 port: int = 0, wire_faults=None):
        db._require_built()
        self.db = db
        self.host = host
        self._requested_port = port
        #: the one execution lane every statement runs on
        self.lane = TokenLane()
        #: optional response-path fault injector (chaos harness only;
        #: see :class:`repro.faults.wire.WireFaults`)
        self.wire_faults = wire_faults
        #: held by every lane job while it touches the token
        self._exec_lock = threading.Lock()
        self._writer_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        # every in-flight request task, across connections: stop()
        # drains these before tearing connections down so a stop
        # mid-write never drops a tagged writer_seq response
        self._request_tasks: set = set()
        # service counters (the ``stats`` op)
        self.connections_total = 0
        self.connections_now = 0
        self.requests_total = 0
        self.errors_total = 0
        #: reads re-run after a broken snapshot pin; pin, plan and
        #: execution share one lane job, so this stays 0
        self.snapshot_retries = 0
        self.claim_underruns = 0
        self.replays = 0
        self.recoveries = 0

    @property
    def admission(self) -> TokenLane:
        """Alias of :attr:`lane` for callers that read its wait
        counters as ``admission.describe()["wait_s_total"]`` (the
        benchmark harness does)."""
        return self.lane

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port)

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain in-flight requests, close connections.

        In-flight statements -- writes in particular -- run to
        completion on the lane and their responses are written
        *before* any connection is torn down: a stop mid-write must
        deliver the tagged ``writer_seq`` response, not drop it.  The
        drain is shielded so cancelling ``stop()`` itself cannot cut
        it short.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._request_tasks:
            drain = asyncio.gather(*list(self._request_tasks),
                                   return_exceptions=True)
            try:
                await asyncio.shield(drain)
            except asyncio.CancelledError:
                await drain
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        self.lane.close()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "GhostServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        conn = _Connection(self, self.db.session())
        self.connections_total += 1
        self.connections_now += 1
        self._conn_tasks.add(asyncio.current_task())
        tasks: set = set()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameError:
                    break   # corrupt peer: drop the connection
                if request is None:
                    break
                await conn.inflight.acquire()
                task = asyncio.ensure_future(
                    self._serve_request(conn, writer, request))
                tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
        except asyncio.CancelledError:
            # server stopping: finish like a client disconnect so the
            # task ends cleanly (asyncio's stream glue logs handler
            # tasks that finish cancelled)
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            if tasks:
                # shielded: a cancel delivered into this await must not
                # skip the drain and close the writer under an
                # in-flight response
                drain = asyncio.gather(*tasks, return_exceptions=True)
                try:
                    await asyncio.shield(drain)
                except asyncio.CancelledError:
                    await drain
            self.connections_now -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # a loop torn down mid-close must not log spurious
                # "exception never retrieved" noise from the handler
                pass

    async def _serve_request(self, conn: _Connection,
                             writer: asyncio.StreamWriter,
                             request: dict) -> None:
        req_id = request.get("id")
        self.requests_total += 1
        try:
            response = await self._dispatch(conn, request)
        except GhostDBError as exc:
            self.errors_total += 1
            response = {"ok": False, "error": str(exc),
                        "error_type": type(exc).__name__}
        except Exception as exc:   # noqa: BLE001 - wire boundary
            self.errors_total += 1
            response = {"ok": False, "error": f"internal: {exc}",
                        "error_type": type(exc).__name__}
        finally:
            conn.inflight.release()
        response["id"] = req_id
        async with conn.write_lock:
            try:
                await write_frame(writer, response,
                                  fault=self.wire_faults)
            except (ConnectionError, OSError):
                pass   # client went away mid-response

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "kind": "pong"}
        if op == "stats":
            return self._stats_response(conn)
        if op == "prepare":
            return await self._op_prepare(conn, request)
        if op == "exec_stmt":
            stmt = conn.statements.get(request.get("stmt"))
            if stmt is None:
                raise GhostDBError(
                    f"unknown prepared statement {request.get('stmt')!r}")
            params = tuple(request.get("params") or ())
            return await self._run_select(conn, params, stmt=stmt)
        if op == "compact":
            return await self._op_compact(request)
        if op == "execute":
            return await self._op_execute(conn, request)
        if op == "snapshot":
            return await self._op_snapshot(request)
        raise GhostDBError(f"unknown op {op!r}")

    async def _op_prepare(self, conn: _Connection, request: dict) -> dict:
        sql = request.get("sql", "")
        parsed = parse(sql)
        if not isinstance(parsed, ast.SelectQuery):
            raise GhostDBError("prepare supports SELECT statements only")
        stmt = await self.lane.run(
            self._locked, conn.session.prepare, sql, None, None,
            "project", None, parsed)
        stmt_id = conn.next_stmt_id
        conn.next_stmt_id += 1
        conn.statements[stmt_id] = stmt
        return {"ok": True, "kind": "prepared", "stmt": stmt_id,
                "param_count": stmt.param_count}

    async def _op_execute(self, conn: _Connection, request: dict) -> dict:
        sql = request.get("sql", "")
        params = tuple(request.get("params") or ())
        parsed = parse(sql)
        if isinstance(parsed, ast.SelectQuery):
            return await self._run_select(conn, params, sql=sql,
                                          parsed=parsed)
        return await self._run_write(
            lambda: self.db.execute(sql, params or None),
            ikey=request.get("ikey"))

    async def _op_compact(self, request: dict) -> dict:
        table = request.get("table")
        kwargs: Dict[str, Any] = {}
        if request.get("max_steps") is not None:
            kwargs["max_steps"] = int(request["max_steps"])
        if request.get("pages_per_step") is not None:
            kwargs["pages_per_step"] = int(request["pages_per_step"])

        def run():
            progress = self.db.compact(table, **kwargs)
            return {"ok": True, "kind": "compacted", "table": table,
                    "state": progress.state,
                    "steps": progress.steps_run,
                    "done": progress.done,
                    "pages_rewritten": progress.pages_rewritten}

        return await self._run_write(run)

    async def _op_snapshot(self, request: dict) -> dict:
        path = request.get("path")
        if not path:
            raise GhostDBError("snapshot requires a 'path'")
        summary = await self.snapshot(path)
        return {"ok": True, "kind": "snapshot", **summary}

    async def snapshot(self, path: str) -> Dict[str, Any]:
        """Write a durable image of the served database to ``path``.

        Runs as one lane job, so no DML or compaction step can
        interleave with the serialization.  Inherits
        :meth:`GhostDB.snapshot`'s refusal to snapshot while a bounded
        compaction job is mid-flight
        (:class:`~repro.errors.PersistError`), which the wire layer
        surfaces to the client like any other statement error.
        """
        return await self.lane.run(self._locked, self.db.snapshot, path)

    # ------------------------------------------------------------------
    # the read path: one job pins, plans and executes
    # ------------------------------------------------------------------
    async def _run_select(self, conn: _Connection, params: Tuple,
                          stmt: Optional[PreparedStatement] = None,
                          sql: str = "", parsed=None) -> dict:
        """Run ``stmt`` (or, without one, the parsed ``sql``)."""
        return await self.lane.run(self._read, conn.session, stmt,
                                   params, sql, parsed)

    def _read(self, session: Session, stmt: Optional[PreparedStatement],
              params: Tuple, sql: str, parsed) -> dict:
        with self._exec_lock:
            if stmt is None:
                stmt = session.prepare(sql, parsed=parsed)
            bound = stmt.template.substitute(params)
            pinned = session.pin_generations(bound.tables)
            plan = stmt.plan_for(bound, generations=pinned)
            result = session.execute_pinned(plan.with_bound(bound), pinned)
        claim, underrun = self._ram_estimate(result)
        if underrun:
            self.claim_underruns += 1
        stmt.executions += 1
        stats = _stats_block(result.stats, self.lane.job_wait_s)
        stats["ram_claim"] = claim
        return {
            "ok": True, "kind": "rows",
            "columns": list(result.columns),
            "rows": [list(r) for r in result.rows],
            "generations": {t: list(g) for t, g in pinned.items()},
            "stats": stats,
        }

    def _ram_estimate(self, result) -> Tuple[int, bool]:
        """``(estimate, missed)`` for one read: the largest per-token
        :func:`plan_ram_claim`, and whether any token's measured peak
        exceeded its own estimate."""
        plan = result.plan
        subplans = getattr(plan, "subplans", None)
        if subplans is None:
            pairs = [((plan, self.db.token.ram), result.stats)]
        else:
            pairs = list(zip(subplans(), result.shard_stats))
        checks = [(plan_ram_claim(sub, ram), stats.ram_peak)
                  for (sub, ram), stats in pairs]
        return (max(claim for claim, _ in checks),
                any(peak > claim for claim, peak in checks))

    # ------------------------------------------------------------------
    # the write path: one job checks, applies and tags
    # ------------------------------------------------------------------
    async def _run_write(self, fn, ikey: Optional[str] = None) -> dict:
        return await self.lane.run(self._write, fn, ikey)

    def _write(self, fn, ikey: Optional[str]) -> dict:
        """One write, with the exactly-once contract.

        A request whose idempotency key was already recorded is
        answered from the record -- marked ``replayed`` -- without
        touching the token: the earlier attempt applied, only its
        response was lost on the wire.  Check, apply and record share
        one lane job, so no concurrent retry can observe a gap between
        "applied" and "recorded".  A statement that dies on
        :class:`PowerLoss` triggers an in-place recovery (power-cycle
        plus statement rollback) before the error is reported.
        """
        with self._exec_lock:
            cached = self.db.ikeys.seen(ikey)
            if cached is not None:
                self.replays += 1
                response = dict(cached)
                response["replayed"] = True
                return response
            try:
                outcome = fn()
            except PowerLoss:
                self.recoveries += 1
                self.db.recover()
                raise
            self._writer_seq += 1
            if isinstance(outcome, dict):      # compact's ready response
                response = outcome
            elif outcome is None:              # DDL
                response = {"ok": True, "kind": "ok"}
            else:                              # DmlResult
                response = {
                    "ok": True, "kind": "dml",
                    "statement": outcome.statement,
                    "table": outcome.table,
                    "rows_affected": outcome.rows_affected,
                    "stats": _stats_block(outcome.stats,
                                          self.lane.job_wait_s),
                }
            response["writer_seq"] = self._writer_seq
            response["generations"] = {
                t: list(g)
                for t, g in self.db.table_generations.items()
            }
            if ikey is not None and response.get("kind") == "dml":
                self.db.ikeys.record(ikey, dict(response))
            return response

    # ------------------------------------------------------------------
    def _locked(self, fn, *args):
        """Run ``fn`` holding the token execution lock (lane thread)."""
        with self._exec_lock:
            return fn(*args)

    def _stats_response(self, conn: _Connection) -> dict:
        cache = conn.session.plan_cache
        return {
            "ok": True, "kind": "stats",
            "lane": self.lane.describe(),
            "service": {
                "connections_total": self.connections_total,
                "connections_now": self.connections_now,
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "snapshot_retries": self.snapshot_retries,
                "claim_underruns": self.claim_underruns,
                "writer_seq": self._writer_seq,
                "replays": self.replays,
                "recoveries": self.recoveries,
            },
            "plan_cache": {
                "hits": cache.hits, "misses": cache.misses,
                "entries": len(cache),
            },
            "generations": {
                t: list(g)
                for t, g in self.db.table_generations.items()
            },
        }


# ----------------------------------------------------------------------
# command line: restore a durable image and serve it
# ----------------------------------------------------------------------
async def _serve_image(db: GhostDB, host: str, port: int) -> None:
    server = GhostServer(db, host=host, port=port)
    await server.start()
    print(f"ghostdb: serving on {server.host}:{server.port}")
    await server.serve_forever()


def main(argv: Optional[list] = None) -> None:
    """``python -m repro.service.server --image db.img`` -- restore a
    durable token image (milliseconds, no replay) and serve it."""
    parser = argparse.ArgumentParser(
        prog="repro.service.server",
        description="Serve a GhostDB durable token image over TCP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: ephemeral)")
    parser.add_argument("--image", required=True,
                        help="durable image file written by GhostDB.snapshot")
    parser.add_argument("--verify", action="store_true",
                        help="also verify the payload blob checksum on restore")
    args = parser.parse_args(argv)
    db = GhostDB.restore(args.image, verify=args.verify)
    try:
        asyncio.run(_serve_image(db, args.host, args.port))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
