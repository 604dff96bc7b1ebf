"""The token lane: one worker thread, one FIFO queue.

The secure token has one 64 KB RAM and one USB channel and runs one
statement at a time, so the service gives it exactly one execution
lane.  Every statement becomes one job; jobs run on a single worker
thread strictly in arrival order, which keeps the asyncio event loop
free for framing, ``ping`` and ``stats`` while the token works.

Each job runs in a copy of its caller's :mod:`contextvars` context
(as :func:`asyncio.to_thread` does), so request-scoped tracing follows
the statement onto the worker thread.  (Per-statement RAM peaks need
no context: they are kept on the token's RAM, see
:class:`~repro.hardware.ram.QueryWindow`.)
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional


class TokenLane:
    """Run jobs one at a time, in arrival order, off the event loop."""

    def __init__(self) -> None:
        self._pool: Optional[ThreadPoolExecutor] = None
        #: queue wait of the job now running (one job runs at a time,
        #: so a job may read its own wait here)
        self.job_wait_s = 0.0
        # counters surfaced by the server's ``stats`` op
        self.jobs_total = 0
        self.queue_depth = 0        # queued or running
        self.max_queue_depth = 0
        self.wait_s_total = 0.0
        self.wait_s_max = 0.0

    async def run(self, fn: Callable, *args) -> Any:
        """Queue ``fn(*args)`` behind every earlier job; its result.

        A caller cancelled while its job is still queued withdraws the
        job; a job already running finishes and its result is dropped.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="ghostdb-lane")
        ctx = contextvars.copy_context()
        queued_at = time.perf_counter()
        self.jobs_total += 1
        self.queue_depth += 1
        self.max_queue_depth = max(self.max_queue_depth, self.queue_depth)
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, self._start, queued_at, ctx, fn, args)
        finally:
            self.queue_depth -= 1

    def _start(self, queued_at: float, ctx: contextvars.Context,
               fn: Callable, args) -> Any:
        waited = time.perf_counter() - queued_at
        self.job_wait_s = waited
        self.wait_s_total += waited
        self.wait_s_max = max(self.wait_s_max, waited)
        return ctx.run(fn, *args)

    def close(self) -> None:
        """Let the worker thread exit once its queue is empty (a later
        :meth:`run` starts a fresh one)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def describe(self) -> Dict[str, float]:
        """Counter snapshot for the ``stats`` response."""
        return {
            "jobs_total": self.jobs_total,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "wait_s_total": round(self.wait_s_total, 6),
            "wait_s_max": round(self.wait_s_max, 6),
        }
