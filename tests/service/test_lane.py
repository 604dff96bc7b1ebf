"""The token lane: one worker thread, strict arrival order."""

import asyncio
import contextvars
import threading

import pytest

from repro.service.lane import TokenLane

_REQUEST = contextvars.ContextVar("request", default=None)


def test_lane_runs_jobs_in_arrival_order():
    """Jobs run one at a time, on one thread, in the order they were
    queued -- a later job never overtakes an earlier one."""
    async def run():
        lane = TokenLane()
        gate = threading.Event()
        ran, threads = [], set()

        def job(i):
            threads.add(threading.get_ident())
            ran.append(i)
            return i * i

        blocker = asyncio.ensure_future(lane.run(gate.wait))
        jobs = [asyncio.ensure_future(lane.run(job, i)) for i in range(8)]
        await asyncio.sleep(0.02)
        assert ran == []                 # all parked behind the blocker
        assert lane.queue_depth == 9
        gate.set()
        assert await asyncio.gather(*jobs) == [i * i for i in range(8)]
        await blocker
        assert ran == list(range(8))
        assert len(threads) == 1
        stats = lane.describe()
        assert stats["jobs_total"] == 9
        assert stats["queue_depth"] == 0
        assert stats["max_queue_depth"] == 9
        assert stats["wait_s_total"] > 0
        lane.close()

    asyncio.run(run())


def test_job_errors_reach_the_caller_and_the_lane_continues():
    async def run():
        lane = TokenLane()

        def boom():
            raise ValueError("declined")

        with pytest.raises(ValueError):
            await lane.run(boom)
        assert await lane.run(lambda: 42) == 42
        assert lane.queue_depth == 0
        lane.close()

    asyncio.run(run())


def test_cancelled_caller_does_not_stall_the_lane():
    """A caller cancelled while queued withdraws its job; the lane
    keeps serving everyone behind it."""
    async def run():
        lane = TokenLane()
        gate = threading.Event()
        ran = []
        blocker = asyncio.ensure_future(lane.run(gate.wait))
        doomed = asyncio.ensure_future(lane.run(ran.append, "doomed"))
        after = asyncio.ensure_future(lane.run(ran.append, "after"))
        await asyncio.sleep(0.02)
        doomed.cancel()
        with pytest.raises(asyncio.CancelledError):
            await doomed
        gate.set()
        await asyncio.gather(blocker, after)
        assert ran == ["after"]
        assert lane.queue_depth == 0
        lane.close()
        # a closed lane starts a fresh worker on its next job
        assert await lane.run(lambda: "again") == "again"
        lane.close()

    asyncio.run(run())


def test_jobs_run_in_a_copy_of_the_callers_context():
    async def run():
        lane = TokenLane()

        async def request(rid):
            _REQUEST.set(rid)
            return await lane.run(_REQUEST.get)

        seen = await asyncio.gather(*(request(f"r{i}") for i in range(4)))
        assert seen == ["r0", "r1", "r2", "r3"]
        assert _REQUEST.get() is None
        lane.close()

    asyncio.run(run())
