"""Concurrent query service: a wire front-end for one GhostDB token.

The core engine (PRs 1-6) is a single-caller, in-process library; this
package turns it into a service many clients can drive at once:

* :mod:`repro.service.protocol` -- the framed (length-prefixed JSON)
  wire format shared by server and clients.
* :mod:`repro.service.lane` -- the token lane: one worker thread fed
  by a FIFO queue, the only place token work runs (the token executes
  one statement at a time).
* :mod:`repro.service.server` -- the asyncio server multiplexing many
  concurrent client sessions onto one token.  Every statement is one
  lane job: a read pins its generations, plans and executes in one
  job; a write applies and is tagged with its ``writer_seq`` in one.
* :mod:`repro.service.client` -- sync and async client libraries.
* :mod:`repro.service.loadgen` -- the N-clients x template-mix load
  generator behind the ``service_loadgen`` perf-smoke figure.
"""

from repro.service.client import (AsyncGhostClient, GhostClient,
                                  ServiceError, ServiceResult)
from repro.service.lane import TokenLane
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.service.server import GhostServer, plan_ram_claim

__all__ = [
    "AsyncGhostClient",
    "GhostClient",
    "GhostServer",
    "LoadgenReport",
    "MAX_FRAME_BYTES",
    "ServiceError",
    "ServiceResult",
    "TokenLane",
    "decode_frame",
    "encode_frame",
    "plan_ram_claim",
    "run_loadgen",
]
