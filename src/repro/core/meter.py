"""One statement's cost report on one token.

Every statement -- a SELECT, a shard fragment, a DML statement, a
session batch, each shard's part of a fleet delete -- reports its cost
the same way: the deltas of the token's cost ledger and channel byte
counters across the statement, plus the statement's secure-RAM peak
(a :class:`~repro.hardware.ram.QueryWindow` on the token's RAM)::

    with StatementMeter(token) as meter:
        ...run the statement...
    stats = meter.stats(result_rows)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.executor import QueryStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.token import SecureToken


class StatementMeter:
    """Ledger, channel and RAM-peak deltas of one statement.

    Windows are per token, so meters on different tokens may be open
    at once (a fleet statement holds one per shard), and meters on one
    token nest (a batch around its queries).
    """

    def __init__(self, token: "SecureToken"):
        self.token = token
        self.window = token.ram.query_window()

    def __enter__(self) -> "StatementMeter":
        token = self.token
        self._before = token.ledger.snapshot()
        ch = token.channel.stats
        self._in0, self._out0 = ch.bytes_to_secure, ch.bytes_to_untrusted
        self.window.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.window.__exit__(*exc)

    def stats(self, result_rows: int = 0) -> QueryStats:
        """The statement's :class:`QueryStats` (call after the block)."""
        before, after = self._before, self.token.ledger.snapshot()
        by_op: Dict[str, float] = {}
        for label, parts in after.time_us.items():
            delta = sum(parts.values()) - sum(
                before.time_us.get(label, {}).values()
            )
            if delta > 1e-12:
                by_op[label] = delta / 1e6
        counters = {
            k: after.counters[k] - before.counters.get(k, 0)
            for k in after.counters
            if after.counters[k] != before.counters.get(k, 0)
        }
        ch = self.token.channel.stats
        return QueryStats(
            total_s=sum(by_op.values()),
            by_operator=by_op,
            counters=counters,
            bytes_to_secure=ch.bytes_to_secure - self._in0,
            bytes_to_untrusted=ch.bytes_to_untrusted - self._out0,
            ram_peak=self.window.peak,
            result_rows=result_rows,
        )
