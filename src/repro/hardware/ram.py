"""Secure RAM manager.

Security dictates a tiny RAM on the secure chip (the smaller the die,
the harder it is to snoop), so every GhostDB operator must account for
the RAM it holds.  :class:`SecureRam` is a strict budget: allocations
beyond the configured capacity raise :class:`~repro.errors.RamExhausted`
instead of silently spilling, which is how the test suite proves that
plans honour the paper's 64 KB budget.

The natural allocation unit is one *buffer* of one flash page (2 KB);
the default budget is 32 such buffers.

Each statement's ``ram_peak`` comes from a :class:`QueryWindow` (via
:meth:`SecureRam.query_window`): a high-water mark kept on the RAM
itself, relative to the bytes already held when the window opened.
Windows belong to one token's RAM, so a window on one token never sees
another token's allocations, and they nest (a session batch around
its queries).  Statements never interleave on one token --
the service runs them one at a time on its token lane -- so one
running mark per RAM is all the attribution needs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import RamExhausted
from repro.flash.constants import PAGE_SIZE, RAM_SIZE


class QueryWindow:
    """One statement's secure-RAM peak on one token.

    Opening the window saves the RAM's lifetime mark and restarts
    ``peak_used`` at the bytes currently held; closing it sets
    :attr:`peak` to the most bytes held *above* that base in between
    and folds the window's mark back into the lifetime mark.
    """

    __slots__ = ("ram", "peak", "_base", "_saved")

    def __init__(self, ram: "SecureRam"):
        self.ram = ram
        self.peak = 0

    def __enter__(self) -> "QueryWindow":
        ram = self.ram
        self._saved, self._base = ram.peak_used, ram.used
        ram.peak_used = ram.used
        return self

    def __exit__(self, *exc) -> None:
        ram = self.ram
        self.peak = ram.peak_used - self._base
        ram.peak_used = max(self._saved, ram.peak_used)


class Allocation:
    """A live slice of secure RAM.  Free it with :meth:`free`."""

    __slots__ = ("ram", "nbytes", "label", "freed")

    def __init__(self, ram: "SecureRam", nbytes: int, label: str):
        self.ram = ram
        self.nbytes = nbytes
        self.label = label
        self.freed = False

    def free(self) -> None:
        """Return the bytes to the pool (idempotent)."""
        if not self.freed:
            self.freed = True
            self.ram.used -= self.nbytes
            self.ram.live_allocations = max(0, self.ram.live_allocations - 1)
            self.ram._live.discard(self)

    def resize(self, nbytes: int) -> None:
        """Grow or shrink the allocation in place."""
        if self.freed:
            raise RamExhausted("resize of a freed allocation")
        delta = nbytes - self.nbytes
        if delta > 0:
            self.ram._acquire(delta, self.label)
        elif delta < 0:
            self.ram.used += delta
        self.nbytes = nbytes

    def __enter__(self) -> "Allocation":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class SecureRam:
    """Byte-accurate allocator over the token's RAM budget."""

    def __init__(self, capacity: int = RAM_SIZE, page_size: int = PAGE_SIZE):
        if capacity <= 0:
            raise ValueError("RAM capacity must be positive")
        self.capacity = capacity
        self.page_size = page_size
        self.used = 0
        self.peak_used = 0
        self.live_allocations = 0
        #: registry of outstanding allocations so a power cycle can
        #: reclaim buffers stranded by a mid-statement crash (strong
        #: references: a stranded buffer must stay reclaimable even
        #: after its owning operator is garbage-collected)
        self._live: "set[Allocation]" = set()

    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    @property
    def n_buffers(self) -> int:
        """Total page-sized buffers the budget can hold (32 by default)."""
        return self.capacity // self.page_size

    @property
    def free_buffers(self) -> int:
        """Whole page-sized buffers currently available."""
        return self.free_bytes // self.page_size

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Claim ``nbytes``; raises :class:`RamExhausted` when over budget."""
        self._acquire(nbytes, label)
        self.live_allocations += 1
        allocation = Allocation(self, nbytes, label)
        self._live.add(allocation)
        return allocation

    def alloc_buffer(self, label: str = "") -> Allocation:
        """Claim one page-sized I/O buffer."""
        return self.alloc(self.page_size, label)

    @contextmanager
    def reserve(self, nbytes: int, label: str = "") -> Iterator[Allocation]:
        """``with ram.reserve(4096, "merge output"):`` style allocation."""
        allocation = self.alloc(nbytes, label)
        try:
            yield allocation
        finally:
            allocation.free()

    # ------------------------------------------------------------------
    def _acquire(self, nbytes: int, label: str) -> None:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.used + nbytes > self.capacity:
            raise RamExhausted(
                f"cannot allocate {nbytes} bytes for {label or 'operator'}: "
                f"{self.free_bytes} of {self.capacity} bytes free"
            )
        self.used += nbytes
        self.peak_used = max(self.peak_used, self.used)

    # ------------------------------------------------------------------
    def query_window(self) -> QueryWindow:
        """``with ram.query_window() as win:`` -- ``win.peak`` after
        the block is the peak of the enclosed statement's allocations
        on this RAM (see :class:`QueryWindow`)."""
        return QueryWindow(self)

    def power_cycle(self) -> int:
        """Reboot semantics: volatile RAM does not survive power loss.

        An operator interrupted by a crash never reaches its own
        ``free()`` calls, but on the real device the buffers are gone
        the instant power drops.  Frees every outstanding allocation
        and returns the number of bytes reclaimed.
        """
        reclaimed = 0
        for allocation in list(self._live):
            if not allocation.freed:
                reclaimed += allocation.nbytes
                allocation.free()
        return reclaimed

    def assert_all_freed(self) -> None:
        """Test hook: verify no operator leaked RAM."""
        if self.used != 0:
            raise RamExhausted(
                f"{self.used} bytes of secure RAM still allocated"
            )
