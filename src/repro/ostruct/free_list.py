"""The hardware-managed free list of version blocks (Section III).

Unused version blocks live on a free list.  Allocation pops a block's
physical address; when the count drops below the GC watermark the manager
triggers a collection phase, and when the list is completely empty the
hardware traps to the OS, which carves more memory into version blocks
(``refill_blocks`` at a time) after updating the page table.  The refill
budget can be bounded to make exhaustion testable.

Carved blocks are kept as an address range rather than one entry per
block, so building a machine and capturing its free list cost O(1) and
O(released blocks), not O(``free_list_blocks``); allocation hands out
exactly the addresses, in exactly the order, that a stack holding every
carved address would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..config import VERSION_BLOCK_SIZE
from ..errors import FreeListExhausted

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.stats import SimStats

#: Cycles charged for the OS trap that refills the free list.
REFILL_TRAP_CYCLES = 500


class FreeList:
    """LIFO stack of free version-block physical addresses.

    The stack is kept in two parts.  Its bottom is the *carved range*
    ``[lo, top)``: blocks the OS carved but the hardware never handed out,
    popped from ``top`` downwards (the order a materialised stack of the
    carved addresses pops them in).  Above it sits the stack of
    *released* blocks, popped first.  A carve happens only when both are
    empty, so the released blocks always sit above the carved range and
    the two parts together are exactly the one LIFO stack the hardware
    keeps, at O(1) space for the never-touched blocks (the paper's OS
    carves memory lazily too, on the refill trap).
    """

    __slots__ = (
        "_stats",
        "_released",
        "_lo",
        "_top",
        "_bump",
        "_refill_blocks",
        "_refills_left",
        "_on_refill_page",
    )

    def __init__(
        self,
        *,
        base_paddr: int,
        initial_blocks: int,
        refill_blocks: int,
        max_refills: int | None,
        stats: "SimStats",
        on_refill_page: Callable[[int, int], None] | None = None,
    ):
        """``on_refill_page(start_paddr, nbytes)`` lets the page table mark
        newly carved regions as version-block pages."""
        self._stats = stats
        self._released: list[int] = []
        self._lo = self._top = self._bump = base_paddr
        self._refill_blocks = refill_blocks
        self._refills_left = max_refills
        self._on_refill_page = on_refill_page
        self._carve(initial_blocks, count_refill=False)

    def _carve(self, nblocks: int, count_refill: bool) -> None:
        """Carve ``nblocks`` fresh blocks at the bump pointer (the stack
        is empty whenever this runs)."""
        start = self._bump
        self._lo = start
        self._top = self._bump = start + nblocks * VERSION_BLOCK_SIZE
        if self._on_refill_page is not None:
            self._on_refill_page(start, nblocks * VERSION_BLOCK_SIZE)
        if count_refill:
            self._stats.free_list_refills += 1

    @property
    def free_count(self) -> int:
        return len(self._released) + (self._top - self._lo) // VERSION_BLOCK_SIZE

    @property
    def refills_left(self) -> int | None:
        """Remaining OS refills (``None`` = unlimited)."""
        return self._refills_left

    def set_refill_budget(self, budget: int | None) -> None:
        """Replace the remaining refill budget (fault injection)."""
        self._refills_left = budget

    def snapshot(self) -> tuple[tuple[int, ...], int, int, int, int | None]:
        """``(released, lo, top, bump, refills_left)``: the whole state, in
        O(released) (checkpoint capture)."""
        return (
            tuple(self._released), self._lo, self._top, self._bump,
            self._refills_left,
        )

    def paddrs(self) -> list[int]:
        """Every free paddr, bottom of the stack first.  O(free): for
        audits and tests, never the hot path."""
        return [*range(self._lo, self._top, VERSION_BLOCK_SIZE), *self._released]

    def drain(self, leave: int = 0) -> int:
        """Discard free blocks until only ``leave`` remain (starvation).

        The discarded paddrs are forgotten entirely — exactly what an OS
        reclaiming version-block pages under memory pressure looks like
        to the hardware.  Blocks leave from the top of the stack: the
        released ones first, then the carved range from ``top`` down.
        Returns the number of blocks dropped.
        """
        dropped = max(0, self.free_count - max(0, leave))
        released = self._released
        from_released = min(dropped, len(released))
        if from_released:
            del released[len(released) - from_released :]
        self._top -= (dropped - from_released) * VERSION_BLOCK_SIZE
        return dropped

    def allocate(self) -> tuple[int, int]:
        """Pop one free block.

        Returns ``(paddr, extra_latency)``; the latency is non-zero only
        when the OS refill trap fired.  Raises :class:`FreeListExhausted`
        once the refill budget is spent.
        """
        if self._released:
            return self._released.pop(), 0
        if self._top > self._lo:
            self._top -= VERSION_BLOCK_SIZE
            return self._top, 0
        if self._refills_left is not None and self._refills_left <= 0:
            raise FreeListExhausted(
                "version-block free list empty and refill budget exhausted"
            )
        if self._refills_left is not None:
            self._refills_left -= 1
        self._carve(self._refill_blocks, count_refill=True)
        self._top -= VERSION_BLOCK_SIZE
        return self._top, REFILL_TRAP_CYCLES

    def release(self, paddr: int) -> None:
        """Return a reclaimed block to the free list."""
        self._released.append(paddr)
