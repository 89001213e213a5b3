"""Page table with the version-block protection bit (Section III).

The paper extends the page table with a bit marking pages that contain
version blocks.  Conventional loads and stores to such pages fault, and
O-structure instructions fault when their target page lacks the bit.
Together with the head-bit check on version-block lists, this keeps the
physical pointers inside version blocks unreachable from user code.

Address translation is modelled as identity (virtual == physical): the
paper's protection argument depends only on the *bit*, not on the mapping,
and an identity map keeps the hot path to a single set lookup.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import ProtectionFault

PAGE_SIZE = 4096
PAGE_SHIFT = 12


def page_runs(pages: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """``pages`` as sorted, maximal ``(first, last)`` runs of consecutive
    page numbers: a carved region is one run however large it is."""
    runs: list[tuple[int, int]] = []
    first = last = None
    for page in sorted(pages):
        if last is not None and page == last + 1:
            last = page
            continue
        if first is not None:
            runs.append((first, last))
        first = last = page
    if first is not None:
        runs.append((first, last))
    return tuple(runs)


class PageTable:
    """Tracks which pages hold versioned data / version blocks."""

    __slots__ = ("_versioned_pages", "_runs")

    def __init__(self) -> None:
        self._versioned_pages: set[int] = set()
        #: Memoised :meth:`runs`, dropped by every mark/clear.
        self._runs: tuple[tuple[int, int], ...] | None = None

    def runs(self) -> tuple[tuple[int, int], ...]:
        """The versioned pages as :func:`page_runs` (memoised; checkpoint
        capture reads it at every marker, and it changes only when the
        heap or the OS refill trap maps pages)."""
        if self._runs is None:
            self._runs = page_runs(self._versioned_pages)
        return self._runs

    @staticmethod
    def page_of(addr: int) -> int:
        return addr >> PAGE_SHIFT

    def mark_versioned(self, addr: int, nbytes: int = PAGE_SIZE) -> None:
        """Set the version-block bit on every page overlapping the range."""
        first = addr >> PAGE_SHIFT
        last = (addr + max(nbytes, 1) - 1) >> PAGE_SHIFT
        self._versioned_pages.update(range(first, last + 1))
        self._runs = None

    def clear_versioned(self, addr: int, nbytes: int = PAGE_SIZE) -> None:
        """Clear the bit (used when converting O-structures back; III-C)."""
        first = addr >> PAGE_SHIFT
        last = (addr + max(nbytes, 1) - 1) >> PAGE_SHIFT
        self._versioned_pages.difference_update(range(first, last + 1))
        self._runs = None

    def is_versioned(self, addr: int) -> bool:
        return (addr >> PAGE_SHIFT) in self._versioned_pages

    def check_conventional(self, addr: int) -> None:
        """Fault if a conventional access touches a versioned page."""
        if (addr >> PAGE_SHIFT) in self._versioned_pages:
            raise ProtectionFault(
                f"conventional access to versioned page at 0x{addr:x}"
            )

    def check_versioned(self, addr: int) -> None:
        """Fault if an O-structure instruction touches a conventional page."""
        if (addr >> PAGE_SHIFT) not in self._versioned_pages:
            raise ProtectionFault(
                f"O-structure access to non-versioned page at 0x{addr:x}"
            )
