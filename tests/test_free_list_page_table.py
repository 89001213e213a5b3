"""Tests for the version-block free list and the page-table protection bit."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import VERSION_BLOCK_SIZE
from repro.errors import FreeListExhausted, ProtectionFault
from repro.ostruct.free_list import REFILL_TRAP_CYCLES, FreeList
from repro.ostruct.page_table import PAGE_SIZE, PageTable, page_runs
from repro.sim.stats import SimStats


def make_fl(initial=4, refill=4, max_refills=1, hook=None):
    return FreeList(
        base_paddr=0x8000_0000,
        initial_blocks=initial,
        refill_blocks=refill,
        max_refills=max_refills,
        stats=SimStats(),
        on_refill_page=hook,
    )


class TestFreeList:
    def test_allocations_are_unique_and_aligned(self):
        fl = make_fl(initial=8)
        addrs = [fl.allocate()[0] for _ in range(8)]
        assert len(set(addrs)) == 8
        assert all(a % VERSION_BLOCK_SIZE == 0 for a in addrs)

    def test_free_count_tracks_allocation_and_release(self):
        fl = make_fl(initial=4)
        assert fl.free_count == 4
        paddr, _ = fl.allocate()
        assert fl.free_count == 3
        fl.release(paddr)
        assert fl.free_count == 4

    def test_no_trap_latency_while_blocks_remain(self):
        fl = make_fl(initial=2)
        assert fl.allocate()[1] == 0
        assert fl.allocate()[1] == 0

    def test_os_refill_trap_charges_latency(self):
        fl = make_fl(initial=1, refill=4, max_refills=1)
        fl.allocate()
        paddr, lat = fl.allocate()  # triggers refill
        assert lat == REFILL_TRAP_CYCLES
        assert fl.free_count == 3

    def test_exhaustion_after_refill_budget(self):
        fl = make_fl(initial=1, refill=1, max_refills=1)
        fl.allocate()
        fl.allocate()  # uses the one refill
        with pytest.raises(FreeListExhausted):
            fl.allocate()

    def test_unlimited_refills(self):
        fl = make_fl(initial=1, refill=1, max_refills=None)
        for _ in range(10):
            fl.allocate()

    def test_refill_hook_marks_pages(self):
        regions = []
        fl = make_fl(initial=2, refill=4, max_refills=1, hook=lambda a, n: regions.append((a, n)))
        assert regions == [(0x8000_0000, 2 * VERSION_BLOCK_SIZE)]
        fl.allocate(); fl.allocate(); fl.allocate()
        assert len(regions) == 2
        assert regions[1][1] == 4 * VERSION_BLOCK_SIZE

    def test_released_blocks_are_reused(self):
        fl = make_fl(initial=1, max_refills=0)
        paddr, _ = fl.allocate()
        fl.release(paddr)
        again, _ = fl.allocate()
        assert again == paddr


class ReferenceFreeList:
    """The free list as one materialised LIFO stack of every free paddr:
    the model the carved-range :class:`FreeList` must match exactly."""

    def __init__(self, *, base_paddr, initial_blocks, refill_blocks, max_refills):
        self.free: list[int] = []
        self.bump = base_paddr
        self.refill_blocks = refill_blocks
        self.refills_left = max_refills
        self.refills = 0
        self.regions: list[tuple[int, int]] = []
        self.carve(initial_blocks)

    def carve(self, nblocks):
        self.regions.append((self.bump, nblocks * VERSION_BLOCK_SIZE))
        for _ in range(nblocks):
            self.free.append(self.bump)
            self.bump += VERSION_BLOCK_SIZE

    def allocate(self):
        if not self.free:
            if self.refills_left is not None and self.refills_left <= 0:
                raise FreeListExhausted("empty")
            if self.refills_left is not None:
                self.refills_left -= 1
            self.carve(self.refill_blocks)
            self.refills += 1
            return self.free.pop(), REFILL_TRAP_CYCLES
        return self.free.pop(), 0

    def release(self, paddr):
        self.free.append(paddr)

    def drain(self, leave):
        dropped = max(0, len(self.free) - max(0, leave))
        if dropped:
            del self.free[len(self.free) - dropped :]
        return dropped


_FREE_LIST_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 6)),
        st.tuples(st.just("release"), st.integers(0, 1 << 16)),
        st.tuples(st.just("drain"), st.integers(0, 8)),
        st.tuples(st.just("budget"), st.one_of(st.none(), st.integers(0, 3))),
    ),
    max_size=60,
)


class TestFreeListAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        initial=st.integers(1, 12),
        refill=st.integers(1, 6),
        max_refills=st.one_of(st.none(), st.integers(0, 4)),
        ops=_FREE_LIST_OPS,
    )
    def test_same_paddrs_latencies_counts_and_exhaustion(
        self, initial, refill, max_refills, ops
    ):
        stats = SimStats()
        regions = []
        fl = FreeList(
            base_paddr=0x8000_0000,
            initial_blocks=initial,
            refill_blocks=refill,
            max_refills=max_refills,
            stats=stats,
            on_refill_page=lambda a, n: regions.append((a, n)),
        )
        ref = ReferenceFreeList(
            base_paddr=0x8000_0000,
            initial_blocks=initial,
            refill_blocks=refill,
            max_refills=max_refills,
        )
        held: list[int] = []
        for kind, arg in ops:
            if kind == "allocate":
                for _ in range(arg):
                    try:
                        expected = ref.allocate()
                    except FreeListExhausted:
                        with pytest.raises(FreeListExhausted):
                            fl.allocate()
                        break
                    got = fl.allocate()
                    assert got == expected
                    held.append(got[0])
            elif kind == "release":
                if held:
                    paddr = held.pop(arg % len(held))
                    fl.release(paddr)
                    ref.release(paddr)
            elif kind == "drain":
                assert fl.drain(leave=arg) == ref.drain(arg)
            else:
                fl.set_refill_budget(arg)
                ref.refills_left = arg
            assert fl.paddrs() == ref.free
            assert fl.free_count == len(ref.free)
            assert fl.refills_left == ref.refills_left
            assert stats.free_list_refills == ref.refills
            assert regions == ref.regions

    def test_snapshot_is_independent_of_the_carved_size(self):
        small, large = make_fl(initial=1 << 4), make_fl(initial=1 << 20)
        for fl in (small, large):
            fl.release(fl.allocate()[0])
        released, lo, top, bump, left = large.snapshot()
        assert released == (lo + ((1 << 20) - 1) * VERSION_BLOCK_SIZE,)
        assert (top - lo) // VERSION_BLOCK_SIZE == (1 << 20) - 1
        assert bump == top + VERSION_BLOCK_SIZE  # the allocated one
        assert len(small.snapshot()) == len(large.snapshot())


class TestPageTable:
    def test_bit_set_and_queried(self):
        pt = PageTable()
        pt.mark_versioned(0x4000_0000, 100)
        assert pt.is_versioned(0x4000_0000)
        assert pt.is_versioned(0x4000_0063)
        assert not pt.is_versioned(0x4000_0000 + PAGE_SIZE)

    def test_range_spanning_pages(self):
        pt = PageTable()
        pt.mark_versioned(PAGE_SIZE - 8, 16)  # straddles two pages
        assert pt.is_versioned(PAGE_SIZE - 8)
        assert pt.is_versioned(PAGE_SIZE)

    def test_conventional_access_to_versioned_page_faults(self):
        pt = PageTable()
        pt.mark_versioned(0x5000)
        with pytest.raises(ProtectionFault):
            pt.check_conventional(0x5000)
        pt.check_conventional(0x9000)  # unversioned: fine

    def test_versioned_access_to_conventional_page_faults(self):
        pt = PageTable()
        with pytest.raises(ProtectionFault):
            pt.check_versioned(0x5000)
        pt.mark_versioned(0x5000)
        pt.check_versioned(0x5000)

    def test_clear_versioned_converts_back(self):
        pt = PageTable()
        pt.mark_versioned(0x5000)
        pt.clear_versioned(0x5000)
        assert not pt.is_versioned(0x5000)
        pt.check_conventional(0x5000)

    def test_runs_are_maximal_and_follow_every_change(self):
        pt = PageTable()
        assert pt.runs() == ()
        pt.mark_versioned(0x5000, 3 * PAGE_SIZE)
        pt.mark_versioned(0x9000)
        assert pt.runs() == ((5, 7), (9, 9))
        pt.mark_versioned(0x8000)  # bridges the gap
        assert pt.runs() == ((5, 9),)
        pt.clear_versioned(0x6000)
        assert pt.runs() == ((5, 5), (7, 9))
        assert pt.runs() == page_runs(pt._versioned_pages)

    def test_page_of(self):
        assert PageTable.page_of(0) == 0
        assert PageTable.page_of(PAGE_SIZE) == 1
        assert PageTable.page_of(PAGE_SIZE * 3 + 5) == 3
