"""Differential tests for incremental checkpoint capture (repro.recovery).

At a marker the :class:`~repro.recovery.Checkpointer` captures through a
:class:`~repro.recovery.checkpoint.StoreCache` that re-canonicalises only
the addresses the manager and GC marked dirty.  The full walk,
``capture_state(machine)`` without a cache, is the reference: at every
marker the incremental state must equal it — same dict, same key order,
same digest — and the epoch pin must hold exactly the versions a walk
over the lists finds.  Covered here across the tree workloads, the
rwlock baseline, GC pressure and the fault plans that abort tasks and
starve the free list.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import FaultSpec, Machine, MachineConfig, Task, Versioned
from repro.config import TABLE2
from repro.errors import CheckpointError
from repro.recovery import Checkpoint, Checkpointer, capture_state
from repro.recovery.checkpoint import StoreCache, encode_state, state_digest
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.workloads import linked_list, opgen, rb_tree, rwlock_tree


def _walked_pin(manager) -> frozenset:
    return frozenset(
        (vaddr, block.version)
        for vaddr, vlist in manager.lists.items()
        for block in vlist
    )


@pytest.fixture
def compared(monkeypatch):
    """Compare every cached capture against the full walk; returns the
    list of markers compared."""
    markers: list[int] = []
    real_capture = Checkpoint.capture.__func__
    real_pin = StoreCache.pin

    def capture(cls, machine, *, cache=None, **kwargs):
        ck = real_capture(cls, machine, cache=cache, **kwargs)
        if cache is not None:
            full = capture_state(machine)
            assert full == ck.state
            assert list(full) == list(ck.state)
            assert list(full["version_store"]) == list(ck.state["version_store"])
            assert state_digest(full) == ck.digest
            assert encode_state(full) == ck.encoded
            markers.append(ck.marker)
        return ck

    def pin(self):
        built = real_pin(self)
        assert built == _walked_pin(self.manager)
        return built

    monkeypatch.setattr(Checkpoint, "capture", classmethod(capture))
    monkeypatch.setattr(StoreCache, "pin", pin)
    return markers


def _run(run_fn, cfg, directory, every=8):
    """``run_fn(cfg)`` with a Checkpointer on its machine; ``(run, machine)``."""
    seen = {}

    def observe(machine):
        seen["machine"] = machine
        Checkpointer(machine, directory, every)

    add_machine_observer(observe)
    try:
        run = run_fn(cfg)
    finally:
        remove_machine_observer(observe)
    return run, seen["machine"]


def _ops(n_ops=64, mix=opgen.WRITE_INTENSIVE, seed=7):
    return opgen.initial_keys(24, 96, seed), opgen.generate_ops(n_ops, mix, 96, seed)


def _check_results(run, init, ops):
    expected, _ = opgen.reference_results(init, ops)
    assert list(run.results) == list(expected)


class TestIncrementalEqualsFullWalk:
    @pytest.mark.parametrize("mix", [opgen.READ_INTENSIVE, opgen.WRITE_INTENSIVE])
    def test_rb_tree(self, tmp_path, compared, mix):
        init, ops = _ops(mix=mix)
        run, _ = _run(
            lambda c: rb_tree.run_versioned(c, init, ops, 2), TABLE2, tmp_path
        )
        _check_results(run, init, ops)
        assert len(compared) >= 10

    def test_rwlock_tree(self, compared):
        # The rwlock baseline runs no versioned ops, so no marker ever
        # falls due: capture through a cache every 16th retired op.
        init, ops = _ops()
        held = []

        def observe(m):
            cache = StoreCache(m.manager)
            retired = [0]

            def on_op(core_id, task_id, op, latency, stalled):
                retired[0] += 1
                if retired[0] % 16 == 0:
                    state = Checkpoint.capture(m, cache=cache).state
                    held.extend(r for r in state["rwlocks"] if r[2] or r[3] is not None)

            m.events.subscribe("op", on_op)

        add_machine_observer(observe)
        try:
            run = rwlock_tree.run_rwlock(TABLE2, init, ops, 2)
        finally:
            remove_machine_observer(observe)
        _check_results(run, init, ops)
        assert len(compared) >= 10
        assert held, "some capture must see a reader or writer holding the lock"

    def test_gc_pressure(self, tmp_path, compared):
        # No refills: once the 96 blocks run out, emergency collections
        # drop the pin and reclaim, so reclaims land between markers.
        cfg = dataclasses.replace(
            TABLE2, free_list_blocks=96, gc_watermark=64, free_list_refills=0
        )
        init, ops = _ops(n_ops=96)
        run, m = _run(
            lambda c: rb_tree.run_versioned(c, init, ops, 2), cfg, tmp_path
        )
        _check_results(run, init, ops)
        assert run.stats.gc_phases > 0 and run.stats.gc_pin_kept > 0
        assert run.stats.gc_reclaimed > 0 and m.gc.pin_drops > 0
        assert len(compared) >= 10

    @pytest.mark.parametrize(
        "module, at, task",
        [(rb_tree, 80, 6), (linked_list, 40, 1)],
        ids=["rb_tree", "linked_list"],
    )
    def test_abort_task(self, tmp_path, compared, module, at, task):
        cfg = dataclasses.replace(
            TABLE2,
            faults=(FaultSpec(kind="abort-task", at=at, value=10, arg=task),),
        )
        init, ops = _ops()
        run, m = _run(
            lambda c: module.run_versioned(c, init, ops, 2), cfg, tmp_path
        )
        _check_results(run, init, ops)
        assert m.injector.fired and run.stats.tasks_retried >= 1
        assert compared

    def test_starve_free_list(self, tmp_path, compared):
        cfg = dataclasses.replace(
            TABLE2,
            free_list_blocks=64,
            refill_blocks=16,
            free_list_refills=4,
            gc_watermark=8,
            faults=(FaultSpec(kind="starve-free-list", at=120, value=0, arg=6),),
        )
        init, ops = _ops(n_ops=48, mix=opgen.READ_INTENSIVE)
        run, m = _run(
            lambda c: linked_list.run_versioned(c, init, ops, 4), cfg, tmp_path
        )
        _check_results(run, init, ops)
        assert m.injector.fired
        assert run.stats.emergency_gc_phases >= 1
        assert compared


class TestEveryMutationPointMarksDirty:
    """One mutation at a time through the manager and GC entry points,
    each followed by a cached capture that must equal the full walk."""

    def test_store_lock_unlock_rename_drop_reclaim_free(self):
        m = Machine(MachineConfig(num_cores=1))
        mgr = m.manager
        cache = StoreCache(mgr)
        a = m.heap.alloc_versioned(1)
        b = m.heap.alloc_versioned(1)

        def same():
            full = capture_state(m)
            assert encode_state(capture_state(m, cache)) == encode_state(full)
            assert cache.pin() == _walked_pin(mgr)

        for v in range(3):
            mgr.store_version(0, a, v, 10 + v)  # insert, head, shadow
            same()
        mgr.store_version(0, b, 0, 1)
        same()
        mgr.lock_load_version(0, a, 2, 7)
        same()
        mgr.unlock_version(0, a, 2, 7)
        same()
        mgr.lock_load_latest(0, a, 2, 7)
        same()
        mgr.unlock_version(0, a, 2, 7, new_version=4)  # rename
        same()
        assert mgr._drop_version(0, a, 4)  # abort rollback of the head
        same()
        assert m.gc.emergency_collect() > 0  # reclaim shadowed blocks
        same()
        assert mgr.free_ostructure(b) == 1
        same()
        mgr.store_version(0, b, 0, 2)  # a freed address comes back last
        same()
        assert list(capture_state(m, cache)["version_store"]) == [a, b]


class TestCheckedModeAudit:
    def _machine(self, tmp_path):
        m = Machine(MachineConfig(num_cores=1, checked=True))
        Checkpointer(m, tmp_path, 2)
        cell = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, cell.addr, 0, 5)
        return m, cell

    def test_audit_passes_on_a_healthy_run(self, tmp_path):
        m, cell = self._machine(tmp_path)

        def prog(tid):
            for v in range(1, 9):
                yield cell.store_ver(v, v)
            return 0

        m.submit([Task(1, prog)])
        m.run()
        assert m.stats.checkpoints_reached >= 3

    def test_audit_catches_a_mutation_nobody_marked_dirty(self, tmp_path):
        m, cell = self._machine(tmp_path)  # the host store is tick 1
        other = Versioned(m.heap.alloc_versioned(1))
        m.manager.store_version(0, other.addr, 0, 5)  # tick 2: marker 1

        def prog(tid):
            yield other.store_ver(1, 1)  # tick 3
            m.manager.dirty.clear()  # hide that store from the cache
            yield cell.store_ver(1, 1)  # tick 4: marker 2
            return 0

        m.submit([Task(1, prog)])
        with pytest.raises(CheckpointError, match="version_store differ"):
            m.run()


class TestCaptureSize:
    def test_fresh_state_does_not_grow_with_the_free_list(self):
        sizes = {
            n: len(encode_state(capture_state(Machine(MachineConfig(free_list_blocks=n)))))
            for n in (1 << 10, 1 << 20)
        }
        assert sizes[1 << 10] == sizes[1 << 20]
