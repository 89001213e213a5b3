"""The machine's event channel: attach order, detach, and the tick order."""

from __future__ import annotations

import dataclasses

import pytest

from repro import FaultSpec, Machine, MachineConfig, Task, Versioned
from repro.check import CheckViolation
from repro.check.sanitizer import Sanitizer
from repro.config import TABLE2
from repro.errors import MachineCrash
from repro.harness.presets import get_scale
from repro.harness.sweeps import _run_irregular
from repro.obs import SpanRecorder
from repro.recovery import Checkpointer
from repro.recovery.checkpoint import image_path
from repro.sim.machine import add_machine_observer, remove_machine_observer
from repro.sim.trace import Tracer
from repro.workloads.opgen import READ_INTENSIVE


def _idle_task(tid):
    yield from ()


class TestAttachOrder:
    def test_recorder_after_sanitizer_survives_uninstall(self):
        m = Machine(MachineConfig(num_cores=2, checked=True))
        SpanRecorder(m)
        m.sanitizer.uninstall()
        addr = m.heap.alloc_versioned(1)
        mirrored = m.sanitizer.oracle.ops_mirrored
        m.manager.store_version(0, addr, 1, "a")
        assert m.manager.load_latest(0, addr, 5)[1] == (1, "a")
        assert m.sanitizer.oracle.ops_mirrored == mirrored

    def test_sanitizer_after_recorder_survives_detach(self):
        m = Machine(MachineConfig(num_cores=2))
        rec = SpanRecorder(m)
        Sanitizer(m)
        rec.detach()
        addr = m.heap.alloc_versioned(1)
        m.manager.store_version(0, addr, 1, "a")
        m.cores[0].current = Task(1, _idle_task)
        consumes = list(rec.consumes)
        m.manager.load_latest(0, addr, 5)
        assert rec.consumes == consumes

    def test_sanitizer_after_user_tracer_keeps_a_tail(self):
        m = Machine(MachineConfig(num_cores=2, gc_watermark=0))
        user = Tracer(m, only_versioned=True)
        san = Sanitizer(m, interval=4)
        cell = Versioned(m.heap.alloc_versioned(1))

        def writer(tid, cell):
            for v in range(3):
                yield cell.store_ver(v, v)
            # A reclaim that skips cache invalidation: v0 leaves the
            # list (and the reference) but stays in the compressed line.
            lst = m.manager.lists[cell.addr]
            block, _ = lst.find_exact(0)
            lst.remove(block)
            san.oracle.mirror_reclaim(cell.addr, 0)
            yield cell.load_ver(0)

        m.submit([Task(1, writer, cell)])
        with pytest.raises(CheckViolation) as ei:
            m.run()
        assert ei.value.kind == "divergence"
        assert any("store_version" in line for line in ei.value.trace_tail)
        assert len(user) == 3  # the user's tracer kept recording too

    def test_machine_and_manager_take_no_new_attributes(self):
        m = Machine(MachineConfig(num_cores=1))
        with pytest.raises(AttributeError):
            m.trace_hook = lambda *args: None
        with pytest.raises(AttributeError):
            m.manager.load_latest = lambda *args: None


class TestTickOrder:
    """The checkpointer sees each tick before the fault injector does."""

    def _crash_at(self, at, directory):
        cfg = dataclasses.replace(
            TABLE2, faults=(FaultSpec(kind="crash-machine", at=at),)
        )
        state = {}

        def observe(machine):
            state["ckpt"] = Checkpointer(machine, directory, 32)

        add_machine_observer(observe)
        try:
            with pytest.raises(MachineCrash):
                _run_irregular(
                    "rb_tree", cfg, get_scale("quick"), "small", READ_INTENSIVE,
                    "versioned", 2, 300,
                )
        finally:
            remove_machine_observer(observe)
        return state["ckpt"]

    def test_marker_on_the_crash_ordinal_is_written(self, tmp_path):
        before = self._crash_at(479, tmp_path / "before")
        assert before.captured == [1, 2, 3, 4, 5, 6]
        # Op 480 schedules marker 7 and the crash on the same tick; the
        # marker's image is written before the crash fires.
        ckpt = self._crash_at(480, tmp_path / "on")
        assert ckpt.op_index == 480
        assert ckpt.captured == [1, 2, 3, 4, 5, 6, 7]
        assert image_path(tmp_path / "on", 7).exists()
