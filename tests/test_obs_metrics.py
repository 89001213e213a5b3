"""Tests for the repro.obs metrics registry."""

from __future__ import annotations

import pytest

from repro import Machine, MachineConfig, Sanitizer, Task, Tracer, Versioned
from repro.errors import ReproError
from repro.obs import MetricsRegistry, SpanRecorder, attach_metrics
from repro.obs.metrics import Histogram
from repro.ostruct import isa


class TestInstruments:
    def test_counter(self):
        r = MetricsRegistry()
        c = r.counter("events")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5
        assert r.counter("events") is c  # get-or-create

    def test_gauge_tracks_last_min_max(self):
        r = MetricsRegistry()
        g = r.gauge("depth")
        for v in (5, 2, 9):
            g.set(v)
        snap = g.snapshot()
        assert snap == {"last": 9, "min": 2, "max": 9, "samples": 3}

    def test_histogram_bucket_edges_are_upper_inclusive(self):
        h = Histogram("h", (0, 2, 4))
        for v in (0, 1, 2, 3, 4, 5, 100):
            h.observe(v)
        # <=0: {0}; <=2: {1,2}; <=4: {3,4}; >4: {5,100}
        assert h.counts == [1, 2, 2, 2]
        assert h.count == 7
        assert h.min == 0 and h.max == 100

    def test_histogram_mean_and_quantile(self):
        h = Histogram("h", (10, 100, 1000))
        for v in (5, 5, 50, 500):
            h.observe(v)
        assert h.mean == pytest.approx(140.0)
        # Quantile is a bucketed estimate: the median lands in <=100.
        assert h.quantile(0.5) <= 100
        assert h.quantile(1.0) >= h.quantile(0.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (3, 1, 2))

    def test_histogram_get_or_create_checks_bounds(self):
        r = MetricsRegistry()
        h = r.histogram("custom", (1, 2))
        assert r.histogram("custom", (1, 2)) is h
        with pytest.raises(ValueError):
            r.histogram("custom", (1, 2, 3))

    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g").set(7)
        r.walk_length.observe(3)
        snap = r.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["c"] == 1
        assert snap["gauges"]["g"]["last"] == 7
        hist = snap["histograms"]["walk_length"]
        assert hist["count"] == 1
        assert sum(hist["counts"]) == 1
        assert len(hist["counts"]) == len(hist["bounds"]) + 1


class TestAttachment:
    def _machine(self, **kw):
        m = Machine(MachineConfig(num_cores=2, metrics=True, **kw))
        cell = Versioned(m.heap.alloc_versioned(1))
        return m, cell

    def test_config_metrics_attaches_registry(self):
        m, _ = self._machine()
        assert isinstance(m.metrics, MetricsRegistry)
        assert m.manager.metrics is m.metrics

    def test_attach_is_idempotent(self):
        m, _ = self._machine()
        assert attach_metrics(m) is m.metrics

    def test_disabled_by_default(self):
        m = Machine(MachineConfig(num_cores=2))
        assert m.metrics is None
        assert m.manager.metrics is None

    def test_run_populates_core_instruments(self):
        m, cell = self._machine()

        def prog(tid):
            for i in range(6):
                yield cell.store_ver(tid * 10 + i, i)
            for i in range(6):
                yield cell.load_ver(tid * 10 + i)

        m.submit([Task(1, prog), Task(2, prog)])
        m.run()
        snap = m.metrics.snapshot()
        hists = snap["histograms"]
        assert hists["line_occupancy"]["count"] > 0
        assert hists["free_depth"]["count"] > 0
        assert snap["gauges"]["free_depth"]["samples"] > 0

    def test_lock_wait_observed_on_stall_resolution(self):
        m, cell = self._machine()

        def producer(tid):
            yield isa.compute(500)
            yield cell.store_ver(1, 42)

        def consumer(tid):
            yield cell.load_ver(1)

        m.submit([Task(1, producer), Task(2, consumer)])
        m.run()
        wait = m.metrics.snapshot()["histograms"]["lock_wait"]
        assert wait["count"] >= 1
        # compute(500) at issue width 2 keeps the producer busy ~250
        # cycles; the consumer stalls for most of it.
        assert wait["max"] >= 100

    def test_gc_lag_pairs_shadow_to_reclaim(self):
        # Tight free list: versions are shadowed as tasks complete and
        # the GC must actually reclaim them mid-run.
        m = Machine(MachineConfig(
            num_cores=1, metrics=True,
            free_list_blocks=8, gc_watermark=4, refill_blocks=8,
            free_list_refills=2,
        ))
        cell = Versioned(m.heap.alloc_versioned(1))

        def writer(tid):
            yield cell.store_ver(tid, tid)

        m.submit([Task(i, writer) for i in range(1, 40)])
        m.run()
        snap = m.metrics.snapshot()
        lag = snap["histograms"]["gc_lag"]
        assert lag["count"] > 0
        assert lag["min"] >= 0
        assert snap["counters"]["gc_reclaims"] == lag["count"]


def test_metrics_do_not_change_simulated_timing():
    def run(metrics: bool, observers=()):
        m = Machine(MachineConfig(
            num_cores=2, metrics=metrics,
            free_list_blocks=8, gc_watermark=4, refill_blocks=8,
        ))
        for attach in observers:
            attach(m)
        cell = Versioned(m.heap.alloc_versioned(1))

        def prog(tid):
            yield cell.store_ver(tid, tid)
            if tid > 1:
                yield cell.load_ver(tid - 1)

        m.submit([Task(i, prog) for i in range(1, 20)])
        return m.run()

    assert run(False).cycles == run(True).cycles
    # Every pure observer at once, in two attach orders: the whole
    # stats row stays that of a bare run.
    everyone = (attach_metrics, Sanitizer, SpanRecorder, Tracer)
    bare = run(False).snapshot()
    for order in (everyone, everyone[::-1]):
        assert run(False, order).snapshot() == bare


def test_ostruct_error_types_unaffected_by_metrics():
    # Instrumented paths still raise the same errors.
    m = Machine(MachineConfig(num_cores=1, metrics=True))
    cell = Versioned(m.heap.alloc_versioned(1))

    def prog(tid):
        yield cell.store_ver(1, 1)
        yield cell.store_ver(1, 2)  # double store

    m.submit([Task(1, prog)])
    with pytest.raises(ReproError):
        m.run()
