"""One function per table/figure of the paper's evaluation (Section IV).

Every function returns a plain dict with a ``rows`` list (the data the
paper plots) plus a ``text`` rendering; the benchmark harness times the
underlying simulations and prints the text.  Workload scale comes from a
:class:`~repro.harness.presets.Scale`; the machine platform defaults to
Table II.

Every simulation here goes through :mod:`repro.harness.runner`: each
experiment builds its full list of :class:`~repro.harness.runner.RunSpec`
up front (in paper order) and hands it to a
:class:`~repro.harness.runner.SweepRunner`, which fans the independent
runs out over a process pool and memoises finished runs on disk.  Pass
``runner=`` to control parallelism/caching; the default runner uses
every host core and the ``.repro_cache/`` directory.  Because every
run is seeded and self-contained, the assembled rows are bit-identical
whether the sweep executes serially, in parallel, or from cache.
"""

from __future__ import annotations

import dataclasses

from ..config import MachineConfig, TABLE2
from ..workloads.opgen import READ_INTENSIVE, WRITE_INTENSIVE
from .presets import QUICK, Scale
from .report import format_table
from .runner import RunResult, RunSpec, SweepRunner, run_sweep
from .sweeps import (  # noqa: F401  (re-exported: tests and benches use them)
    FIG8_MIX,
    MIXES,
    _irregular_inputs,
    _run_irregular,
    _run_regular,
    _seed,
    fig8_spec,
    gc_spec,
    irregular_spec,
    regular_spec,
)

#: Paper ordering of the Figure 6/7/9/10 benchmarks.
IRREGULAR = ("linked_list", "binary_tree", "hash_table", "rb_tree")
REGULAR = ("levenshtein", "matmul")
ALL_BENCHMARKS = IRREGULAR + REGULAR


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


def table2_platform(config: MachineConfig = TABLE2) -> dict:
    """Render the platform and verify the configured latencies end-to-end."""
    from ..sim.hierarchy import MemoryHierarchy
    from ..sim.stats import SimStats

    h = MemoryHierarchy(config, SimStats())
    cold = h.access(0, 0x10000)
    l1_hit = h.access(0, 0x10000)
    h2 = MemoryHierarchy(config, SimStats())
    h2.access(0, 0x10000)
    l2_hit = h2.access(1 % config.num_cores, 0x10000)

    rows = [
        ("Processor", f"{config.issue_width}-way in-order, {config.clock_ghz} GHz"),
        ("L1 I/D", f"{config.l1.size_bytes // 1024} KB, {config.l1.ways}-way, "
                   f"64 B block, {config.l1.hit_latency} cycles"),
        ("L2", f"{config.l2_kib_per_core} KB x {config.num_cores} cores, shared, "
               f"{config.l2_ways}-way, {config.l2_hit_latency} cycles"),
        ("Memory", f"{config.dram_latency_ns} ns = {config.dram_latency_cycles} cycles"),
        ("measured: L1 hit", f"{l1_hit} cycles"),
        ("measured: L2 hit (remote fill)", f"{l2_hit} cycles"),
        ("measured: cold miss", f"{cold} cycles"),
    ]
    return {
        "rows": rows,
        "checks": {
            "l1_hit": l1_hit == config.l1.hit_latency,
            "l2_hit": l2_hit == config.l1.hit_latency + config.l2_hit_latency,
            "cold": cold
            == config.l1.hit_latency + config.l2_hit_latency + config.dram_latency_cycles,
        },
        "text": format_table(("Parameter", "Value"), rows, title="Table II platform"),
    }


# ---------------------------------------------------------------------------
# Figure 6: speedup of parallel versioned over sequential unversioned
# ---------------------------------------------------------------------------


def fig6_speedup(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Speedup of parallel versioned (max cores) over sequential unversioned.

    Small/large sizes x read-intensive (4R-1W) / write-intensive (1R-1W)
    for the four irregular structures; small/large problem sizes for
    Levenshtein and matmul.
    """
    cores = scale.max_cores
    specs: list[RunSpec] = []
    labels: list[tuple[str, str, str]] = []
    for bench in IRREGULAR:
        for size in ("small", "large"):
            for mix in (READ_INTENSIVE, WRITE_INTENSIVE):
                specs.append(irregular_spec(
                    bench, config, scale, size, mix.name, "unversioned"))
                specs.append(irregular_spec(
                    bench, config, scale, size, mix.name, "versioned", cores))
                labels.append((bench, size, mix.name))
    for bench in REGULAR:
        for size in ("small", "large"):
            specs.append(regular_spec(bench, config, scale, size, "unversioned"))
            specs.append(regular_spec(bench, config, scale, size, "versioned", cores))
            labels.append((bench, size, "-"))

    results = run_sweep(specs, runner)
    rows = []
    for i, (bench, size, mix) in enumerate(labels):
        u, v = results[2 * i], results[2 * i + 1]
        rows.append((bench, size, mix, u.cycles / v.cycles))
    from .report import format_bars

    bars = format_bars(
        f"Figure 6 (bars; | marks break-even)",
        [(f"{b}/{s}/{m}", sp) for b, s, m, sp in rows],
    )
    return {
        "rows": rows,
        "text": format_table(
            ("benchmark", "size", "mix", f"speedup@{cores}c"),
            rows,
            title=f"Figure 6: parallel versioned ({cores} cores) vs sequential "
                  f"unversioned [{scale.name}]",
        ) + "\n\n" + bars,
    }


# ---------------------------------------------------------------------------
# Figure 7: scalability (speedup over sequential versioned)
# ---------------------------------------------------------------------------


def fig7_scalability(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Self-speedup of versioned runs, large read-intensive inputs."""

    def spec_for(bench: str, cores: int) -> RunSpec:
        if bench in IRREGULAR:
            return irregular_spec(bench, config, scale, "large",
                                  READ_INTENSIVE.name, "versioned", cores)
        return regular_spec(bench, config, scale, "large", "versioned", cores)

    specs: list[RunSpec] = []
    for bench in ALL_BENCHMARKS:
        specs.append(spec_for(bench, 1))
        specs.extend(spec_for(bench, c) for c in scale.core_counts)

    results = run_sweep(specs, runner)
    rows = []
    series: dict[str, list[float]] = {}
    stride = 1 + len(scale.core_counts)
    for bi, bench in enumerate(ALL_BENCHMARKS):
        base = results[bi * stride]
        speedups = []
        for ci, cores in enumerate(scale.core_counts):
            run = results[bi * stride + 1 + ci]
            speedups.append(base.cycles / run.cycles)
            rows.append((bench, cores, base.cycles / run.cycles))
        series[bench] = speedups
    from .report import format_series

    return {
        "rows": rows,
        "series": series,
        "cores": list(scale.core_counts),
        "text": format_series(
            f"Figure 7: scalability over sequential versioned [{scale.name}]",
            "cores",
            list(scale.core_counts),
            series,
        ),
    }


# ---------------------------------------------------------------------------
# Figure 8: snapshot isolation vs read-write lock
# ---------------------------------------------------------------------------


def fig8_snapshot_isolation(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Versioned binary tree vs rwlock tree; 3:1 scan:insert, 3 scan ranges."""
    scan_ranges = (1, 8, 64)
    specs: list[RunSpec] = []
    for scan_range in scan_ranges:
        specs.append(fig8_spec("versioned", config, scale, scan_range, 1))
        specs.append(fig8_spec("rwlock", config, scale, scan_range, 1))
        for cores in scale.core_counts:
            specs.append(fig8_spec("versioned", config, scale, scan_range, cores))
            specs.append(fig8_spec("rwlock", config, scale, scan_range, cores))

    results = iter(run_sweep(specs, runner))
    rows = []
    ratios: dict[str, list[float]] = {}
    self_speedups: dict[str, list[float]] = {"versioned": [], "rwlock": []}
    for scan_range in scan_ranges:
        v1 = next(results)
        r1 = next(results)
        ratio_series = []
        for cores in scale.core_counts:
            v = next(results)
            r = next(results)
            ratio = r.cycles / v.cycles
            ratio_series.append(ratio)
            rows.append((scan_range, cores, ratio))
            if cores == scale.core_counts[-1]:
                self_speedups["versioned"].append(v1.cycles / v.cycles)
                self_speedups["rwlock"].append(r1.cycles / r.cycles)
        ratios[f"scan-{scan_range}"] = ratio_series

    avg_v = sum(self_speedups["versioned"]) / len(self_speedups["versioned"])
    avg_r = sum(self_speedups["rwlock"]) / len(self_speedups["rwlock"])
    from .report import format_series

    text = format_series(
        f"Figure 8: versioned tree / rwlock tree performance ratio [{scale.name}] "
        f"(>1 means versioned faster)",
        "cores",
        list(scale.core_counts),
        ratios,
    )
    text += (
        f"\nAvg self-speedup at {scale.core_counts[-1]} cores: "
        f"versioned = {avg_v:.1f}, rwlock = {avg_r:.1f}"
    )
    return {
        "rows": rows,
        "series": ratios,
        "self_speedup_versioned": avg_v,
        "self_speedup_rwlock": avg_r,
        "text": text,
    }


# ---------------------------------------------------------------------------
# Figure 9: L1 size sensitivity
# ---------------------------------------------------------------------------

_FIG9_BASELINE_KIB = 32


def fig9_l1_size(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Relative speedup vs the 32 KB L1 baseline for U / 1T / NT runs."""
    sizes = sorted(set(scale.l1_sizes_kib) | {_FIG9_BASELINE_KIB})
    cores = scale.max_cores
    variants = ("U", "1T", f"{cores}T")

    def spec_for(bench: str, variant: str, kib: int) -> RunSpec:
        cfg = config.with_l1_kib(kib)
        if bench in IRREGULAR:
            if variant == "U":
                return irregular_spec(bench, cfg, scale, "large",
                                      READ_INTENSIVE.name, "unversioned",
                                      n_ops=scale.sens_ops)
            c = 1 if variant == "1T" else cores
            return irregular_spec(bench, cfg, scale, "large",
                                  READ_INTENSIVE.name, "versioned", c,
                                  n_ops=scale.sens_ops)
        if variant == "U":
            return regular_spec(bench, cfg, scale, "large", "unversioned")
        c = 1 if variant == "1T" else cores
        return regular_spec(bench, cfg, scale, "large", "versioned", c)

    specs: list[RunSpec] = []
    for bench in ALL_BENCHMARKS:
        for variant in variants:
            specs.append(spec_for(bench, variant, _FIG9_BASELINE_KIB))
            specs.extend(spec_for(bench, variant, kib)
                         for kib in sizes if kib != _FIG9_BASELINE_KIB)

    results = iter(run_sweep(specs, runner))
    rows = []
    for bench in ALL_BENCHMARKS:
        for variant in variants:
            baseline = next(results)
            for kib in sizes:
                if kib == _FIG9_BASELINE_KIB:
                    rel = 0.0
                else:
                    rel = baseline.cycles / next(results).cycles - 1.0
                rows.append((bench, variant, kib, rel))
    return {
        "rows": rows,
        "text": format_table(
            ("benchmark", "variant", "L1 KiB", "speedup vs 32KB"),
            rows,
            title=f"Figure 9: L1 size sensitivity [{scale.name}]",
            floatfmt="{:+.3f}",
        ),
    }


# ---------------------------------------------------------------------------
# Figure 10: injected versioned-op latency
# ---------------------------------------------------------------------------


def fig10_latency(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Slowdown from +2..+10 cycles per versioned operation (1T and NT)."""
    cores = scale.max_cores

    def spec_for(bench: str, c: int, extra: int) -> RunSpec:
        cfg = config.with_versioned_latency(extra)
        if bench in IRREGULAR:
            return irregular_spec(bench, cfg, scale, "large",
                                  READ_INTENSIVE.name, "versioned", c,
                                  n_ops=scale.sens_ops)
        return regular_spec(bench, cfg, scale, "large", "versioned", c)

    variants = ((1, "1T"), (cores, f"{cores}T"))
    specs: list[RunSpec] = []
    for bench in ALL_BENCHMARKS:
        for c, _tag in variants:
            specs.append(spec_for(bench, c, 0))
            specs.extend(spec_for(bench, c, extra) for extra in scale.latencies)

    results = iter(run_sweep(specs, runner))
    rows = []
    for bench in ALL_BENCHMARKS:
        for _c, tag in variants:
            base = next(results)
            for extra in scale.latencies:
                r = next(results)
                rows.append((bench, tag, extra, base.cycles / r.cycles - 1.0))
    return {
        "rows": rows,
        "text": format_table(
            ("benchmark", "variant", "+cycles", "speedup vs no overhead"),
            rows,
            title=f"Figure 10: versioned-op latency sensitivity [{scale.name}]",
            floatfmt="{:+.3f}",
        ),
    }


# ---------------------------------------------------------------------------
# Section IV-F: garbage collection overhead
# ---------------------------------------------------------------------------


def gc_overhead(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Sequential list workload under tight / ample / no-sorting configs.

    The paper: a tight configuration triggering 135 GC phases was 0.1%
    slower than one with enough free blocks to never collect, which was
    itself 0.1% slower than a no-version-sorting configuration.
    """

    def cfg_with(**kw) -> MachineConfig:
        return dataclasses.replace(config, num_cores=1, **kw)

    tight, ample, nosort = run_sweep(
        [
            gc_spec(cfg_with(free_list_blocks=96, gc_watermark=64), scale),
            gc_spec(cfg_with(free_list_blocks=1 << 17, gc_watermark=8), scale),
            gc_spec(cfg_with(free_list_blocks=1 << 17, gc_watermark=8,
                             sorted_version_lists=False), scale),
        ],
        runner,
    )

    rows = [
        ("tight (GC active)", tight.cycles, tight.stats.gc_phases,
         tight.stats.gc_reclaimed, tight.cycles / ample.cycles - 1.0),
        ("ample (no GC)", ample.cycles, ample.stats.gc_phases,
         ample.stats.gc_reclaimed, 0.0),
        ("no sorting", nosort.cycles, nosort.stats.gc_phases,
         nosort.stats.gc_reclaimed, nosort.cycles / ample.cycles - 1.0),
    ]
    return {
        "rows": rows,
        "tight_phases": tight.stats.gc_phases,
        "overhead": tight.cycles / ample.cycles - 1.0,
        "text": format_table(
            ("config", "cycles", "GC phases", "reclaimed", "vs ample"),
            rows,
            title=f"Section IV-F: GC overhead [{scale.name}]",
            floatfmt="{:+.4f}",
        ),
    }


# ---------------------------------------------------------------------------
# Observability summary: metrics-enabled sweep over the irregular structures
# ---------------------------------------------------------------------------


def _hist_stats(snapshot: dict | None, name: str) -> tuple:
    """(count, mean, max) of one histogram from a metrics snapshot."""
    hist = ((snapshot or {}).get("histograms") or {}).get(name)
    if not hist or not hist.get("count"):
        return (0, 0.0, 0)
    return (hist["count"], float(hist["mean"]), hist["max"])


def obs_summary(
    scale: Scale = QUICK,
    config: MachineConfig = TABLE2,
    runner: SweepRunner | None = None,
) -> dict:
    """Distributional metrics across the irregular structures.

    Runs every irregular benchmark under both op mixes with the
    :mod:`repro.obs` metrics registry enabled and a tight free list (the
    ``gc`` experiment's pressure knobs, so the GC-lag histogram fills),
    then tabulates the aggregated snapshots each
    :class:`~repro.harness.runner.RunResult` row carries: version-list
    walk length, compressed-line occupancy, GC reclamation lag and
    lock-wait time.  The distributions are the paper's Section III
    design arguments made measurable — e.g. compression keeps the
    *typical* walk at zero blocks even when the tail is long.
    """
    cores = scale.max_cores
    cfg = dataclasses.replace(
        config, metrics=True, free_list_blocks=96, gc_watermark=64,
        refill_blocks=256,
    )
    specs: list[RunSpec] = []
    labels: list[tuple[str, str]] = []
    for bench in IRREGULAR:
        for mix in (READ_INTENSIVE, WRITE_INTENSIVE):
            specs.append(irregular_spec(
                bench, cfg, scale, "small", mix.name, "versioned", cores))
            labels.append((bench, mix.name))

    results = run_sweep(specs, runner)
    rows = []
    for (bench, mix), result in zip(labels, results):
        walk_n, walk_mean, walk_max = _hist_stats(result.metrics, "walk_length")
        _, occ_mean, _ = _hist_stats(result.metrics, "line_occupancy")
        lag_n, lag_mean, _ = _hist_stats(result.metrics, "gc_lag")
        wait_n, wait_mean, _ = _hist_stats(result.metrics, "lock_wait")
        rows.append((
            bench, mix, walk_n, walk_mean, walk_max, occ_mean,
            lag_n, lag_mean, wait_n, wait_mean,
        ))
    return {
        "rows": rows,
        "text": format_table(
            ("benchmark", "mix", "lookups", "walk mean", "walk max",
             "line occ", "reclaims", "GC lag", "waits", "wait mean"),
            rows,
            title=f"Observability: metric distributions @ {cores} cores "
                  f"[{scale.name}]",
        ),
    }
