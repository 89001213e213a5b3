"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig6 [--scale quick|paper] [--jobs N] [--no-cache]
    python -m repro fig7 fig8 fig9 fig10 gc
    python -m repro all --scale quick
    python -m repro check                  # sanitizer stress harness
    python -m repro faults                 # fault-injection stress harness
    python -m repro fig6 --check           # any target under the sanitizer
    python -m repro fig6 --resume          # reload a partial sweep's rows
    python -m repro fig6 --timeout 300     # kill+retry hung sweep workers
    python -m repro bench                  # record perf baselines
    python -m repro bench --compare        # fail on perf regression (CI)
    python -m repro trace binary_tree --perfetto out.json --metrics m.json
    python -m repro obs                    # metrics-on sweep summary table
    python -m repro recover rb_tree --crash-at 1000   # crash + replay demo
    python -m repro fig6 --checkpoint-every 256       # killable mid-row
    python -m repro serve --port 7270                 # MVCC service (TCP)
    python -m repro serve --self-bench --seed 0       # in-process bench
    python -m repro loadgen --port 7270 --mix write_heavy

Sweeps fan out over a process pool (``--jobs``, default: all host cores)
and memoise finished runs under ``.repro_cache/`` so a re-run only
simulates what changed (``--no-cache`` to disable).

``--check`` runs every simulation with ``MachineConfig(checked=True)``:
the :mod:`repro.check` sanitizer diffs each versioned op against the
software reference model and validates structural invariants, failing
loudly on any divergence.  The dedicated ``check`` target runs the
random-schedule stress harness across all six workloads; a non-zero
violation count makes the process exit non-zero (CI smoke job).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .config import TABLE2, MachineConfig
from .errors import ConfigError
from .harness import experiments
from .harness.presets import get_scale
from .harness.runner import SweepRunner

EXPERIMENTS = {
    "table2": lambda scale, runner, config: experiments.table2_platform(),
    "fig6": lambda scale, runner, config: experiments.fig6_speedup(
        scale, config=config, runner=runner
    ),
    "fig7": lambda scale, runner, config: experiments.fig7_scalability(
        scale, config=config, runner=runner
    ),
    "fig8": lambda scale, runner, config: experiments.fig8_snapshot_isolation(
        scale, config=config, runner=runner
    ),
    "fig9": lambda scale, runner, config: experiments.fig9_l1_size(
        scale, config=config, runner=runner
    ),
    "fig10": lambda scale, runner, config: experiments.fig10_latency(
        scale, config=config, runner=runner
    ),
    "gc": lambda scale, runner, config: experiments.gc_overhead(
        scale, config=config, runner=runner
    ),
    "obs": lambda scale, runner, config: experiments.obs_summary(
        scale, config=config, runner=runner
    ),
}


def _run_check_target(scale, config: MachineConfig, budget: int | None):
    from .check.stress import run_check

    return run_check(scale, config, budget=budget)


def _run_faults_target(scale, config: MachineConfig, budget: int | None):
    from .check.stress import run_fault_check

    return run_fault_check(scale, config, budget=budget)


def _run_bench_target(args) -> int:
    from . import perf

    baseline = args.baseline if args.baseline else perf.DEFAULT_BASELINE
    if args.compare:
        tolerance = (
            perf.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
        )
        ok, report = perf.compare(baseline, tolerance)
        print(report)
        if not ok:
            print("PERF: regression gate failed", file=sys.stderr)
            return 1
        return 0
    doc = perf.record(baseline)
    print(perf._format_rows(doc))
    print(f"baselines written to {baseline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        # Dedicated subcommand with its own argument surface (workload
        # positional + export paths); see repro.obs.cli.
        from .obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "recover":
        # Crash-and-recover demonstration; see repro.recovery.cli.
        from .recovery.cli import main as recover_main

        return recover_main(argv[1:])
    if argv and argv[0] == "serve":
        # The sharded MVCC service over repro.sw; see repro.serve.cli.
        from .serve.cli import main_serve

        return main_serve(argv[1:])
    if argv and argv[0] == "loadgen":
        # Load generator against a running service; see repro.serve.cli.
        from .serve.cli import main_loadgen

        return main_loadgen(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the IPDPS 2018 O-structures evaluation.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help=(
            f"experiments to run: {', '.join(EXPERIMENTS)}, 'check', "
            f"'all', or 'list'"
        ),
    )
    parser.add_argument(
        "--scale",
        default="quick",
        choices=("quick", "paper"),
        help="workload scale (paper sizes take hours on a Python simulator)",
    )
    parser.add_argument(
        "-j", "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel simulation workers (default: all host cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate; do not read or write .repro_cache/",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted/crashed sweep from the rows already "
            "persisted in the cache (forces caching on)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-run wall-clock timeout; hung workers are killed and "
            "retried (default: none)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: .repro_cache/)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="OPS",
        help=(
            "checkpoint each in-flight simulation every N versioned ops "
            "so --resume survives kill -9 mid-row (default: off; "
            "images under the cache dir)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "run simulations under the repro.check sanitizer "
            "(differential oracle + invariant checkpoints; ~2x host time)"
        ),
    )
    parser.add_argument(
        "--check-budget",
        type=int,
        default=None,
        metavar="OPS",
        help="ops per random schedule for the 'check' target (CI smoke)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help=(
            "for the 'bench' target: compare against the committed "
            "baselines instead of recording them; exit 1 on regression"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed fractional perf drop for bench --compare (default 0.25)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="bench baseline file (default: benchmarks/baselines.json)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.no_cache:
        parser.error("--resume and --no-cache are mutually exclusive")

    if "bench" in args.targets:
        if args.targets != ["bench"]:
            parser.error("'bench' cannot be combined with other targets")
        return _run_bench_target(args)

    known = list(EXPERIMENTS) + ["check", "faults"]
    if args.targets == ["list"]:
        for name in known:
            print(name)
        return 0

    targets = known if "all" in args.targets else args.targets
    unknown = [t for t in targets if t not in known]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    scale = get_scale(args.scale)
    config = TABLE2
    if args.check:
        config = dataclasses.replace(config, checked=True)
        # Checked runs trip the cache's code-hash anyway, but caching a
        # sanitizer pass would also hide repeat-run violations.
        args.no_cache = True
    try:
        runner = SweepRunner(
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
        )
    except ConfigError as exc:
        parser.error(str(exc))
    violations = 0
    for name in targets:
        before = runner.stats.snapshot()
        start = time.perf_counter()
        if name == "check":
            result = _run_check_target(scale, config, args.check_budget)
            violations += result["violations"]
        elif name == "faults":
            result = _run_faults_target(scale, config, args.check_budget)
            violations += result["violations"]
        else:
            result = EXPERIMENTS[name](scale, runner, config)
        elapsed = time.perf_counter() - start
        print(result["text"])
        print(f"[{name}: {elapsed:.1f}s; {runner.stats.since(before).describe()}]\n")
    if violations:
        print(f"SANITIZER: {violations} violation(s) detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
