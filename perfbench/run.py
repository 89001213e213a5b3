"""The repository benchmark: one command per workload, every metric named.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_versioned --seed 0 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``paper_versioned``: linked_list large 4R-1W, hash_table large 1R-1W
  and Levenshtein small, versioned on 32 simulated cores at PAPER sizes;
- ``paper_baseline``: the same inputs, unversioned on one core;
- ``ckpt_recover``: rb_tree small 4R-1W on 2 cores under
  ``RecoveryPolicy`` with checkpoints every 32 versioned ops and one
  machine crash at the middle versioned op;
- ``serve_history``: the serving layer in its own process under a
  closed loop, a fixed-rate open loop and an SLO rate ladder.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same work untraced and then traced, each in a fresh process, and
reports the per-layer metrics plus the tracing overhead.  Every pass
runs in a fresh process pinned to one CPU; an untraced run measures the
same work on two CPUs at once (two lanes) and pools their samples.
Every output is checked.  Human-readable lines
go first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
each run, with the Python version, ``nproc`` and the code identity, is
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIM_WORKLOADS = ("paper_versioned", "paper_baseline", "ckpt_recover")
WORKLOADS = SIM_WORKLOADS + ("serve_history",)
#: Every run must end within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: Set-up-only repetitions of each member per round of an untraced pass.
SETUP_REPS = 3
#: Most lanes an untraced run measures on at once, one CPU each.
MAX_LANES = 2


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def code_identity(root: Path) -> dict:
    """The git commit when there is one, and the program's source hash."""
    sys.path.insert(0, str(root / "src"))
    from repro.harness.runner import code_version

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "code_version": code_version()}


def lane_cpus(lanes: int) -> list[int | None]:
    """A CPU for each of up to ``lanes`` lanes, from those this process may use.

    A lane is a sequence of passes pinned to one CPU, so a server and its
    load generator never wake each other across CPUs (on a small virtual
    machine that made closed-loop throughput bimodal).  Over seconds, the
    host's speed drifted on each CPU independently, so an untraced run
    measures the same work on two lanes at once and pools their samples.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return [None]  # no affinity control here: one unpinned lane
    return cpus[-lanes:]


def _child_setup(cpu: int | None):
    """Child setup: pin to ``cpu`` and receive SIGKILL if this process dies."""

    def setup() -> None:
        import ctypes

        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG

    return setup


def run_pass(script: str, args: list[str], deadline: float, cpu: int | None) -> dict:
    """Run one pass in a fresh process on ``cpu``; return its final JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run budget exhausted before the pass started")
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE, text=True, timeout=timeout,
        preexec_fn=_child_setup(cpu),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_lanes(cpus: list[int | None], lane) -> list:
    """Run ``lane(index, cpu)`` for every CPU at once; return their results."""
    with ThreadPoolExecutor(len(cpus)) as pool:
        futures = [pool.submit(lane, i, cpu) for i, cpu in enumerate(cpus)]
        return [f.result() for f in futures]


def sim_metrics(probes: list[dict], timed: list[dict]) -> dict:
    """End-to-end metrics of a simulator workload.

    ``probes`` are the one-round passes, one fresh process per member;
    ``timed`` are the passes, one per lane, that repeat all members
    round-robin for the rest of the run.  Samples are pooled over lanes.

    - ``setup_s``: each member's median set-up-only repetition (machine
      construction and initial structures, timed up to ``Machine.run``),
      summed over members;
    - ``ops_per_s``: the geometric mean over members of each member's
      median repetition, in simulated micro-ops per host second inside
      ``Machine.run`` (the geometric mean keeps one long member from
      outweighing the others);
    - ``peak_rss_mb``: the largest member's peak memory in its probe
      process, which started from a clean interpreter.
    """
    by_member: dict[str, list[dict]] = {}
    setups: dict[str, list[float]] = {}
    for result in [*probes, *timed]:
        for record in result["records"]:
            by_member.setdefault(record["member"], []).append(record)
        for record in result["setups"]:
            setups.setdefault(record["member"], []).append(record["setup_s"])
    rates, reps = [], []
    for records in by_member.values():
        ok = [r for r in records if not r["error"] and r["run_s"] > 0]
        rates.append(statistics.median(r["micro_ops"] / r["run_s"] for r in ok) if ok else 0.0)
        reps.append(len(records))
    return {
        "setup_s": sum(statistics.median(times) for times in setups.values()),
        "ops_per_s": math.prod(rates) ** (1.0 / len(rates)),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in probes),
        "members": list(by_member),
        "member_ops_per_s": rates,
        "repetitions": reps,
    }


def serve_metrics(lanes: list[dict]) -> dict:
    """End-to-end metrics of the serving passes, one per lane (see
    servepass.untraced), with samples pooled over lanes."""
    return {
        "setup_s": statistics.median(s for r in lanes for s in r["setups_s"]),
        "ops_per_s": statistics.median(c for r in lanes for c in r["closed_chunk_ops_per_s"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in lanes),
    }


def sim_report(values: dict) -> list[str]:
    """The simulator's figures beside the gated ones: each member's rate."""
    lines = [f"  {'sim_ops_per_s':36s} {values['ops_per_s']:>16.6g} 1/s"]
    for name, rate, reps in zip(values["members"], values["member_ops_per_s"], values["repetitions"]):
        lines.append(f"    {name:34s} {rate:>16.6g} 1/s  (median of {reps})")
    return lines


def serve_report(values: dict, lanes: list[dict]) -> list[str]:
    """The serving figures beside the gated ones: closed-loop throughput,
    and per lane the latency from due time, the SLO ladder and how late
    the generator ran."""
    chunks = sum(len(r["closed_chunk_ops_per_s"]) for r in lanes)
    lines = [
        f"  {'serve_ops_per_s':36s} {values['ops_per_s']:>16.6g} 1/s  "
        f"(median of {chunks} closed-loop chunks over {len(lanes)} lanes)",
    ]
    for lane, result in enumerate(lanes):
        validity = "" if not result["behind"] else "  INVALID: generator fell behind"
        lines += [
            f"  lane {lane}:",
            f"    {'p50_ms':34s} {result['p50_ms']:>16.6g} ms  "
            f"({result['fixed_samples']} requests at {result['fixed_rate']} ops/s){validity}",
            f"    {'tail_ms':34s} {result['tail_ms']:>16.6g} ms  "
            f"(median over {result['tail_windows']} one-second windows of each window's "
            f"p{result['tail_percentile']:g}, >= {result['tail_beyond']} samples beyond){validity}",
            f"    {'slo_rate_ops_per_s':34s} {result['slo_rate_ops_per_s']:>16.6g} 1/s  "
            f"(tail limit {result['latency_limit_ms']} ms; ladder step {result['slo_step_ops_per_s']} ops/s)",
            f"    {'loadgen.late_ms':34s} {result['late_p99_ms']:>16.6g} ms  "
            f"(p99; max {result['late_max_ms']:.3f} ms)",
        ]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {root / 'src' / 'repro'}; run from a checkout's root")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    refused = [name for name in spec["refused_env"] if name in os.environ]
    if refused:
        return fail(f"refusing to run with {', '.join(refused)} set: it changes the program path")

    state_dir = root / ".perfbench"
    work_root = state_dir / "work" / f"{args.workload}-{os.getpid()}"
    # The traced run compares a traced pass with an untraced one: one lane.
    cpus = lane_cpus(1 if args.trace else MAX_LANES)
    common = ["--seed", str(args.seed)]
    try:
        if args.workload in SIM_WORKLOADS:
            def sim(lane: int) -> list[str]:
                return ["--workload", args.workload, *common, "--work-dir", str(work_root / f"lane{lane}")]

            if args.trace:
                base = run_pass("simpass.py", [*sim(0), "--seconds", "0", "--trace", "0"], deadline, cpus[0])
                result = run_pass(
                    "simpass.py",
                    [*sim(0), "--seconds", "0", "--trace", "1",
                     "--trace-out", str(state_dir / "traces" / f"{args.workload}-seed{args.seed}.json")],
                    deadline, cpus[0],
                )
                result["layers"]["trace.overhead"] = result["elapsed_s"] / base["elapsed_s"]
                result["records"] += base["records"]
                passes = [result]
            else:
                count = len(spec["sim"][args.workload]["members"])
                reps = ["--setup-reps", str(SETUP_REPS)]

                def lane(index: int, cpu: int | None) -> tuple[list[dict], dict]:
                    # One probe process per member, shared out over the
                    # lanes, so each member's peak memory starts from a
                    # clean interpreter rather than from what an earlier
                    # member left fragmented; then one process per lane
                    # repeats all members round-robin, spreading each
                    # member's repetitions over the whole run.
                    probes = [
                        run_pass("simpass.py", [*sim(index), *reps, "--member", str(m), "--seconds", "0"],
                                 deadline, cpu)
                        for m in range(index, count, len(cpus))
                    ]
                    remaining = max(0.0, args.seconds - (time.monotonic() - started))
                    timed = run_pass("simpass.py", [*sim(index), *reps, "--seconds", str(remaining)],
                                     deadline, cpu)
                    return probes, timed

                lanes = run_lanes(cpus, lane)
                probes = [p for lane_probes, _ in lanes for p in lane_probes]
                timed = [t for _, t in lanes]
                passes = probes + timed
            records = [r for p in passes for r in p["records"]]
            failures = [f"{r['member']}: {r['error']}" for r in records if r["error"]]
            attempted, failed = len(records), len(failures)
        else:
            serve = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--trace-dir", str(state_dir / "traces")]
            passes = run_lanes(cpus, lambda index, cpu: run_pass("servepass.py", serve, deadline, cpu))
            result = passes[0]
            failures = [f"{reason}: {n}" for p in passes for reason, n in p["failures"].items()]
            attempted = sum(p["attempted"] for p in passes)
            failed = sum(p["failed"] for p in passes)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(f"{args.workload} pass failed: {exc}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    extra: list[str] = []
    if args.trace:
        metrics = bench["per_layer"]
        values = {m["name"]: result["layers"].get(m["name"], 0) for m in metrics}
    else:
        metrics = bench["end_to_end"]
        if args.workload in SIM_WORKLOADS:
            figures = sim_metrics(probes, timed)
            extra = sim_report(figures)
        else:
            figures = serve_metrics(passes)
            extra = serve_report(figures, passes)
        values = {m["name"]: figures[m["name"]] for m in metrics}
    units = {m["name"]: m["unit"] for m in metrics}

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **code_identity(root),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"commit {env['git_commit'] or '-'}  code {env['code_version']}")
    idle = [name for name, value in values.items() if args.trace and value == 0]
    for name, value in values.items():
        if name not in idle:
            print(f"  {name:36s} {value:>16.6g} {units[name]}")
    if idle:
        print(f"  ({len(idle)} per-layer metrics read 0: idle on this workload)")
    for line in extra:
        print(line)
    print(f"  {'error_rate':36s} {failed / max(1, attempted):>16.6g} fraction ({failed} of {attempted})")
    for line in failures:
        print(f"  FAILED {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": values,
        "passes": passes,
        "wall_s": time.monotonic() - started,
    }
    results_dir = state_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1)
    )

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
