"""One simulator pass of the benchmark, run in a fresh process.

Usage (normally launched by ``perfbench/run.py``)::

    python3 perfbench/simpass.py --workload paper_versioned --seed 0 \
        --seconds 20 --trace 0

The pass derives every input from ``--seed`` with the program's public
generators, then runs the workload's members (or, with ``--member``, one
of them) round after round until ``--seconds`` of host time are spent;
``--seconds 0`` runs one round.  With ``--setup-reps N`` each round also
times every member's set-up alone N times: the member runs until it
calls ``Machine.run``, which then stops it.
Each member calls a workload entry point directly — never the sweep
runner or its result cache — and is checked against the sequential
reference and, for a recorded seed, against the committed digest of its
stats row.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def member_seed(seed: int, member: dict) -> int:
    """The member's input seed: the same for versioned and baseline runs."""
    return zlib.crc32(f"{seed}:{member['member']}:{member['size']}".encode()) % (1 << 31)


def stats_digest(stats: Any) -> str:
    row = json.dumps(stats.snapshot(), sort_keys=True)
    return hashlib.sha256(row.encode()).hexdigest()


def micro_ops(stats: Any) -> int:
    return stats.compute_ops + stats.loads + stats.stores + stats.versioned_ops


@dataclasses.dataclass
class Member:
    """One simulation of a workload: how to run it and how to check it."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def build_members(
    workload: str, seed: int, work_dir: Path, only: int | None = None
) -> list[Member]:
    """The workload's members with inputs derived from ``seed``; with
    ``only``, just that member (the others' inputs are not built)."""
    from repro.config import TABLE2
    from repro.workloads import hash_table, levenshtein, linked_list, rb_tree
    from repro.workloads.base import FIRST_TASK_ID, run_variant
    from repro.workloads.opgen import (
        READ_INTENSIVE,
        WRITE_INTENSIVE,
        generate_ops,
        initial_keys,
        reference_results,
    )
    from repro.runtime.task import Task

    spec = load_spec()["sim"][workload]
    variant, cores = spec["variant"], spec["cores"]
    mixes = {m.name: m for m in (READ_INTENSIVE, WRITE_INTENSIVE)}
    modules = {"linked_list": linked_list, "hash_table": hash_table, "rb_tree": rb_tree}
    members = []
    for index, m in enumerate(spec["members"]):
        if only is not None and index != only:
            continue
        mseed = member_seed(seed, m)
        if m["member"] == "levenshtein":
            s1, s2 = levenshtein.make_strings(m["length"], mseed)
            # PAPER row width, rows trimmed to the run length.
            s1 = s1[: m["rows"]]
            expected = levenshtein.reference(s1, s2)
            versioned = variant == "versioned"

            def run(s1=s1, s2=s2, versioned=versioned):
                def setup(machine):
                    return levenshtein.LevenshteinWorkload(machine, s1, s2, versioned)

                def make_tasks(machine, wl):
                    if not versioned:
                        return [Task(0, wl.sequential_program, label="lev-seq")]
                    return [
                        Task(FIRST_TASK_ID + i, wl.row_task, i, label=f"lev-row{i}")
                        for i in range(wl.rows)
                    ]

                cfg = TABLE2.with_cores(cores if versioned else 1)
                out = run_variant("levenshtein", variant, cfg, setup, make_tasks)
                out.final_state = out.results[-1]
                return out

            def check(out, expected=expected):
                if out.final_state != expected:
                    return f"edit distance {out.final_state} != reference {expected}"
                return None

            members.append(Member("levenshtein", run, check))
            continue

        key_space = m["elements"] * m["key_space_factor"]
        init = initial_keys(m["elements"], key_space, mseed)
        ops = generate_ops(m["ops"], mixes[m["mix"]], key_space, mseed)
        ref_results, ref_final = reference_results(init, ops)
        mod = modules[m["member"]]
        if variant == "unversioned":
            run = lambda mod=mod, init=init, ops=ops: mod.run_unversioned(TABLE2, init, ops)
        else:
            run = lambda mod=mod, init=init, ops=ops: mod.run_versioned(TABLE2, init, ops, cores)

        def check(out, ref_results=ref_results, ref_final=ref_final):
            if list(out.results) != ref_results:
                bad = sum(a != b for a, b in zip(out.results, ref_results))
                return f"{bad} op results differ from the sequential reference"
            if out.final_state is not None and list(out.final_state) != ref_final:
                return "final contents differ from the sequential reference"
            return None

        if "checkpoint_every" in spec:
            run = _recovering(run, init, ops, cores, spec["checkpoint_every"], work_dir)
        members.append(Member(m["member"], run, check))
    return members


def _recovering(plain_run, init, ops, cores, every, work_dir: Path):
    """Wrap ``plain_run`` in RecoveryPolicy with one crash at the middle op."""
    from repro.config import TABLE2
    from repro.faults.spec import FaultSpec
    from repro.recovery.policy import RecoveryPolicy
    from repro.workloads import rb_tree

    # The crash ordinal is the middle of an uncheckpointed run's versioned
    # ops; this calibration run is preparation, not measured.
    middle = max(1, plain_run().stats.versioned_ops // 2)
    cfg = dataclasses.replace(TABLE2, faults=(FaultSpec(kind="crash-machine", at=middle),))

    def run():
        directory = work_dir / "ckpt"
        shutil.rmtree(directory, ignore_errors=True)
        policy = RecoveryPolicy(directory, every)
        out, report = policy.execute(
            lambda c: rb_tree.run_versioned(c, init, ops, cores), cfg
        )
        out.recovery = report
        return out

    return run


class SetupDone(Exception):
    """Raised on entry to ``Machine.run`` while only set-up is timed."""


class RunClock:
    """Host time spent inside ``Machine.run``, read and reset by :meth:`take`.

    While :attr:`setup_only` is set, ``Machine.run`` raises
    :class:`SetupDone` instead of running.
    """

    def __init__(self) -> None:
        from repro.sim.machine import Machine

        self.seconds = 0.0
        self.setup_only = False
        original = Machine.run
        clock = self

        def run(machine, *args, **kwargs):
            if clock.setup_only:
                raise SetupDone
            start = time.perf_counter()
            try:
                return original(machine, *args, **kwargs)
            finally:
                clock.seconds += time.perf_counter() - start

        Machine.run = run

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds

    def setup(self, member: Member) -> float:
        """Host seconds from starting ``member`` to its ``Machine.run`` call:
        machine construction plus initial structures."""
        self.setup_only = True
        start = time.perf_counter()
        try:
            member.run()
        except SetupDone:
            return time.perf_counter() - start
        finally:
            self.setup_only = False
        raise RuntimeError(f"{member.name} never called Machine.run")


def install_tracer():
    """Wrap each simulator layer's public functions in spans."""
    import repro.recovery.checkpoint as ckpt
    import repro.sim.core as core
    from repro.ostruct.compression import CompressedLine
    from repro.ostruct.gc import GarbageCollector
    from repro.ostruct.manager import OStructureManager
    from repro.sim.engine import Simulator
    from repro.sim.hierarchy import MemoryHierarchy

    from spans import SpanRecorder

    rec = SpanRecorder()
    state = {"events": 0, "image_bytes": 0}
    rec.wrap(Simulator, "run", "sim.engine")
    rec.after["sim.engine"] = lambda args, result, s, e: state.__setitem__(
        "events", state["events"] + (result or 0)
    )
    rec.wrap_factory(core, "make_interpreter", "sim.fuse")
    for op in (
        "load_version", "load_latest", "store_version",
        "lock_load_version", "lock_load_latest", "unlock_version",
    ):
        rec.wrap(OStructureManager, op, "ostruct.manager")
    rec.wrap(CompressedLine, "get", "ostruct.compression")
    rec.wrap(CompressedLine, "put", "ostruct.compression")
    rec.wrap(MemoryHierarchy, "access", "sim.hierarchy")
    for fn in ("start_phase", "reclaim_pending", "emergency_collect"):
        rec.wrap(GarbageCollector, fn, "ostruct.gc")
    rec.wrap(ckpt, "capture_state", "recovery.capture")
    rec.wrap(ckpt, "state_digest", "recovery.digest")
    rec.wrap(ckpt.Checkpoint, "write", "recovery.pickle")
    rec.wrap(ckpt, "atomic_write_bytes", "recovery.write")
    rec.after["recovery.write"] = lambda args, result, s, e: state.__setitem__(
        "image_bytes", state["image_bytes"] + len(args[1])
    )
    return rec, state


def layer_metrics(rec, state, runs: list[Any]) -> dict[str, float]:
    """The simulator's per-layer metrics from one traced round."""
    totals = rec.totals()

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return int(totals.get(name, {}).get("calls", 0))

    def stat(field):
        return sum(getattr(r.stats, field) for r in runs)

    fuse = {k: sum(r.fuse[k] for r in runs) for k in ("ops", "fused_ops", "op_breaks", "event_breaks")}
    events = state["events"]
    mgr_ops = calls("ostruct.manager")
    lookups = stat("direct_hits") + stat("full_lookups")
    l1 = stat("l1_hits") + stat("l1_misses")
    reports = [r.recovery for r in runs if getattr(r, "recovery", None) is not None]
    markers = sum(r.captured_images + r.verified_markers for r in reports)
    ckpt_s = sum(self_s(n) for n in ("recovery.capture", "recovery.digest", "recovery.pickle", "recovery.write"))
    out = {
        "sim.engine.events": events,
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.us_per_event": self_s("sim.engine") / events * 1e6 if events else 0.0,
        "sim.fuse.block_s": self_s("sim.fuse"),
        "sim.fuse.ops": fuse["ops"],
        "sim.fuse.fused_share": fuse["fused_ops"] / fuse["ops"] if fuse["ops"] else 0.0,
        "sim.fuse.op_breaks": fuse["op_breaks"],
        "sim.fuse.event_breaks": fuse["event_breaks"],
        "ostruct.manager.op_s": self_s("ostruct.manager"),
        "ostruct.manager.ops": mgr_ops,
        "ostruct.manager.us_per_op": self_s("ostruct.manager") / mgr_ops * 1e6 if mgr_ops else 0.0,
        "ostruct.manager.direct_hit_rate": stat("direct_hits") / lookups if lookups else 0.0,
        "ostruct.manager.walk_blocks": stat("lookup_blocks_visited"),
        "ostruct.manager.stall_cycles": stat("versioned_stall_cycles"),
        "ostruct.compression.s": self_s("ostruct.compression"),
        "ostruct.compression.calls": calls("ostruct.compression"),
        "sim.hierarchy.access_s": self_s("sim.hierarchy"),
        "sim.hierarchy.accesses": calls("sim.hierarchy"),
        "sim.hierarchy.l1_hit_rate": stat("l1_hits") / l1 if l1 else 0.0,
        "sim.hierarchy.invalidations": stat("invalidations"),
        "ostruct.gc.s": self_s("ostruct.gc"),
        "ostruct.gc.phases": stat("gc_phases"),
        "ostruct.gc.reclaimed": stat("gc_reclaimed"),
        "recovery.capture_s": self_s("recovery.capture"),
        "recovery.digest_s": self_s("recovery.digest"),
        "recovery.pickle_s": self_s("recovery.pickle"),
        "recovery.write_s": self_s("recovery.write"),
        "recovery.markers": markers,
        "recovery.ms_per_marker": ckpt_s / markers * 1e3 if markers else 0.0,
        "recovery.image_bytes": state["image_bytes"],
        "recovery.verified_markers": sum(r.verified_markers for r in reports),
    }
    for i in range(3):
        run = runs[i] if i < len(runs) else None
        out[f"model.m{i}.cycles"] = run.stats.cycles if run else 0
        out[f"model.m{i}.ops"] = micro_ops(run.stats) if run else 0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--member", type=int, default=None,
                        help="run only this member (index into the workload's list)")
    parser.add_argument("--setup-reps", type=int, default=0,
                        help="set-up-only repetitions of each member per round")
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)

    members = build_members(args.workload, args.seed, work_dir, args.member)
    digests = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    expected = digests.get(str(args.seed))

    rec = state = None
    if args.trace:
        rec, state = install_tracer()
    clock = RunClock()
    fuse_seen: list = []

    def observe(machine):
        fuse_seen.append(machine.fuse_stats)

    from repro.sim.machine import add_machine_observer

    add_machine_observer(observe)

    records: list[dict] = []
    setups: list[dict] = []
    traced_runs: list[Any] = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, member in enumerate(members):
            if rec is not None:
                rec.corr = index
            # Collect the previous member's garbage now, so that a
            # collection of it never lands inside this member's timing.
            gc.collect()
            clock.take()
            fuse_seen.clear()
            error = None
            out = None
            try:
                out = member.run()
            except Exception as exc:  # a member that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            record = {"member": member.name, "run_s": clock.take()}
            if out is not None:
                error = member.check(out)
                digest = stats_digest(out.stats)
                record.update(
                    micro_ops=micro_ops(out.stats),
                    cycles=out.stats.cycles,
                    digest=digest,
                )
                if error is None and expected is not None and expected.get(member.name) != digest:
                    error = f"stats row digest {digest[:12]} != committed {str(expected.get(member.name))[:12]}"
                if rec is not None:
                    out.fuse = {
                        k: sum(getattr(f, k) for f in fuse_seen)
                        for k in ("ops", "fused_ops", "op_breaks", "event_breaks")
                    }
                    traced_runs.append(out)
            record["error"] = error
            records.append(record)
            del out
        if peak_rss_mb is None:
            # The high-water mark after the first round: a fixed amount of
            # work from a fresh process, so it does not drift with the
            # round count or with memory earlier rounds left fragmented.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for member in members:
            for _ in range(args.setup_reps):
                gc.collect()
                try:
                    setups.append({"member": member.name, "setup_s": clock.setup(member)})
                except Exception:
                    break  # the member's full repetition has recorded this failure
        round_s = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + 0.5 * round_s >= args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "digest_checked": expected is not None,
        "records": records,
        "setups": setups,
        "elapsed_s": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb,
    }
    if rec is not None:
        rec.restore()
        result["layers"] = layer_metrics(rec, state, traced_runs)
        if args.trace_out:
            rec.dump(args.trace_out)
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
