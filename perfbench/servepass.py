"""One serving pass of the benchmark, run in a fresh process.

Usage (normally launched by ``perfbench/run.py``)::

    python3 perfbench/servepass.py --seed 0 --seconds 20 --trace 0

Every phase starts its own server process (``perfbench/server.py``, the
shipped defaults: 8 shards, 8 op threads, reclamation off) and uses fresh
keys, so no phase reads versions another phase wrote.  Load comes from
this process alone, over 2 pooled connections:

- **closed loop**: 2 workers, one outstanding request each, in chunks of
  a fixed request count, each chunk on fresh keys;
- **fixed rate**: an open loop at a fixed rate, sent from a precomputed
  schedule by a sender thread, each request timed from when it was due;
- **ladder**: open-loop probes at fixed ladder rates, searched for the
  highest rate whose tail latency meets the limit in ``spec.json``.

Every store is recorded in a :class:`~repro.serve.loadgen.ReadChecker`
before it is sent, and every read is checked against it.  Latencies are
kept exactly, one float per request.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from latency import percentile, tail, tail_percentile, windows  # noqa: E402

#: Width of the windows whose medians steady the latency figures.
WINDOW_S = 1.0


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())["serve"]


class ServerProcess:
    """The server in its own process; setup is launch to first PING reply."""

    def __init__(self, trace_out: str = "") -> None:
        self.launched = time.perf_counter()
        cmd = [sys.executable, str(HERE / "server.py")]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        if not ready:
            self.stop()
            raise RuntimeError("server did not report its port within 60 s")
        self.port = json.loads(self.proc.stdout.readline())["port"]

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self) -> bool:
        """Drain and reap the server; True if it drained cleanly."""
        try:
            # communicate() closes standard input, which starts the drain.
            out, _ = self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        lines = out.strip().splitlines()
        return bool(lines) and json.loads(lines[-1]).get("clean", False)


class Tally:
    """Requests attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.failures: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, reason: str, n: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + n


class Phase:
    """One load phase against one server: fresh keys, checker, latencies."""

    def __init__(self, client, name: str, spec: dict):
        from repro.serve.loadgen import ReadChecker

        self.client = client
        self.name = name
        self.spec = spec
        self.tally = Tally()
        self.keys = [f"{name}/k{i}" for i in range(spec["keys_per_phase"])]
        self.checker = ReadChecker()
        #: key -> versions whose store was acknowledged (safe exact reads).
        self.acked: dict[str, list[int]] = {k: [] for k in self.keys}
        #: (completion time, seconds from due or send time, ok) per timed request.
        self.samples: list[tuple[float, float, bool]] = []

    async def seed_keys(self) -> None:
        from repro.serve.loadgen import SETUP_VERSION

        for key in self.keys:
            await self.store(key, SETUP_VERSION, time.perf_counter(), record=False)

    async def call(
        self, op: int, body: dict, t0: float, *,
        read_cap: int | None = None, expect_version: int | None = None,
        record: bool = True,
    ):
        """One request, timed from ``t0``; failures are tallied."""
        from repro.errors import ReproError
        from repro.serve import protocol as P

        self.tally.attempted += 1
        try:
            msg = await self.client.request_raw(op, body)
        except (ReproError, ConnectionError) as exc:
            self.tally.fail(f"transport:{type(exc).__name__}")
            return None
        if record:
            end = time.perf_counter()
            self.samples.append((end, end - t0, msg.code == P.OK))
        if msg.code != P.OK:
            self.tally.fail(msg.status_name)
            return None
        self.tally.ok += 1
        if read_cap is not None or expect_version is not None:
            version = msg.body.get("version")
            if expect_version is not None and version != expect_version:
                self.tally.fail("wrong-version")
                return None
            self.checker.record_read(
                body["key"], version, msg.body.get("value"), cap=read_cap
            )
        return msg

    async def store(self, key: str, version: int, t0: float, record: bool = True) -> None:
        from repro.serve import protocol as P

        value = f"{key}#{version}"
        self.checker.record_store(key, version, value)  # before it is sent
        msg = await self.call(
            P.OP_STORE_VERSION, {"key": key, "version": version, "value": value},
            t0, record=record,
        )
        if msg is not None:
            self.acked[key].append(version)

    async def op(self, kind: str, key: str, version: int | None, t0: float,
                 rng: random.Random) -> None:
        from repro.serve import protocol as P
        from repro.serve.loadgen import NO_CAP

        if kind == "store_version":
            await self.store(key, version, t0)
        elif kind == "load_version" and self.acked[key]:
            want = rng.choice(self.acked[key])
            await self.call(
                P.OP_LOAD_VERSION, {"key": key, "version": want}, t0,
                expect_version=want,
            )
        else:  # load_latest, or an exact read before any store was acked
            await self.call(
                P.OP_LOAD_LATEST, {"key": key, "cap": NO_CAP}, t0, read_cap=NO_CAP
            )

    def absorb(self, other: "Phase") -> None:
        """Add ``other``'s requests and failures to this phase's tally."""
        self.tally.attempted += other.tally.attempted
        self.tally.ok += other.tally.ok
        for reason, n in other.tally.failures.items():
            self.tally.fail(reason, n)

    async def session(self, op: int, tid: int, t0: float) -> None:
        await self.call(op, {"task": tid}, t0)

    def violations(self) -> int:
        found = self.checker.violations()
        if found:
            self.tally.fail("read-violation", len(found))
        return len(found)


def plan(spec: dict, rng: random.Random, n: int, workers: int, worker: int):
    """The op stream of one worker: kinds, keys, versions and sessions.

    Versions come from a worker-partitioned space so two workers never
    store the same version; a session's task id is the next version the
    worker would allocate, and sessions roll every ``session_every`` ops.
    Op weights are those of the shipped ``repro.serve.loadgen`` mix named
    in ``spec.json``; only its key count is replaced by the hot-key count.
    """
    from repro.serve.loadgen import BASE_VERSION, MIXES

    mix = MIXES[spec["mix"]]
    kinds = ["load_latest", "load_version", "store_version"]
    weights = [mix.read_latest, mix.read_exact, mix.store]
    keys = spec["keys_per_phase"]
    allocated = 0

    def frontier() -> int:
        return BASE_VERSION + allocated * workers + worker

    tid = frontier()
    yield ("begin", None, tid)
    for i in range(n):
        if i and i % spec["session_every"] == 0 and frontier() != tid:
            new = frontier()
            yield ("begin", None, new)
            yield ("end", None, tid)
            tid = new
        kind = rng.choices(kinds, weights)[0]
        key = rng.randrange(keys)
        version = None
        if kind == "store_version":
            version = frontier()
            allocated += 1
        yield (kind, key, version)
    yield ("end", None, tid)


async def run_entry(phase: Phase, entry, t0: float, rng: random.Random) -> None:
    from repro.serve import protocol as P

    kind, key, arg = entry
    if kind == "begin":
        await phase.session(P.OP_TASK_BEGIN, arg, t0)
    elif kind == "end":
        await phase.session(P.OP_TASK_END, arg, t0)
    else:
        await phase.op(kind, phase.keys[key], arg, t0, rng)


async def closed_loop(phase: Phase, seconds: float | None, requests: int | None, seed: int):
    """Workers with one outstanding request each, until time or count runs out."""
    workers = phase.spec["closed_loop"]["workers"]
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else math.inf
    budget = [requests // workers + (w < requests % workers) for w in range(workers)] \
        if requests is not None else [10 ** 9] * workers

    async def worker(w: int) -> None:
        rng = random.Random(f"{seed}:{phase.name}:{w}")
        open_sessions: list[int] = []
        for entry in plan(phase.spec, rng, budget[w], workers, w):
            if time.perf_counter() >= deadline:
                break
            if entry[0] == "begin":
                open_sessions.append(entry[2])
            elif entry[0] == "end":
                open_sessions.remove(entry[2])
            await run_entry(phase, entry, time.perf_counter(), rng)
        for tid in open_sessions:  # out of time: close what is still open
            await run_entry(phase, ("end", None, tid), time.perf_counter(), rng)

    await asyncio.gather(*(worker(w) for w in range(workers)))
    return time.perf_counter() - start


async def open_loop(phase: Phase, rate: float, seconds: float, seed: int,
                    max_outstanding: int) -> dict:
    """Send a precomputed schedule at ``rate``; time each request from due.

    A sender thread sleeps to each due time and hands the request to the
    event loop, so a slow reply never delays later sends.  Returns the
    schedule's lateness and whether the generator kept up.
    """
    loop = asyncio.get_running_loop()
    rng = random.Random(f"{seed}:{phase.name}:open")
    entries = list(plan(phase.spec, rng, max(1, int(rate * seconds)), 1, 0))
    interval = 1.0 / rate
    origin = time.perf_counter() + 0.02
    due = [origin + i * interval for i in range(len(entries))]
    late = [0.0] * len(entries)
    state = {"outstanding": 0, "aborted": False, "fired": 0}
    tasks: set[asyncio.Task] = set()

    async def one(i: int) -> None:
        try:
            await run_entry(phase, entries[i], due[i], rng)
        finally:
            state["outstanding"] -= 1

    def fire(i: int) -> None:
        if state["aborted"]:
            return
        late[i] = time.perf_counter() - due[i]
        if state["outstanding"] >= max_outstanding:
            state["aborted"] = True  # a growing backlog: stop offering load
            return
        state["outstanding"] += 1
        state["fired"] += 1
        task = loop.create_task(one(i))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def sender() -> None:
        for i in range(len(entries)):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if state["aborted"]:
                return
            loop.call_soon_threadsafe(fire, i)

    thread = threading.Thread(target=sender, name="open-loop-sender", daemon=True)
    thread.start()
    while thread.is_alive():
        await asyncio.sleep(0.01)
    thread.join()
    await asyncio.sleep(0)  # let the final fire() callbacks run
    while tasks:
        await asyncio.gather(*list(tasks))
    fired_late = sorted(late[: state["fired"]]) or [0.0]
    return {
        "late_p99_ms": percentile(fired_late, 99.0) * 1e3,
        "late_max_ms": fired_late[-1] * 1e3,
        "aborted": state["aborted"],
        "sent": state["fired"],
    }


async def server_stats(client) -> dict:
    from repro.serve import protocol as P

    msg = await client.request_raw(P.OP_STATS, {})
    return msg.body


def run_phase(name: str, spec: dict, body, trace_out: str = ""):
    """Start a fresh server, PING it, seed fresh keys, run ``body(phase)``.

    Setup is the time from launching the server process to the end of
    key seeding.  Returns ``(body result, phase, info)``; ``info`` holds
    ``setup_s``, the server's ``peak_rss_mb`` and its STATS reply.
    """
    from repro.serve import protocol as P
    from repro.serve.client import AsyncServeClient

    server = ServerProcess(trace_out)
    try:
        async def go():
            async with AsyncServeClient(
                "127.0.0.1", server.port, pool_size=spec["closed_loop"]["connections"]
            ) as client:
                await client.request_raw(P.OP_PING, {})
                phase = Phase(client, name, spec)
                await phase.seed_keys()
                setup_s = time.perf_counter() - server.launched
                result = await body(phase)
                phase.violations()
                return result, phase, setup_s, await server_stats(client)

        result, phase, setup_s, stats = asyncio.run(go())
        rss = server.peak_rss_mb()
    finally:
        clean = server.stop()
    if not clean:
        phase.tally.fail("unclean-drain")
    return result, phase, {"setup_s": setup_s, "peak_rss_mb": rss, "stats": stats}


def ladder_rates(ladder: dict) -> list[int]:
    return [
        round(ladder["first_ops_per_s"] * ladder["step_ratio"] ** k)
        for k in range(ladder["steps"])
    ]


async def closed_chunks(base: Phase, spec: dict, seconds: float, seed: int) -> list[float]:
    """Closed-loop chunks of a fixed request count, each on fresh keys,
    while the next chunk still fits in ``seconds``; returns each chunk's
    successful requests per second.

    Every chunk grows its keys' histories from the same start, so chunk
    rates compare like with like.  One time-bounded loop on one key set
    slowed as the histories grew, and the faster it ran early, the longer
    the histories it slowed on later.
    """
    requests = spec["closed_loop"]["chunk_requests"]
    rates: list[float] = []
    start = time.perf_counter()
    chunk_s = 0.0
    while not rates or time.perf_counter() - start + chunk_s <= seconds:
        if rates:
            phase = Phase(base.client, f"{base.name}{len(rates)}", spec)
            await phase.seed_keys()
        else:
            phase = base  # seeded as part of the server's setup
        ok = phase.tally.ok
        chunk_s = await closed_loop(phase, None, requests, seed)
        rates.append((phase.tally.ok - ok) / chunk_s)
        if phase is not base:
            phase.violations()
            base.absorb(phase)
    return rates


async def search_ladder(base: Phase, spec: dict, seed: int) -> list[dict]:
    """Bisect the ladder for the highest step whose open-loop probe passes.

    A probe passes when the generator kept to its schedule, no backlog
    built up, no request failed and the tail met the latency limit.
    Each probe uses fresh keys.  Returns the probes in the order run.
    """
    ladder = spec["ladder"]
    rates = ladder_rates(ladder)
    probes: list[dict] = []
    lo, hi = -1, len(rates)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        phase = Phase(base.client, f"ladder{mid}", spec)
        await phase.seed_keys()
        start = time.perf_counter()
        gen = await open_loop(phase, rates[mid], ladder["probe_s"], seed, ladder["max_outstanding"])
        wall = time.perf_counter() - start
        phase.violations()
        lat_ms = [lat * 1e3 for _, lat, _ in phase.samples]
        value, pct, beyond = tail(lat_ms) if lat_ms else (math.inf, 100.0, 0)
        ok = (
            not gen["aborted"]
            and gen["late_max_ms"] <= spec["max_late_ms"]
            and phase.tally.failed == 0
            and value <= ladder["latency_limit_ms"]
        )
        probes.append({
            "step": mid, "rate": rates[mid], "ok": ok,
            "tail_ms": value, "tail_percentile": pct, "tail_beyond": beyond,
            "achieved_ops_per_s": phase.tally.ok / wall,
            "late_max_ms": gen["late_max_ms"], "aborted": gen["aborted"],
            "attempted": phase.tally.attempted, "failures": phase.tally.failures,
        })
        base.absorb(phase)
        if ok:
            lo = mid
        else:
            hi = mid
    return probes


def untraced(seed: int, seconds: float) -> dict:
    """The measured pass: closed loop, fixed rate, then the ladder."""
    spec = load_spec()
    phases: list[Phase] = []
    setups: list[float] = []

    async def closed(phase):
        return await closed_chunks(phase, spec, spec["closed_loop"]["share_of_run"] * seconds, seed)

    per_chunk, phase, info = run_phase("closed", spec, closed)
    phases.append(phase)
    setups.append(info["setup_s"])
    out: dict[str, Any] = {
        "ops_per_s": statistics.median(per_chunk),
        "closed_chunk_ops_per_s": per_chunk,
    }

    rate = spec["fixed_rate"]["ops_per_s"]

    async def fixed(phase):
        return await open_loop(
            phase, rate, spec["fixed_rate"]["share_of_run"] * seconds, seed,
            spec["ladder"]["max_outstanding"],
        )

    gen, phase, info = run_phase("fixed", spec, fixed)
    phases.append(phase)
    setups.append(info["setup_s"])
    lat_ms = [lat * 1e3 for _, lat, _ in phase.samples]
    per_window = [sorted(lat * 1e3 for _, lat, _ in w) for w in windows(phase.samples, WINDOW_S)]
    # One percentile for every window: the one the smallest window allows.
    pct, beyond = tail_percentile(min(len(w) for w in per_window))
    out.update(
        p50_ms=statistics.median(lat_ms),
        tail_ms=statistics.median(percentile(w, pct) for w in per_window),
        tail_percentile=pct,
        tail_beyond=beyond,
        tail_windows=len(per_window),
        fixed_rate=rate,
        fixed_samples=len(lat_ms),
        peak_rss_mb=info["peak_rss_mb"],
        versions_resident=info["stats"]["store"]["versions"],
        late_p99_ms=gen["late_p99_ms"],
        late_max_ms=gen["late_max_ms"],
        behind=gen["aborted"] or gen["late_max_ms"] > spec["max_late_ms"],
    )

    async def ladder(phase):
        return await search_ladder(phase, spec, seed)

    probes, phase, info = run_phase("ladder", spec, ladder)
    phases.append(phase)
    setups.append(info["setup_s"])
    passing = [p for p in probes if p["ok"]]
    best = max(passing, key=lambda p: p["step"]) if passing else None
    out.update(
        slo_rate_ops_per_s=best["achieved_ops_per_s"] if best else 0.0,
        slo_step_ops_per_s=best["rate"] if best else 0,
        latency_limit_ms=spec["ladder"]["latency_limit_ms"],
        ladder_probes=probes,
        setup_s=statistics.median(setups),
        setups_s=setups,
    )
    _merge_tallies(out, phases)
    return out


def _merge_tallies(out: dict, phases: list[Phase]) -> None:
    failures: dict[str, int] = {}
    for phase in phases:
        for reason, n in phase.tally.failures.items():
            failures[reason] = failures.get(reason, 0) + n
    out["attempted"] = sum(p.tally.attempted for p in phases)
    out["failed"] = sum(failures.values())
    out["failures"] = failures


def install_client_tracer():
    """Span the load generator's side of the frame codec."""
    import repro.serve.protocol as P

    from spans import SpanRecorder

    rec = SpanRecorder()
    rec.wrap(P, "encode", "client.encode", corr=lambda args: args[2])
    rec.wrap(P.FrameDecoder, "feed", "client.decode")
    return rec


def _window(spans: list, start: float, end: float) -> dict[str, list[float]]:
    """name -> durations (s) of spans that started inside [start, end)."""
    out: dict[str, list[float]] = {}
    for _id, name, s, e, _parent, _corr in spans:
        if start <= s < end:
            out.setdefault(name, []).append(e - s)
    return out


def _mean_us(values: list[float]) -> float:
    return statistics.fmean(values) * 1e6 if values else 0.0


def traced(seed: int, trace_dir: Path) -> dict:
    """Per-layer pass: the same closed-loop work untraced, then traced.

    The traced server writes its spans on drain; the load generator's own
    spans stay in this process.  Span clocks are ``time.perf_counter``,
    which is the same monotonic clock in both processes.
    """
    spec = load_spec()
    requests = spec["trace"]["requests"]

    async def closed(phase):
        return await closed_loop(phase, None, requests, seed)

    untraced_wall, phase0, _ = run_phase("closed", spec, closed)

    rec = install_client_tracer()
    window: dict[str, float] = {}
    rate = spec["fixed_rate"]["ops_per_s"]

    async def both(phase):
        window["start"] = time.perf_counter()
        wall = await closed_loop(phase, None, requests, seed)
        window["end"] = time.perf_counter()
        rtt = [lat for _, lat, _ in phase.samples]
        fixed = Phase(phase.client, "fixed", spec)
        await fixed.seed_keys()
        gen = await open_loop(fixed, rate, spec["trace"]["fixed_s"], seed,
                              spec["ladder"]["max_outstanding"])
        fixed.violations()
        for reason, n in fixed.tally.failures.items():
            phase.tally.fail(reason, n)
        phase.tally.attempted += fixed.tally.attempted
        return wall, rtt, gen

    trace_out = trace_dir / f"serve_history-seed{seed}-server.json"
    (traced_wall, rtt, gen), phase1, info = run_phase("closed", spec, both, str(trace_out))
    rec.restore()
    server_doc = json.loads(trace_out.read_text())
    rec.dump(trace_dir / f"serve_history-seed{seed}-client.json")

    server = _window(server_doc["spans"], window["start"], window["end"])
    client = _window(rec.spans, window["start"], window["end"])
    latest = server.get("store.load_latest", [])
    quarter = max(1, len(latest) // 4)
    encodes = server.get("server.encode", []) + client.get("client.encode", [])
    decodes = server.get("server.decode", []) + client.get("client.decode", [])
    # Every frame is encoded once: requests by the client, replies by the server.
    frames = sum(
        totals.get(name, {}).get("calls", 0)
        for totals, name in ((server_doc["totals"], "server.encode"), (rec.totals(), "client.encode"))
    )
    store_s = sum(sum(server.get(f"store.{op}", [])) for op in ("load_latest", "load_version", "store_version"))
    per_request = (store_s + sum(encodes) + sum(decodes)) / max(1, len(rtt))
    stats = info["stats"]
    layers = {
        "serve.protocol.encode_us": _mean_us(encodes),
        # Inside the window each request is one frame decoded on each side.
        "serve.protocol.decode_us": sum(decodes) / max(1, 2 * len(rtt)) * 1e6,
        "serve.protocol.frames": frames,
        "serve.store.load_latest_us.q1": _mean_us(latest[:quarter]),
        "serve.store.load_latest_us.q4": _mean_us(latest[-quarter:]),
        "serve.store.load_version_us": _mean_us(server.get("store.load_version", [])),
        "serve.store.store_version_us": _mean_us(server.get("store.store_version", [])),
        "serve.store.versions_resident": stats["store"]["versions"],
        "serve.store.reclaimed": stats["store"]["reclaimed_versions"],
        "serve.server.residual_us": (statistics.fmean(rtt) - per_request) * 1e6,
        "serve.server.requests": stats["server"]["requests"],
        "serve.server.shed": stats["server"]["shed"],
        "serve.server.timeouts": stats["server"]["timeouts"],
        "loadgen.late_ms": gen["late_p99_ms"],
        "trace.overhead": traced_wall / untraced_wall,
    }
    out = {"layers": layers}
    _merge_tallies(out, [phase0, phase1])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=".perfbench/traces",
                        help="where a traced pass writes both sides' spans")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    # Let the sender thread take the interpreter lock promptly.
    sys.setswitchinterval(0.0005)
    if args.trace:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        result = traced(args.seed, trace_dir)
    else:
        result = untraced(args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
