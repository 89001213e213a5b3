"""Run the serving layer, with its shipped defaults, for one benchmark phase.

Usage (normally launched by ``perfbench/servepass.py`` from the root of
a checkout)::

    python3 perfbench/server.py [--trace-out PATH]

Prints ``{"port": N}`` once listening.  Closing standard input (or
SIGTERM) drains the server; with ``--trace-out`` the server side's spans
(frame codec and store operations) are then written to PATH.  The last
line printed is ``{"clean": bool}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def install_tracer():
    """Span the server side: frame codec and the store's versioned ops."""
    import repro.serve.protocol as P
    from repro.serve.store import ShardedStore

    from spans import SpanRecorder

    rec = SpanRecorder()
    rec.wrap(P, "encode", "server.encode", corr=lambda args: args[2])
    rec.wrap(P.FrameDecoder, "feed", "server.decode")
    for op in ("load_latest", "load_version", "store_version"):
        rec.wrap(ShardedStore, op, f"store.{op}", corr=lambda args: args[1])
    return rec


async def serve(trace_out: str) -> bool:
    from repro.serve.server import start_server

    rec = install_tracer() if trace_out else None
    server = await start_server()
    print(json.dumps({"port": server.port}), flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def on_stdin() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
    clean = await server.drain()
    if rec is not None:
        rec.restore()
        rec.dump(trace_out)
    return clean


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    clean = asyncio.run(serve(args.trace_out))
    print(json.dumps({"clean": clean}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
