"""Record the stats-row digests the benchmark compares against.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Runs one round of every simulator workload for each seed listed under
``seeds.digests_recorded`` in ``perfbench/spec.json`` and writes
``perfbench/digests.json``.  The committed file was taken from the code
the benchmark was defined on; a change that only speeds the program up
must reproduce it byte for byte, so re-record only for a change that is
meant to alter simulated behaviour, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    from simpass import build_members, load_spec, stats_digest

    spec = load_spec()
    out: dict[str, dict[str, dict[str, str]]] = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in spec["sim"]:
            for seed in spec["seeds"]["digests_recorded"]:
                members = build_members(workload, seed, Path(tmp))
                row = {m.name: stats_digest(m.run().stats) for m in members}
                out.setdefault(workload, {})[str(seed)] = row
                print(workload, seed, row, flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
