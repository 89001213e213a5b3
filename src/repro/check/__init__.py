"""repro.check — differential oracle + invariant sanitizer.

The sanitizer is the repo's standing defense against semantics bugs
introduced by simulator performance work (the PR-1 direct-entry memo,
batched wake-ups, cached sweeps, ...).  It has two halves:

- :mod:`repro.check.oracle` — every versioned operation executed by the
  hardware-model :class:`~repro.ostruct.manager.OStructureManager` is
  replayed against the pure-software reference in
  :mod:`repro.sw.ostructure` and the results diffed op-by-op;
- :mod:`repro.check.invariants` — structural invariants of the machine
  (sorted duplicate-free version lists, compressed-line consistency,
  memo validity, free-list/GC disjointness, GC reclaim safety) validated
  at configurable checkpoints.

Enable it with ``MachineConfig(checked=True)``, by attaching
``Sanitizer(machine, interval=N)`` to a built machine, or from the CLI
with ``python -m repro <target> --check``.  Violations raise
:class:`~repro.check.sanitizer.CheckViolation` carrying a structured
report (the Tracer tail plus the wait-graph post-mortem).
:mod:`repro.check.stress` drives random ``opgen`` schedules through
every workload under the sanitizer.
"""

from .invariants import check_invariants
from .oracle import DifferentialOracle
from .sanitizer import CheckViolation, Sanitizer
from .stress import run_check

__all__ = [
    "CheckViolation",
    "DifferentialOracle",
    "Sanitizer",
    "check_invariants",
    "run_check",
]
