"""The sanitizer: op-level differential checking plus invariant checkpoints.

:class:`Sanitizer` attaches to a machine through its event channel
(:mod:`repro.sim.events`).  Its one ``outcome`` handler sees every
versioned operation (and ``free_ostructure``) after the hardware model
ran it — including stalls and refusals — and replays it against the
software reference via the
:class:`~repro.check.oracle.DifferentialOracle`; every ``interval``
checked ops the structural invariants of
:mod:`repro.check.invariants` are validated as well.  A ``reclaim``
handler audits Section III-B safety for every reclaimed block before
mirroring the reclaim into the reference.

The manager fires outcomes for its *internal* calls too — a renaming
``unlock_version`` runs its own ``store_version`` — so the rename's
store is mirrored exactly once, in order, before the unlock.

On any disagreement a :class:`CheckViolation` is raised carrying a
structured report: the violated facts, the offending op, the simulated
cycle, the tail of the ops the sanitizer checked (the interleaving *is*
the bug report), and the wait-graph post-mortem.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from ..ostruct import isa
from ..ostruct.manager import StallSignal
from .invariants import check_invariants
from .oracle import DifferentialOracle

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine


class CheckViolation(SimulationError):
    """The sanitizer observed a divergence or invariant violation."""

    def __init__(
        self,
        kind: str,
        problems: list[str],
        *,
        op: tuple | None = None,
        cycle: int = 0,
        ops_checked: int = 0,
        trace_tail: list[str] | None = None,
        post_mortem: str = "",
    ):
        self.kind = kind
        self.problems = list(problems)
        self.op = op
        self.cycle = cycle
        self.ops_checked = ops_checked
        self.trace_tail = list(trace_tail or [])
        self.post_mortem = post_mortem
        super().__init__(self.render())

    def __reduce__(self):
        # Keyword-only fields need explicit reconstruction, or crossing a
        # process-pool boundary re-raises a TypeError instead of this.
        return (
            _rebuild_violation,
            (
                self.kind,
                self.problems,
                self.op,
                self.cycle,
                self.ops_checked,
                self.trace_tail,
                self.post_mortem,
            ),
        )

    def render(self) -> str:
        lines = [
            f"sanitizer violation [{self.kind}] at cycle {self.cycle} "
            f"({self.ops_checked} ops checked)"
        ]
        if self.op is not None:
            lines.append(f"  op: {self.op!r}")
        for p in self.problems:
            lines.append(f"  - {p}")
        if self.trace_tail:
            lines.append("  trace tail:")
            lines.extend(f"    {t}" for t in self.trace_tail)
        if self.post_mortem:
            lines.append("  wait graph:")
            lines.extend(f"    {t}" for t in self.post_mortem.splitlines())
        return "\n".join(lines)


def _rebuild_violation(kind, problems, op, cycle, ops_checked, trace_tail, post_mortem):
    return CheckViolation(
        kind,
        problems,
        op=op,
        cycle=cycle,
        ops_checked=ops_checked,
        trace_tail=trace_tail,
        post_mortem=post_mortem,
    )


class Sanitizer:
    """Differential + invariant checker wired into one machine.

    Registers itself as ``machine.sanitizer``, whose terminal sweep
    ``Machine.run`` performs.
    """

    def __init__(
        self,
        machine: "Machine",
        *,
        interval: int = 256,
        trace_tail: int = 24,
    ):
        self.machine = machine
        self.oracle = DifferentialOracle()
        #: Structural invariants are validated every ``interval`` checked
        #: ops (0 disables periodic checkpoints; the final sweep remains).
        self.interval = interval
        self.ops_checked = 0
        self.checkpoints_run = 0
        #: The last ``trace_tail`` outcomes seen, for violation reports:
        #: ``(cycle, core_id, task_id, op, result)``.
        self.tail: deque[tuple] = deque(maxlen=trace_tail)
        machine.sanitizer = self
        events = machine.events
        events.subscribe("outcome", self._on_outcome)
        events.subscribe("reclaim", self._on_reclaim)
        events.subscribe("drop", self._on_abort_drop)

    # -- lifecycle -----------------------------------------------------------

    def uninstall(self) -> None:
        """Stop checking (fault-injection tests)."""
        events = self.machine.events
        events.unsubscribe("outcome", self._on_outcome)
        events.unsubscribe("reclaim", self._on_reclaim)
        events.unsubscribe("drop", self._on_abort_drop)

    def finish(self) -> None:
        """Terminal sweep: full invariants plus a whole-state model diff."""
        problems = check_invariants(self.machine)
        problems += self.oracle.compare_all(self.machine.manager)
        self._require(not problems, "final-sweep", problems, None)
        self.checkpoints_run += 1

    def check_now(self) -> None:
        """On-demand checkpoint (equivalent to the periodic one)."""
        self._checkpoint(force=True)

    # -- internals -----------------------------------------------------------

    def _require(
        self, ok: bool, kind: str, problems: list[str], op: tuple | None
    ) -> None:
        if ok:
            return
        from ..sim import waitgraph

        try:
            pm = waitgraph.post_mortem(self.machine)
        except Exception as exc:  # pragma: no cover - diagnostics only
            pm = f"(post-mortem unavailable: {exc})"
        raise CheckViolation(
            kind,
            problems,
            op=op,
            cycle=self.machine.sim.now,
            ops_checked=self.ops_checked,
            trace_tail=[_describe(*entry) for entry in self.tail],
            post_mortem=pm,
        )

    def _checkpoint(self, force: bool = False) -> None:
        self.ops_checked += 1
        if not force and (
            self.interval <= 0 or self.ops_checked % self.interval
        ):
            return
        problems = check_invariants(self.machine)
        self._require(not problems, "invariant-checkpoint", problems, None)
        self.checkpoints_run += 1

    # -- the outcome event ---------------------------------------------------

    def _on_outcome(
        self, core_id: int | None, task_id: int | None, op: tuple, result: Any
    ) -> None:
        self.tail.append((self.machine.sim.now, core_id, task_id, op, result))
        oracle = self.oracle
        kind, vaddr = op[0], op[1]
        if isinstance(result, StallSignal):
            if kind == isa.LOAD_VERSION or kind == isa.LOCK_LOAD_VERSION:
                problems = oracle.expect_blocked_exact(vaddr, op[2])
            else:
                problems = oracle.expect_blocked_latest(vaddr, op[2])
            self._require(not problems, "divergence", problems, op)
            return
        if isinstance(result, SimulationError):
            if kind == isa.STORE_VERSION:
                problems = oracle.expect_store_conflict(vaddr, op[2])
            else:
                problems = oracle.expect_not_locked(vaddr, op[2], task_id)
            self._require(not problems, "divergence", problems, op)
            return
        if kind == isa.LOAD_VERSION:
            problems = oracle.expect_exact(vaddr, op[2], result)
        elif kind == isa.LOAD_LATEST:
            problems = oracle.expect_latest(vaddr, op[2], *result)
        elif kind == isa.STORE_VERSION:
            problems = oracle.mirror_store(vaddr, op[2], op[3])
        elif kind == isa.LOCK_LOAD_VERSION:
            problems = oracle.mirror_lock_exact(vaddr, op[2], task_id, result)
        elif kind == isa.LOCK_LOAD_LATEST:
            problems = oracle.mirror_lock_latest(vaddr, op[2], task_id, *result)
        elif kind == isa.UNLOCK_VERSION:
            # A renaming unlock's new version was mirrored by the store
            # outcome the manager fired first; this only releases the lock.
            problems = oracle.mirror_unlock(vaddr, op[2], task_id)
        else:
            problems = oracle.mirror_free(vaddr, result)
        self._require(not problems, "divergence", problems, op)
        self._checkpoint()

    # -- GC auditing ---------------------------------------------------------

    def _on_reclaim(self, vaddr: int, version: int) -> None:
        # Live tasks above max_seen are future consumers the renaming
        # protocols address by exact version; the GC contract protects
        # latest-reads only for ids within the begun window.
        problems = self.oracle.check_reclaim(
            vaddr,
            version,
            self.machine.tracker.live_ids,
            max_protected=self.machine.tracker.max_seen,
        )
        self._require(
            not problems, "gc-safety", problems, ("gc_reclaim", vaddr, version)
        )
        self.oracle.mirror_reclaim(vaddr, version)

    def _on_abort_drop(self, vaddr: int, version: int) -> None:
        # Abort rollback is exempt from the reclaim liveness audit (the
        # drop is deliberate; waiters re-stall until the retry recreates
        # the version) but must still track the reference model.
        problems = self.oracle.mirror_drop(vaddr, version)
        self._require(
            not problems, "abort-rollback", problems, ("abort_drop", vaddr, version)
        )


def _describe(
    cycle: int, core_id: int | None, task_id: int | None, op: tuple, result: Any
) -> str:
    """One tail line: ``[cycle] c0 t3 load_latest @0x40 (5,) -> (4, 'x')``."""
    who = "".join(
        f" {tag}{n}" for tag, n in (("c", core_id), ("t", task_id)) if n is not None
    )
    shown = type(result).__name__ if isinstance(result, Exception) else repr(result)
    return f"[{cycle:>8}]{who} {op[0]} @0x{op[1]:x} {op[2:]!r} -> {shown}"
