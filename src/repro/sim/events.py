"""One ordered event channel per machine: every observer and interposer.

Everything that watches or perturbs a running machine — the op
:class:`~repro.sim.trace.Tracer`, the :mod:`repro.obs` span recorder and
metrics, the :mod:`repro.check` sanitizer, the fault injector and the
epoch checkpointer — attaches here, through :meth:`EventChannel.subscribe`
and :meth:`EventChannel.unsubscribe`.  Nothing replaces a method or an
attribute of the machine or its manager at run time.

Each kind holds a tuple of subscribers.  Firing sites read the tuple and
loop over it, so "nobody is listening" costs one attribute load and a
falsy test; (un)subscribing swaps in a new tuple, so a subscriber that
detaches itself (or another) mid-fire never disturbs the loop in flight.

Kinds and their callback signatures:

``op(core_id, task_id, op, latency, stalled)``
    a micro-op retired, or stalled (``stalled=True``, latency 0).
``task(event, task_id, core_id)``
    task lifecycle: ``"begin"``, ``"end"`` or ``"abort"``.
``recovery(event, info)``
    ``"trip"``, ``"abort"``, ``"kick"``, ``"gave_up"`` (watchdog) or
    ``"restore"`` (the first marker of a restored run).
``gc_phase(event)``
    collection phase ``"start"``, ``"end"`` or ``"emergency"``.
``shadow(vaddr, version)`` / ``reclaim(vaddr, version)``
    a version became shadowed / its block was reclaimed by the GC (the
    manager's own compressed-line cleanup runs first, as a direct call).
``drop(vaddr, version)``
    abort rollback removed an uncommitted version.
``outcome(core_id, task_id, op, result)``
    a versioned op finished.  ``op`` is ``(kind, vaddr, arg, ...)`` as
    in :mod:`repro.ostruct.isa` (``("free_ostructure", vaddr)`` for a
    free); ``result`` is the op's payload — the value, ``(version,
    value)`` for the latest family (the version it resolved to), the
    freed count — or, when the op fails, the exception about to be
    raised: a :class:`~repro.ostruct.manager.StallSignal` (the lookup
    blocked on version state) or a refusal (``VersionExistsError`` for a
    duplicate store, ``NotLockedError`` for an unlock by a non-holder).
    ``task_id`` is ``None`` for the plain loads.
``tick()``
    the versioned-op ordinal advanced (once per op, at the latency
    charge).
``wake(vaddr) -> bool``
    waiters on ``vaddr`` are about to be woken; returning True means the
    subscriber took over delivery (dropped or rescheduled it).

Subscribers to a kind fire in attach order, with one exception, fixed
here: a subscriber attached with ``first=True`` goes to the front.  Only
the checkpointer uses it, on ``tick``: it must see every ordinal before
the fault injector (attached earlier, at machine build) does, so that a
marker due on the same ordinal as a ``crash-machine`` fault is scheduled
— and its image written — before the crash fires.  Recovered runs are
byte-identical only under that order.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError

KINDS = (
    "op",
    "task",
    "recovery",
    "gc_phase",
    "shadow",
    "reclaim",
    "drop",
    "outcome",
    "tick",
    "wake",
)


class EventChannel:
    """Per-kind subscriber tuples for one machine."""

    __slots__ = KINDS

    def __init__(self) -> None:
        for kind in KINDS:
            setattr(self, kind, ())

    def subscribe(self, kind: str, fn: Callable, *, first: bool = False) -> None:
        """Attach ``fn`` to ``kind``; attaching it twice raises."""
        subs = getattr(self, kind)
        if fn in subs:
            raise SimulationError(f"{kind} subscriber already attached")
        setattr(self, kind, (fn, *subs) if first else (*subs, fn))

    def unsubscribe(self, kind: str, fn: Callable) -> bool:
        """Detach ``fn`` from ``kind``; True if it was attached.

        Bound methods compare equal when they bind the same function to
        the same object, so ``obj.method`` may be passed afresh.
        """
        subs = getattr(self, kind)
        if fn not in subs:
            return False
        setattr(self, kind, tuple(s for s in subs if s != fn))
        return True

    def emit(self, kind: str, *args) -> None:
        """Fire every subscriber of a low-frequency kind."""
        for fn in getattr(self, kind):
            fn(*args)
