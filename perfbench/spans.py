"""In-memory span recorder for the traced benchmark pass.

The benchmark never edits the program to trace it.  Instead it replaces
public functions (class attributes, or module attributes such as
``repro.sim.core.make_interpreter``) with thin wrappers that record one
span per call: name, start, end, parent span and the shared id of the
simulation member or request in progress.  Self time — a span's duration
minus the part its child spans cover — is accumulated per name as each
span closes, so the per-layer totals cover every call even when the
retained span list is capped to bound memory.

Spans are kept per thread (the server runs store operations on a pool),
held in memory and written out once, by :meth:`SpanRecorder.dump`, when
the pass ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Spans retained in memory for the written trace; totals cover all spans.
KEEP = 200_000


class _ThreadState:
    __slots__ = ("stack", "totals")

    def __init__(self) -> None:
        #: Open spans: [name, start, child_seconds, span_id].
        self.stack: list[list] = []
        #: name -> [calls, total_s, self_s].
        self.totals: dict[str, list] = {}


class SpanRecorder:
    """Wraps callables in timing spans and aggregates their self times."""

    def __init__(self) -> None:
        #: (span_id, name, start, end, parent_id, corr) tuples, oldest first.
        self.spans: list[tuple] = []
        self.dropped = 0
        #: Shared id stamped on every span: the member index or request id.
        self.corr: Any = None
        # next() on itertools.count is atomic under the interpreter lock.
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._undo: list[tuple[Any, str, Any]] = []
        #: Optional per-name hooks ``fn(args, result, start, end)`` run after
        #: a call returns; used for counts that only the arguments carry.
        self.after: dict[str, Callable] = {}

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def timed(
        self, name: str, fn: Callable, corr: Callable[[tuple], Any] | None = None
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``corr(args)`` gives the span's shared id where the arguments carry
        it (a frame's request id); otherwise the recorder's current
        :attr:`corr` is used.  A call made while a span of the same name is
        already innermost is passed straight through, so a layer calling
        its own public entry points counts once.
        """
        perf = time.perf_counter
        recorder = self
        ids = self._ids

        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = next(ids)
            frame = [name, perf(), 0.0, span_id]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                start = frame[1]
                duration = end - start
                agg = state.totals.get(name)
                if agg is None:
                    agg = state.totals[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][3]
                if len(recorder.spans) < KEEP:
                    recorder.spans.append(
                        (span_id, name, start, end, parent,
                         recorder.corr if corr is None else corr(args))
                    )
                else:
                    recorder.dropped += 1
                hook = recorder.after.get(name)
                if hook is not None:
                    hook(args, result, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(
        self, owner: Any, attr: str, name: str,
        corr: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        # A class's own function, not a bound or inherited lookup result.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, corr))

    def wrap_factory(self, owner: Any, attr: str, name: str) -> None:
        """Replace factory ``owner.attr`` so every callable it builds is timed."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))

        def factory(*args, **kwargs):
            return self.timed(name, original(*args, **kwargs))

        setattr(owner, attr, factory)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} summed over threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.totals.items():
                row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
        return out

    def dump(self, path: str | Path) -> None:
        """Write the retained spans and the totals as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "corr"],
            "spans": self.spans,
            "dropped": self.dropped,
            "totals": self.totals(),
        }
        path.write_text(json.dumps(doc))
