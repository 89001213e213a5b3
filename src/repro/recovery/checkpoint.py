"""Epoch checkpoints: capture, CRC-guarded images, marker verification.

One :class:`Checkpoint` is a full structural snapshot of a machine taken
at a deterministic point — the N-th versioned operation, the same
ordinal clock the fault injector triggers on — covering every mutable
subsystem: the event engine's counters, the stats, the whole version
store (lists, compressed lines, page table as runs of pages, free list
as its released stack plus carved range), the GC's shadowed/pending
queues and epoch pin, the task tracker, the cores' scheduling state,
and any rwlocks.  The snapshot is pure data (ints, strings, tuples), so
it pickles; its SHA-256 digest is the run's identity at that marker.

Capture is incremental.  Versions are write-once (§II-A), so between
two markers only the addresses the manager and GC marked dirty (a block
inserted, removed, locked, unlocked or shadowed) can have changed; the
:class:`StoreCache` re-canonicalises exactly those and reuses the rest,
and the new epoch pin is built from the same cached entries.
:func:`capture_state` without a cache is the full walk, kept as the
reference: the state the cache yields must equal it in value, key order
and digest, and with ``config.checked`` the checkpointer asserts so at
every marker.

Each marker pickles its state exactly once (:func:`encode_state`); the
same bytes feed the SHA-256 digest and the image.  On-disk image format
(``ckpt-NNNNNN.img``)::

    MAGIC (8 bytes) | CRC32 of payload (4 bytes, big-endian) | payload

where the payload is the pickled dict of replay coordinates (marker,
cadence, op index, cycle, code version) whose ``encoded`` entry holds
the state's pickle verbatim; the digest is recomputed from it on read.
The CRC detects the ``corrupt-block`` fault (and real bit rot): a
damaged image reads as :class:`CheckpointError` and recovery falls back
to the previous valid image.  Images are written atomically — temp
file, flush+fsync, rename, directory fsync — so a writer killed at any
instruction leaves either the old state or the new state, never a
truncated image (the same guarantee the sweep runner's row cache makes,
hardened here too).

The :class:`Checkpointer` drives capture from inside a live machine.  It
subscribes to the machine's ``tick`` event (repro.sim.events: once per
versioned op, the ordinal the fault injector counts too) and, at every
multiple of ``every``, defers a *marker event* via
``sim.schedule(0, ...)`` so the version store is quiescent when the walk
happens.  At a marker it always does the same deterministic things —
bump ``stats.checkpoints_reached``, capture the state (including the
pin of the epoch it closes), pin the GC's reclaim bound at the current
version frontier — and then either *writes* the image (capture mode) or
*compares digests* against a surviving image of a previous incarnation
of the same run (verify mode, used during restore).  Because both modes
schedule the same events and mutate the same state, a verified replay
is byte-identical to the run that wrote the images.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import CheckpointError, ConfigError
from ..ostruct.page_table import page_runs

if TYPE_CHECKING:  # pragma: no cover
    from ..ostruct.manager import OStructureManager
    from ..ostruct.version_block import VersionList
    from ..sim.machine import Machine

#: Image file magic ("repro o-structure checkpoint", format version 2:
#: the state travels pre-encoded, see :class:`Checkpoint`).
MAGIC = b"ROCKPT2\n"

#: Pickle protocol pinned for digest stability across interpreter runs.
_PICKLE_PROTOCOL = 4


# ---------------------------------------------------------------------------
# State walk.
# ---------------------------------------------------------------------------


def _canon(value: Any) -> Any:
    """A canonical, picklable stand-in for one stored value.

    Workloads store ints (keys and simulated pointers); anything exotic
    falls back to ``repr`` so the walk never fails mid-capture.
    """
    if value is None or isinstance(value, (int, float, str, bool, bytes)):
        return value
    if isinstance(value, tuple):
        return tuple(_canon(v) for v in value)
    return repr(value)


def _canon_list(vlist: "VersionList") -> tuple:
    """One address's canonical version-store entry, head to tail."""
    head = vlist.head
    return tuple(
        (
            block.version,
            _canon(block.value),
            block.locked_by,
            block.shadowed,
            block.shadowed_by,
            block is head,
            block.paddr,
        )
        for block in vlist
    )


class StoreCache:
    """The version store's canonical entries, kept current incrementally.

    Versions are write-once (§II-A): only the manager and GC points that
    insert, remove, lock, unlock or shadow a block change an address's
    entry, and each of them adds the address to ``manager.dirty``.
    :meth:`refresh` re-canonicalises exactly those addresses, so a
    capture costs O(addresses changed since the last one) in list walks.
    :func:`capture_state` without a cache is the full walk this must
    always equal.
    """

    __slots__ = ("manager", "_entries", "_pairs", "_pin", "_pin_sorted")

    def __init__(self, manager: "OStructureManager"):
        self.manager = manager
        #: vaddr -> :func:`_canon_list` of its version list.
        self._entries: dict[int, tuple] = {}
        #: vaddr -> its ``(vaddr, version)`` pairs, ascending.
        self._pairs: dict[int, tuple[tuple[int, int], ...]] = {}
        #: The last pin :meth:`pin` built, and its sorted form.
        self._pin: frozenset[tuple[int, int]] | None = None
        self._pin_sorted: tuple[tuple[int, int], ...] = ()
        manager.dirty.update(manager.lists)

    def refresh(self) -> None:
        """Re-canonicalise every address marked dirty since the last call."""
        lists = self.manager.lists
        dirty = self.manager.dirty
        entries = self._entries
        pairs = self._pairs
        for vaddr in dirty:
            vlist = lists.get(vaddr)
            if vlist is None:
                entries.pop(vaddr, None)
                pairs.pop(vaddr, None)
                continue
            entry = entries[vaddr] = _canon_list(vlist)
            pairs[vaddr] = tuple(sorted((vaddr, blk[0]) for blk in entry))
        dirty.clear()

    def version_store(self) -> dict[int, tuple]:
        """The ``version_store`` of a capture, in ``manager.lists`` order."""
        self.refresh()
        entries = self._entries
        return {vaddr: entries[vaddr] for vaddr in self.manager.lists}

    def pin(self) -> frozenset[tuple[int, int]]:
        """A new epoch pin: every live ``(vaddr, version)``, built from
        the cached entries rather than a walk over the lists."""
        self.refresh()
        pairs = self._pairs
        self._pin_sorted = tuple(
            itertools.chain.from_iterable(pairs[vaddr] for vaddr in sorted(pairs))
        )
        self._pin = frozenset(self._pin_sorted)
        return self._pin

    def sorted_pin(
        self, pin: frozenset[tuple[int, int]] | None
    ) -> tuple[tuple[int, int], ...] | None:
        """:func:`_sorted_pin`, free when ``pin`` is the last one built."""
        if pin is not None and pin is self._pin:
            return self._pin_sorted
        return _sorted_pin(pin)


def _sorted_pin(
    pin: frozenset[tuple[int, int]] | None,
) -> tuple[tuple[int, int], ...] | None:
    return tuple(sorted(pin)) if pin is not None else None


def capture_state(
    machine: "Machine", cache: StoreCache | None = None
) -> dict[str, Any]:
    """Walk every mutable subsystem into a plain, deterministic dict.

    The walk is read-only (it must not perturb the run it snapshots) and
    emits only primitives in deterministic order, so pickling the result
    yields identical bytes for identical machine states.  With a
    ``cache`` the version store comes from the cache's incremental
    entries; without one every list is walked (the reference the cache
    is checked against).
    """
    sim = machine.sim
    mgr = machine.manager
    gc = machine.gc
    tracker = machine.tracker

    if cache is None:
        version_store = {
            vaddr: _canon_list(vlist) for vaddr, vlist in mgr.lists.items()
        }
        pages = page_runs(machine.page_table._versioned_pages)
        pin = _sorted_pin(gc.epoch_pin)
    else:
        version_store = cache.version_store()
        pages = machine.page_table.runs()
        pin = cache.sorted_pin(gc.epoch_pin)
    compressed = tuple(
        tuple(
            (vaddr, tuple(entry.line.versions()))
            for vaddr, entry in sorted(core_direct.items())
        )
        for core_direct in mgr._direct
    )
    return {
        # Engine bookkeeping (event sequence numbers, pending-queue size)
        # is deliberately NOT captured: an environment fault's event —
        # e.g. the deferred crash-machine raise — can sit scheduled but
        # unfired when a same-cycle marker captures, and the replay,
        # whose config no longer carries the already-fired crash, must
        # still digest-match.  The clock and the executed-event count
        # are real state; the queue internals are not.
        "engine": {
            "now": sim.now,
            "executed_total": sim.executed_total,
        },
        "stats": machine.stats.snapshot(),
        "retired_ops": machine.retired_ops,
        "version_store": version_store,
        "compressed_lines": compressed,
        "waiters": tuple(
            (vaddr, len(cbs))
            for vaddr, cbs in sorted(mgr._waiters.items())
            if cbs
        ),
        "created": tuple(
            (task, tuple(pairs)) for task, pairs in sorted(mgr._created.items())
        ),
        "roots": tuple(sorted(mgr.roots)),
        "page_table": pages,
        "free_list": machine.free_list.snapshot(),
        "gc": {
            "shadowed": tuple(
                (vlist.vaddr, block.version) for block, vlist in gc._shadowed
            ),
            "pending": tuple(
                (vlist.vaddr, block.version) for block, vlist in gc._pending
            ),
            "phase_active": gc.phase_active,
            "recorded_youngest": gc._recorded_youngest,
            "enabled": gc.enabled,
            "pin": pin,
            "pin_drops": gc.pin_drops,
        },
        "tracker": {
            "live": tuple(sorted(tracker.live_ids)),
            "active": tuple(sorted(tracker.active_ids)),
            "max_seen": tracker.max_seen,
            "begun": tracker.begun,
            "ended": tracker.ended,
        },
        "cores": tuple(
            (
                core.core_id,
                core.busy_cycles,
                core.current.task_id if core.current is not None else None,
                tuple(task.task_id for task in core.queue),
                core.blocked,
                core._blocked_addr if core.blocked else None,
            )
            for core in machine.cores
        ),
        "rwlocks": tuple(
            (
                lock.name,
                lock.addr,
                tuple(sorted(lock._readers)),
                lock._writer,
                tuple((mode, core_id) for mode, core_id, _cb, _t in lock._queue),
            )
            for lock in machine.rwlocks
        ),
        "heap": {
            "conventional_used": machine.heap.conventional_used,
            "versioned_used": machine.heap.versioned_used,
        },
        "mem": tuple(
            (addr, _canon(value)) for addr, value in sorted(machine.mem.items())
        ),
    }


def encode_state(state: dict[str, Any]) -> bytes:
    """The canonical pickle of a captured state: the bytes its digest
    covers and its image stores."""
    return pickle.dumps(state, protocol=_PICKLE_PROTOCOL)


def state_digest(state: dict[str, Any]) -> str:
    """SHA-256 over the canonical pickle of a captured state."""
    return hashlib.sha256(encode_state(state)).hexdigest()


# ---------------------------------------------------------------------------
# Images.
# ---------------------------------------------------------------------------


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see old bytes or new bytes.

    temp file in the same directory -> write -> flush -> fsync ->
    rename -> fsync(dir).  A writer killed (``kill -9``) at any point
    leaves at most a ``*.tmp`` straggler, never a partial ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Checkpoint:
    """One epoch image: replay coordinates + the encoded state + its digest.

    ``encoded`` is :func:`encode_state` of the captured state, pickled
    once: the digest is its SHA-256 and the image stores it verbatim.
    ``state`` unpickles it on first use (a captured checkpoint already
    holds the dict).
    """

    def __init__(
        self,
        *,
        marker: int,
        every: int,
        op_index: int,
        cycle: int,
        encoded: bytes,
        code_version: str,
        state: dict[str, Any] | None = None,
    ):
        self.marker = marker
        self.every = every
        self.op_index = op_index
        self.cycle = cycle
        self.encoded = encoded
        self.digest = hashlib.sha256(encoded).hexdigest()
        self.code_version = code_version
        self._state = state

    @property
    def state(self) -> dict[str, Any]:
        if self._state is None:
            self._state = pickle.loads(self.encoded)
        return self._state

    @classmethod
    def capture(
        cls,
        machine: "Machine",
        *,
        marker: int = 0,
        every: int = 0,
        cache: StoreCache | None = None,
    ) -> "Checkpoint":
        """Snapshot ``machine`` right now (read-only; see
        :func:`capture_state` for ``cache``)."""
        from ..harness.runner import code_version

        state = capture_state(machine, cache)
        ckpt = machine.checkpointer
        return cls(
            marker=marker,
            every=every,
            op_index=ckpt.op_index
            if ckpt is not None
            else machine.stats.versioned_ops,
            cycle=machine.sim.now,
            encoded=encode_state(state),
            code_version=code_version(),
            state=state,
        )

    def verify(self, machine: "Machine") -> bool:
        """Does ``machine``'s current state digest match this image?"""
        return state_digest(capture_state(machine)) == self.digest

    # -- serialisation -------------------------------------------------------

    def _payload(self) -> dict[str, Any]:
        return {
            "marker": self.marker,
            "every": self.every,
            "op_index": self.op_index,
            "cycle": self.cycle,
            "encoded": self.encoded,
            "code_version": self.code_version,
        }

    def write(self, path: str | Path) -> Path:
        """Atomically write the CRC-guarded image; returns the path."""
        payload = pickle.dumps(self._payload(), protocol=_PICKLE_PROTOCOL)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        atomic_write_bytes(Path(path), MAGIC + crc.to_bytes(4, "big") + payload)
        return Path(path)

    @classmethod
    def read(cls, path: str | Path) -> "Checkpoint":
        """Read and validate an image; :class:`CheckpointError` on damage."""
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint image {path}: {exc}")
        if len(raw) < len(MAGIC) + 4 or not raw.startswith(MAGIC):
            raise CheckpointError(f"checkpoint image {path} has a bad header")
        crc = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 4], "big")
        payload = raw[len(MAGIC) + 4 :]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CheckpointError(
                f"checkpoint image {path} failed its CRC check (corrupt)"
            )
        try:
            doc = pickle.loads(payload)
        except Exception as exc:  # pickle raises a zoo of types
            raise CheckpointError(f"checkpoint image {path} unpicklable: {exc}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise CheckpointError(f"checkpoint image {path} malformed: {exc}")


def image_path(directory: str | Path, marker: int) -> Path:
    return Path(directory) / f"ckpt-{marker:06d}.img"


def load_images(
    directory: str | Path, *, every: int | None = None
) -> tuple[dict[int, Checkpoint], int]:
    """Read every valid image in ``directory``; ``(by_marker, corrupt)``.

    Corrupt or unreadable images are skipped and counted — that is the
    fallback path for the ``corrupt-block`` fault.  Images written by a
    different code version or a different marker cadence are *stale*,
    not corrupt: they describe a run this one cannot be compared to, so
    they are silently ignored.
    """
    from ..harness.runner import code_version

    directory = Path(directory)
    if not directory.is_dir():
        return {}, 0
    images: dict[int, Checkpoint] = {}
    corrupt = 0
    current = code_version()
    for path in sorted(directory.glob("ckpt-*.img")):
        try:
            ck = Checkpoint.read(path)
        except CheckpointError:
            corrupt += 1
            continue
        if ck.code_version != current:
            continue
        if every is not None and ck.every != every:
            continue
        images[ck.marker] = ck
    return images, corrupt


def find_latest_valid_image(
    directory: str | Path, *, every: int | None = None
) -> Checkpoint | None:
    """The highest-marker valid image in ``directory``, or ``None``."""
    images, _corrupt = load_images(directory, every=every)
    return images[max(images)] if images else None


# ---------------------------------------------------------------------------
# The in-machine driver.
# ---------------------------------------------------------------------------


class Checkpointer:
    """Captures (or verifies) an epoch checkpoint every N versioned ops.

    Subscribes to the ``tick`` event ahead of every other subscriber
    (the one ordering exception repro.sim.events documents): a marker
    due on the same ordinal as an injected crash is scheduled before
    the crash.  The actual marker work is deferred to a fresh delay-0
    event because the tick fires mid-dispatch, while the version store
    is still being mutated by the op in flight.

    ``verify`` maps marker numbers to images from a previous incarnation
    of the same run; at those markers the checkpointer compares digests
    instead of writing, raising :class:`CheckpointError` on divergence
    (determinism is the entire restore guarantee, so a mismatch must be
    loud).  Markers with no image to verify are captured as usual.
    """

    def __init__(
        self,
        machine: "Machine",
        directory: str | Path,
        every: int,
        *,
        verify: dict[int, Checkpoint] | None = None,
        announce: dict[str, Any] | None = None,
    ):
        if every < 1:
            raise ConfigError("checkpoint interval must be >= 1 versioned op")
        self.machine = machine
        self.directory = Path(directory)
        self.every = int(every)
        self.verify = dict(verify or {})
        #: Info dict fired once as a ``recovery`` "restore" event at the
        #: first marker (repro.obs span integration for restores).
        self.announce = dict(announce) if announce else None
        self.op_index = 0
        self.marker = 0
        #: Markers whose image this run wrote / verified.
        self.captured: list[int] = []
        self.verified: list[int] = []
        self._marker_pending = False
        self._cache = StoreCache(machine.manager)
        machine.events.subscribe("tick", self._on_tick, first=True)
        machine.checkpointer = self

    def _on_tick(self) -> None:
        self.op_index += 1
        if not self._marker_pending and self.op_index % self.every == 0:
            # Defer to a fresh event: the op that brought us here is
            # still mid-dispatch and the store is not yet quiescent.
            self._marker_pending = True
            self.machine.sim.schedule(0, self._at_marker)

    # -- marker work ---------------------------------------------------------

    def _at_marker(self) -> None:
        self._marker_pending = False
        self.marker += 1
        marker = self.marker
        m = self.machine
        m.stats.checkpoints_reached += 1
        if self.announce is not None:
            info, self.announce = self.announce, None
            m.events.emit("recovery", "restore", info)
        ck = Checkpoint.capture(
            m, marker=marker, every=self.every, cache=self._cache
        )
        pin = self._cache.pin()
        if m.config.checked:
            self._audit(ck, pin)
        # Pin the GC's reclaim bound at this epoch's version frontier:
        # nothing live at this marker may be reclaimed until the next
        # marker advances the pin (see repro.ostruct.gc).  The capture
        # above holds the pin of the epoch it closes.
        m.gc.epoch_pin = pin
        ref = self.verify.get(marker)
        if ref is not None:
            if ref.digest != ck.digest:
                raise CheckpointError(
                    f"replay diverged from checkpoint image at marker "
                    f"{marker} (op {self.op_index}, cycle {m.sim.now}): "
                    f"digest {ck.digest[:12]} != recorded {ref.digest[:12]}"
                )
            self.verified.append(marker)
        else:
            ck.write(image_path(self.directory, marker))
            self.captured.append(marker)

    def _audit(self, ck: Checkpoint, pin: frozenset[tuple[int, int]]) -> None:
        """The sanitizer's check (``config.checked``): the incremental
        capture must encode to exactly the full walk's bytes, and the
        new pin must hold exactly the versions a walk finds."""
        m = self.machine
        full = capture_state(m)
        if encode_state(full) != ck.encoded:
            keys = [k for k in full if full[k] != ck.state.get(k)]
            raise CheckpointError(
                f"incremental capture diverged from the full walk at marker "
                f"{ck.marker}: {', '.join(keys) or 'key order'} differ"
            )
        walked = frozenset(
            (vaddr, block.version)
            for vaddr, vlist in m.manager.lists.items()
            for block in vlist
        )
        if pin != walked:
            raise CheckpointError(
                f"incremental epoch pin diverged from the version store at "
                f"marker {ck.marker}"
            )

    # -- lifecycle -----------------------------------------------------------

    def detach(self) -> None:
        """Stop counting ops.  Idempotent."""
        self.machine.events.unsubscribe("tick", self._on_tick)
        if self.machine.checkpointer is self:
            self.machine.checkpointer = None
