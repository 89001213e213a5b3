"""Differential oracle: the hardware model vs the software reference.

The oracle maintains one :class:`~repro.sw.ostructure.SWOStructure` per
versioned address and mirrors every operation the hardware-model manager
completes.  Because the manager runs single-threaded inside the event
simulator, the mirror uses the non-blocking ``try_*`` probes — "would
this op complete right now, and with what result?" — so the two models
are compared at identical points in the simulated interleaving.

Every method returns a list of problem strings (empty on agreement); the
:class:`~repro.check.sanitizer.Sanitizer` turns non-empty results into a
:class:`~repro.check.sanitizer.CheckViolation`.

Mirroring rules worth spelling out:

- **Stalls must agree.**  When the hardware raises ``StallSignal``, the
  software probe must also report not-ready; a hardware stall the
  reference would have satisfied is a lost wake-up / stale-cache bug,
  and a hardware completion the reference would have blocked is a
  premature read (e.g. of a locked or reclaimed version).
- **Renaming unlocks mirror in two steps.**  The manager's
  ``unlock_version(new_version=...)`` internally calls its own
  ``store_version``, which fires its own ``outcome`` event first — so
  the nested store mirrors the rename and ``mirror_unlock`` only
  releases the lock.
- **GC reclaims are checked before they are mirrored**: at reclaim time
  the version must be shadowed, unlocked, and invisible to every live
  task's LOAD-LATEST — the paper's Section III-B safety argument,
  enforced mechanically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from ..sw.ostructure import SWOStructure

if TYPE_CHECKING:  # pragma: no cover
    from ..ostruct.manager import OStructureManager


class DifferentialOracle:
    """Software shadow of every O-structure the manager serves."""

    def __init__(self) -> None:
        #: vaddr -> software reference structure.
        self.structs: dict[int, SWOStructure] = {}
        self.ops_mirrored = 0

    def _sw(self, vaddr: int) -> SWOStructure:
        sw = self.structs.get(vaddr)
        if sw is None:
            sw = SWOStructure(f"sw@0x{vaddr:x}")
            self.structs[vaddr] = sw
        return sw

    # -- completed-op mirrors ------------------------------------------------

    def mirror_store(self, vaddr: int, version: int, value: Any) -> list[str]:
        self.ops_mirrored += 1
        sw = self._sw(vaddr)
        if version in sw._versions:
            return [
                f"hw created version {version} of 0x{vaddr:x} but the "
                f"reference already holds it (duplicate creation)"
            ]
        sw.store_version(version, value)
        return []

    def expect_exact(self, vaddr: int, version: int, value: Any) -> list[str]:
        """Hardware LOAD-VERSION completed with ``value``."""
        self.ops_mirrored += 1
        probe = self._sw(vaddr).try_load_version(version)
        if probe is None:
            return [
                f"hw served LOAD-VERSION {version} of 0x{vaddr:x} -> "
                f"{value!r} but the reference says the version "
                f"{self._why_not_exact(vaddr, version)}"
            ]
        if probe[0] != value:
            return [
                f"LOAD-VERSION {version} of 0x{vaddr:x}: hw={value!r} "
                f"reference={probe[0]!r}"
            ]
        return []

    def expect_latest(
        self, vaddr: int, cap: int, version: int, value: Any
    ) -> list[str]:
        """Hardware LOAD-LATEST(cap) completed with ``(version, value)``."""
        self.ops_mirrored += 1
        probe = self._sw(vaddr).try_load_latest(cap)
        if probe is None:
            return [
                f"hw served LOAD-LATEST <= {cap} of 0x{vaddr:x} -> "
                f"v{version}={value!r} but the reference would block"
            ]
        if probe != (version, value):
            return [
                f"LOAD-LATEST <= {cap} of 0x{vaddr:x}: hw=v{version}="
                f"{value!r} reference=v{probe[0]}={probe[1]!r}"
            ]
        return []

    def mirror_lock_exact(
        self, vaddr: int, version: int, task_id: int, value: Any
    ) -> list[str]:
        self.ops_mirrored += 1
        probe = self._sw(vaddr).try_lock_load_version(version, task_id)
        if probe is None:
            return [
                f"hw granted LOCK-LOAD-VERSION {version} of 0x{vaddr:x} "
                f"to task {task_id} but the reference says the version "
                f"{self._why_not_exact(vaddr, version)}"
            ]
        if probe[0] != value:
            return [
                f"LOCK-LOAD-VERSION {version} of 0x{vaddr:x}: "
                f"hw={value!r} reference={probe[0]!r}"
            ]
        return []

    def mirror_lock_latest(
        self, vaddr: int, cap: int, task_id: int, version: int, value: Any
    ) -> list[str]:
        self.ops_mirrored += 1
        probe = self._sw(vaddr).try_lock_load_latest(cap, task_id)
        if probe is None:
            return [
                f"hw granted LOCK-LOAD-LATEST <= {cap} of 0x{vaddr:x} to "
                f"task {task_id} but the reference would block"
            ]
        if probe != (version, value):
            # The reference locked the wrong version: undo so later
            # comparisons diff against consistent state.
            self._sw(vaddr)._locked.pop(probe[0], None)
            return [
                f"LOCK-LOAD-LATEST <= {cap} of 0x{vaddr:x}: hw=v{version}="
                f"{value!r} reference=v{probe[0]}={probe[1]!r}"
            ]
        return []

    def mirror_unlock(self, vaddr: int, version: int, task_id: int) -> list[str]:
        """Hardware UNLOCK-VERSION completed (rename already mirrored)."""
        self.ops_mirrored += 1
        sw = self._sw(vaddr)
        holder = sw.locker_of(version)
        if holder != task_id:
            return [
                f"hw unlocked version {version} of 0x{vaddr:x} for task "
                f"{task_id} but the reference holder is {holder}"
            ]
        sw._locked.pop(version, None)
        return []

    # -- error-path agreement ------------------------------------------------

    def expect_blocked_exact(self, vaddr: int, version: int) -> list[str]:
        """Hardware stalled an exact-version access; reference must agree."""
        probe = self._sw(vaddr).try_load_version(version)
        if probe is not None:
            return [
                f"hw stalled on version {version} of 0x{vaddr:x} but the "
                f"reference would serve {probe[0]!r} (lost wake-up or "
                f"stale lookup state)"
            ]
        return []

    def expect_blocked_latest(self, vaddr: int, cap: int) -> list[str]:
        probe = self._sw(vaddr).try_load_latest(cap)
        if probe is not None:
            return [
                f"hw stalled on LOAD-LATEST <= {cap} of 0x{vaddr:x} but "
                f"the reference would serve v{probe[0]}={probe[1]!r}"
            ]
        return []

    def expect_store_conflict(self, vaddr: int, version: int) -> list[str]:
        """Hardware rejected a duplicate store; reference must agree."""
        if version not in self._sw(vaddr)._versions:
            return [
                f"hw rejected STORE-VERSION {version} of 0x{vaddr:x} as a "
                f"duplicate but the reference has no such version"
            ]
        return []

    def expect_not_locked(self, vaddr: int, version: int, task_id: int) -> list[str]:
        """Hardware rejected an unlock; reference holder must differ too."""
        holder = self._sw(vaddr).locker_of(version)
        if holder == task_id:
            return [
                f"hw rejected task {task_id}'s unlock of version {version} "
                f"of 0x{vaddr:x} but the reference shows it as the holder"
            ]
        return []

    # -- GC / lifecycle mirrors ----------------------------------------------

    def check_reclaim(
        self,
        vaddr: int,
        version: int,
        live_tasks: Iterable[int],
        max_protected: int | None = None,
    ) -> list[str]:
        """Safety audit of one GC reclaim, *before* it is mirrored.

        A reclaim is flagged when a live task could still select
        ``version`` through a capped LOAD-LATEST.  ``max_protected``
        bounds which live tasks count: the GC's phase contract only
        covers ids up to ``tracker.max_seen`` — versions *above* that
        bound were renamed into existence for designated future
        consumers (e.g. the ticket protocol renaming the root to the
        next mutator's id), and intermediate tasks coordinate with such
        addresses by exact version, not latest.  ``None`` protects every
        live task (the conservative default for direct use).
        """
        sw = self.structs.get(vaddr)
        if sw is None or version not in sw._versions:
            return [
                f"gc reclaimed version {version} of 0x{vaddr:x} unknown "
                f"to the reference model"
            ]
        problems = []
        if sw.is_locked(version):
            problems.append(
                f"gc reclaimed locked version {version} of 0x{vaddr:x} "
                f"(held by task {sw.locker_of(version)})"
            )
        if version == max(sw._versions):
            problems.append(
                f"gc reclaimed the latest version {version} of 0x{vaddr:x} "
                f"(nothing shadows it)"
            )
        for task in live_tasks:
            if max_protected is not None and task > max_protected:
                continue
            if sw._latest_at_or_below(task) == version:
                problems.append(
                    f"gc reclaimed version {version} of 0x{vaddr:x} while "
                    f"live task {task} can still read it via LOAD-LATEST "
                    f"(Section III-B safety violation)"
                )
        return problems

    def mirror_reclaim(self, vaddr: int, version: int) -> None:
        sw = self.structs.get(vaddr)
        if sw is not None and not sw.is_locked(version):
            sw.drop_version(version)

    def mirror_drop(self, vaddr: int, version: int) -> list[str]:
        """Hardware rolled back an aborted task's uncommitted version.

        Unlike a GC reclaim this is not subject to the Section III-B
        liveness audit — the abort path *deliberately* destroys a
        version other tasks may have been waiting for (they re-stall
        until the retry recreates it).  The drop must still target a
        version the reference knows and that is unlocked (the abort
        releases the victim's locks first).
        """
        sw = self.structs.get(vaddr)
        if sw is None or version not in sw._versions:
            return [
                f"abort dropped version {version} of 0x{vaddr:x} unknown "
                f"to the reference model"
            ]
        if sw.is_locked(version):
            return [
                f"abort dropped version {version} of 0x{vaddr:x} while "
                f"still locked by task {sw.locker_of(version)}"
            ]
        sw.drop_version(version)
        return []

    def mirror_free(self, vaddr: int, count: int) -> list[str]:
        """Hardware freed a whole O-structure of ``count`` blocks."""
        sw = self.structs.pop(vaddr, None)
        sw_count = len(sw._versions) if sw is not None else 0
        if sw_count != count:
            return [
                f"free_ostructure(0x{vaddr:x}) released {count} block(s) "
                f"but the reference tracked {sw_count} version(s)"
            ]
        return []

    # -- full-state sweep ----------------------------------------------------

    def compare_all(self, manager: "OStructureManager") -> list[str]:
        """Diff the complete version state of both models."""
        problems = []
        for vaddr in sorted(set(manager.lists) | set(self.structs)):
            lst = manager.lists.get(vaddr)
            hw = (
                {b.version: (b.value, b.locked_by) for b in lst}
                if lst is not None
                else {}
            )
            sw_struct = self.structs.get(vaddr)
            sw = sw_struct.dump() if sw_struct is not None else {}
            if hw == sw:
                continue
            only_hw = sorted(set(hw) - set(sw))
            only_sw = sorted(set(sw) - set(hw))
            if only_hw:
                problems.append(
                    f"0x{vaddr:x}: versions {only_hw} exist in hw only"
                )
            if only_sw:
                problems.append(
                    f"0x{vaddr:x}: versions {only_sw} exist in reference only"
                )
            for v in sorted(set(hw) & set(sw)):
                if hw[v] != sw[v]:
                    problems.append(
                        f"0x{vaddr:x} v{v}: hw (value, locker)={hw[v]!r} "
                        f"reference={sw[v]!r}"
                    )
        return problems

    # -- diagnostics ---------------------------------------------------------

    def _why_not_exact(self, vaddr: int, version: int) -> str:
        sw = self._sw(vaddr)
        if version not in sw._versions:
            return "does not exist (reclaimed or never created)"
        return f"is locked by task {sw.locker_of(version)}"
