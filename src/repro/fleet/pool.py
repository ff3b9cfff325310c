"""Warm pool: pre-forked sandboxes recycled between attested clients.

The pool keeps ``size`` forked instances standing. A session acquires a
free slot, runs, and releases it; release scrubs the slot back to the
golden template view via :meth:`Sandbox.reset_for_reuse` and *proves*
the scrub by scanning every frame the previous client could have written
for that client's plaintext (the C8 no-state-leak claim, enforced per
reuse rather than assumed). Slots whose sandbox died (kill, eviction)
are replaced by fresh forks when the free count drops below the low
watermark.

With ``autoscale`` on, the pool additionally tracks offered load instead
of staying fixed-size: queue pressure forks new slots *ahead* of demand
(up to ``max_size``), and a pool that has been idle — more free slots
than :data:`IDLE_WATERMARK` with an empty queue — for
:data:`SHRINK_PATIENCE` consecutive scheduling rounds retires one free
slot per round back down to ``size``, scrubbing it and returning its CMA
frames to the monitor. The patience counter is the hysteresis: a single
idle round between bursts never flaps the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.process import CowBacking
from .template import FleetInstance, SandboxTemplate


#: autoscale shrinks only when free slots exceed this with an empty queue
IDLE_WATERMARK = 1
#: consecutive idle rounds before one slot is retired (hysteresis)
SHRINK_PATIENCE = 3


class ScrubVerificationError(AssertionError):
    """A reused slot still held a previous client's plaintext (C8 broken)."""


@dataclass
class PoolConfig:
    size: int = 2
    #: refill forks are triggered when free slots drop below this
    low_watermark: int = 1
    #: demand-driven grow/shrink (off: fixed-size); ``size`` is the floor
    autoscale: bool = False
    #: autoscale ceiling (defaults to ``size``; raise it to allow growth)
    max_size: int | None = None


@dataclass
class PoolSlot:
    index: int
    instance: FleetInstance
    busy: bool = False
    sessions_served: int = 0


class WarmPool:
    """A fixed-size pool of forked sandboxes with verified recycling."""

    def __init__(self, system, template: SandboxTemplate,
                 config: PoolConfig | None = None):
        self.system = system
        self.template = template
        self.config = config or PoolConfig()
        self.clock = system.machine.clock
        self.slots: list[PoolSlot] = []
        self._next_index = 0
        self.warm_reset_cycles: list[int] = []
        self.fork_cycles: list[int] = []
        self.scrub_verifications = 0
        self.grown = 0                 # autoscale forks beyond the base size
        self.retired = 0               # idle slots scrubbed back to the CMA
        self.peak_size = 0
        self._idle_rounds = 0
        while len(self.slots) < self.config.size:
            self._fork_slot()
        self._gauges()

    @property
    def max_size(self) -> int:
        return (self.config.max_size if self.config.max_size is not None
                else self.config.size)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def free_slots(self) -> list[PoolSlot]:
        return [s for s in self.slots if not s.busy]

    def _gauges(self) -> None:
        self.peak_size = max(self.peak_size, len(self.slots))
        metrics = self.clock.metrics
        metrics.set_gauge("erebor_fleet_pool_size", len(self.slots))
        metrics.set_gauge("erebor_fleet_pool_free", len(self.free_slots()))

    def _fork_slot(self) -> PoolSlot:
        instance = self.template.fork()
        slot = PoolSlot(index=self._next_index, instance=instance)
        self._next_index += 1
        self.slots.append(slot)
        self.fork_cycles.append(instance.start_cycles)
        return slot

    def refill(self) -> int:
        """Replace dead slots until the free count clears the watermark."""
        forked = 0
        while (len(self.slots) < self.config.size
               and len(self.free_slots()) < max(self.config.low_watermark, 1)):
            self._fork_slot()
            forked += 1
        self._gauges()
        return forked

    # ------------------------------------------------------------------ #
    # demand-driven autoscaling
    # ------------------------------------------------------------------ #

    def autoscale(self, queue_depth: int) -> int:
        """Track offered load: fork ahead of the queue, retire idle slots.

        Called once per scheduling round with the current wait-queue
        depth. Returns the number of slots forked (so the caller knows to
        re-drain its queue). Growth is immediate — every queued session
        is demand the pool can absorb up to ``max_size``; shrink waits
        out :data:`SHRINK_PATIENCE` idle rounds and then retires one slot per
        round, so a burst arriving mid-drain still finds warm capacity.
        """
        if not self.config.autoscale:
            return 0
        free = len(self.free_slots())
        if queue_depth > free and len(self.slots) < self.max_size:
            want = min(queue_depth - free, self.max_size - len(self.slots))
            for _ in range(want):
                self._fork_slot()
            self.grown += want
            self._idle_rounds = 0
            self.clock.metrics.inc("erebor_fleet_pool_autoscale_total",
                                   want, direction="grow")
            self.clock.tracer.event("fleet:pool_grow", "fleet",
                                    forked=want, size=len(self.slots))
            self._gauges()
            return want
        if queue_depth == 0 and free > IDLE_WATERMARK:
            self._idle_rounds += 1
            if (self._idle_rounds >= SHRINK_PATIENCE
                    and len(self.slots) > self.config.size):
                self._retire_one()
                self._idle_rounds = 0
        else:
            self._idle_rounds = 0
        return 0

    def _retire_one(self) -> None:
        """Scrub the youngest idle slot and hand its CMA frames back."""
        for slot in reversed(self.slots):
            if not slot.busy and not slot.instance.sandbox.dead:
                break
        else:
            return
        self.slots.remove(slot)
        self.retired += 1
        # graceful teardown: munmap + confined release + CMA return
        slot.instance.sandbox.cleanup()
        self.clock.metrics.inc("erebor_fleet_pool_autoscale_total",
                               direction="shrink")
        self.clock.tracer.event("fleet:pool_shrink", "fleet",
                                slot=slot.index, size=len(self.slots))
        self._gauges()

    # ------------------------------------------------------------------ #
    # acquire / release
    # ------------------------------------------------------------------ #

    def acquire(self) -> PoolSlot | None:
        """Lowest-index free slot, or None (caller queues); deterministic."""
        slot = self._first_free()
        if slot is None:
            # lost capacity (dead slots) is restored on demand
            self.refill()
            slot = self._first_free()
        if slot is not None:
            slot.busy = True
            self._gauges()
        return slot

    def _first_free(self) -> PoolSlot | None:
        for slot in self.slots:
            if not slot.busy and not slot.instance.sandbox.dead:
                return slot
        return None

    def release(self, slot: PoolSlot,
                patterns: list[bytes] | None = None) -> dict:
        """Recycle a slot: scrub, verify the scrub, restock the pool.

        ``patterns`` is the released client's plaintext (requests and
        responses); every frame the client could have dirtied — its
        private CoW copies (now back in the CMA), its remaining confined
        frames, and the shared template image — is scanned for them
        after the reset.

        Returns the *scrub record*: the evidence dict execution
        certificates attach as the departing session's C8 proof
        (``scrub-verify`` for a verified warm reset, ``kill-scrub`` for
        a dead slot whose kill path already scrubbed).
        """
        sandbox = slot.instance.sandbox
        if sandbox.dead:
            # killed/evicted mid-session: the kill path already scrubbed
            self.slots.remove(slot)
            self.refill()
            return {"kind": "kill-scrub", "sandbox": sandbox.sandbox_id,
                    "cycle": self.clock.cycles}
        frames_before = list(sandbox.confined_frames)
        t0 = self.clock.cycles
        with self.clock.tracer.span("fleet:warm_reset", "fleet",
                                    sandbox=sandbox.sandbox_id):
            sandbox.reset_for_reuse()
            slot.instance.libos.end_session()
        cycles = self.clock.cycles - t0
        self.warm_reset_cycles.append(cycles)
        slot.instance.start_kind = "warm"
        slot.instance.start_cycles = cycles
        record = self.verify_scrub(slot, frames_before, patterns or [])
        slot.busy = False
        slot.sessions_served += 1
        self.clock.metrics.observe("erebor_fleet_start_cycles", cycles,
                                   kind="warm")
        self.refill()
        return record

    # ------------------------------------------------------------------ #
    # C8 scrub verification
    # ------------------------------------------------------------------ #

    def verify_scrub(self, slot: PoolSlot, frames_before: list[int],
                     patterns: list[bytes]) -> dict:
        """Assert no client-keyed bytes survived the reset (C8 at scale).

        Returns the scrub record (see :meth:`release`) and commits the
        verdict to the monitor's audit chain, so a certificate's scrub
        evidence is corroborated by a chained audit event.
        """
        sandbox = slot.instance.sandbox
        scan = set(frames_before) | set(sandbox.confined_frames)
        for vma in sandbox.confined_vmas:
            if isinstance(vma.backing, CowBacking):
                scan.update(vma.backing.template_frames)
        phys = self.system.monitor.phys
        for fn in sorted(scan):
            frame = phys.peek(fn)
            data = None if frame is None else frame.data
            if data is None:
                continue
            for pattern in patterns:
                if pattern and pattern in bytes(data):
                    self.clock.tracer.trigger(
                        "scrub_leak",
                        f"frame {fn:#x} of sandbox {sandbox.sandbox_id}")
                    raise ScrubVerificationError(
                        f"frame {fn:#x} still holds client plaintext after "
                        f"reuse of sandbox {sandbox.sandbox_id}")
        self.scrub_verifications += 1
        self.clock.metrics.inc("erebor_fleet_scrub_verified_total",
                               sandbox=str(sandbox.sandbox_id))
        self.clock.tracer.event("fleet:scrub_verified", "fleet",
                                sandbox=sandbox.sandbox_id,
                                frames=len(scan))
        self.system.monitor.audit(
            "scrub", f"scrub-verified sandbox #{sandbox.sandbox_id} "
            f"({len(scan)} frames, {len(patterns)} patterns)")
        return {"kind": "scrub-verify", "sandbox": sandbox.sandbox_id,
                "frames_scanned": len(scan), "patterns": len(patterns),
                "cycle": self.clock.cycles}
