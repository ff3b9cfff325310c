"""LibOS multitasking: pre-created threads and userspace synchronization.

§6.2 service 3: all threads are created up front (``clone`` before lock;
creating one later would be a syscall and kill the sandbox), and — because
``futex`` is unavailable once locked — synchronization uses the LibOS's
own spinlocks. Spinning trades cycles for covert-channel silence: each
sync point burns more CPU than a futex sleep would, which is exactly the
extra LibOS overhead the paper measures on sync-heavy workloads (llama).

The pool models data-parallel work the way the evaluation's programs use
it: N logical threads splitting a batch of items with a barrier every
``sync_every`` items.
"""

from __future__ import annotations

from dataclasses import dataclass

#: cycles each *waiting* thread burns busy-waiting per barrier
SPIN_SYNC_CYCLES = 1200


@dataclass
class SyncStats:
    sync_points: int = 0
    spin_cycles: int = 0
    futex_calls: int = 0


class ThreadPool:
    """Fixed pool of LibOS threads over one sandbox/task group."""

    def __init__(self, libos, size: int):
        if size < 1:
            raise ValueError("thread pool needs at least one thread")
        self.libos = libos
        self.size = size
        self.stats = SyncStats()

    def sync(self, count: int = 1) -> None:
        """``count`` barrier/lock handoffs among the pool's threads.

        The LibOS *always* uses its internal spinlock (§6.2): futex would
        be a covert channel once locked, so Gramine-style emulation spins
        in both the sandboxed and the plain (LibOS-only) configurations —
        every waiter burns cycles instead of sleeping.
        """
        self.stats.sync_points += count
        cycles = count * SPIN_SYNC_CYCLES * max(self.size - 1, 1)
        self.stats.spin_cycles += cycles
        self.libos.kernel.clock.charge(cycles, "libos_spin")
        self.libos.kernel.clock.count("libos_spin_sync", count)

    def parallel_for(self, items: int, cycles_per_item: int, *,
                     sync_every: int = 1) -> None:
        """Run ``items`` units of work across the pool with barriers.

        Wall-clock compute is ``items * cycles_per_item / size`` (perfect
        split model); each barrier is one :meth:`sync`. Compute and syncs
        interleave chunk by chunk so timer ticks land realistically. The
        chunks whose compute ends before the next tick are booked as one
        batch: one compute :meth:`advance`, whose pump fires nothing, and
        one :meth:`sync` — the clock ledgers, ``utime_cycles`` and
        :class:`SyncStats` end where the chunk-by-chunk steps leave them.
        The chunk that reaches the tick is a batch of one, the per-chunk
        step itself.
        """
        if items <= 0:
            return
        total = items * cycles_per_item
        wall = total // self.size
        syncs = max(items // max(sync_every, 1), 1)
        kernel = self.libos.kernel
        task = self.libos.task
        chunk = max(wall // syncs, 1)
        step = chunk + SPIN_SYNC_CYCLES * max(self.size - 1, 1)
        done = 0
        while done < syncs:
            # chunk k from now ends at k * step + chunk: take every chunk
            # that ends before the tick, or else the one that reaches it
            before_tick = (kernel.cycles_to_tick() - chunk - 1) // step + 1
            batch = max(1, min(syncs - done, before_tick))
            kernel.advance(batch * chunk, task)
            self.sync(batch)
            done += batch
        remainder = wall - chunk * syncs
        if remainder > 0:
            kernel.advance(remainder, task)
