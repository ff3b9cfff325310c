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
        split model); each barrier is one :meth:`sync`. The clock ledgers,
        ``utime_cycles`` and :class:`SyncStats` end where stepping chunk
        by chunk (``advance`` of one chunk's compute, whose pump fires
        the ticks it reaches, then ``sync``) leaves them, but whole runs
        of chunks are booked at once:

        * the chunks that end before the next tick are one compute
          :meth:`advance`, whose pump fires nothing, and one ``sync``;
        * the chunk that reaches a tick steps alone. When its pump fires
          one tick that leaves the timeslice open, what that tick cost
          places the rest of the run, booked at once (:meth:`_tick_run`).
        """
        if items <= 0:
            return
        total = items * cycles_per_item
        wall = total // self.size
        syncs = max(items // max(sync_every, 1), 1)
        kernel = self.libos.kernel
        clock = kernel.clock
        task = self.libos.task
        chunk = max(wall // syncs, 1)
        step = chunk + SPIN_SYNC_CYCLES * max(self.size - 1, 1)
        done = 0
        while done < syncs:
            # chunk k from now ends at k * step + chunk
            to_tick = kernel.cycles_to_tick()
            before = min(syncs - done, (to_tick - chunk - 1) // step + 1)
            if before > 0:
                kernel.advance(before * chunk, task)
                self.sync(before)
                done += before
                continue
            run = kernel.tick_run_length()
            start = clock.cycles
            kernel.advance(chunk, task)
            tick = clock.cycles - start - chunk
            # ticks the pump fired: how far the next tick moved, in periods
            fired = (kernel.cycles_to_tick() + tick + chunk
                     - to_tick) // kernel.tick_period
            self.sync()
            done += 1
            if run > 1 and fired == 1:
                done += self._tick_run(syncs - done, chunk, step, tick)
        remainder = wall - chunk * syncs
        if remainder > 0:
            kernel.advance(remainder, task)

    def _tick_run(self, chunks: int, chunk: int, step: int,
                  tick: int) -> int:
        """Book the rest of the current tick run over the next ``chunks``
        chunks at once; returns how many chunks it booked.

        ``tick`` is what the run's first tick cost, and every tick of the
        run but its last (which may reach :meth:`GuestKernel._pick_next`)
        costs the same, being the same count-aware booking of the same
        task. Chunk ``i`` from now ends with the clock at ``now + i * step
        + chunk`` plus the ticks fired before it, so the ``j``-th tick
        of the run fires in the first chunk where that reaches the tick
        ``j`` periods on. The plan stops before a tick that becomes due
        inside the previous one: the booking's ``advance`` ends on that
        chunk's pump, which fires it exactly as the chunk's own pump
        would, along with anything the last tick made due.
        """
        kernel = self.libos.kernel
        period = kernel.tick_period
        # the clock at chunk 0's pump, less the next tick
        lead = chunk - kernel.cycles_to_tick()
        last = -1
        ticks = 0
        for j in range(kernel.tick_run_length()):
            i = max(0, -((lead + j * (tick - period)) // step))
            if i >= chunks or i <= last:
                break
            last = i
            ticks += 1
        if not ticks:
            return 0
        kernel.book_ticks(ticks)
        if last:
            self.sync(last)
        kernel.advance((last + 1) * chunk, self.libos.task)
        self.sync()
        return last + 1
