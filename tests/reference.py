"""Reference arms: the host fast paths turned off by patching.

``reference_paths()`` runs the code inside it with the patched fast
paths off, so a test can run one seeded program with and without them
and compare everything simulated. It configures nothing: the simulator
has no option for any of this. Each fast path that has an arm here:

* **Loop-form superblocks** (`repro.hw.cpu._self_loop`): every block is
  emitted one pass per call, and the burst loop re-enters a
  self-looping block once per pass.
* **Native handshake exponentiation** (`repro.crypto.dh.modexp`): both
  exponentiations of a handshake run on the builtin
  ``pow(base, exponent, MODP_2048_P)`` instead of libcrypto.
* **Span touches** (`repro.hw.mmu._spans`): ``Mmu.check_run`` reads no
  span, present or missing, so every page goes to the caller's
  per-page ``visit``: its check, then one fault at a time.
* **Tick runs** (`GuestKernel.tick_run_length`, `ThreadPool.parallel_for`):
  the run length is 1, so ``pump`` books one timer tick at a time, and
  ``parallel_for`` steps chunk by chunk (:func:`reference_parallel_for`),
  each chunk's pump firing the ticks it reaches.

Build the machines inside the ``with`` block: a superblock keeps the
function it was first compiled to.
"""

from contextlib import contextmanager
from unittest import mock

from repro.crypto import dh
from repro.hw import cpu, mmu
from repro.kernel.kernel import GuestKernel
from repro.libos.threads import ThreadPool


def reference_parallel_for(pool, items, cycles_per_item, *, sync_every=1):
    """``ThreadPool.parallel_for`` stepping one chunk at a time: one
    ``advance`` of the chunk's compute, then one ``sync``."""
    if items <= 0:
        return
    kernel = pool.libos.kernel
    wall = items * cycles_per_item // pool.size
    syncs = max(items // max(sync_every, 1), 1)
    chunk = max(wall // syncs, 1)
    for _ in range(syncs):
        kernel.advance(chunk, pool.libos.task)
        pool.sync()
    remainder = wall - chunk * syncs
    if remainder > 0:
        kernel.advance(remainder, pool.libos.task)


@contextmanager
def reference_paths():
    """Turn every host fast path listed above off for the ``with`` body."""
    cpu._BLOCK_FNS.clear()
    try:
        with mock.patch.object(cpu, "_self_loop", lambda start_va, instrs:
                               False), \
                mock.patch.object(dh, "modexp", lambda base, exponent:
                                  pow(base, exponent, dh.MODP_2048_P)), \
                mock.patch.object(mmu, "_spans", lambda stride: False), \
                mock.patch.object(GuestKernel, "tick_run_length",
                                  lambda self: 1), \
                mock.patch.object(ThreadPool, "parallel_for",
                                  reference_parallel_for):
            yield
    finally:
        # compiled block functions of either arm never serve the other
        cpu._BLOCK_FNS.clear()
