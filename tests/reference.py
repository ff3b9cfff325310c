"""Reference arms: the host fast paths turned off by patching.

``reference_paths()`` runs the code inside it with the patched fast
paths off, so a test can run one seeded program with and without them
and compare everything simulated. It configures nothing: the simulator
has no option for any of this. Each fast path that has an arm here,
by the name :data:`ARMS` gives it:

* ``superblocks`` (`TranslationCache.acquire`): no superblock is ever
  acquired, so ``Cpu.run`` retires every instruction through
  `Cpu.step`, and no superblock counter moves.
* ``loop_form`` (`repro.hw.cpu._self_loop`): every block is emitted one
  pass per call, and the burst loop re-enters a self-looping block once
  per pass.
* ``psc`` (`AddressSpace.leaf_slot`): every lookup of the
  paging-structure cache misses, so every walk reads the interior
  entries from the tables. The walk still fills the cache, which
  ``leaf_path`` hands on as a superblock's witness.
* ``spans`` (`repro.hw.mmu._spans`): ``Mmu.check_run`` reads no span,
  present or missing, so every page goes to the caller's per-page
  ``visit``: its check, then one fault at a time.
* ``modexp`` (`repro.crypto.dh.modexp`): both exponentiations of a
  handshake run on the builtin ``pow(base, exponent, MODP_2048_P)``
  instead of libcrypto.
* ``tick_runs`` (`GuestKernel.tick_run_length`,
  `ThreadPool.parallel_for`): the run length is 1, so ``pump`` books
  one timer tick at a time, and ``parallel_for`` steps chunk by chunk
  (:func:`reference_parallel_for`), each chunk's pump firing the ticks
  it reaches.

``reference_paths()`` enters every arm, and
``reference_paths("psc", "spans")`` only the arms it names. Build the
machines inside the ``with`` block: a superblock keeps the function it
was first compiled to.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.crypto import dh
from repro.hw import cpu, mmu
from repro.hw.paging import AddressSpace
from repro.hw.translate import TranslationCache
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


_leaf_slot = AddressSpace.leaf_slot


def _leaf_slot_missing(aspace, va, *, create=False):
    """``AddressSpace.leaf_slot`` after dropping the cached walk of
    ``va``'s 2 MiB region, so the lookup misses and walks again."""
    aspace._psc.pop(va >> 21, None)
    return _leaf_slot(aspace, va, create=create)


#: arm name → the ``(target, attribute, replacement)`` patches it enters
ARMS = {
    "superblocks": [(TranslationCache, "acquire",
                     lambda tcache, rip: None)],
    "loop_form": [(cpu, "_self_loop", lambda start_va, instrs: False)],
    "psc": [(AddressSpace, "leaf_slot", _leaf_slot_missing)],
    "spans": [(mmu, "_spans", lambda stride: False)],
    "modexp": [(dh, "modexp", lambda base, exponent:
                pow(base, exponent, dh.MODP_2048_P))],
    "tick_runs": [(GuestKernel, "tick_run_length", lambda self: 1),
                  (ThreadPool, "parallel_for", reference_parallel_for)],
}


@contextmanager
def reference_paths(*arms):
    """Turn the named host fast paths (all of :data:`ARMS` when none is
    named) off for the ``with`` body."""
    cpu._BLOCK_FNS.clear()
    try:
        with ExitStack() as stack:
            for arm in arms or ARMS:
                for target, name, value in ARMS[arm]:
                    stack.enter_context(mock.patch.object(target, name,
                                                          value))
            yield
    finally:
        # compiled block functions of either arm never serve the other
        cpu._BLOCK_FNS.clear()
