"""Reference arms: the host fast paths turned off by patching.

``reference_paths()`` runs the code inside it with the patched fast
paths off, so a test can run one seeded program with and without them
and compare everything simulated. It configures nothing: the simulator
has no option for any of this. Each fast path that has an arm here:

* **Loop-form superblocks** (`repro.hw.cpu._self_loop`): every block is
  emitted one pass per call, and the burst loop re-enters a
  self-looping block once per pass.

Build the machines inside the ``with`` block: a superblock keeps the
function it was first compiled to.
"""

from contextlib import contextmanager
from unittest import mock

from repro.hw import cpu


@contextmanager
def reference_paths():
    """Turn every host fast path listed above off for the ``with`` body."""
    cpu._BLOCK_FNS.clear()
    try:
        with mock.patch.object(cpu, "_self_loop", lambda start_va, instrs:
                               False):
            yield
    finally:
        # compiled block functions of either arm never serve the other
        cpu._BLOCK_FNS.clear()
