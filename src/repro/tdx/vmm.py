"""The untrusted host hypervisor (KVM-like) and its observation powers.

The VMM is *adversarial* in Erebor's threat model: it colludes with the
in-guest OS and service program, sees every synchronous exit's exposed
GHCI parameters, reads all shared guest memory, and can inject interrupts
to preempt the guest at arbitrary points. It cannot read private TD memory
— the TDX module's sEPT forbids it — and never sees live guest registers
because the module scrubs them on exits.

Everything the VMM could possibly learn is appended to ``observations``;
security tests assert client secrets never show up there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from ..hw.cycles import Cost, CycleClock
from ..hw.memory import PAGE_SIZE, PhysicalMemory
from .module import VMCALL_CPUID, VMCALL_GETQUOTE, VMCALL_HLT, VMCALL_IO


class PrivateMemoryError(Exception):
    """Host attempted to read TD-private memory (blocked by TDX)."""


@dataclass
class HostVmm:
    """Host-side hypervisor for one TD guest."""

    phys: PhysicalMemory
    clock: CycleClock
    #: filled in by TdxModule wiring (is_shared oracle)
    shared_oracle: object | None = None
    observations: list[tuple[str, object]] = field(default_factory=list)
    cpuid_table: tuple[int, int, int, int] = (0x806F8, 0x16, 0x7FFAFBFF, 0xBFEBFBFF)
    #: host-delivered interrupt hooks (timer/device), attached by the kernel rig
    interrupt_sink: Callable[[int], None] | None = None

    # ------------------------------------------------------------------ #
    # what the host sees
    # ------------------------------------------------------------------ #

    def observe(self, kind: str, payload: object) -> None:
        self.observations.append((kind, payload))

    def observe_td_exit(self, scrubbed_regs: dict) -> None:
        self.observe("td_exit_regs", dict(scrubbed_regs))

    def on_mapgpa(self, fn_start: int, count: int, to_shared: bool) -> None:
        self.observe("mapgpa", (fn_start, count, to_shared))

    def host_read(self, fn: int) -> bytes:
        """Host reads one guest-physical frame — only legal if shared."""
        if self.shared_oracle is None or not self.shared_oracle.is_shared(fn):
            raise PrivateMemoryError(f"frame {fn:#x} is TD-private")
        frame = self.phys.peek(fn)
        data = None if frame is None else frame.data
        content = bytes(data) if data is not None else b"\x00" * PAGE_SIZE
        self.observe("shared_read", (fn, content))
        return content

    def observed_blob(self) -> bytes:
        """Concatenation of every byte string the host ever saw.

        Security tests search this for client plaintext; a hit means the
        sandbox leaked.
        """
        out = bytearray()
        for _, payload in self.observations:
            out += _flatten_bytes(payload)
        return bytes(out)

    # ------------------------------------------------------------------ #
    # synchronous exit handling (GHCI service side)
    # ------------------------------------------------------------------ #

    def handle_vmcall(self, subfn: int, payload: object,
                      count: int = 1) -> object:
        """Serve ``count`` identical hypercalls (one observation each)."""
        self.observations.extend(repeat(("vmcall", (subfn, payload)), count))
        if subfn == VMCALL_CPUID:
            return self.cpuid_table
        if subfn == VMCALL_HLT:
            return 0
        if subfn == VMCALL_IO:
            # payload is opaque I/O descriptor data exposed by the guest
            return 0
        if subfn == VMCALL_GETQUOTE:
            # quote relay: host forwards the (already-signed) quote blob
            return payload
        return 0

    # ------------------------------------------------------------------ #
    # host-driven events
    # ------------------------------------------------------------------ #

    def inject_interrupt(self, vector: int) -> None:
        """Asynchronously inject an external interrupt into the guest."""
        self.observe("inject_irq", vector)
        if self.interrupt_sink is not None:
            self.interrupt_sink(vector)

    def plain_vmcall(self) -> None:
        """A non-TD guest hypercall (Table 3's VMCALL row)."""
        self.clock.charge(Cost.VMCALL_ROUND_TRIP, "vmcall")
        self.clock.count("vmcall")


def _flatten_bytes(payload: object) -> bytes:
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    if isinstance(payload, str):
        return payload.encode()
    if isinstance(payload, (list, tuple)):
        out = bytearray()
        for item in payload:
            out += _flatten_bytes(item)
        return bytes(out)
    if isinstance(payload, dict):
        out = bytearray()
        for key, value in payload.items():
            out += _flatten_bytes(key) + _flatten_bytes(value)
        return bytes(out)
    return b""
