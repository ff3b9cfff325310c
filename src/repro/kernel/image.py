"""SELF — the Simple ELF-like kernel/program image format.

Erebor's second boot stage receives a kernel image, scans its executable
sections at byte granularity for sensitive instruction sequences, performs
relocations, and only then lets the kernel run (paper §5.1). To make that
pipeline executable, kernels and sandbox programs in this reproduction are
packaged as SELF images: named sections with load addresses and permission
flags, an entry point, and a binary serialization the verifier can scan.

The default "distribution kernel" built by :func:`build_kernel_image`
contains the kernel's low-level assembly stubs in the simulated ISA —
including, before instrumentation, genuine sensitive instructions (the
syscall-entry installer writes ``IA32_LSTAR``, the MMU helpers write CR3,
the #VE stub issues ``tdcall``). Running the instrumentation pass of
:mod:`repro.kernel.instrument` over it produces the image the monitor will
accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw import regs
from ..hw.isa import I, Instr, assemble, disassemble

MAGIC = b"SELF\x01"

SEC_EXEC = 1 << 0
SEC_WRITE = 1 << 1
#: section carries private/sensitive bytes — the V8 taint *source*:
#: loads from these ranges seed the dataflow verifier's taint domain
#: (repro.analysis.absint), the static companion to scan_for_sensitive
SEC_SENSITIVE = 1 << 2


@dataclass
class Section:
    """One loadable image section."""

    name: str
    va: int
    data: bytes
    flags: int

    @property
    def executable(self) -> bool:
        return bool(self.flags & SEC_EXEC)

    @property
    def writable(self) -> bool:
        return bool(self.flags & SEC_WRITE)

    @property
    def sensitive(self) -> bool:
        return bool(self.flags & SEC_SENSITIVE)


@dataclass
class SelfImage:
    """A loadable image: sections + entry point."""

    name: str
    entry: int
    sections: list[Section] = field(default_factory=list)

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(f"no section {name!r} in image {self.name!r}")

    def executable_sections(self) -> list[Section]:
        return [s for s in self.sections if s.executable]

    # ------------------------------------------------------------------ #
    # binary serialization (what travels to the monitor's loader)
    # ------------------------------------------------------------------ #

    def serialize(self) -> bytes:
        out = bytearray(MAGIC)
        out += len(self.name).to_bytes(2, "little") + self.name.encode()
        out += self.entry.to_bytes(8, "little")
        out += len(self.sections).to_bytes(2, "little")
        for s in self.sections:
            out += len(s.name).to_bytes(2, "little") + s.name.encode()
            out += s.va.to_bytes(8, "little")
            out += s.flags.to_bytes(2, "little")
            out += len(s.data).to_bytes(8, "little") + s.data
        return bytes(out)

    @classmethod
    def deserialize(cls, blob: bytes) -> "SelfImage":
        if not blob.startswith(MAGIC):
            raise ValueError("not a SELF image")
        off = len(MAGIC)

        def take(n: int) -> bytes:
            nonlocal off
            if off + n > len(blob):
                raise ValueError("truncated SELF image")
            chunk = blob[off:off + n]
            off += n
            return chunk

        name_len = int.from_bytes(take(2), "little")
        name = take(name_len).decode()
        entry = int.from_bytes(take(8), "little")
        nsections = int.from_bytes(take(2), "little")
        sections = []
        for _ in range(nsections):
            sname = take(int.from_bytes(take(2), "little")).decode()
            va = int.from_bytes(take(8), "little")
            flags = int.from_bytes(take(2), "little")
            size = int.from_bytes(take(8), "little")
            sections.append(Section(sname, va, take(size), flags))
        return cls(name, entry, sections)


# --------------------------------------------------------------------------- #
# the distribution kernel's low-level stubs
# --------------------------------------------------------------------------- #

KERNEL_TEXT_VA = 0x60_0000_0000
KERNEL_DATA_VA = 0x60_4000_0000


def kernel_entry_stubs() -> list[Instr]:
    """The kernel's privileged assembly: boot-time CPU configuration.

    Before instrumentation this code contains every class of sensitive
    instruction (CR, MSR, SMAP, IDT, GHCI), mirroring arch/x86 early-boot
    code. The byte-scan verifier must find all of them.
    """
    return [
        # enable paging-related protections: write CR4
        I("movi", "rax", imm=regs.CR4_SMEP | regs.CR4_SMAP | regs.CR4_PKS),
        I("mov_cr", 4, "rax"),
        # install the syscall entry point: write IA32_LSTAR
        I("movi", "rcx", imm=regs.IA32_LSTAR),
        I("movi", "rax", imm=KERNEL_TEXT_VA + 0x1000),
        I("wrmsr"),
        # install the IDT
        I("movi", "rdi", imm=KERNEL_DATA_VA),
        I("lidt", src="rdi"),
        # user copy bracket in the read/write path
        I("stac"),
        I("nop"),            # ... inline copy loop ...
        I("clac"),
        # the #VE handler's GHCI exit
        I("movi", "rax", imm=0),  # LEAF_VMCALL
        I("tdcall"),
        I("ret"),
    ]


def build_kernel_image(*, extra_sections: list[Section] | None = None
                       ) -> SelfImage:
    """Package the distribution kernel as a SELF image.

    The .text payload is the raw, sensitive-instruction-bearing stubs —
    which the monitor's verifier must reject; the instrumentation pass
    (:func:`~repro.kernel.instrument.instrument_image`) rewrites a copy.
    """
    sections = [
        Section(".text", KERNEL_TEXT_VA, assemble(kernel_entry_stubs()),
                SEC_EXEC),
        Section(".data", KERNEL_DATA_VA, b"\x00" * 256, SEC_WRITE),
    ]
    if extra_sections:
        sections += extra_sections
    return SelfImage("vmlinux-sim", KERNEL_TEXT_VA, sections)


def image_text_instrs(image: SelfImage) -> list[Instr]:
    """Disassemble an image's .text (helper for instrumentation/tests)."""
    return disassemble(image.section(".text").data)
