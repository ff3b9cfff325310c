"""Instruction set of the simulated CPU, with real byte encodings.

Erebor's verified boot "only performs byte-level scanning of the executable
sections" to ensure the kernel contains no *sensitive* instructions
(Table 2 of the paper: CR writes, ``wrmsr``, ``stac``, ``lidt``,
``tdcall``). To make that verification step real rather than symbolic, this
module defines a compact fixed-width ISA in which every instruction encodes
to 12 bytes and sensitive instructions carry a distinctive two-byte prefix
(``0xF0`` + sub-opcode) that the scanner searches for at *every byte
offset* — exactly the check the paper's monitor performs.

The ISA is deliberately small: enough to express the monitor's entry/exit
gates, interrupt gates, syscall stubs, and attacker code snippets, all of
which execute instruction-by-instruction on :class:`repro.hw.cpu.Cpu`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidOpcode, SimulatorError

INSTR_SIZE = 12

#: Prefix byte marking a sensitive (privilege-critical) instruction.
SENSITIVE_PREFIX = 0xF0

REGISTERS = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)
REG_INDEX = {name: i for i, name in enumerate(REGISTERS)}

# Non-sensitive opcodes (first byte).
OPCODES = {
    "nop": 0x01, "hlt": 0x02, "mov": 0x03, "movi": 0x04,
    "load": 0x05, "store": 0x06, "push": 0x07, "pop": 0x08,
    "add": 0x10, "sub": 0x11, "and": 0x12, "or": 0x13, "xor": 0x14,
    "shl": 0x15, "shr": 0x16, "addi": 0x17, "cmp": 0x18, "cmpi": 0x19,
    "mul": 0x1A, "div": 0x1B,
    "jmp": 0x20, "jz": 0x21, "jnz": 0x22,
    "call": 0x23, "icall": 0x24, "ijmp": 0x25, "ret": 0x26, "endbr": 0x27,
    "syscall": 0x30, "sysret": 0x31, "iret": 0x32, "int": 0x33,
    "cpuid": 0x34, "rdmsr": 0x35, "clac": 0x36, "senduipi": 0x37,
    "fence": 0x38, "rdcr": 0x39,
    # gs-relative per-CPU accesses: dst <- [gs_base+imm] / [gs_base+imm] <- src
    "gsload": 0x3A, "gsstore": 0x3B,
}

# Sensitive sub-opcodes (second byte, after SENSITIVE_PREFIX). These are the
# Table 2 instructions the monitor must exclusively own.
SENSITIVE_OPS = {
    "mov_cr": 0x01,   # write control register (CR0/3/4)
    "wrmsr": 0x02,    # write model-specific register (rcx=msr, rax=value)
    "stac": 0x03,     # set EFLAGS.AC, suspending SMAP
    "lidt": 0x04,     # load interrupt descriptor table register
    "tdcall": 0x05,   # TDX module call (GHCI)
}

OPCODE_NAMES = {v: k for k, v in OPCODES.items()}
SENSITIVE_NAMES = {v: k for k, v in SENSITIVE_OPS.items()}
SENSITIVE_SUBOPS = frozenset(SENSITIVE_OPS.values())


@dataclass(frozen=True)
class Instr:
    """One decoded instruction.

    ``dst``/``src`` are register names (or a CR number for ``mov_cr``);
    ``imm`` is a 64-bit immediate whose meaning depends on the mnemonic
    (address, displacement, jump target, vector number, ...).
    """

    op: str
    dst: str | int | None = None
    src: str | None = None
    imm: int = 0

    def encode(self) -> bytes:
        if self.op in SENSITIVE_OPS:
            b0, b1 = SENSITIVE_PREFIX, SENSITIVE_OPS[self.op]
        elif self.op in OPCODES:
            b0, b1 = OPCODES[self.op], 0
        else:
            raise SimulatorError(f"unknown mnemonic {self.op!r}")
        b2 = _operand_byte(self.dst)
        b3 = _operand_byte(self.src)
        imm = self.imm & (2 ** 64 - 1)
        return bytes([b0, b1, b2, b3]) + imm.to_bytes(8, "little")

    @property
    def is_sensitive(self) -> bool:
        return self.op in SENSITIVE_OPS


def _operand_byte(operand: str | int | None) -> int:
    if operand is None:
        return 0xFF
    if isinstance(operand, int):
        if not 0 <= operand < 0xFF:
            raise SimulatorError(f"operand {operand} out of range")
        return operand
    return REG_INDEX[operand]


def _operand_from_byte(b: int) -> str | int | None:
    if b == 0xFF:
        return None
    if b < len(REGISTERS):
        return REGISTERS[b]
    return b


def decode(blob: bytes, offset: int = 0) -> Instr:
    """Decode one instruction at ``offset`` within ``blob``."""
    raw = blob[offset:offset + INSTR_SIZE]
    if len(raw) < INSTR_SIZE:
        raise InvalidOpcode(f"truncated instruction at {offset:#x}")
    b0, b1, b2, b3 = raw[0], raw[1], raw[2], raw[3]
    imm = int.from_bytes(raw[4:12], "little")
    if b0 == SENSITIVE_PREFIX:
        name = SENSITIVE_NAMES.get(b1)
        if name is None:
            raise InvalidOpcode(f"bad sensitive sub-opcode {b1:#x}")
        if name == "mov_cr":
            return Instr(name, dst=b2, src=_operand_from_byte(b3), imm=imm)
        return Instr(name, dst=_operand_from_byte(b2), src=_operand_from_byte(b3), imm=imm)
    name = OPCODE_NAMES.get(b0)
    if name is None:
        raise InvalidOpcode(f"bad opcode {b0:#x}")
    if name == "rdcr":
        return Instr(name, dst=_operand_from_byte(b2), src=None, imm=b3 if b3 != 0xFF else 0)
    return Instr(name, dst=_operand_from_byte(b2), src=_operand_from_byte(b3), imm=imm)


#: Content-addressed decode memo. ``Instr`` is frozen, so one decoded
#: instruction can safely back every site that executes the same 12 bytes
#: — no invalidation needed: a changed byte is a different key. Bounded
#: so adversarial byte churn cannot grow host memory without limit.
_DECODE_CACHE: dict[bytes, Instr] = {}
_DECODE_CACHE_MAX = 65536


def decode_cached(raw: bytes) -> Instr:
    """Decode one aligned 12-byte encoding through the content memo.

    Exactly equivalent to ``decode(raw)`` (including the
    :class:`InvalidOpcode` raises — failures are never cached); only the
    host-side re-decode work is skipped.
    """
    hit = _DECODE_CACHE.get(raw)
    if hit is None:
        hit = decode(raw)
        if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[raw] = hit
    return hit


def assemble(instrs: list[Instr], *, forbid_sensitive_bytes: bool = False) -> bytes:
    """Assemble a program to bytes.

    With ``forbid_sensitive_bytes`` the assembler additionally rejects any
    *accidental* sensitive byte sequence (e.g. an immediate containing
    ``0xF0`` followed by a valid sub-opcode) — the same property the boot
    scanner enforces, applied at build time by the instrumentation pass.
    """
    blob = b"".join(i.encode() for i in instrs)
    if forbid_sensitive_bytes:
        hits = scan_for_sensitive(blob, skip_aligned=True)
        if hits:
            off, name = hits[0]
            raise SimulatorError(
                f"accidental sensitive byte sequence ({name}) at offset {off:#x}"
            )
    return blob


def scan_for_sensitive(blob: bytes, *, skip_aligned: bool = False) -> list[tuple[int, str]]:
    """Byte-level scan for sensitive instruction sequences (boot verifier).

    Checks every byte offset for ``SENSITIVE_PREFIX`` followed by a valid
    sensitive sub-opcode. With ``skip_aligned`` the scan ignores hits at
    instruction-aligned offsets (used by the assembler, which knows those
    are the intentional encodings it just emitted).

    The scan skips between prefix bytes with ``bytes.find`` so the common
    no-hit path runs at C speed instead of one Python iteration per byte;
    the cycle-cost model in ``verify_code`` is unchanged — the simulated
    monitor still pays per byte scanned, only the host gets faster.
    """
    hits = []
    prefix = bytes([SENSITIVE_PREFIX])
    limit = len(blob) - 1
    off = blob.find(prefix)
    while 0 <= off < limit:
        if blob[off + 1] in SENSITIVE_SUBOPS and \
                not (skip_aligned and off % INSTR_SIZE == 0):
            hits.append((off, SENSITIVE_NAMES[blob[off + 1]]))
        off = blob.find(prefix, off + 1)
    return hits


def disassemble(blob: bytes) -> list[Instr]:
    """Decode a whole aligned program (test/debug helper)."""
    if len(blob) % INSTR_SIZE:
        raise InvalidOpcode("code blob not a multiple of instruction size")
    return [decode(blob, off) for off in range(0, len(blob), INSTR_SIZE)]


# Convenience constructors so gate/attack code reads like assembly.
def I(op: str, dst=None, src=None, imm: int = 0) -> Instr:  # noqa: E743 - asm-style name
    return Instr(op, dst=dst, src=src, imm=imm)
