"""CET supervisor shadow-stack setup helpers.

The branch-tracking and return-checking logic itself lives in the CPU core
(:mod:`repro.hw.cpu`); this module provides the memory plumbing: allocating
shadow-stack pages (marked so the MMU enforces the SDM's rule that they are
writable *only* through shadow-stack operations), writing the supervisor
shadow-stack token, and arming a core's CET MSRs.
"""

from __future__ import annotations

from . import regs
from .cpu import Cpu
from .memory import PAGE_SIZE, PhysicalMemory
from .paging import PTE_P, AddressSpace

#: Token placed at the base of a supervisor shadow stack; encodes the stack's
#: own address so a stack can only be activated where it was created (the
#: one-logical-processor-at-a-time rule from the paper's CET background).
TOKEN_BUSY = 1 << 0


def allocate_shadow_stack(phys: PhysicalMemory, aspace: AddressSpace,
                          base_va: int, pages: int, owner: str = "monitor") -> int:
    """Create a shadow-stack region; returns the initial SSP value.

    Pages are mapped supervisor, present, *not* writable (the CPU's
    shadow-stack ops bypass PTE.W but require the frame's shadow-stack
    flag), matching the "non-writable-but-dirty" PTE encoding.
    """
    top = base_va + pages * PAGE_SIZE
    for i in range(pages):
        fn = phys.alloc_frame(owner)
        frame = phys.frame(fn)
        frame.is_shadow_stack = True
        frame.materialize()
        aspace.map_page(base_va + i * PAGE_SIZE, fn, PTE_P)
    # supervisor shadow-stack token lives in the top slot; a free token
    # is the stack's own address with the busy bit clear
    token_va = top - 8
    token_fn = aspace.mapped_frame(token_va)
    phys.write_u64((token_fn << 12) + (token_va & (PAGE_SIZE - 1)),
                   token_va)
    return token_va  # SSP starts just below the token


def arm_cet(cpu: Cpu, ssp: int, *, ibt: bool = True, shadow_stack: bool = True) -> None:
    """Enable CET on a core: CR4.CET plus IA32_S_CET feature bits."""
    cpu.crs[4] |= regs.CR4_CET
    s_cet = 0
    if ibt:
        s_cet |= regs.S_CET_ENDBR_EN
    if shadow_stack:
        s_cet |= regs.S_CET_SH_STK_EN
    cpu.msrs[regs.IA32_S_CET] = s_cet
    cpu.msrs[regs.IA32_PL0_SSP] = ssp


class ShadowStackTokenError(Exception):
    """Token verification failed (busy, wrong address, or clobbered)."""


def read_token(phys: PhysicalMemory, aspace: AddressSpace, token_va: int) -> int:
    hit = aspace.translate(token_va)
    if hit is None:
        raise ShadowStackTokenError(f"no shadow stack at {token_va:#x}")
    return phys.read_u64(hit[0])


def _write_token(phys: PhysicalMemory, aspace: AddressSpace, token_va: int,
                 value: int) -> None:
    hit = aspace.translate(token_va)
    phys.write_u64(hit[0], value)


def activate_shadow_stack(cpu: Cpu, aspace: AddressSpace, token_va: int,
                          phys: PhysicalMemory) -> None:
    """``setssbsy``-style activation: claim a stack's token for this core.

    The SDM's rule the paper cites: "each stack possessing a unique token
    to ensure only one logical processor can activate it at a time". The
    token must match the stack's own address and must not be busy.
    """
    token = read_token(phys, aspace, token_va)
    if token & TOKEN_BUSY:
        raise ShadowStackTokenError(
            f"shadow stack {token_va:#x} already active on another core")
    if token & ~TOKEN_BUSY != token_va:
        raise ShadowStackTokenError(
            f"shadow stack token at {token_va:#x} is corrupt "
            f"({token:#x}); refusing activation")
    _write_token(phys, aspace, token_va, token | TOKEN_BUSY)
    cpu.msrs[regs.IA32_PL0_SSP] = token_va


def deactivate_shadow_stack(cpu: Cpu, aspace: AddressSpace, token_va: int,
                            phys: PhysicalMemory) -> None:
    """Release a stack's busy token (the outgoing side of a task switch)."""
    token = read_token(phys, aspace, token_va)
    if not token & TOKEN_BUSY:
        raise ShadowStackTokenError(
            f"shadow stack {token_va:#x} was not active")
    _write_token(phys, aspace, token_va, token & ~TOKEN_BUSY)
