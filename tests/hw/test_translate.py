"""Superblock translation cache: lockstep oracle + invalidation matrix.

Two obligations from the design:

* **Lockstep oracle equivalence** — for every ISA opcode, a program run
  with the translation cache / TLB / paging-structure cache *on* must be
  observationally identical to the same program interpreted one `step()`
  at a time with everything *off*: same registers, rip, flags, mode,
  retired-step count, cycle total, per-tag ledger, event counters and
  memory image. Faults (including faults delivered mid-superblock) must
  land on the same instruction with the same state.

* **Invalidation** — a cached translation must never outlive the bytes
  that justified it: PTE rewrites (mprotect-style downgrades, template
  seals), PTE clears, CoW-style frame replacement, pool scrub / slot
  reuse, raw direct-map scribbles on paging structures, shadow-stack
  flag flips and code-byte writes must all miss or fault exactly as a
  fresh page walk would.

* **Speed** — on the CPU-bound path the cache targets, the cache-on arm
  must be at least ``SPEED_FLOOR`` times faster than the fully
  interpreted arm (``MEM_SPEED_FLOOR`` on a load/ALU/store loop), with
  an identical machine state.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw import regs
from repro.hw.cpu import CpuHalt  # noqa: F401 - imported for doc cross-refs
from repro.hw.errors import (
    ControlProtectionFault,
    DivideError,
    GeneralProtectionFault,
    HardwareFault,
    PageFault,
    SimulatorError,
)
from repro.hw.isa import INSTR_SIZE, OPCODES, SENSITIVE_OPS, I
from repro.hw.mmu import AccessContext, USER_MODE
from repro.hw.paging import PTE_FRAME_MASK, PTE_NX, PTE_P, PTE_W
from repro.hw.testbench import (
    IDT_VA,
    KERNEL_CODE_VA,
    KERNEL_DATA_VA,
    USER_CODE_VA,
    MicroMachine,
)

K = KERNEL_CODE_VA
D = KERNEL_DATA_VA
STUB_VA = KERNEL_CODE_VA + 0x10_0000      # syscall entry stub
HANDLER_VA = KERNEL_CODE_VA + 0x20_0000   # interrupt handler code
NEG1 = (1 << 64) - 1


def at(i):
    """VA of instruction index ``i`` in a program loaded at K."""
    return K + i * INSTR_SIZE


def make_machine(enabled, **kw):
    m = MicroMachine(**kw)
    m.cpu.tcache.enabled = enabled
    m.cpu.mmu.tlb_enabled = enabled
    m.phys.psc_enabled = enabled
    return m


def snapshot(m):
    """Everything architecturally observable about a machine."""
    return {
        "rip": m.cpu.rip,
        "regs": dict(m.cpu.regs),
        "zf": m.cpu.zf,
        "ac": m.cpu.ac,
        "mode": m.cpu.mode,
        "crs": dict(m.cpu.crs),
        "msrs": dict(m.cpu.msrs),
        "ibt_wait": m.cpu._ibt_wait,
        "cycles": m.clock.cycles,
        "by_tag": dict(m.clock.by_tag),
        "events": dict(m.clock.events),
        "per_cpu": list(m.clock.per_cpu),
        "busy": dict(m.clock.busy_by_cpu),
        "mem": {fn: bytes(f.data) for fn, f in sorted(m.phys.frames.items())
                if f.data is not None},
    }


def lockstep(setup, *, run=None, expect=None):
    """Run ``setup`` on a cache-off and a cache-on machine and compare.

    ``run`` defaults to ``m.cpu.run()`` (to hlt, faults raised).
    ``expect`` is an exception type both runs must raise.
    Returns the (identical) snapshots' cache-on machine for extra asserts.
    """
    run = run or (lambda m: m.cpu.run(deliver_faults=False))
    results = []
    for enabled in (False, True):
        m = make_machine(enabled)
        setup(m)
        if expect is None:
            steps = run(m)
        else:
            with pytest.raises(expect) as exc_info:
                run(m)
            steps = str(exc_info.value)
        results.append((m, steps))
    (off, off_steps), (on, on_steps) = results
    assert off_steps == on_steps
    assert snapshot(off) == snapshot(on)
    return on


def load_at_k(program):
    """Standard setup: program at K, data pages at D, GS base armed."""
    def setup(m):
        m.map_data(D, pages=2)
        m.cpu.msrs[regs.IA32_GS_BASE] = D + 4096
        m.load_code(K, program)
        m.cpu.rip = K
    return setup


# --------------------------------------------------------------------------- #
# lockstep oracle: straight-line programs, one per opcode family
# --------------------------------------------------------------------------- #

PROGRAMS = {
    "alu": [
        I("movi", "rax", imm=7), I("movi", "rbx", imm=3),
        I("mov", "rcx", "rax"), I("add", "rax", "rbx"),
        I("sub", "rcx", "rbx"), I("and", "rax", "rcx"),
        I("or", "rax", "rbx"), I("xor", "rdx", "rax"),
        I("movi", "r8", imm=2), I("shl", "rax", "r8"),
        I("shr", "rbx", "r8"), I("mul", "rax", "rbx"),
        I("addi", "rdx", imm=5), I("cmp", "rax", "rbx"),
        I("cmpi", "rdx", imm=9), I("nop"), I("hlt"),
    ],
    "div": [
        I("movi", "rax", imm=144), I("movi", "rbx", imm=12),
        I("div", "rax", "rbx"), I("hlt"),
    ],
    "memory": [
        I("movi", "rax", imm=D), I("movi", "rbx", imm=0xDEAD),
        I("store", "rax", "rbx", imm=16), I("load", "rcx", "rax", imm=16),
        I("push", "rcx"), I("pop", "rdx"), I("hlt"),
    ],
    "gs_percpu": [
        I("movi", "rax", imm=0x77), I("gsstore", None, "rax", imm=8),
        I("gsload", "rbx", imm=8), I("hlt"),
    ],
    "branches": [
        I("movi", "rax", imm=1),            # 0
        I("cmpi", "rax", imm=1),            # 1: zf := True
        I("jz", imm=at(4)),                 # 2: taken
        I("hlt"),                           # 3: skipped
        I("cmpi", "rax", imm=2),            # 4: zf := False
        I("jnz", imm=at(7)),                # 5: taken
        I("hlt"),                           # 6: skipped
        I("jmp", imm=at(9)),                # 7
        I("hlt"),                           # 8: skipped
        I("hlt"),                           # 9
    ],
    "back_loop": [
        I("movi", "rcx", imm=5),            # 0
        I("addi", "rcx", imm=NEG1),         # 1: rcx -= 1, sets zf
        I("jnz", imm=at(1)),                # 2
        I("hlt"),                           # 3
    ],
    "call_ret": [
        I("call", imm=at(2)),               # 0
        I("hlt"),                           # 1
        I("ret"),                           # 2
    ],
    "icall": [
        I("movi", "rax", imm=at(3)),        # 0
        I("icall", "rax"),                  # 1
        I("hlt"),                           # 2
        I("ret"),                           # 3
    ],
    "ijmp": [
        I("movi", "rbx", imm=at(3)),        # 0
        I("ijmp", "rbx"),                   # 1
        I("hlt"),                           # 2 (skipped)
        I("hlt"),                           # 3
    ],
    "endbr_plain": [
        I("endbr"), I("nop"), I("hlt"),
    ],
    "sys_misc": [
        I("fence"), I("cpuid"),
        I("rdcr", "rax", imm=4),
        I("movi", "rcx", imm=regs.IA32_PKRS), I("rdmsr"),
        I("clac"), I("hlt"),
    ],
    "stac_clac": [
        I("stac"), I("clac"), I("hlt"),
    ],
    "wrmsr_rdmsr": [
        I("movi", "rcx", imm=regs.IA32_GS_BASE),
        I("movi", "rax", imm=0x1234), I("wrmsr"),
        I("rdmsr"), I("hlt"),
    ],
    "mov_cr": [
        I("rdcr", "rbx", imm=4), I("mov_cr", 4, "rbx"),
        I("rdcr", "rax", imm=0), I("mov_cr", 0, "rax"),
        I("hlt"),
    ],
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lockstep_program(name):
    lockstep(load_at_k(PROGRAMS[name]))


#: ops exercised by the scaffolded / faulting tests below, not PROGRAMS
EXTRA_COVERED = frozenset({
    "lidt", "int", "iret", "syscall", "sysret", "tdcall", "senduipi",
})


def test_every_opcode_has_a_lockstep_test():
    covered = {i.op for prog in PROGRAMS.values() for i in prog}
    covered |= EXTRA_COVERED
    missing = (set(OPCODES) | set(SENSITIVE_OPS)) - covered
    assert missing == set()


# --------------------------------------------------------------------------- #
# lockstep oracle: scaffolded ops (IDT, syscall entry, fault equivalence)
# --------------------------------------------------------------------------- #

def test_lockstep_lidt():
    def setup(m):
        m.install_idt({})          # registers the table at IDT_VA
        m.cpu.idt = None           # ...but force the program to lidt it
        m.load_code(K, [
            I("movi", "rax", imm=IDT_VA), I("lidt", None, "rax"), I("hlt"),
        ])
        m.cpu.rip = K
    on = lockstep(setup)
    assert on.cpu.idt is not None


def test_lockstep_int_iret_roundtrip():
    def setup(m):
        m.load_code(HANDLER_VA, [I("addi", "rbx", imm=1), I("iret")])
        m.install_idt({33: HANDLER_VA})
        m.load_code(K, [
            I("movi", "rax", imm=5),
            I("int", imm=33),
            I("addi", "rax", imm=1),
            I("hlt"),
        ])
        m.cpu.rip = K
    on = lockstep(setup)
    assert on.cpu.regs["rax"] == 6 and on.cpu.regs["rbx"] == 1


def test_lockstep_syscall_sysret():
    def setup(m):
        m.load_code(STUB_VA, [I("addi", "rdx", imm=1), I("hlt")])
        m.load_code(USER_CODE_VA, [I("nop"), I("syscall")], user=True)
        m.cpu.msrs[regs.IA32_LSTAR] = STUB_VA
        m.load_code(K, [
            I("movi", "rcx", imm=USER_CODE_VA),
            I("sysret"),
        ])
        m.cpu.rip = K
    on = lockstep(setup)
    assert on.cpu.regs["rdx"] == 1
    # syscall stashed the user return address in rcx
    assert on.cpu.regs["rcx"] == USER_CODE_VA + 2 * INSTR_SIZE


def test_lockstep_tdcall_outside_td_faults():
    lockstep(load_at_k([I("nop"), I("tdcall"), I("hlt")]),
             expect=GeneralProtectionFault)


def test_lockstep_senduipi_without_table_faults():
    lockstep(load_at_k([I("nop"), I("senduipi", "rax"), I("hlt")]),
             expect=GeneralProtectionFault)


def test_lockstep_hlt_from_user_mode_faults():
    def setup(m):
        m.load_code(USER_CODE_VA, [I("nop"), I("hlt")], user=True)
        m.cpu.mode = USER_MODE
        m.cpu.rip = USER_CODE_VA
    on = lockstep(setup, expect=GeneralProtectionFault)
    # the fault rip points at the hlt itself, mid-block
    assert on.cpu.rip == USER_CODE_VA + INSTR_SIZE


# --------------------------------------------------------------------------- #
# lockstep oracle: faults delivered mid-superblock
# --------------------------------------------------------------------------- #

MID_BLOCK_DIV0 = [
    I("movi", "rax", imm=9),
    I("movi", "rbx", imm=0),
    I("movi", "rdx", imm=7),
    I("div", "rax", "rbx"),       # faults after the fused pure run
    I("hlt"),
]

MID_BLOCK_BAD_LOAD = [
    I("movi", "rax", imm=0xDEAD_0000),   # unmapped
    I("movi", "rbx", imm=1),
    I("load", "rcx", "rax"),             # #PF mid-block
    I("addi", "rbx", imm=2),
    I("hlt"),
]


def test_divide_error_mid_superblock_raised():
    on = lockstep(load_at_k(MID_BLOCK_DIV0), expect=DivideError)
    assert on.cpu.rip == at(3)           # rip parked on the div


def test_divide_error_mid_superblock_delivered():
    def setup(m):
        m.load_code(HANDLER_VA, [I("addi", "r15", imm=1), I("hlt")])
        m.install_idt({0: HANDLER_VA})
        m.load_code(K, MID_BLOCK_DIV0)
        m.cpu.rip = K
    on = lockstep(setup, run=lambda m: m.cpu.run(deliver_faults=True))
    assert on.cpu.regs["r15"] == 1


def test_page_fault_mid_superblock_raised():
    on = lockstep(load_at_k(MID_BLOCK_BAD_LOAD), expect=PageFault)
    assert on.cpu.rip == at(2)           # rip parked on the load
    assert on.cpu.regs["rbx"] == 1       # earlier pure run retired


def test_page_fault_mid_superblock_delivered():
    def setup(m):
        m.load_code(HANDLER_VA, [I("addi", "r15", imm=1), I("hlt")])
        m.install_idt({14: HANDLER_VA})
        m.load_code(K, MID_BLOCK_BAD_LOAD)
        m.cpu.rip = K
    on = lockstep(setup, run=lambda m: m.cpu.run(deliver_faults=True))
    assert on.cpu.regs["r15"] == 1


def test_fetch_fault_at_block_entry():
    def setup(m):
        m.load_code(K, [I("jmp", imm=0xBAD_000)])  # jump into the void
        m.cpu.rip = K
    on = lockstep(setup, expect=PageFault)
    assert on.cpu.rip == 0xBAD_000


# --------------------------------------------------------------------------- #
# lockstep oracle: CET / IBT interactions with the burst path
# --------------------------------------------------------------------------- #

def arm_ibt(m):
    m.cpu.crs[4] |= regs.CR4_CET
    m.cpu.msrs[regs.IA32_S_CET] = regs.S_CET_ENDBR_EN


def test_lockstep_ibt_landing_pad():
    def setup(m):
        arm_ibt(m)
        m.load_code(K, [
            I("movi", "rax", imm=at(4)),   # 0
            I("icall", "rax"),             # 1: arms _ibt_wait
            I("hlt"),                      # 2
            I("nop"),                      # 3 (pad)
            I("endbr"),                    # 4: landing pad
            I("ret"),                      # 5
        ])
        m.cpu.rip = K
    lockstep(setup)


def test_lockstep_ibt_violation():
    def setup(m):
        arm_ibt(m)
        m.load_code(K, [
            I("movi", "rax", imm=at(3)),
            I("icall", "rax"),
            I("hlt"),
            I("nop"),                      # 3: not endbr -> #CP
        ])
        m.cpu.rip = K
    on = lockstep(setup, expect=ControlProtectionFault)
    assert on.cpu.rip == at(3)


# --------------------------------------------------------------------------- #
# lockstep oracle: step budgets bisecting a superblock
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("budget", [1, 2, 3, 4])
def test_budget_tail_bisects_block(budget):
    """run(max_steps=k) inside a block retires exactly k steps on both."""
    program = PROGRAMS["alu"]

    def partial(m):
        with pytest.raises(SimulatorError):
            m.cpu.run(max_steps=budget)
        return budget

    on = lockstep(load_at_k(program), run=partial)
    assert on.cpu.rip == at(budget)
    # and resuming finishes identically (re-entry mid-block)
    snaps = []
    for enabled in (False, True):
        m = make_machine(enabled)
        load_at_k(program)(m)
        with pytest.raises(SimulatorError):
            m.cpu.run(max_steps=budget)
        m.cpu.run()
        snaps.append(snapshot(m))
    assert snaps[0] == snaps[1]


def test_page_straddling_program_falls_back():
    """A code run crossing the page boundary stays bit-exact."""
    # 4096 % 12 == 4, so instruction 341 straddles pages 0 and 1
    program = [I("addi", "rax", imm=1) for _ in range(345)] + [I("hlt")]
    on = lockstep(load_at_k(program))
    assert on.cpu.regs["rax"] == 345


# --------------------------------------------------------------------------- #
# lockstep oracle: self-modifying code through a mutator segment
# --------------------------------------------------------------------------- #

def test_self_modifying_store_mid_block():
    """A store into the block's own later bytes must be honoured.

    The store rewrites the imm field of a movi further down the same
    superblock; the witness (code-frame version) dies, the burst stops
    at the mutator segment and the rebuilt block decodes the new bytes —
    exactly what the interpreter's per-instruction fetch sees.
    """
    w_va = 0x0050_0000
    patch_va = w_va + 4 * INSTR_SIZE + 4    # imm field of instruction 4

    def setup(m):
        fn = m.phys.alloc_frame("kernel")
        m.phys.frame(fn).materialize()
        m.aspace.map_page(w_va, fn, PTE_P | PTE_W, 0)
        program = [
            I("movi", "rax", imm=2),            # 0: the new immediate
            I("movi", "rbx", imm=patch_va),     # 1
            I("store", "rbx", "rax"),           # 2: rewrite instr 4's imm
            I("nop"),                           # 3
            I("movi", "rcx", imm=1),            # 4: becomes movi rcx, 2
            I("hlt"),                           # 5
        ]
        m.write_phys(w_va, b"".join(i.encode() for i in program))
        m.cpu.rip = w_va

    on = lockstep(setup)
    assert on.cpu.regs["rcx"] == 2


# --------------------------------------------------------------------------- #
# lockstep oracle: compiled blocks, chaining and the burst's data memo
# --------------------------------------------------------------------------- #

PAGE = 4096
USER_DATA = D + 4 * PAGE                  # a user page (SMAP-guarded)
PTE_VA = D + 8 * PAGE                     # direct-map window (see below)
ALT = D + 9 * PAGE                        # a second frame's window


def loop_at_k(body, *, count=4, **map_kw):
    """Setup running ``body`` ``count`` times in a loop at K.

    ``r8`` counts the passes down (the loop's own ``addi``/``jnz`` pair
    trails the body), ``r9`` points at D; the body starts at ``at(2)``.
    """
    program = [I("movi", "r8", imm=count), I("movi", "r9", imm=D),
               *body, I("addi", "r8", imm=NEG1), I("jnz", imm=at(2)),
               I("hlt")]

    def setup(m):
        m.map_data(D, **map_kw)
        m.load_code(K, program)
        m.cpu.rip = K
    return setup


def test_pkrs_write_between_two_loads_refreshes_the_context():
    """wrmsr IA32_PKRS mid-block: the second load sees the new rights.

    Pass 1 writes PKRS=0; pass 2 writes access-disable for key 1, so its
    second load of the key-1 page faults while its first one (still
    under PKRS=0) passes. A context hoisted across the wrmsr would let
    the second load through.
    """
    body = [I("load", "rdx", "r9"),
            I("movi", "rcx", imm=regs.IA32_PKRS), I("wrmsr"),
            I("load", "rbx", "r9"),
            I("addi", "rax", imm=regs.PKR_AD << 2)]
    on = lockstep(loop_at_k(body, pkey=1), expect=PageFault)
    assert on.cpu.rip == at(5)                 # the second load
    assert on.cpu.regs["r8"] == 3              # in the second pass


def test_clac_between_two_loads_of_a_user_page_faults():
    def setup(m):
        loop_at_k([I("movi", "r10", imm=USER_DATA),
                   I("load", "rdx", "r10"), I("clac"),
                   I("load", "rbx", "r10")])(m)
        m.map_data(USER_DATA, user=True)
        m.cpu.ac = True                        # SMAP suspended on entry
    on = lockstep(setup, expect=PageFault)
    assert on.cpu.rip == at(5)


def test_stac_then_clac_around_user_loads_every_pass():
    def setup(m):
        loop_at_k([I("movi", "r10", imm=USER_DATA), I("load", "rdx", "r9"),
                   I("stac"), I("load", "rbx", "r10"), I("clac"),
                   I("load", "rdx", "r9"), I("add", "r11", "rbx")])(m)
        m.map_data(USER_DATA, user=True)
        m.write_phys(USER_DATA, (5).to_bytes(8, "little"))
    on = lockstep(setup)
    assert on.cpu.regs["r11"] == 20 and on.cpu.ac is False


@pytest.mark.parametrize("denied", ["nx", "supervisor"])
def test_back_edge_to_a_denied_page_still_faults(denied):
    """A cached block on another page is never chained into.

    The target page's block is built by a first run in kernel mode,
    before the page is denied: for ``supervisor`` it stays fresh (the
    PTE is untouched), so only the same-page rule keeps the jump from
    skipping the fetch check that faults; for ``nx`` the NX rewrite
    leaves it cached but stale.
    """
    low = K
    high = K + PAGE
    user = denied == "supervisor"

    def setup(m):
        target = [I("addi", "rax", imm=1), I("jmp", imm=high)]
        m._map_region(low, 1, PTE_P, "kernel")
        m.write_phys(low, b"".join(i.encode() for i in target))
        m.cpu.rip = low
        with pytest.raises(PageFault):     # high is not mapped yet
            m.cpu.run(deliver_faults=False)
        m.cpu.regs["rax"] = 0
        if denied == "nx":
            m.aspace.set_pte(low, m.aspace.get_pte(low) | PTE_NX)
        m.load_code(high, [
            I("movi", "rcx", imm=3),
            I("addi", "rcx", imm=NEG1),          # loop on the high page
            I("jnz", imm=high + INSTR_SIZE),
            I("jmp", imm=low),                   # back-edge, other page
        ], user=user)
        if user:
            m.cpu.mode = USER_MODE
        m.cpu.rip = high
    on = lockstep(setup, expect=PageFault)
    assert on.cpu.rip == low and on.cpu.regs["rax"] == 0
    assert on.cpu.tcache.blocks.get((on.aspace.root_fn, low)) is not None


#: straight-line prologue (2) + 3-instruction loop x 4 + hlt: 15 steps
BUDGET_LOOP = [
    I("movi", "rcx", imm=4),             # 0
    I("movi", "rdx", imm=D),             # 1
    I("addi", "rcx", imm=NEG1),          # 2: loop block, chained to itself
    I("store", "rdx", "rcx"),            # 3
    I("jnz", imm=at(2)),                 # 4
    I("hlt"),                            # 5
]


@pytest.mark.parametrize("budget", range(1, 15))
def test_budget_runs_out_between_and_inside_chained_blocks(budget):
    """max_steps lands on every block boundary and every interior slot."""
    def partial(m):
        with pytest.raises(SimulatorError):
            m.cpu.run(max_steps=budget)
        return m.cpu.retired

    on = lockstep(load_at_k(BUDGET_LOOP), run=partial)
    assert on.cpu.retired == budget
    snaps = []
    for enabled in (False, True):
        m = make_machine(enabled)
        load_at_k(BUDGET_LOOP)(m)
        with pytest.raises(SimulatorError):
            m.cpu.run(max_steps=budget)
        assert m.cpu.run() == 15 - budget
        snaps.append(snapshot(m))
    assert snaps[0] == snaps[1]


@pytest.mark.parametrize("new_flags", ["retarget", "read_only"])
def test_store_rewriting_its_own_data_pte_through_the_direct_map(new_flags):
    """A loop rewrites the PTE of the page it stores to, mid-burst.

    The leaf table holding D's PTE is mapped writable at PTE_VA. Pass 1
    stores to D, then rewrites D's PTE: to a second frame (the rest of
    the pass and later passes must store there) or read-only (the
    pass's next store must fault). A memo entry surviving the PTE write
    would keep storing to the old frame.
    """
    def setup(m):
        m.map_data(D)
        m.map_data(ALT)
        slot = m.aspace.leaf_slot(D)
        m.aspace.map_page(PTE_VA, slot.table_fn, PTE_P | PTE_W)
        alt_fn = m.aspace.mapped_frame(ALT)
        pte = m.aspace.get_pte(D)
        if new_flags == "retarget":
            new_pte = pte & ~PTE_FRAME_MASK | alt_fn << 12
        else:
            new_pte = pte & ~PTE_W
        m.load_code(K, [
            I("movi", "r8", imm=3),
            I("movi", "r9", imm=D),
            I("movi", "r10", imm=PTE_VA + slot.index * 8),
            I("movi", "r11", imm=new_pte),
            I("store", "r9", "r8", imm=16),      # 4: loop
            I("load", "rax", "r9", imm=16),
            I("store", "r10", "r11"),            # rewrite D's own PTE
            I("store", "r9", "rax", imm=24),
            I("addi", "r8", imm=NEG1),
            I("jnz", imm=at(4)),
            I("hlt"),
        ])
        m.cpu.rip = K

    if new_flags == "retarget":
        on = lockstep(setup)
        alt = on.aspace.mapped_frame(D)          # D now maps ALT's frame
        assert on.phys.read_u64((alt << 12) + 24) == 1
    else:
        on = lockstep(setup, expect=PageFault)
        assert on.cpu.rip == at(7) and on.cpu.regs["r8"] == 3


#: walks r9 up from 3 words below the end of D's only page: the 4th
#: pass loads from the unmapped page above it
FAULT_ON_PASS_4 = [
    I("movi", "r8", imm=10),
    I("movi", "r9", imm=D + PAGE - 24),
    I("load", "rax", "r9"),              # 2: loop
    I("store", "r9", "r8", imm=-8 & NEG1),
    I("addi", "r9", imm=8),
    I("addi", "r8", imm=NEG1),
    I("jnz", imm=at(2)),
    I("hlt"),
]


def test_data_page_fault_on_a_later_pass_raised():
    def setup(m):
        m.map_data(D)
        m.load_code(K, FAULT_ON_PASS_4)
        m.cpu.rip = K
    on = lockstep(setup, expect=PageFault)
    assert on.cpu.rip == at(2) and on.cpu.regs["r8"] == 7
    assert on.cpu.retired == 2 + 3 * 5 + 1


def test_data_page_fault_on_a_later_pass_delivered():
    def setup(m):
        m.map_data(D)
        m.load_code(HANDLER_VA, [I("addi", "r15", imm=1), I("hlt")])
        m.install_idt({14: HANDLER_VA})
        m.load_code(K, FAULT_ON_PASS_4)
        m.cpu.rip = K
    on = lockstep(setup, run=lambda m: m.cpu.run(deliver_faults=True))
    assert on.cpu.regs["r15"] == 1 and on.cpu.regs["r8"] == 7


# --------------------------------------------------------------------------- #
# lockstep property: random programs over the whole opcode table
# --------------------------------------------------------------------------- #

DATA_REGS = ("rax", "rbx", "rcx", "rdx", "rdi")
PTR_REGS = ("r8", "r9", "r10", "r11", "rsi")

#: data pointers the programs start with: the kernel page (key 1), the
#: user page (SMAP), both code pages, and a page-straddling word
POINTERS = {"r8": D, "r9": D + PAGE, "r10": K, "r11": K + PAGE,
            "rsi": D + PAGE - 4}

IMMS = (0, 1, 8, 16, 4088, 4092, 4096, NEG1, NEG1 - 7, D, K)
#: load/store displacements: mostly in-page, some page-crossing
DISPS = (0, 0, 8, 16, 24, 32, 4088, NEG1 - 7)

MAX_ITEMS = 14          # per code page
PROP_STEPS = 300        # run budget: endless loops end in SimulatorError

data_st = st.sampled_from(DATA_REGS)
ptr_st = st.sampled_from(PTR_REGS)
any_st = st.sampled_from(DATA_REGS + PTR_REGS)
imm_st = st.sampled_from(IMMS)
disp_st = st.sampled_from(DISPS)


class Branch(tuple):
    """``(op, page, slot)``: a direct branch, target resolved at assembly."""


ALU = st.builds(lambda op, d, s_: [I(op, d, s_)],
                st.sampled_from(["mov", "add", "sub", "and", "or", "xor",
                                 "shl", "shr", "mul", "div", "cmp"]),
                data_st, any_st)
IMM_OPS = st.builds(lambda op, d, imm: [I(op, d, imm=imm)],
                    st.sampled_from(["movi", "addi", "cmpi"]), data_st,
                    imm_st)
MEMORY = st.builds(lambda op, p, r, imm: [I(op, p, r, imm=imm)
                                          if op == "store" else
                                          I(op, r, p, imm=imm)],
                   st.sampled_from(["load", "store"]), ptr_st, any_st,
                   disp_st)
BRANCH = st.builds(lambda *a: Branch(a),
                   st.sampled_from(["jmp", "jz", "jnz", "call"]),
                   st.integers(0, 1), st.integers(0, 4 * MAX_ITEMS))
CONTEXT = st.one_of(
    st.builds(lambda op: [I(op)], st.sampled_from(["stac", "clac"])),
    st.builds(lambda rights: [I("movi", "rcx", imm=regs.IA32_PKRS),
                              I("movi", "rax", imm=rights), I("wrmsr")],
              st.sampled_from([0, regs.PKR_AD << 2, regs.PKR_WD << 2])),
)
OTHER = st.one_of(
    st.builds(lambda op, r: [I(op, r)], st.sampled_from(["push", "pop"]),
              any_st),
    st.builds(lambda op, r, imm: [I(op, r, r, imm=imm)],
              st.sampled_from(["gsload", "gsstore"]), data_st, imm_st),
    st.builds(lambda op: [I(op)],
              st.sampled_from(["nop", "endbr", "fence", "rdmsr", "cpuid"])),
    st.builds(lambda r, crn: [I("rdcr", r, imm=crn)], data_st,
              st.sampled_from([0, 3, 4])),
)
#: ops that mostly end a run: kept rare so most programs run a while
RARE = st.one_of(
    st.builds(lambda op: [I(op)],
              st.sampled_from(["hlt", "ret", "iret", "tdcall", "syscall",
                               "sysret"])),
    st.builds(lambda op, r: [I(op, r)],
              st.sampled_from(["icall", "ijmp", "senduipi"]), any_st),
    st.builds(lambda r, crn: [I("mov_cr", crn, r)], data_st,
              st.sampled_from([0, 4])),
    st.builds(lambda r, v: [I("int", imm=v), I("lidt", None, r)], data_st,
              st.sampled_from([3, 14])),
)


class Loop(tuple):
    """``(count, body)``: a counted loop on ``r12`` around ``body``."""


def weighted(*weights_and_strategies):
    """Pick a strategy with the given weight, then draw from it (a plain
    ``one_of`` would flatten the nested groups into equal branches)."""
    pool = [strat for weight, strat in weights_and_strategies
            for _ in range(weight)]
    return st.sampled_from(pool).flatmap(lambda strat: strat)


#: two accesses through one pointer around a context change: what a
#: memo entry outliving the change would get wrong
SANDWICH = st.builds(
    lambda p, first, ctx, second, r: [
        I(first, p, r) if first == "store" else I(first, r, p), *ctx,
        I(second, p, r) if second == "store" else I(second, r, p)],
    ptr_st, st.sampled_from(["load", "store"]), CONTEXT,
    st.sampled_from(["load", "store"]), data_st)
BODY = st.lists(weighted((3, ALU), (2, IMM_OPS), (4, MEMORY), (1, CONTEXT),
                         (1, SANDWICH)),
                min_size=1, max_size=6)
LOOP = st.builds(lambda n, body: Loop((n, body)), st.integers(1, 6), BODY)
ITEM = weighted((4, ALU), (3, IMM_OPS), (5, MEMORY), (2, BRANCH),
                (2, CONTEXT), (2, SANDWICH), (2, OTHER), (3, LOOP),
                (1, RARE))

PROGRAM = st.tuples(st.lists(ITEM, min_size=1, max_size=MAX_ITEMS),
                    st.lists(ITEM, max_size=MAX_ITEMS))


def assemble_pages(pages):
    """Flatten generated items into code for each page.

    Loops count down ``r12`` around their body; branch targets wrap
    into the target page's code, so every branch lands on an
    instruction of the program.
    """
    codes = []
    for page, items in enumerate(pages):
        va = K + page * PAGE
        code = []
        for item in items:
            if isinstance(item, Loop):
                count, body = item
                code.append(I("movi", "r12", imm=count))
                head = va + len(code) * INSTR_SIZE
                code += [i for part in body for i in part]
                code += [I("addi", "r12", imm=NEG1), I("jnz", imm=head)]
            elif isinstance(item, Branch):
                code.append(item)
            else:
                code += item
        codes.append(code + [I("hlt")])
    for code in codes:
        for n, instr in enumerate(code):
            if isinstance(instr, Branch):
                op, page, slot = instr
                page = page if page < len(codes) else 0
                target = K + page * PAGE + slot % len(codes[page]) * INSTR_SIZE
                code[n] = I(op, imm=target)
    return codes


def run_random(enabled, pages):
    """Load both code pages writable, run, return the full outcome."""
    m = make_machine(enabled)
    m.map_data(D, pkey=1)
    m.map_data(D + PAGE, user=True)
    m.cpu.msrs[regs.IA32_GS_BASE] = D + 8
    m.cpu.regs.update(POINTERS, rsp=D + PAGE - 64)
    m.cpu.ac = True                       # until a clac: SMAP suspended
    for page, code in enumerate(assemble_pages(pages)):
        va = K + page * PAGE
        m._map_region(va, 1, PTE_P | PTE_W, "kernel")
        blob = b"".join(i.encode() for i in code)
        m.write_phys(va, blob)
    m.cpu.rip = K
    try:
        result = m.cpu.run(max_steps=PROP_STEPS, deliver_faults=False)
    except (HardwareFault, SimulatorError) as exc:
        result = type(exc).__name__
    return result, m.cpu.retired, snapshot(m)


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(PROGRAM)
def test_random_programs_run_in_lockstep(pages):
    """Cache on vs off: same result or fault type, count, rip and state."""
    assert run_random(True, pages) == run_random(False, pages)


# --------------------------------------------------------------------------- #
# speed: the cache pays for itself on a CPU-bound loop
# --------------------------------------------------------------------------- #

#: floor on the cache-on speedup (~11x measured on a shared 2-vCPU host)
SPEED_FLOOR = 5.0

#: alternating off/on timing rounds; each arm keeps its fastest round
SPEED_ROUNDS = 3

LOOPS = 20_000

LOOP_PROGRAM = [
    I("movi", "rax", imm=0),              # 0
    I("movi", "rcx", imm=LOOPS),          # 1
    I("addi", "rax", imm=1),              # 2: loop body (9 instrs)
    I("mov", "rbx", "rax"),               # 3
    I("add", "rbx", "rax"),               # 4
    I("cmp", "rbx", "rax"),               # 5
    I("and", "rbx", "rax"),               # 6
    I("xor", "rdx", "rbx"),               # 7
    I("nop"),                             # 8
    I("addi", "rcx", imm=NEG1),           # 9: rcx -= 1
    I("jnz", imm=at(2)),                  # 10
    I("hlt"),                             # 11
]


#: floor on the cache-on speedup of a load/ALU/store loop, where every
#: pass also pays two data accesses (~10x measured on a shared 2-vCPU host)
MEM_SPEED_FLOOR = 6.0

MEM_LOOP_PROGRAM = [
    I("movi", "rcx", imm=LOOPS),          # 0
    I("movi", "rsi", imm=D),              # 1
    I("load", "rax", "rsi"),              # 2: loop body (6 instrs)
    I("add", "rax", "rcx"),               # 3
    I("store", "rsi", "rax", imm=8),      # 4
    I("xor", "rdx", "rax"),               # 5
    I("addi", "rcx", imm=NEG1),           # 6: rcx -= 1
    I("jnz", imm=at(2)),                  # 7
    I("hlt"),                             # 8
]


def timed_loop(enabled, program=LOOP_PROGRAM):
    """One run of ``program``; returns (machine, steps, host seconds)."""
    m = make_machine(enabled)
    m.map_data(D)
    m.load_code(K, program)
    m.cpu.rip = K
    t0 = time.perf_counter()
    steps = m.cpu.run(max_steps=LOOPS * 12)
    return m, steps, time.perf_counter() - t0


def best_of_alternating(program):
    """Min-of-``SPEED_ROUNDS`` host time per arm, off/on alternating."""
    best = {}
    for _ in range(SPEED_ROUNDS):
        for enabled in (False, True):
            run = timed_loop(enabled, program)
            if enabled not in best or run[2] < best[enabled][2]:
                best[enabled] = run
    return best[False], best[True]


def test_cache_speeds_up_a_cpu_bound_loop_with_identical_state():
    (off, off_steps, off_host), (on, on_steps, on_host) = \
        best_of_alternating(LOOP_PROGRAM)
    assert on_steps == off_steps
    # cycle ledger, registers, rip, flags and memory all agree
    assert snapshot(on) == snapshot(off)
    # the fast arm really retired the loop body in superblock bursts
    assert on.cpu.tcache.sb_exec > 0
    assert off.cpu.tcache.sb_exec == 0
    speedup = off_host / on_host
    assert speedup >= SPEED_FLOOR, (
        f"cpu-bound speedup {speedup:.2f}x under the {SPEED_FLOOR}x floor "
        f"(off {off_host:.3f}s, on {on_host:.3f}s)")


def test_cache_speeds_up_a_memory_loop_with_identical_state():
    (off, off_steps, off_host), (on, on_steps, on_host) = \
        best_of_alternating(MEM_LOOP_PROGRAM)
    assert on_steps == off_steps == 2 + 6 * LOOPS + 1
    assert snapshot(on) == snapshot(off)
    assert on.cpu.tcache.sb_exec > 0
    speedup = off_host / on_host
    assert speedup >= MEM_SPEED_FLOOR, (
        f"memory-loop speedup {speedup:.2f}x under the {MEM_SPEED_FLOOR}x "
        f"floor (off {off_host:.3f}s, on {on_host:.3f}s)")


# --------------------------------------------------------------------------- #
# superblock invalidation: code/PTE witnesses
# --------------------------------------------------------------------------- #

def test_disabled_cache_retires_nothing_from_blocks():
    m = make_machine(False)
    m.load_code(K, PROGRAMS["back_loop"])
    m.cpu.rip = K
    m.cpu.run()
    assert m.cpu.tcache.sb_exec == 0
    assert m.cpu.mmu.tlb_hits == 0


def test_code_byte_write_invalidates_block():
    m = make_machine(True)
    m.load_code(K, [I("movi", "rax", imm=1), I("hlt")])
    m.cpu.rip = K
    m.cpu.run()
    assert m.cpu.regs["rax"] == 1
    # hot-patch the immediate through the loader (bumps Frame.version)
    m.write_phys(K, I("movi", "rax", imm=99).encode())
    m.cpu.rip = K
    m.cpu.run()
    assert m.cpu.regs["rax"] == 99


def test_code_page_remap_invalidates_block():
    m = make_machine(True)
    m.load_code(K, [I("movi", "rax", imm=1), I("hlt")])
    m.cpu.rip = K
    m.cpu.run()
    # CoW-style replacement: a different frame with different code
    new_fn = m.phys.alloc_frame("kernel")
    buf = m.phys.frame(new_fn).materialize()
    blob = b"".join(i.encode() for i in [I("movi", "rax", imm=7), I("hlt")])
    buf[:len(blob)] = blob
    m.aspace.map_page(K, new_fn, PTE_P, 0)
    m.cpu.rip = K
    m.cpu.run()
    assert m.cpu.regs["rax"] == 7


# --------------------------------------------------------------------------- #
# TLB invalidation matrix (MMU-level)
# --------------------------------------------------------------------------- #

VA = 0x0070_0000


class TestTlbInvalidation:
    def setup_method(self):
        self.m = make_machine(True)
        self.mmu = self.m.cpu.mmu
        self.ctx = AccessContext()

    def map_rw(self, va=VA):
        fn = self.m.phys.alloc_frame("kernel")
        self.m.phys.frame(fn).materialize()
        self.m.aspace.map_page(va, fn, PTE_P | PTE_W, 0)
        return fn

    def check(self, access="read", va=VA):
        return self.mmu.check(self.m.aspace, va, access, self.ctx)

    def assert_hit(self, access="read", va=VA):
        before = self.mmu.tlb_hits
        pa, _ = self.check(access, va)
        assert self.mmu.tlb_hits == before + 1
        return pa

    def test_hit_after_walk(self):
        self.map_rw()
        self.check("write")
        self.assert_hit("write")

    def test_mprotect_downgrade_misses(self):
        fn = self.map_rw()
        self.check("write")
        self.assert_hit("write")
        slot = self.m.aspace.leaf_slot(VA)
        pte = self.m.phys.read_u64(slot.pa)
        self.m.aspace.set_pte(VA, pte & ~PTE_W)   # mprotect / template seal
        with pytest.raises(PageFault):
            self.check("write")
        pa, _ = self.check("read")                # read-only still maps
        assert pa >> 12 == fn

    def test_clear_pte_unmaps(self):
        self.map_rw()
        self.check("read")
        self.assert_hit("read")
        self.m.aspace.clear_pte(VA)
        with pytest.raises(PageFault) as exc:
            self.check("read")
        assert not exc.value.present

    def test_cow_frame_replacement_retargets(self):
        fn_a = self.map_rw()
        self.m.phys.write(fn_a << 12, b"A" * 8)
        assert self.check("read")[0] >> 12 == fn_a
        self.assert_hit("read")
        # CoW resolution: same VA, new frame, new contents
        fn_b = self.m.phys.alloc_frame("kernel")
        self.m.phys.frame(fn_b).materialize()
        self.m.phys.write(fn_b << 12, b"B" * 8)
        self.m.aspace.map_page(VA, fn_b, PTE_P | PTE_W, 0)
        pa, _ = self.check("read")
        assert pa >> 12 == fn_b
        assert self.m.phys.read(pa, 8) == b"B" * 8

    def test_pool_scrub_slot_reuse_never_stale(self):
        """A freed + reallocated + remapped slot must re-walk, not hit."""
        fn_a = self.map_rw()
        self.check("write")
        self.assert_hit("write")
        self.m.aspace.clear_pte(VA)
        self.m.phys.free_frames([fn_a])
        fn_new = self.m.phys.alloc_frame("tenant-2")
        self.m.phys.frame(fn_new).materialize()
        self.m.phys.zero_frame(fn_new)            # pool scrub
        self.m.aspace.map_page(VA, fn_new, PTE_P | PTE_W, 0)
        pa, _ = self.check("write")
        assert pa >> 12 == fn_new
        assert self.m.phys.frame(pa >> 12).owner == "tenant-2"

    def test_direct_map_pte_scribble_misses(self):
        """A raw write to the PTE's physical bytes defeats the cache."""
        self.map_rw()
        self.check("write")
        self.assert_hit("write")
        slot = self.m.aspace.leaf_slot(VA)
        pte = self.m.phys.read_u64(slot.pa)
        self.m.phys.write_u64(slot.pa, pte & ~PTE_W)
        with pytest.raises(PageFault):
            self.check("write")

    def test_shadow_stack_flip_without_byte_write(self):
        fn = self.map_rw()
        self.check("write")
        self.assert_hit("write")
        self.m.phys.frame(fn).is_shadow_stack = True
        with pytest.raises(PageFault):
            self.check("write")                   # normal write now denied
        ss_ctx = AccessContext(shadow_stack_op=True)
        pa, _ = self.mmu.check(self.m.aspace, VA, "write", ss_ctx)
        assert pa >> 12 == fn

    def test_interior_entry_scribble_misses(self):
        """Zeroing the root entry kills hits even with the leaf intact."""
        self.map_rw()
        self.check("read")
        self.assert_hit("read")
        root_pa = (self.m.aspace.root_fn << 12) + ((VA >> 30) & 511) * 8
        saved = self.m.phys.read_u64(root_pa)
        self.m.phys.write_u64(root_pa, 0)
        with pytest.raises(PageFault) as exc:
            self.check("read")
        assert not exc.value.present
        self.m.phys.write_u64(root_pa, saved)
        self.check("read")                        # walk works again

    def test_flush_then_rewalk_same_answer(self):
        fn = self.map_rw()
        pa1, _ = self.check("read")
        self.mmu.tlb_flush()
        before = self.mmu.tlb_hits
        pa2, _ = self.check("read")
        assert pa1 == pa2 == ((fn << 12) | (VA & 0xFFF))
        assert self.mmu.tlb_hits == before        # it was a miss
        self.assert_hit("read")

    def test_neighbour_ad_traffic_keeps_entry(self):
        """A/D updates on a *neighbouring* PTE don't evict this entry."""
        self.map_rw()
        self.map_rw(VA + 4096)
        self.check("read")
        self.check("read", va=VA + 4096)          # sets A on the neighbour
        self.assert_hit("read")
