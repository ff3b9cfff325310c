"""The EMC entry/exit gates and #INT gate, as executable gate code (Fig. 5).

These are the paper's Figure 5 assembly sequences expressed in the
simulated ISA. They run for real on the micro CPU: the entry gate is the
*only* ``endbr`` landing pad in monitor code (IBT therefore forces all
indirect control transfers to it), it grants the current core access to
monitor memory by rewriting ``IA32_PKRS``, switches to the per-CPU secure
stack, dispatches the requested EMC, and the exit gate reverses everything.

The calibration contract: executing one empty EMC through these gates
costs exactly ``Cost.EMC_ROUND_TRIP`` (1224) cycles — a test pins this, so
any edit to the gate code or instruction costs that breaks Table 3 fails
loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw import regs
from ..hw.isa import I, INSTR_SIZE, Instr
from .emc import EmcCall, ENTRY_GATE_VA, MONITOR_DATA_VA, MONITOR_STACK_TOP

# protection keys (monitor-owned assignment plan, §5.2)
PKEY_DEFAULT = 0
PKEY_MONITOR = 1      # monitor code/data/stacks: kernel has no access
# page-table pages: reserved, but no PTE carries it yet; what keeps page
# tables unwritable is NestedMmu refusing writable mappings of their frames
PKEY_PT = 2
PKEY_KTEXT = 3        # kernel text: write-protected (W^X)

#: PKRS for the monitor (privileged virtual mode): everything accessible.
PKRS_MONITOR = 0
#: PKRS for the deprivileged kernel (normal mode).
PKRS_KERNEL = regs.pkrs_value(
    k1=regs.PKR_AD | regs.PKR_WD,   # monitor memory: no access
    k2=regs.PKR_WD,                 # PTPs: read-only
    k3=regs.PKR_WD,                 # kernel text: no writes
)

#: per-CPU monitor data layout: each core's GS base points at its own
#: 4 KiB page inside the monitor data area (page = MONITOR_DATA_VA +
#: cpu_id * PERCPU_STRIDE); the gates address these slots gs-relative, so
#: the same gate code serves every core with its own secure stack.
PERCPU_STRIDE = 0x1000         # one page of monitor data per logical CPU
PERCPU_STACK_OFFSET = 0        # per-CPU secure stack pointer
PERCPU_PKRS_OFFSET = 8         # #INT gate PKRS spill slot


def percpu_base(cpu_id: int) -> int:
    return MONITOR_DATA_VA + cpu_id * PERCPU_STRIDE


#: CPU 0's slots by absolute VA (legacy names used by tests/rigs)
SECURE_STACK_SLOT = MONITOR_DATA_VA + PERCPU_STACK_OFFSET
SAVED_PKRS_SLOT = MONITOR_DATA_VA + PERCPU_PKRS_OFFSET


def entry_gate() -> list[Instr]:
    """Fig. 5a — the only endbr in the monitor.

    On entry (via ``icall`` from an EMC thunk): rdi = call number, rsi/rdx/
    r8 = arguments. Scratch registers are preserved on the OS stack, PKRS
    is opened, execution moves to the per-CPU secure stack.
    """
    return [
        I("endbr"),                                    # IBT landing pad
        # save scratch registers below the OS stack pointer
        I("store", "rsp", "rax", imm=-8 & (2**64 - 1)),
        I("store", "rsp", "rdx", imm=-16 & (2**64 - 1)),
        I("store", "rsp", "rcx", imm=-24 & (2**64 - 1)),
        # grant monitor memory permissions: IA32_PKRS <- PKRS_MONITOR
        I("movi", "rcx", imm=regs.IA32_PKRS),
        I("rdmsr"),                                    # rax = old PKRS
        I("mov", "r10", "rax"),                        # keep old PKRS
        I("movi", "rax", imm=PKRS_MONITOR),
        I("wrmsr"),
        # switch to this core's secure stack (gs-relative per-CPU slot)
        I("mov", "rcx", "rsp"),
        I("gsload", "rsp", imm=PERCPU_STACK_OFFSET),
        I("push", "rcx"),                              # save OS stack pointer
        # restore scratch registers (from the OS stack, via rcx)
        I("load", "rax", "rcx", imm=-8 & (2**64 - 1)),
        I("load", "rdx", "rcx", imm=-16 & (2**64 - 1)),
        I("load", "rcx", "rcx", imm=-24 & (2**64 - 1)),
    ]


def dispatch_chain(call_numbers: list[int], *, base_va: int,
                   handler_vas: dict[int, int], exit_va: int) -> list[Instr]:
    """Monitor-internal EMC dispatch: a direct cmp/jz chain.

    IBT forbids indirect calls without ``endbr`` landing pads, and the
    monitor must contain exactly one ``endbr`` (the entry gate), so
    dispatch is a compare chain of *direct* calls — the shape a compiler
    emits for a small switch. Unknown call numbers fall through to the
    exit gate (denied, no work done).

    Layout: [fence] + per-call (cmpi, jz) pairs + jmp exit + per-call
    call sites (call handler, jmp exit).
    """
    n = len(call_numbers)
    chain: list[Instr] = [I("fence")]
    # call-site block starts after: fence + n*(cmpi,jz) + 1 jmp
    sites_base = base_va + (1 + 2 * n + 1) * INSTR_SIZE
    for idx, number in enumerate(call_numbers):
        chain.append(I("cmpi", "rdi", imm=number))
        chain.append(I("jz", imm=sites_base + idx * 2 * INSTR_SIZE))
    chain.append(I("jmp", imm=exit_va))
    for number in call_numbers:
        chain.append(I("call", imm=handler_vas[number]))
        chain.append(I("jmp", imm=exit_va))
    return chain


def exit_gate() -> list[Instr]:
    """Fig. 5b — revoke permissions and return to the OS."""
    return [
        # switch back to the OS stack (saved at the secure stack top)
        I("load", "rsp", "rsp"),
        # save scratch registers
        I("push", "rax"),
        I("push", "rcx"),
        I("push", "rdx"),
        # revoke kernel access: IA32_PKRS <- PKRS_KERNEL
        I("movi", "rcx", imm=regs.IA32_PKRS),
        I("rdmsr"),
        I("movi", "rax", imm=PKRS_KERNEL),
        I("wrmsr"),
        # restore scratch registers
        I("pop", "rdx"),
        I("pop", "rcx"),
        I("pop", "rax"),
        I("ret"),
    ]


def int_gate(os_handler_va: int) -> list[Instr]:
    """Fig. 5c-right — the protected interrupt gate.

    If an interrupt preempts EMC execution, the gate spills the live PKRS
    to monitor memory, revokes permissions, and only then enters the OS
    handler, so a preempting kernel never runs with monitor access.

    The gate must work no matter *when* the interrupt lands — including
    outside any EMC, when permissions are already closed and the spill
    slot is unreachable. It therefore briefly opens PKRS itself (it is
    monitor code and may), spills the *previous* value, then revokes.
    Interrupts are disabled while the gate runs (hardware clears IF on
    gate transit), so the open window cannot itself be preempted.
    """
    saves = [I("push", r) for r in _SAVED_GPRS]
    return saves + [
        # read the interrupted PKRS and hold it
        I("movi", "rcx", imm=regs.IA32_PKRS),
        I("rdmsr"),
        I("mov", "rdx", "rax"),
        # open (so the per-CPU spill slot is writable), spill, revoke
        I("movi", "rax", imm=PKRS_MONITOR),
        I("wrmsr"),
        I("gsstore", src="rdx", imm=PERCPU_PKRS_OFFSET),
        I("movi", "rax", imm=PKRS_KERNEL),
        I("wrmsr"),
        # the OS handler runs with the full register file parked on the
        # interrupt stack; it may clobber anything and must come back via
        # the return gate with rsp unchanged
        I("jmp", imm=os_handler_va),
    ]


#: every GPR the #INT gate parks on the interrupt stack (paper: "saves all
#: general-purpose registers"); rsp is carried by the interrupt frame
_SAVED_GPRS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp",
               "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")


def int_gate_return() -> list[Instr]:
    """Restore the spilled PKRS when the interrupted EMC resumes.

    Permissions are closed at this point, so the gate must re-open PKRS
    *before* it can read the spill slot. It then restores the full GPR
    file the entry side parked on the interrupt stack and ``iret``s. The
    path is safe against a kernel jumping here directly: the concluding
    ``iret`` is shadow-stack-verified, so a forged entry ends in #CP,
    whose vector routes back through the #INT gate and revokes
    permissions again.
    """
    restores = [I("pop", r) for r in reversed(_SAVED_GPRS)]
    return [
        # re-open (monitor code may carry wrmsr; IBT keeps this unreachable
        # as an indirect-branch target), restore the spilled PKRS
        I("movi", "rcx", imm=regs.IA32_PKRS),
        I("movi", "rax", imm=PKRS_MONITOR),
        I("wrmsr"),
        I("gsload", "rax", imm=PERCPU_PKRS_OFFSET),
        I("movi", "rcx", imm=regs.IA32_PKRS),
        I("wrmsr"),
    ] + restores + [
        I("iret"),
    ]


@dataclass
class MonitorLayout:
    """Virtual addresses of the assembled monitor pieces."""

    entry_gate_va: int
    dispatch_va: int
    exit_gate_va: int
    handlers_va: dict[int, int]
    code: list[Instr]


def build_monitor_code(handlers: dict[int, list[Instr]] | None = None) -> MonitorLayout:
    """Assemble the monitor's gate code into one contiguous program.

    ``handlers`` maps EMC numbers to ISA bodies (each must end in ``ret``);
    unlisted numbers get the empty handler. The layout places the entry
    gate first at the published :data:`ENTRY_GATE_VA` so instrumented
    kernels can target it, with no other ``endbr`` anywhere.

    Layout: entry gate | dispatch chain | exit gate | handlers.
    """
    handlers = dict(handlers or {})
    call_numbers = [int(n) for n in EmcCall]
    # NOP first: the empty-EMC microbenchmark exercises the shortest chain
    call_numbers.sort(key=lambda n: (n != int(EmcCall.NOP), n))

    entry = entry_gate()
    dispatch_va = ENTRY_GATE_VA + len(entry) * INSTR_SIZE
    n = len(call_numbers)
    dispatch_len = 1 + 2 * n + 1 + 2 * n           # fence, chain, jmp, sites
    exit_va = dispatch_va + dispatch_len * INSTR_SIZE
    exit_code = exit_gate()

    # handlers area follows the exit gate
    handlers_va: dict[int, int] = {}
    handler_code: list[Instr] = []
    empty_va = exit_va + len(exit_code) * INSTR_SIZE
    handler_code.append(I("ret"))                  # the empty handler
    for number, body in handlers.items():
        handlers_va[int(number)] = (empty_va
                                    + len(handler_code) * INSTR_SIZE)
        handler_code += body
    for number in call_numbers:
        handlers_va.setdefault(number, empty_va)

    code = (entry
            + dispatch_chain(call_numbers, base_va=dispatch_va,
                             handler_vas=handlers_va, exit_va=exit_va)
            + exit_code
            + handler_code)
    return MonitorLayout(
        entry_gate_va=ENTRY_GATE_VA,
        dispatch_va=dispatch_va,
        exit_gate_va=exit_va,
        handlers_va=handlers_va,
        code=code,
    )
