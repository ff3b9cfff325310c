"""Software model of the Intel TDX module.

The TDX module is trusted, Intel-signed software sitting between a TD guest
and the untrusted host VMM. The pieces the Erebor design depends on
(paper §2.1) are modelled faithfully:

* a **secure EPT**: every guest-physical frame is *private* (unreadable by
  host and devices) or *shared*; conversion requires an explicit ``tdcall``
  (MapGPA) from the guest — which is exactly the interface Erebor's
  monitor monopolises;
* **synchronous exits**: guest events the host must emulate (``cpuid``,
  exit-triggering ``wrmsr``, explicit hypercalls) raise #VE into the guest,
  whose #VE handler marshals arguments and performs
  ``tdcall(vmcall)`` (GHCI);
* **context protection**: on every TD exit the module saves and scrubs the
  guest's register state, so the host never sees live registers — modelled
  both as a cycle cost (Table 3's expensive ``tdcall``) and as a scrubbed
  register snapshot handed to the VMM;
* **TDREPORT**: attestation reports binding the guest's boot measurement
  to 64 bytes of caller data, signed via the attestation authority.

Worst-case modelling choice (documented in DESIGN.md): converting a page
private→shared *retains its contents*, making the AV1 "convert and DMA
out" attack actually succeed unless Erebor's GHCI policy blocks it. Real
TDX drops contents on conversion; keeping them makes our negative tests
strictly stronger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..hw.cycles import Cost, CycleClock
from ..hw.errors import GeneralProtectionFault
from ..hw.memory import PhysicalMemory

if TYPE_CHECKING:
    from .attestation import AttestationAuthority, TdReport
    from .vmm import HostVmm

# tdcall leaves (subset of the real ABI, same shape)
LEAF_VMCALL = 0          # GHCI hypercall to the host VMM
LEAF_TDREPORT = 4        # generate an attestation report
LEAF_ACCEPT_PAGE = 6     # accept a newly added private page

# vmcall (GHCI) sub-functions, passed in rbx at the micro level
VMCALL_MAPGPA = 0x10001
VMCALL_HLT = 0x10002
VMCALL_IO = 0x10003      # paravirt I/O doorbell (proxy NIC/disk)
VMCALL_CPUID = 0x10004   # host-emulated cpuid
VMCALL_GETQUOTE = 0x10005

PRIVATE = "private"
SHARED = "shared"


@dataclass
class TdxMeasurement:
    """Boot-time measurement state: MRTD plus runtime registers."""

    mrtd: bytes = b""
    rtmrs: list[bytes] = field(default_factory=lambda: [b""] * 4)

    def extend_mrtd(self, data: bytes) -> None:
        import hashlib
        self.mrtd = hashlib.sha384(self.mrtd + hashlib.sha384(data).digest()).digest()

    def extend_rtmr(self, index: int, data: bytes) -> None:
        import hashlib
        self.rtmrs[index] = hashlib.sha384(
            self.rtmrs[index] + hashlib.sha384(data).digest()).digest()


class TdxModule:
    """The per-TD trusted module instance."""

    def __init__(self, phys: PhysicalMemory, clock: CycleClock,
                 vmm: "HostVmm", authority: "AttestationAuthority"):
        self.phys = phys
        self.clock = clock
        self.vmm = vmm
        self.authority = authority
        self.measurement = TdxMeasurement()
        self.sept: dict[int, str] = {}      # frame -> PRIVATE/SHARED (default PRIVATE)
        self.finalized = False              # measurement sealed at TD launch

    # ------------------------------------------------------------------ #
    # build-time (host loads initial contents; everything is measured)
    # ------------------------------------------------------------------ #

    def build_load(self, label: str, data: bytes) -> None:
        """Measure an initial TD payload (firmware, monitor binary)."""
        if self.finalized:
            raise RuntimeError("TD measurement already finalized")
        self.measurement.extend_mrtd(label.encode() + b"\x00" + data)

    def finalize(self) -> None:
        self.finalized = True

    # ------------------------------------------------------------------ #
    # secure EPT
    # ------------------------------------------------------------------ #

    def is_shared(self, fn: int) -> bool:
        return self.sept.get(fn, PRIVATE) == SHARED

    def _map_gpa(self, fn_start: int, count: int, to_shared: bool) -> None:
        state = SHARED if to_shared else PRIVATE
        for fn in range(fn_start, fn_start + count):
            self.sept[fn] = state
        self.vmm.on_mapgpa(fn_start, count, to_shared)

    # ------------------------------------------------------------------ #
    # macro-level guest interface (the monitor calls these directly; the
    # kernel cannot, having been stripped of tdcall)
    # ------------------------------------------------------------------ #

    def guest_map_gpa(self, fn_start: int, count: int, *, shared: bool) -> None:
        """MapGPA conversion; charges a full tdcall round trip."""
        with self.clock.tracer.span("tdcall:mapgpa", "tdx",
                                    shared=shared, count=count):
            self.clock.charge(Cost.TDCALL_ROUND_TRIP, "tdcall")
            self.clock.count(("tdcall", "mapgpa"))
            self._map_gpa(fn_start, count, shared)

    def guest_vmcall(self, subfn: int, payload: object = None) -> object:
        """Generic GHCI hypercall: exit to the VMM and return its answer."""
        with self.clock.tracer.span("tdcall:vmcall", "tdx", subfn=subfn):
            self.clock.charge(Cost.TDCALL_ROUND_TRIP, "tdcall")
            self.clock.count(("tdcall", "vmcall"))
            self.clock.count("vm_exit")
            result = self.vmm.handle_vmcall(subfn, payload)
        return result

    def guest_tdreport(self, report_data: bytes) -> "TdReport":
        """Produce a signed attestation report over the boot measurement."""
        if len(report_data) > 64:
            raise ValueError("report_data limited to 64 bytes")
        # TDREPORT_NATIVE is the end-to-end Table 4 figure: tdcall transit
        # plus report generation and HMAC integrity protection.
        with self.clock.tracer.span("tdcall:tdreport", "tdx"):
            self.clock.charge(Cost.TDREPORT_NATIVE, "tdreport")
            self.clock.count(("tdcall", "tdreport"))
        from .attestation import TdReport
        report = TdReport(
            mrtd=self.measurement.mrtd,
            rtmrs=tuple(self.measurement.rtmrs),
            report_data=report_data.ljust(64, b"\x00"),
        )
        return self.authority.sign(report)

    # ------------------------------------------------------------------ #
    # micro-level interface: the tdcall instruction lands here
    # ------------------------------------------------------------------ #

    def tdcall(self, cpu) -> None:
        """Dispatch a micro-level ``tdcall`` using the guest's registers.

        ABI: rax = leaf; vmcall: rbx = sub-function, rcx/rdx = args;
        tdreport: rcx = guest VA of 64-byte report data, result marker in
        rax (0 = success).
        """
        self.clock.charge(Cost.TDX_WORLD_SWITCH + Cost.TDCALL_DISPATCH
                          + Cost.TDX_WORLD_RESUME - Cost.ALU, "tdcall")
        leaf = cpu.regs["rax"]
        self.clock.count(("tdcall", leaf))
        self.clock.tracer.event(f"tdcall:leaf{leaf}", "tdx")
        if leaf == LEAF_VMCALL:
            subfn = cpu.regs["rbx"]
            self.clock.count("vm_exit")
            if subfn == VMCALL_MAPGPA:
                fn_start, count_shared = cpu.regs["rcx"], cpu.regs["rdx"]
                count, to_shared = count_shared >> 1, bool(count_shared & 1)
                self._map_gpa(fn_start, count, to_shared)
                cpu.regs["rax"] = 0
            else:
                result = self.vmm.handle_vmcall(subfn, cpu.regs["rcx"])
                cpu.regs["rax"] = 0
                cpu.regs["rdx"] = result if isinstance(result, int) else 0
            # TD exit: module scrubs register state before the host sees it
            self.vmm.observe_td_exit({r: 0 for r in cpu.regs})
        elif leaf == LEAF_TDREPORT:
            data_va = cpu.regs["rcx"]
            data = cpu.mmu.read(cpu.aspace, data_va, 64, cpu.access_ctx())
            quote = self.guest_tdreport(bytes(data))
            # macro object handed back out-of-band; rax signals success
            cpu.regs["rax"] = 0
            cpu.last_tdreport = quote
        elif leaf == LEAF_ACCEPT_PAGE:
            self.sept[cpu.regs["rcx"]] = PRIVATE
            cpu.regs["rax"] = 0
        else:
            raise GeneralProtectionFault(f"unknown tdcall leaf {leaf}")
