"""Machine assembly: wire the simulated hardware into a bootable CVM.

:class:`CvmMachine` is the top of the substrate stack — physical memory,
cycle clock, host VMM, TDX module, attestation authority, one CPU core,
and a virtio NIC — everything the paper's testbed provides before any
guest software runs. Guests are booted onto it either natively
(:meth:`boot_native_kernel`) or under Erebor
(:func:`repro.core.boot.erebor_boot`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .hw.cpu import Cpu, CpuEnv
from .hw.cycles import CycleClock
from .hw.devices import DmaEngine, VirtualNic
from .hw.memory import PhysicalMemory
from .hw.uintr import UintrFabric
from .kernel.kernel import GuestKernel
from .tdx.attestation import AttestationAuthority
from .tdx.module import TdxModule
from .tdx.vmm import HostVmm

MIB = 1024 * 1024
GIB = 1024 * MIB


@dataclass
class MachineConfig:
    """Knobs mirroring the paper's CVM assignment (8 vCPU, 24 GB)."""

    memory_bytes: int = 4 * GIB          # scaled-down default; benches override
    td: bool = True                       # confidential (TDX) vs plain guest
    seed: int = 2025


class CvmMachine:
    """One simulated host + guest-VM hardware instance."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        self.rng = random.Random(self.config.seed)
        self.clock = CycleClock()
        self.phys = PhysicalMemory(self.config.memory_bytes)
        self.vmm = HostVmm(self.phys, self.clock)
        self.authority = AttestationAuthority()
        self.tdx: TdxModule | None = None
        if self.config.td:
            self.tdx = TdxModule(self.phys, self.clock, self.vmm, self.authority)
            self.vmm.shared_oracle = self.tdx
        self.uintr = UintrFabric()
        self.env = CpuEnv(tdx=self.tdx, uintr=self.uintr)
        self.cpu = Cpu(0, self.phys, self.clock, self.env)
        shared_oracle = self.tdx if self.tdx is not None else _AllShared()
        self.dma = DmaEngine(self.phys, shared_oracle)
        self.nic = VirtualNic(self.dma)
        self.kernel: GuestKernel | None = None

    def boot_native_kernel(self) -> GuestKernel:
        """Boot an unmodified kernel with direct privileged access."""
        kernel = GuestKernel(self.phys, self.clock, self.cpu, self.tdx)
        kernel.boot()
        self.vmm.interrupt_sink = lambda vector: kernel.pump()
        self.kernel = kernel
        return kernel


class _AllShared:
    """Non-TD guests have no private memory: DMA may touch anything."""

    def is_shared(self, fn: int) -> bool:
        return True
