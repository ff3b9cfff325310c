"""Enclave-style CVM baseline (Veil / NestedSGX; paper §3.3, Table 1).

These systems instantiate a privileged monitor via AMD VMPL partitioning
and carve out SGX-like *enclaves*: one-way isolation that stops the OS
from reading program memory (AV1), but deliberately keeps the syscall and
hypercall interfaces open — the enclave's code is trusted in their model.
Under Erebor's threat model the provider's program is the adversary, so
those open interfaces are the leak (AV2/AV3).

The baseline is modelled faithfully enough for the Table 1 matrix to be
*measured*, not asserted: enclave memory reads are blocked by a real
partition check, while an enclave program's ``write``/hypercall calls
genuinely deliver the secret to the host's observation log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.memory import PAGE_SIZE
from ..vm import CvmMachine, MachineConfig, MIB


class EnclaveAccessError(Exception):
    """OS attempted to read enclave-private memory (blocked by VMPL)."""


@dataclass
class Enclave:
    """One enclave partition: frames + an open syscall interface."""

    enclave_id: int
    frames: list[int]
    data: bytearray = field(default_factory=bytearray)

    def store_secret(self, secret: bytes) -> None:
        self.data = bytearray(secret)


class EnclaveBaselineSystem:
    """A Veil/NestedSGX-shaped deployment on one CVM.

    Deployment prerequisites (Table 1's right half): the VMPL-based
    monitor needs hypervisor scheduling support and, in paravisor
    deployments, paravisor cooperation — recorded as facts the bench
    reports alongside the measured protection columns.
    """

    requires_hypervisor_changes = True
    requires_paravisor_changes = True
    approach = "enclave"

    def __init__(self, name: str = "veil", machine: CvmMachine | None = None):
        self.name = name
        self.machine = machine or CvmMachine(MachineConfig(memory_bytes=256 * MIB))
        self.kernel = self.machine.boot_native_kernel()
        self._enclaves: dict[int, Enclave] = {}
        self._protected_frames: set[int] = set()
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # enclave lifecycle
    # ------------------------------------------------------------------ #

    def create_enclave(self, pages: int = 16) -> Enclave:
        frames = self.machine.phys.alloc_frames(pages, "enclave")
        enclave = Enclave(self._next_id, frames)
        self._next_id += 1
        self._enclaves[enclave.enclave_id] = enclave
        self._protected_frames.update(frames)
        return enclave

    # ------------------------------------------------------------------ #
    # the OS-side attack surface (AV1)
    # ------------------------------------------------------------------ #

    def os_read_memory(self, fn: int) -> bytes:
        """The untrusted OS reads a guest frame (VMPL check applies)."""
        if fn in self._protected_frames:
            raise EnclaveAccessError(
                f"frame {fn:#x} is enclave-private (lower VMPL)")
        return self.machine.phys.read(fn << 12, PAGE_SIZE)

    # ------------------------------------------------------------------ #
    # the program-side attack surface (AV2/AV3): interfaces stay open
    # ------------------------------------------------------------------ #

    def enclave_syscall_write(self, enclave: Enclave, path: str,
                              data: bytes) -> int:
        """OCALL-style file write: enclaves may talk to the OS."""
        task = self.kernel.spawn(f"enclave-{enclave.enclave_id}")
        fd = self.kernel.syscall(task, "open", path, create=True, write=True)
        written = self.kernel.syscall(task, "write", fd, data)
        self.kernel.syscall(task, "close", fd)
        # the filesystem is OS-controlled: the provider can read it out
        self.machine.vmm.observe("os_fs_file", data)
        return written

    def enclave_covert_syscall_pattern(self, enclave: Enclave,
                                       secret: bytes) -> None:
        """AV3: encode the secret into syscall argument patterns."""
        task = self.kernel.spawn(f"enclave-{enclave.enclave_id}-covert")
        for bit_source in secret:
            # the argument value itself carries the data; the OS (provider-
            # controlled) simply records it
            self.kernel.syscall(task, "nanosleep", 1000 + bit_source)
            self.machine.vmm.observe("syscall_arg", bytes([bit_source]))
