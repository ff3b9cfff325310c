"""The LibOS core: Gramine-like runtime services inside the sandbox.

The LibOS emulates the four services of §6.2 entirely in userspace —
pre-allocated heap, in-memory FS, pre-created threads with spinlock sync,
and monitor-mediated client I/O — so a locked sandbox never needs a
syscall except the channel ioctl. The same LibOS also boots *plain* on a
native kernel (no monitor), which is the paper's ``Erebor-LibOS-only``
ablation setting: services are still emulated, but the channel is an
untrusted DebugFS file and syscalls remain legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..hw.memory import PAGE_SIZE, pages_for
from ..kernel.process import PROT_READ, PROT_WRITE, Task
from .memfs import MemFs
from .threads import ThreadPool

if TYPE_CHECKING:
    from ..core.boot import EreborSystem
    from ..core.sandbox import Sandbox
    from ..kernel.kernel import GuestKernel

#: cycles per LibOS-emulated call (userspace bookkeeping, no transition)
LIBOS_CALL_CYCLES = 160
#: cycles per page of data shuffled inside the LibOS
LIBOS_TOUCH_PER_PAGE = 120

#: DebugFS endpoints used by the plain (non-Erebor) channel emulation,
#: mirroring the paper's /sys/kernel/debug/encos-IO-emulate/{in,out}
DEBUGFS_IN = "/sys/kernel/debug/encos-IO-emulate/in"
DEBUGFS_OUT = "/sys/kernel/debug/encos-IO-emulate/out"


@dataclass
class PreloadFile:
    path: str
    data: bytes = b""
    synthetic_size: int | None = None


@dataclass
class CommonSpec:
    name: str
    size: int
    initializer: bool = False


@dataclass
class Manifest:
    """What a service provider declares for its program (§6.1, §7)."""

    name: str
    heap_bytes: int
    threads: int = 1
    preload: list[PreloadFile] = field(default_factory=list)
    common: list[CommonSpec] = field(default_factory=list)


class LibOs:
    """One LibOS instance wrapping one program."""

    def __init__(self, kernel: "GuestKernel", task: Task, manifest: Manifest,
                 *, sandbox: "Sandbox | None" = None, device_fd: int | None = None):
        self.kernel = kernel
        self.task = task
        self.manifest = manifest
        self.sandbox = sandbox
        self.device_fd = device_fd
        self.fs = MemFs(self)
        self.pool = ThreadPool(self, manifest.threads)
        self.heap_vma = None
        self._heap_cursor = 0
        self.common_vmas: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # boot paths
    # ------------------------------------------------------------------ #

    @classmethod
    def boot_sandboxed(cls, system: "EreborSystem", manifest: Manifest,
                       *, confined_budget: int | None = None) -> "LibOs":
        """Create a sandbox and bring the LibOS up inside it."""
        from ..core.channel import DEVICE_PATH
        budget = confined_budget or (manifest.heap_bytes + 1024 * 1024)
        sandbox = system.monitor.create_sandbox(
            manifest.name, confined_budget=budget, threads=manifest.threads)
        libos = cls(system.kernel, sandbox.task, manifest, sandbox=sandbox)
        # heap: declared + pinned confined memory (service 1)
        libos.heap_vma = sandbox.declare_confined(manifest.heap_bytes)
        # common regions (models, databases, shared libraries)
        for spec in manifest.common:
            libos.common_vmas[spec.name] = sandbox.attach_common(
                spec.name, spec.size, initializer=spec.initializer)
        # channel device (open is a syscall: legal pre-lock)
        libos.device_fd = system.kernel.syscall(sandbox.task, "open",
                                                DEVICE_PATH)
        # threads: all pre-created (service 3)
        for _ in range(manifest.threads - 1):
            sandbox.spawn_thread()
        # preloaded files (service 2)
        for pf in manifest.preload:
            libos.fs.preload(pf.path, pf.data, synthetic_size=pf.synthetic_size)
        return libos

    @classmethod
    def attach_forked(cls, system: "EreborSystem", manifest: Manifest,
                      sandbox: "Sandbox", *, heap_vma,
                      common_vmas: dict[str, object]) -> "LibOs":
        """Wire a LibOS onto a forked sandbox whose memory already exists.

        The fork engine (``repro.fleet``) maps the template's confined
        image copy-on-write and re-attaches the common regions before
        calling this; what remains of :meth:`boot_sandboxed` is the
        per-instance state — device fd, worker threads, preloaded files —
        none of which touches the expensive prefault/declare path.
        """
        from ..core.channel import DEVICE_PATH
        libos = cls(system.kernel, sandbox.task, manifest, sandbox=sandbox)
        libos.heap_vma = heap_vma
        libos.common_vmas = dict(common_vmas)
        libos.device_fd = system.kernel.syscall(sandbox.task, "open",
                                                DEVICE_PATH)
        for _ in range(manifest.threads - 1):
            sandbox.spawn_thread()
        for pf in manifest.preload:
            libos.fs.preload(pf.path, pf.data, synthetic_size=pf.synthetic_size)
        return libos

    @classmethod
    def boot_plain(cls, kernel: "GuestKernel", manifest: Manifest) -> "LibOs":
        """LibOS-only setting: same emulation, native kernel, no monitor."""
        task = kernel.spawn(manifest.name)
        libos = cls(kernel, task, manifest)
        libos.heap_vma = kernel.syscall(task, "mmap", manifest.heap_bytes,
                                        PROT_READ | PROT_WRITE)
        kernel.touch_pages(task, libos.heap_vma.start,
                           manifest.heap_bytes, write=True)
        for spec in manifest.common:
            libos.common_vmas[spec.name] = libos._plain_common(spec)
        for _ in range(manifest.threads - 1):
            kernel.syscall(task, "clone")
        for pf in manifest.preload:
            libos.fs.preload(pf.path, pf.data, synthetic_size=pf.synthetic_size)
        for path in (DEBUGFS_IN, DEBUGFS_OUT):
            if not kernel.vfs.exists(path):
                kernel.vfs.create(path)
        return libos

    def _plain_common(self, spec: CommonSpec):
        """Plain-mode sharing: a file mapping through the page cache."""
        from ..kernel.process import FileBacking
        path = f"/shared/{spec.name}"
        if not self.kernel.vfs.exists(path):
            self.kernel.vfs.create(path, synthetic_size=spec.size)
        backing = FileBacking(self.kernel.vfs.lookup(path))
        return self.kernel.mmap(self.task, spec.size,
                                PROT_READ | (PROT_WRITE if spec.initializer else 0),
                                backing=backing, kind="common")

    # ------------------------------------------------------------------ #
    # accounting hooks
    # ------------------------------------------------------------------ #

    def charge_emulated_call(self) -> None:
        self.kernel.clock.charge(LIBOS_CALL_CYCLES, "libos")
        self.kernel.clock.count("libos_call")

    def charge_data_touch(self, nbytes: int) -> None:
        pages = max(pages_for(nbytes), 1)
        self.kernel.clock.charge(pages * LIBOS_TOUCH_PER_PAGE, "libos")

    # ------------------------------------------------------------------ #
    # memory API (service 1)
    # ------------------------------------------------------------------ #

    def malloc(self, size: int) -> int:
        """Bump-allocate from the pre-declared heap; returns a VA."""
        self.charge_emulated_call()
        size = (size + 15) & ~15
        if self._heap_cursor + size > self.manifest.heap_bytes:
            raise MemoryError(
                f"LibOS heap exhausted ({self.manifest.heap_bytes} bytes)")
        va = self.heap_vma.start + self._heap_cursor
        self._heap_cursor += size
        return va

    def touch_range(self, va: int, size: int, *, write: bool = False) -> int:
        """Access a memory range page by page (drives demand paging)."""
        return self.kernel.touch_pages(self.task, va, size, write=write)

    def touch_common(self, name: str, size: int | None = None,
                     *, offset: int = 0, stride: int = PAGE_SIZE) -> int:
        vma = self.common_vmas[name]
        length = size if size is not None else vma.length
        offset = offset % max(vma.length, 1)
        length = min(length, vma.length - offset)
        return self.kernel.touch_pages(self.task, vma.start + offset, length,
                                       stride=stride)

    def compute(self, cycles: int) -> None:
        self.kernel.advance(cycles, self.task)

    # ------------------------------------------------------------------ #
    # client data channel (service 4)
    # ------------------------------------------------------------------ #

    def recv_input(self) -> bytes | None:
        if self.sandbox is not None:
            return self.kernel.syscall(self.task, "ioctl", self.device_fd,
                                       "input")
        fd = self.kernel.syscall(self.task, "open", DEBUGFS_IN)
        data = self.kernel.syscall(self.task, "read", fd, 1 << 30)
        self.kernel.syscall(self.task, "close", fd)
        return data or None

    def send_output(self, data: bytes) -> None:
        if self.sandbox is not None:
            self.kernel.syscall(self.task, "ioctl", self.device_fd,
                                "output", data)
            return
        fd = self.kernel.syscall(self.task, "open", DEBUGFS_OUT, create=True,
                                 write=True)
        self.kernel.syscall(self.task, "write", fd, data)
        self.kernel.syscall(self.task, "close", fd)

    # ------------------------------------------------------------------ #
    # session teardown
    # ------------------------------------------------------------------ #

    def end_session(self) -> None:
        """Stateless reset between clients: wipe temp files (§6.2)."""
        self.fs.wipe()
        self._heap_cursor = 0
