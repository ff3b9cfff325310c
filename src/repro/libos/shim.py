"""Linux syscall shim: unmodified-application support (paper §7).

Gramine "supports POSIX APIs and over 170 Linux system calls ... allowing
it to natively run complex Linux applications". This shim is that
compatibility surface for the reproduction: applications written against
Linux syscall names call :meth:`SyscallShim.call`, and the shim routes
each one to the LibOS's in-sandbox emulation (memfs, pre-allocated heap,
spinlock sync, the monitor channel) — *never* to the kernel once the
sandbox is locked, except the single permitted channel ioctl.

Unsupported syscalls raise :class:`ShimUnsupported` with the Gramine-like
"consider adding to the manifest" hint rather than killing the sandbox at
development time.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..kernel.process import PROT_READ, PROT_WRITE

#: interned ``libos:<name>`` span names shared by every shim instance
_SHIM_SPAN_NAMES: dict[str, str] = {}

if TYPE_CHECKING:
    from .libos import LibOs


class ShimError(Exception):
    """An emulated syscall failed (carries an errno)."""

    def __init__(self, err: int, message: str):
        self.errno = err
        super().__init__(f"[errno {err}] {message}")


class ShimUnsupported(ShimError):
    """The syscall has no in-sandbox emulation."""

    def __init__(self, name: str):
        super().__init__(errno.ENOSYS,
                         f"syscall {name!r} is not emulated by the LibOS")


@dataclass
class ShimStats:
    emulated: int = 0
    forwarded: int = 0      # pre-lock kernel forwards


class SyscallShim:
    """Per-LibOS syscall router."""

    def __init__(self, libos: "LibOs"):
        self.libos = libos
        self.stats = ShimStats()
        self._table: dict[str, Callable] = {}
        for name in dir(self):
            if name.startswith("sys_"):
                self._table[name[4:]] = getattr(self, name)

    @property
    def supported(self) -> list[str]:
        return sorted(self._table)

    def call(self, name: str, *args, **kwargs):
        handler = self._table.get(name)
        if handler is None:
            raise ShimUnsupported(name)
        self.stats.emulated += 1
        clock = self.libos.kernel.clock
        span_name = _SHIM_SPAN_NAMES.get(name)
        if span_name is None:
            span_name = _SHIM_SPAN_NAMES[name] = f"libos:{name}"
        with clock.tracer.span(span_name, "libos"):
            self.libos.charge_emulated_call()
            result = handler(*args, **kwargs)
        clock.metrics.inc("libos_calls_total", name=name)
        return result

    # ------------------------------------------------------------------ #
    # files (in-memory stateless FS)
    # ------------------------------------------------------------------ #

    def sys_open(self, path: str, flags: str = "r"):
        return self.libos.fs.open(path, create="w" in flags or "c" in flags)

    def sys_openat(self, dirfd, path: str, flags: str = "r"):
        return self.sys_open(path, flags)

    def sys_read(self, fd: int, count: int) -> bytes:
        return self.libos.fs.read(fd, count)

    def sys_write(self, fd: int, data: bytes) -> int:
        return self.libos.fs.write(fd, data)

    def sys_close(self, fd: int) -> None:
        self.libos.fs.close(fd)

    def sys_unlink(self, path: str) -> None:
        self.libos.fs.unlink(path)

    def sys_stat(self, path: str) -> dict:
        if not self.libos.fs.exists(path):
            raise ShimError(errno.ENOENT, f"stat: {path}")
        fd = self.libos.fs.open(path)
        try:
            return {"size": self.libos.fs._fd(fd).file.size}
        finally:
            self.libos.fs.close(fd)

    def sys_access(self, path: str) -> int:
        return 0 if self.libos.fs.exists(path) else -errno.ENOENT

    # ------------------------------------------------------------------ #
    # memory (pre-allocated confined heap)
    # ------------------------------------------------------------------ #

    def sys_mmap(self, length: int, prot: int = PROT_READ | PROT_WRITE) -> int:
        return self.libos.malloc(length)

    def sys_brk(self, increment: int) -> int:
        return self.libos.malloc(max(increment, 16))

    def sys_munmap(self, addr: int, length: int) -> int:
        return 0   # bump allocator: munmap is a no-op (freed at session end)

    def sys_mprotect(self, addr: int, length: int, prot: int) -> int:
        # in-sandbox protection changes would be monitor EMCs; the LibOS
        # declares everything up front, so this is a validated no-op
        return 0

    # ------------------------------------------------------------------ #
    # tasking / sync (pre-created threads, spinlocks)
    # ------------------------------------------------------------------ #

    def sys_clone(self):
        raise ShimError(errno.EPERM,
                        "threads must be pre-created before lock (§6.2); "
                        "declare `threads` in the manifest")

    def sys_futex(self, op: str = "wait") -> int:
        self.libos.pool.sync()
        return 0

    def sys_sched_yield(self) -> int:
        self.libos.compute(400)
        return 0

    def sys_nanosleep(self, cycles: int) -> int:
        self.libos.compute(cycles)   # spin-sleep: no kernel timer access
        return 0

    def sys_getpid(self) -> int:
        return self.libos.task.pid

    def sys_gettid(self) -> int:
        return self.libos.task.pid

    def sys_exit(self, code: int = 0) -> int:
        self.libos.end_session()
        return code

    def sys_exit_group(self, code: int = 0) -> int:
        return self.sys_exit(code)

    # ------------------------------------------------------------------ #
    # time / identity (no kernel, no covert clock)
    # ------------------------------------------------------------------ #

    def sys_clock_gettime(self) -> float:
        # a coarse, monitor-quantized clock: real CVMs expose rdtsc, but
        # the LibOS quantizes it to resist timing channels (§12)
        quantum = 1_000_000
        return (self.libos.kernel.clock.cycles // quantum) * quantum

    def sys_uname(self) -> dict:
        return {"sysname": "Linux", "release": "6.6.0-erebor-sim",
                "machine": "x86_64-sim"}

    def sys_getuid(self) -> int:
        return 1000

    def sys_getcpu(self) -> int:
        return 0

    # ------------------------------------------------------------------ #
    # the channel (the one real syscall: the monitor ioctl)
    # ------------------------------------------------------------------ #

    def sys_ioctl(self, fd: int, request: str, payload=None):
        self.stats.forwarded += 1
        return self.libos.kernel.syscall(self.libos.task, "ioctl",
                                         self.libos.device_fd, request,
                                         payload)

    # ------------------------------------------------------------------ #
    # explicitly refused (would be AV2 leaks)
    # ------------------------------------------------------------------ #

    def sys_socket(self):
        raise ShimError(errno.EPERM,
                        "sandboxes have no network; use the monitor channel")

    def sys_connect(self, *a):
        return self.sys_socket()

    def sys_sendto(self, *a):
        return self.sys_socket()

    def sys_execve(self, *a):
        raise ShimError(errno.EPERM, "no exec inside a sandbox")

    def sys_fork(self):
        raise ShimError(errno.EPERM,
                        "single-address-space model: fork unsupported "
                        "(use pre-created threads / spawn, §7)")
