"""Syscall-shim tests: unmodified-app surface, zero kernel entries."""

import pytest

from repro.core import erebor_boot
from repro.libos import LibOs, Manifest, PreloadFile
from repro.libos.shim import ShimError, ShimUnsupported, SyscallShim
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def shim():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    system = erebor_boot(machine, cma_bytes=64 * MIB)
    libos = LibOs.boot_sandboxed(
        system,
        Manifest(name="app", heap_bytes=2 * MIB, threads=4,
                 preload=[PreloadFile("/etc/config", b"threads=4\n")]),
        confined_budget=8 * MIB)
    libos.sandbox.install_input(b"client-data")   # LOCKED from here on
    return SyscallShim(libos)


def test_file_syscalls_emulated(shim):
    fd = shim.call("open", "/tmp/out", "w")
    assert shim.call("write", fd, b"hello") == 5
    shim.call("close", fd)
    fd = shim.call("open", "/tmp/out")
    assert shim.call("read", fd, 5) == b"hello"
    assert shim.call("stat", "/tmp/out")["size"] == 5
    shim.call("unlink", "/tmp/out")
    assert shim.call("access", "/tmp/out") != 0


def test_preloaded_files_visible(shim):
    fd = shim.call("openat", 0, "/etc/config")
    assert shim.call("read", fd, 100) == b"threads=4\n"


def test_memory_syscalls_use_confined_heap(shim):
    addr = shim.call("mmap", 4096)
    assert shim.libos.heap_vma.contains(addr)
    assert shim.call("munmap", addr, 4096) == 0
    assert shim.call("mprotect", addr, 4096, 1) == 0


def test_sync_and_identity(shim):
    assert shim.call("futex") == 0
    assert shim.call("getpid") == shim.libos.task.pid
    assert shim.call("uname")["release"].endswith("erebor-sim")
    assert shim.call("sched_yield") == 0


def test_quantized_clock_resists_timing_channels(shim):
    t1 = shim.call("clock_gettime")
    shim.libos.compute(10)            # tiny, sub-quantum work
    t2 = shim.call("clock_gettime")
    assert t1 == t2                   # invisible at quantum granularity
    shim.libos.compute(2_000_000)
    assert shim.call("clock_gettime") > t1


def test_zero_kernel_syscalls_while_locked(shim):
    """The whole point: a locked app's syscall surface never enters the
    kernel (except the channel ioctl, tested separately)."""
    kernel = shim.libos.kernel
    before = kernel.clock.events.get("syscall", 0)
    fd = shim.call("open", "/tmp/x", "w")
    shim.call("write", fd, b"data")
    shim.call("mmap", 8192)
    shim.call("futex")
    shim.call("getpid")
    shim.call("nanosleep", 1000)
    assert kernel.clock.events.get("syscall", 0) == before
    assert not shim.libos.sandbox.dead


def test_ioctl_is_the_single_kernel_path(shim):
    assert shim.call("ioctl", 0, "input") == b"client-data"
    shim.libos.sandbox.input_queue.append(b"more")
    assert shim.call("ioctl", 0, "input") == b"more"
    assert shim.stats.forwarded == 2
    assert not shim.libos.sandbox.dead


def test_network_and_exec_refused_with_eperm(shim):
    import errno
    for name in ("socket", "connect", "sendto", "execve", "fork", "clone"):
        with pytest.raises(ShimError) as exc:
            shim.call(name)
        assert exc.value.errno == errno.EPERM
    assert not shim.libos.sandbox.dead   # refused in userspace, no exit


def test_unsupported_syscall_is_enosys(shim):
    import errno
    with pytest.raises(ShimUnsupported) as exc:
        shim.call("io_uring_setup")
    assert exc.value.errno == errno.ENOSYS


def test_supported_surface_is_substantial(shim):
    assert len(shim._table) >= 25
    assert shim.stats.emulated == 0   # fresh fixture call-count per test


def test_exit_wipes_session_state(shim):
    fd = shim.call("open", "/tmp/scratch", "w")
    shim.call("write", fd, b"temp")
    shim.call("exit", 0)
    assert not shim.libos.fs.exists("/tmp/scratch")
    assert shim.libos.fs.exists("/etc/config")   # preloads survive
