"""Tests for waitpid/lseek/dup and multi-task scheduling behaviour."""

import pytest

from repro.kernel.vfs import FsError
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def kernel():
    return CvmMachine(MachineConfig(memory_bytes=256 * MIB)).boot_native_kernel()


def test_waitpid_returns_exit_code(kernel):
    parent = kernel.spawn("parent")
    child = kernel.syscall(parent, "clone")
    kernel.syscall(child, "exit", 42)
    assert kernel.syscall(parent, "waitpid", child.pid) == 42


def test_waitpid_burns_time_until_exit(kernel):
    parent = kernel.spawn("parent")
    child = kernel.syscall(parent, "clone")

    # exit the child after a few ticks via a tick hook
    state = {"ticks": 0}

    def reaper():
        state["ticks"] += 1
        if state["ticks"] == 3 and child.state != "dead":
            kernel.exit_task(child, 7)

    kernel.tick_hooks.append(reaper)
    assert kernel.syscall(parent, "waitpid", child.pid) == 7
    assert state["ticks"] >= 3


def test_waitpid_timeout(kernel):
    parent = kernel.spawn("parent")
    child = kernel.syscall(parent, "clone")
    with pytest.raises(TimeoutError):
        kernel.syscall(parent, "waitpid", child.pid, max_ticks=3)


def test_waitpid_unknown_pid(kernel):
    parent = kernel.spawn("parent")
    with pytest.raises(ValueError):
        kernel.syscall(parent, "waitpid", 9999)


def test_lseek_repositions(kernel):
    task = kernel.spawn("t")
    fd = kernel.syscall(task, "open", "/f", create=True, write=True)
    kernel.syscall(task, "write", fd, b"abcdef")
    kernel.syscall(task, "lseek", fd, 2)
    assert kernel.syscall(task, "read", fd, 2) == b"cd"


def test_dup_shares_offset(kernel):
    task = kernel.spawn("t")
    fd = kernel.syscall(task, "open", "/g", create=True, write=True)
    kernel.syscall(task, "write", fd, b"xyz")
    kernel.syscall(task, "lseek", fd, 0)
    fd2 = kernel.syscall(task, "dup", fd)
    assert kernel.syscall(task, "read", fd2, 1) == b"x"
    assert kernel.syscall(task, "read", fd, 1) == b"y"   # same description


def test_dup_bad_fd(kernel):
    task = kernel.spawn("t")
    with pytest.raises(FsError):
        kernel.syscall(task, "dup", 99)


def test_unlink_removes_the_file(kernel):
    task = kernel.spawn("app")
    kernel.vfs.create("/tmp/scratch", b"data")
    assert kernel.syscall(task, "unlink", "/tmp/scratch") == 0
    assert not kernel.vfs.exists("/tmp/scratch")
    with pytest.raises(FsError):
        kernel.syscall(task, "unlink", "/tmp/scratch")
