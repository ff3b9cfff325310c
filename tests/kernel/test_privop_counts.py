"""Privileged ops with a count: one call with ``count=n`` leaves exactly
what ``n`` calls with ``count=1`` leave.

``PrivilegedOps.user_copy`` and ``vmcall`` take a ``count`` so a caller
can book a run of identical operations at once (the benchmark's
background copies, the timer tick's host-emulated ``wrmsr``). Each case
drives twin machines through the same setup, then issues the run one way
on each twin, and compares both clock ledgers in insertion order, the
events, the Prometheus text (the ``erebor_emc_cycles`` histogram
included) and every host observation. A refused operation must charge
what the first call of the sequence would, and nothing more.
"""

from unittest import mock

import pytest

from repro.core import EreborFeatures, PolicyViolation, erebor_boot, policy
from repro.hw.memory import PAGE_SIZE
from repro.obs import install
from repro.tdx.module import VMCALL_IO
from repro.vm import CvmMachine, MachineConfig, MIB
from tests.machine_state import clock_state

#: the length of each run
COUNT = 5

SETTINGS = ["native", "erebor", "mmu-off"]


def boot(setting):
    """The machine, its kernel and, under Erebor, the monitor."""
    machine = CvmMachine(MachineConfig(memory_bytes=256 * MIB))
    if setting == "native":
        kernel, monitor = machine.boot_native_kernel(), None
    else:
        system = erebor_boot(machine, cma_bytes=32 * MIB,
                             features=EreborFeatures(
                                 mmu_isolation=setting != "mmu-off"))
        kernel, monitor = system.kernel, system.monitor
    install(machine.clock, trace=False, metrics=True)
    return machine, kernel, monitor


def user_copies(kernel, monitor):
    task = kernel.spawn("t")
    return lambda count: kernel.ops.user_copy(
        3 * PAGE_SIZE, to_user=True, task=task, count=count)


def locked_copies(kernel, monitor):
    sandbox = monitor.create_sandbox("sb", confined_budget=MIB)
    sandbox.declare_confined(PAGE_SIZE)
    sandbox.install_input(b"client data")
    return lambda count: kernel.ops.user_copy(
        PAGE_SIZE, to_user=True, task=sandbox.task, count=count)


def vmcalls(kernel, monitor):
    return lambda count: kernel.ops.vmcall(VMCALL_IO, ("wrmsr", 0x6E0),
                                           count)


def refused_vmcalls(kernel, monitor):
    def issue(count):
        with mock.patch.object(policy, "GHCI_KERNEL_ALLOWED", frozenset()):
            return kernel.ops.vmcall(VMCALL_IO, ("wrmsr", 0x6E0), count)
    return issue


#: each sets its target up, then returns ``issue(count)``
OPS = {
    "user-copy": user_copies,
    "locked-copy": locked_copies,
    "vmcall": vmcalls,
    "refused-vmcall": refused_vmcalls,
}
#: the operations a policy refuses, and the settings where it does
REFUSED = {"locked-copy": {"erebor"}, "refused-vmcall": {"erebor",
                                                          "mmu-off"}}


def run(setting, op, counts):
    """Boot, then issue ``op`` once per entry of ``counts``; returns the
    last answer, the refusal with the denial count, or None for either,
    and what the machine was left with."""
    machine, kernel, monitor = boot(setting)
    issue = OPS[op](kernel, monitor)
    answer = refusal = None
    try:
        for count in counts:
            answer = issue(count)
    except PolicyViolation as exc:
        refusal = str(exc), monitor.stats.policy_denials
    return answer, refusal, clock_state(machine, kernel)


@pytest.mark.parametrize("setting,op", [
    (setting, op) for setting in SETTINGS for op in OPS
    # native ops have no monitor policy to refuse with
    if setting != "native" or op not in REFUSED])
def test_count_matches_single_calls(setting, op):
    answer, refusal, burst = run(setting, op, [COUNT])
    ref_answer, ref_refusal, reference = run(setting, op, [1] * COUNT)
    refused = setting in REFUSED.get(op, ())
    assert (refusal is not None) == refused
    assert answer == ref_answer and refusal == ref_refusal
    if "vmcall" in op and not refused:
        assert reference["observations"]
    if setting == "erebor" or setting == "mmu-off" and "vmcall" in op:
        # the op crosses the EMC gate (the user copy does so only with
        # MMU isolation on)
        assert "erebor_emc_cycles" in reference["prometheus"]
    assert list(burst) == list(reference)
    for key in reference:
        assert burst[key] == reference[key], key
