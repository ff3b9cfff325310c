"""Erebor reproduction: drop-in CVM sandboxing on a simulated platform.

Reproduces *Erebor: A Drop-In Sandbox Solution for Private Data Processing
in Untrusted Confidential Virtual Machines* (EuroSys 2025) as a pure-Python
system: a simulated confidential-VM hardware platform (``repro.hw``,
``repro.tdx``), an untrusted guest kernel (``repro.kernel``), the Erebor
monitor/sandbox/channel (``repro.core``), a Gramine-like LibOS
(``repro.libos``), the evaluation's workloads (``repro.apps``), comparison
baselines (``repro.baselines``), the remote client (``repro.client``), and
the benchmark harness regenerating every table and figure (``repro.bench``
+ the ``benchmarks/`` directory).

Quickstart::

    from repro import CvmMachine, MachineConfig, erebor_boot
    from repro.core import SecureChannel, UntrustedProxy, published_measurement
    from repro.client import RemoteClient

    machine = CvmMachine(MachineConfig(memory_bytes=512 * 1024 * 1024))
    system = erebor_boot(machine, cma_bytes=64 * 1024 * 1024)
    sandbox = system.monitor.create_sandbox("svc", confined_budget=8 << 20)
    sandbox.declare_confined(1 << 20)
    client = RemoteClient(machine.authority, published_measurement())
    client.connect(UntrustedProxy(system.monitor),
                   SecureChannel(system.monitor, sandbox))

This ``__init__`` resolves its re-exports lazily (PEP 562): the offline
certificate verifier (``python -m repro.certs``) runs in a process that
imports ``repro`` purely as a namespace and must never load the hardware
simulator, so ``import repro`` on its own pulls in nothing.
"""

from __future__ import annotations

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "CvmMachine", "EreborFeatures", "EreborMonitor", "EreborSystem", "GIB",
    "MIB", "MachineConfig", "PolicyViolation", "Sandbox", "SandboxViolation",
    "erebor_boot", "published_measurement", "__version__",
]

#: lazy re-exports → (module, attribute); keeps ``import repro`` free of
#: the simulator so pure leaves (core.audit, tdx.attestation, certs) can
#: load in attestation-verifier processes
_LAZY = {
    "EreborSystem": ("core.boot", "EreborSystem"),
    "erebor_boot": ("core.boot", "erebor_boot"),
    "published_measurement": ("core.boot", "published_measurement"),
    "EreborFeatures": ("core.monitor", "EreborFeatures"),
    "EreborMonitor": ("core.monitor", "EreborMonitor"),
    "PolicyViolation": ("core.policy", "PolicyViolation"),
    "SandboxViolation": ("core.policy", "SandboxViolation"),
    "Sandbox": ("core.sandbox", "Sandbox"),
    "CvmMachine": ("vm", "CvmMachine"),
    "GIB": ("vm", "GIB"),
    "MIB": ("vm", "MIB"),
    "MachineConfig": ("vm", "MachineConfig"),
}


__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
