#!/usr/bin/env python3
"""Operator console: what running Erebor looks like from the outside.

Serves a session, then prints the operational surfaces the reproduction
exposes: the monitor's audit log (every security decision), global and
per-sandbox statistics, the cycle ledger's mechanism breakdown, and the
host's view (all ciphertext). Useful as a template for integrating the
library into monitoring.

Run:  python examples/operator_console.py
"""

from collections import Counter

from repro import CvmMachine, MachineConfig, MIB, erebor_boot
from repro.apps import LibOsRuntime, workload
from repro.client import RemoteClient
from repro.core import (
    MitigationConfig,
    PolicyViolation,
    SecureChannel,
    UntrustedProxy,
    published_measurement,
)
from repro.libos import LibOs


def main() -> None:
    machine = CvmMachine(MachineConfig(memory_bytes=768 * MIB))
    system = erebor_boot(machine, cma_bytes=96 * MIB)
    system.monitor.arm_mitigations(MitigationConfig(flush_on_exit=True))

    work = workload("drugbank", scale=0.05)
    libos = LibOs.boot_sandboxed(system, work.manifest(),
                                 confined_budget=12 * MIB)
    rt = LibOsRuntime(libos)
    proxy = UntrustedProxy(system.monitor)
    channel = SecureChannel(system.monitor, libos.sandbox)
    client = RemoteClient(machine.authority, published_measurement())
    client.connect(proxy, channel)
    client.request(proxy, channel, work.default_request())
    work.serve(rt, rt.recv_input())
    client.fetch_result(proxy, channel)

    # provoke one denial for the log
    try:
        system.monitor.ops.write_cr(4, 0)
    except PolicyViolation:
        pass

    print("== audit log (last 8 events) ==")
    for event in system.monitor.audit_log[-8:]:
        print(f"  {event}")

    stats = system.monitor.stats
    print("\n== monitor stats ==")
    print(f"  EMC calls: {stats.emc_calls}   policy denials: "
          f"{stats.policy_denials}   verified blobs: "
          f"{stats.verified_code_blobs}")
    print(f"  sandboxes: created {stats.sandboxes_created}, "
          f"killed {stats.sandboxes_killed}")

    sb = libos.sandbox
    print(f"\n== sandbox #{sb.sandbox_id} ({sb.name}) ==")
    print(f"  state={sb.state}  confined={sb.confined_bytes >> 20} MiB  "
          f"common={sb.common_names}")
    # per-class exits: the clock's ("sandbox_exit", cls, owner) ledger key
    clock = machine.clock
    exits = Counter()
    for ledger in clock.events_by_cpu.values():
        for key, n in ledger.items():
            if key.__class__ is tuple and key[0] == "sandbox_exit" \
                    and key[2] == sb.sandbox_id:
                exits[key[1]] += n
    print(f"  exits={sum(exits.values())} (pf={exits['pagefault']} "
          f"irq={exits['irq']} ve={exits['ve']})  "
          f"io={sb.stats['inputs']}in/{sb.stats['outputs']}out")

    print("\n== cycle ledger (top mechanisms) ==")
    for tag, cycles in sorted(clock.by_tag.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {tag:20s} {cycles / clock.cycles * 100:5.1f}%")
    print(f"  simulated time: {clock.seconds * 1000:.1f} ms, "
          f"mitigation flushes: {clock.events.get('mitigation_flush', 0)}")

    print(f"\n== host view ==")
    print(f"  events observed: {len(machine.vmm.observations)}; "
          f"plaintext query names visible: "
          f"{b'drug-' in machine.vmm.observed_blob()}")
    print("OK")


if __name__ == "__main__":
    main()
