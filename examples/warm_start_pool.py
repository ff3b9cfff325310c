#!/usr/bin/env python3
"""Warm-start sandbox fleet: amortizing initialization over many clients.

The paper (§9.2) notes the 11.5-52.7% initialization overhead is one-time
and "containers can be pre-initialized in real settings (warm-start)".
``repro.fleet`` turns that remark into a subsystem: one sandbox is booted
cold and sealed as a golden template, a warm pool forks it copy-on-write,
and an admission controller streams attested client sessions through the
pool, scrub-verifying every slot between clients. This example drives
that stack end to end and prints the measured amortization — plus proof
that nothing leaks from one client to the next and the host never saw a
plaintext record.

Run:  python examples/warm_start_pool.py
"""

from repro.fleet import PoolConfig, SandboxTemplate, WarmPool, build_fleet
from repro.vm import MIB

CLIENTS = 6
POOL = 2


def main() -> None:
    fleet = build_fleet(workload="helloworld", clients=CLIENTS, requests=1,
                        pool_size=POOL, tenants=2, seed=42, scale=1.0,
                        memory_bytes=512 * MIB, cma_bytes=64 * MIB)
    fleet.scheduler.run(fleet.sessions)
    report, system = fleet.report(), fleet.system

    ms = 2.1e6   # simulated cycles per millisecond at 2.1 GHz
    print(f"cold boot+init: {report.cold_start_cycles / ms:.2f} ms "
          f"(paid once, then sealed as a template)")
    forks = report.fork_start_cycles
    warms = report.warm_start_cycles
    print(f"CoW fork:       {sum(forks) / len(forks) / ms:.4f} ms per slot "
          f"({report.fork_speedup():,.0f}x cheaper, pool of {POOL})")
    print(f"warm reset:     {sum(warms) / len(warms) / ms:.4f} ms per reuse "
          f"({report.warm_speedup():,.0f}x cheaper)")
    for s in report.sessions:
        print(f"  {s['name']} ({s['tenant']}): {s['outcome']} "
              f"via {s['start_kind']} start, "
              f"{s['served']} request(s)")

    # every reused slot passed the C8 scrub-verify scan for the previous
    # client's plaintext (requests, responses, and its session secret)
    assert report.outcomes == {"completed": CLIENTS}
    assert report.scrub_verifications == CLIENTS       # one per release
    print(f"\nscrub-verified reuses: {report.scrub_verifications} "
          f"(no client-keyed bytes survived any reset)")

    # the amortization claims hold, not just print
    assert report.fork_speedup() >= 5
    assert report.warm_speedup() >= 5

    # and the untrusted world never saw a record in the clear: check every
    # client secret against the NIC log
    secrets = [s.secret for s in fleet.sessions]
    print("host ever saw a record:",
          any(s in system.machine.vmm.observed_blob() for s in secrets))
    assert not any(s in system.machine.vmm.observed_blob() for s in secrets)

    # templates compose: you can also drive the pool by hand
    from repro.apps.base import workload as make_workload
    template = SandboxTemplate.capture(system, make_workload("helloworld",
                                                             seed=7),
                                       name="manual-template")
    pool = WarmPool(system, template, PoolConfig(size=1))
    slot = pool.acquire()
    assert slot is not None and slot.instance.private_bytes == 0
    pool.release(slot)
    print("OK")


if __name__ == "__main__":
    main()
