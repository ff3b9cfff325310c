"""Pinned SMP goldens: the seeded helloworld fleet's digest and plane totals.

The one copy every test checks. A digest change means the cycle model or
the commit order moved; a plane change names the plane a cycle moved
into or out of. Re-pin them together, here only (last re-pin: the
boot-time CFG verifier's ``verify:cfg`` cycles moved total_cycles).
Also home to the seeded llama fleet the tests and benches run.
"""

from ..vm import MIB

#: :func:`repro.fleet.run_fleet` arguments of the seeded 16-request,
#: 4-core llama bench fleet (8 clients x 2 requests)
LLAMA_FLEET_PARAMS = dict(workload="llama.cpp", clients=8, requests=2,
                          pool_size=8, tenants=8, seed=7, scale=0.1,
                          n_cpus=4, memory_bytes=1024 * MIB,
                          cma_bytes=512 * MIB)

#: :func:`repro.fleet.run_fleet` arguments of the pinned fleet, less n_cpus
SMP_PARAMS = dict(workload="helloworld", clients=4, requests=2,
                  pool_size=2, tenants=2, seed=2025, scale=1.0)

#: ``n_cpus`` → ``FleetReport.digest()`` of ``run_fleet(**SMP_PARAMS)``
SMP_PINNED = {
    1: "ac56b4d36619825613ca95d6b8798cf6a5b3514014efd23af3e42bd699661e84",
    2: "b5c4370350c831ad6ec9ac795b5410edbd48cf02f7346793dc197d922da0ae65",
    4: "b214646e8d839a90c3009b6b798166eb32510827d660194249e7d48a6e5e54ff",
}

#: ``FleetReport.ledger["planes"]`` of ``run_fleet(**SMP_PARAMS)``, the
#: same at every pinned core count: placement moves cycles between lanes,
#: never between planes
SMP_PLANES = {
    "emc": 1581510, "exec.interpret": 408000000, "fault": 488520,
    "io": 149280, "mmu": 984, "privop": 32786, "sandbox": 3200730,
    "sched": 3000, "scrub": 2760, "transition": 2455368, "verify": 4391,
}
