"""Pinned goldens: the seeded helloworld and llama fleets' digests and
plane totals, and the kernel verification pipeline's report digests.

The one copy every test checks. A digest change means the cycle model or
the commit order moved; a plane change names the plane a cycle moved
into or out of; a machine-state change means page tables, owner tags or
frame bytes came out different. Re-pin them together, here only (last re-pin: the
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

#: ``FleetReport.digest()`` of ``run_fleet(**LLAMA_FLEET_PARAMS)``
LLAMA_PINNED = \
    "cc34de723489acaa3764083e634c2d61d34660f010b4b1a22e5f5f22755a3091"

#: ``tests/machine_state.py::machine_state_digest`` of the system
#: ``run_fleet(**LLAMA_FLEET_PARAMS)`` leaves behind: its present leaf
#: PTEs, owner tags and non-zero frame bytes
LLAMA_STATE_PINNED = \
    "cf82cf30ededdb1f6d19dad5a220752e6de3945016f1fbf66d7784c6f0e8bd2f"

#: ``FleetReport.ledger["planes"]`` of ``run_fleet(**LLAMA_FLEET_PARAMS)``
LLAMA_PLANES = {
    "emc": 116787349, "exec.interpret": 2857600000, "fault": 43166640,
    "io": 298560, "mmu": 258432, "privop": 2584960, "sandbox": 359837749,
    "sched": 138251100, "scrub": 16560, "transition": 27306680,
    "verify": 4391,
}

#: :func:`repro.fleet.run_fleet` arguments of the pinned fleet, less n_cpus
SMP_PARAMS = dict(workload="helloworld", clients=4, requests=2,
                  pool_size=2, tenants=2, seed=2025, scale=1.0)

#: ``n_cpus`` → ``FleetReport.digest()`` of ``run_fleet(**SMP_PARAMS)``
SMP_PINNED = {
    1: "ac56b4d36619825613ca95d6b8798cf6a5b3514014efd23af3e42bd699661e84",
    2: "b5c4370350c831ad6ec9ac795b5410edbd48cf02f7346793dc197d922da0ae65",
    4: "b214646e8d839a90c3009b6b798166eb32510827d660194249e7d48a6e5e54ff",
}

#: the machine-state digest (as ``LLAMA_STATE_PINNED``) of the 2-core
#: ``run_fleet(n_cpus=2, **SMP_PARAMS)``
SMP_STATE_PINNED = \
    "8ff6bfd37917da8a008252fd32beaca61766eaca62e1700efdc250ff30e52bce"

#: ``FleetReport.ledger["planes"]`` of ``run_fleet(**SMP_PARAMS)``, the
#: same at every pinned core count: placement moves cycles between lanes,
#: never between planes
SMP_PLANES = {
    "emc": 1581510, "exec.interpret": 408000000, "fault": 488520,
    "io": 149280, "mmu": 984, "privop": 32786, "sandbox": 3200730,
    "sched": 3000, "scrub": 2760, "transition": 2455368, "verify": 4391,
}

#: :func:`repro.fleet.run_fleet` arguments of the CI autoscaling fleet
#: (``python -m repro.fleet --workload helloworld --clients 6 --requests 2
#: --cores 4 --pool 1 --autoscale --pool-max 4``); ``pool_config`` is
#: ``PoolConfig(**AUTOSCALE_POOL)``
AUTOSCALE_PARAMS = dict(workload="helloworld", clients=6, requests=2,
                        pool_size=1, n_cpus=4)
AUTOSCALE_POOL = dict(size=1, autoscale=True, max_size=4)

#: ``FleetReport.digest()`` and ``pool_scaling`` of the autoscaling fleet
AUTOSCALE_PINNED = \
    "6a34c150304e1badac2cb29daa79d962d2b60c4dbb77b43083dddfb8545bcfef"
AUTOSCALE_SCALING = {"grown": 3, "retired": 1, "peak": 4, "final": 3}

#: ``SloConfig`` of the seeded SLO fleet: ``run_fleet(slo=SloConfig(
#: **SLO_OBJECTIVES), anomaly=True, **SMP_PARAMS)``; 1-cycle objectives
#: make every judged metric breach
SLO_OBJECTIVES = dict(queue_wait_p95=1, service_p95=1, e2e_p99=1)

#: ``report.slo`` of the seeded SLO fleet
SLO_PINNED = {"samples": 16, "breaches": [
    {"tenant": "tenant-0", "metric": "service", "quantile": "p95",
     "observed": 1086271, "threshold": 1, "cycle": 414832226,
     "trace_id": ""},
    {"tenant": "tenant-1", "metric": "service", "quantile": "p95",
     "observed": 1085585, "threshold": 1, "cycle": 415918570,
     "trace_id": ""},
]}

#: ``report.anomaly`` of the seeded SLO fleet (homogeneous load: quiet)
ANOMALY_PINNED = {"alerts": [], "armed": []}


def _window(count, p50, p95):
    return {"count": count, "p50": p50, "p95": p95, "p99": p95,
            "window_cycles": 2_000_000, "windows": 4}


#: ``metrics_snapshot(clock)["windowed"]`` of the seeded SLO fleet, in
#: series order
WINDOWED_PINNED = {"erebor_fleet_latency_cycles": {
    "metric=queue_wait,tenant=tenant-0": _window(2, 0, 3211663),
    "metric=queue_wait,tenant=tenant-1": _window(2, 0, 4397270),
    "metric=service,tenant=tenant-0": _window(4, 1080043, 1086271),
    "metric=service,tenant=tenant-1": _window(4, 1044590, 1085585),
    "metric=e2e,tenant=tenant-0": _window(2, 3492608, 7743392),
    "metric=e2e,tenant=tenant-1": _window(2, 4537363, 8829736),
}}

#: ``kernel_digest`` of the two ``python -m repro.analysis ... --self-check
#: --json`` artifacts over the instrumented distribution kernel: the CFG
#: pass (V0–V7) and the dataflow pass (V8–V10). A change here moves
#: RTMR[3] and every certificate's reference value.
KERNEL_CFG_DIGEST = \
    "c5d07ba4b15347e70e745572ba7866e41c3b128d744df7ae239452ff63312509"
KERNEL_DATAFLOW_DIGEST = \
    "801cd30351e2205f1185907cc994288ffb496bf02374ec3fa05cb8a5e56ef85c"

#: ``published_kernel_cfg_rtmr(dataflow=...).hex()``
KERNEL_RTMR3 = {
    True: "ad9c25fec24c871e69745b1c64f4d6a9f36150c32d428bc6"
          "110705c9f353e1eafad929e472f84c4516b05c6a7eeaac44",
    False: "58344559279e50e65812bd6b19f6d074ea7e92d1fe4c7049"
           "c85ce833fe7be86161eea338220c2eb398c9cd82c7219797",
}

#: report digest of each seeded attack under its pass, in corpus order
#: (``attack_corpus()`` and ``dataflow_attack_corpus()``)
CFG_ATTACK_DIGESTS = (
    "080e0ac37a04b2f75e65911d966a335cef01f10aea571403bb436452af753f04",
    "9db0a5327ede2ef7fbd72010b007a8deba60e4157f567d3c042a16cbe092809e",
    "fe35f5d8a58b6b0a9f5e5830d7da0260c7ec202f2f82243758eeb6c106618fba",
    "c5491d0e62670ad78219de49425039d4d91e3661105516e72021687b045bd15d",
    "ca9d8ff1fcd79b21d31e4ee23127b17a6ba79b94ac9fc47436e469e4c5606836",
    "ffa1a769d8c270b91da07b8baffdb03ee2d370a8e4f81fbbbb9e8f76a60b144c",
    "136d0908b43eaa2e1453eab5cbb94d1498a2b4a4009f7d678cc901b94cc83a21",
    "0dbed2842974b3c9cbbe54ed264922b740237ed7c6f4759648829b8a0e11a053",
)
DATAFLOW_ATTACK_DIGESTS = (
    "de36026ebe927384cc4f95cde641b36c0b1bd73bb9feda1d76f003337d3a3c01",
    "f1638d5ca85facb7c68cb49f63bde0a2dfd37aeb88c94ed690907916e4df0833",
    "6e3ab9be249ed0f307ab18c0ee77070db93862eadae6595bfad241c12ab3903a",
)
