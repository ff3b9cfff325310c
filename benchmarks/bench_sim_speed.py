"""Simulator-speed bench: translation cache + TLB on vs fully interpreted.

The superblock translation cache, the memoized TLB and the paging-
structure cache are *host-plane* optimisations: they must change host
seconds and nothing else. This bench pins both halves of that contract
and commits the evidence to ``BENCH_sim_speed.json``:

* **Fidelity** — the seeded 16-request / 4-core llama fleet produces
  byte-identical serve digests, certificate bodies and request
  trace-tree digests with the caches on and off, and the pinned SMP
  digests (1/2/4 cores) are reproduced by both arms.
* **Speed** — on the CPU-bound micro path the caches actually target
  (straight-line superblock execution), the cache-on arm must be at
  least ``SIM_SPEED_FLOOR``× faster (default 5×) with an *identical*
  cycle ledger. The fleet arm is also timed (alternating rounds,
  min-of-N) but not bounded: the llama fleet is dominated by demand
  faults and macro-kernel bookkeeping, which are simulated-observable
  work no cache may remove — its speedup is reported, not asserted.

Set ``SIM_SPEED_FLOOR`` (e.g. ``2.5`` in CI) to derate the micro bound
on noisy shared machines; the committed artifact records the value
measured at generation time.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.bench.report import format_table
from repro.core.monitor import EreborFeatures
from repro.fleet import run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS, SMP_PARAMS, SMP_PINNED
from repro.hw.isa import INSTR_SIZE, I
from repro.hw.testbench import KERNEL_CODE_VA, KERNEL_DATA_VA, MicroMachine
from repro.obs.reqtrace import RequestTraceIndex

_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = _ROOT / "BENCH_sim_speed.json"
HISTORY = _ROOT / "BENCH_history.jsonl"
TABLES = _ROOT / "bench_tables.txt"
TABLES_MARKER = "Simulator speed, translation cache on vs off"

#: micro-path acceptance bound (design target; CI may derate via env)
FLOOR = float(os.environ.get("SIM_SPEED_FLOOR", "5.0"))

#: alternating on/off timing rounds; each arm keeps its fastest round
ROUNDS = 3

LOOPS = 20_000


def features(enabled: bool) -> EreborFeatures:
    return EreborFeatures(translation_cache=enabled)


# --------------------------------------------------------------------------- #
# CPU-bound micro arm: the path the superblock cache targets
# --------------------------------------------------------------------------- #

def _micro_program():
    K = KERNEL_CODE_VA
    body = K + 2 * INSTR_SIZE
    return [
        I("movi", "rax", imm=0),              # 0
        I("movi", "rcx", imm=LOOPS),          # 1
        I("addi", "rax", imm=1),              # 2: loop body (9 instrs)
        I("mov", "rbx", "rax"),               # 3
        I("add", "rbx", "rax"),               # 4
        I("cmp", "rbx", "rax"),               # 5
        I("and", "rbx", "rax"),               # 6
        I("xor", "rdx", "rbx"),               # 7
        I("nop"),                             # 8
        I("addi", "rcx", imm=(1 << 64) - 1),  # 9: rcx -= 1
        I("jnz", imm=body),                   # 10
        I("hlt"),                             # 11
    ]


def _micro_run(enabled: bool):
    m = MicroMachine()
    m.cpu.tcache.enabled = enabled
    m.cpu.mmu.tlb_enabled = enabled
    m.phys.psc_enabled = enabled
    m.map_data(KERNEL_DATA_VA)
    m.load_code(KERNEL_CODE_VA, _micro_program())
    m.cpu.rip = KERNEL_CODE_VA
    t0 = time.perf_counter()
    steps = m.cpu.run(max_steps=LOOPS * 12)
    host = time.perf_counter() - t0
    ledger = {"steps": steps, "cycles": m.clock.cycles,
              "by_tag": dict(m.clock.by_tag),
              "events": dict(m.clock.events),
              "regs": dict(m.cpu.regs), "rip": m.cpu.rip}
    return ledger, host, m


@pytest.fixture(scope="module")
def micro():
    on = off = None
    for _ in range(ROUNDS):
        candidate = _micro_run(enabled=False)
        if off is None or candidate[1] < off[1]:
            off = candidate
        candidate = _micro_run(enabled=True)
        if on is None or candidate[1] < on[1]:
            on = candidate
    return {"off": off, "on": on}


# --------------------------------------------------------------------------- #
# fleet arms
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def fleet_timing():
    """Alternating bare-fleet rounds; each arm keeps its fastest."""
    on = off = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        report, _ = run_fleet(features=features(False), **LLAMA_FLEET_PARAMS)
        host = time.perf_counter() - t0
        if off is None or host < off[1]:
            off = (report, host)
        t0 = time.perf_counter()
        report, _ = run_fleet(features=features(True), **LLAMA_FLEET_PARAMS)
        host = time.perf_counter() - t0
        if on is None or host < on[1]:
            on = (report, host)
    return {"off": off, "on": on}


@pytest.fixture(scope="module")
def fleet_fidelity():
    """One certificate-issuing run per arm: serve digest + cert bodies
    + request trace-tree digests, cache-on vs cache-off."""
    arms = {}
    for name, enabled in (("off", False), ("on", True)):
        report, system = run_fleet(features=features(enabled),
                                   certificates=True, **LLAMA_FLEET_PARAMS)
        index = RequestTraceIndex.from_tracer(system.machine.clock.tracer,
                                              names=report.traces)
        arms[name] = {
            "digest": report.digest(),
            "serve_wall_cycles": report.serve_wall_cycles,
            "total_cycles": report.total_cycles,
            "certs": dict(report.certs),
            "trace_digests": index.digests(),
            "tlb_hits": system.machine.cpu.mmu.tlb_hits,
            "sb_exec": system.machine.cpu.tcache.sb_exec,
        }
    return arms


@pytest.fixture(scope="module")
def smp_digests():
    out = {}
    for n_cpus in sorted(SMP_PINNED):
        digests = {}
        for name, enabled in (("off", False), ("on", True)):
            report, _ = run_fleet(features=features(enabled),
                                  n_cpus=n_cpus, **SMP_PARAMS)
            digests[name] = report.digest()
        out[n_cpus] = digests
    return out


# --------------------------------------------------------------------------- #
# artifact
# --------------------------------------------------------------------------- #

def write_artifact(micro, fleet_timing, fleet_fidelity, smp) -> dict:
    (micro_off, off_host, _) = micro["off"]
    (micro_on, on_host, machine) = micro["on"]
    fleet_off, fleet_off_host = fleet_timing["off"]
    fleet_on, fleet_on_host = fleet_timing["on"]
    fid_on, fid_off = fleet_fidelity["on"], fleet_fidelity["off"]
    payload = {
        "floor_speedup": FLOOR,
        "timing_rounds": ROUNDS,
        "cpu_bound": {
            "loops": LOOPS,
            "steps": micro_on["steps"],
            "cycles": micro_on["cycles"],
            "host_seconds_off": round(off_host, 4),
            "host_seconds_on": round(on_host, 4),
            "speedup": round(off_host / on_host, 2),
            "ledger_identical": micro_on == micro_off,
            "superblock_retired": machine.cpu.tcache.sb_exec,
            "tlb_hits": machine.cpu.mmu.tlb_hits,
        },
        "fleet": {
            "params": {k: v for k, v in LLAMA_FLEET_PARAMS.items()
                       if isinstance(v, (int, float, str))},
            "requests": (LLAMA_FLEET_PARAMS["clients"]
                         * LLAMA_FLEET_PARAMS["requests"]),
            "host_seconds_off": round(fleet_off_host, 4),
            "host_seconds_on": round(fleet_on_host, 4),
            "speedup": round(fleet_off_host / fleet_on_host, 2),
            "digest": fid_on["digest"],
            "serve_wall_cycles": fid_on["serve_wall_cycles"],
            "total_cycles": fid_on["total_cycles"],
            "identical": {
                "serve_digest": fid_on["digest"] == fid_off["digest"],
                "timed_digests": fleet_on.digest() == fleet_off.digest(),
                "cert_bodies": fid_on["certs"] == fid_off["certs"],
                "trace_trees":
                    fid_on["trace_digests"] == fid_off["trace_digests"],
            },
            "certificates": len(fid_on["certs"]),
            "trace_trees": len(fid_on["trace_digests"]),
            "tlb_hits_on": fid_on["tlb_hits"],
            "superblock_retired_on": fid_on["sb_exec"],
        },
        "smp": {
            str(n): {
                "pinned": SMP_PINNED[n],
                "on": digests["on"],
                "off": digests["off"],
                "identical": len({SMP_PINNED[n], digests["on"],
                                  digests["off"]}) == 1,
            } for n, digests in smp.items()
        },
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    # perf-trajectory history: append one min-of-N plane-ledger summary
    # per arm. The simulated half (cycles, planes, digest) must reproduce
    # bit-exactly across commits — `python -m repro.obs gate` fails on
    # any drift; the host seconds are threshold-gated only.
    from repro.obs.ledger import append_history, capture_ledger, history_entry
    micro_led = capture_ledger(machine.clock, machine)
    append_history(HISTORY, history_entry(
        "sim-speed-micro", micro_led,
        host_seconds={"cache_off": off_host, "cache_on": on_host},
        meta={"loops": LOOPS, "steps": micro_on["steps"]}))
    append_history(HISTORY, history_entry(
        "sim-speed-fleet", fleet_on.ledger, digest=fid_on["digest"],
        host_seconds={"cache_off": fleet_off_host,
                      "cache_on": fleet_on_host},
        meta={"requests": payload["fleet"]["requests"],
              "n_cpus": LLAMA_FLEET_PARAMS["n_cpus"]}))
    return payload


def speed_table(payload) -> str:
    micro, fleet = payload["cpu_bound"], payload["fleet"]
    rows = [
        ["cpu-bound loop", f"{micro['steps']:,}",
         f"{micro['host_seconds_off']:.2f}s",
         f"{micro['host_seconds_on']:.2f}s", f"{micro['speedup']:.2f}x"],
        ["llama fleet (16 req)", f"{fleet['serve_wall_cycles']:,} wall",
         f"{fleet['host_seconds_off']:.2f}s",
         f"{fleet['host_seconds_on']:.2f}s", f"{fleet['speedup']:.2f}x"],
    ]
    return format_table(
        TABLES_MARKER,
        ["arm", "work", "cache off", "cache on", "speedup"], rows)


def append_tables(payload) -> str:
    """Own one section of ``bench_tables.txt`` idempotently."""
    table = speed_table(payload)
    existing = TABLES.read_text() if TABLES.exists() else ""
    if TABLES_MARKER in existing:
        head = existing[:existing.index(TABLES_MARKER)].rstrip()
        existing = head + "\n" if head else ""
    text = (existing.rstrip() + "\n\n" + table + "\n").lstrip("\n")
    TABLES.write_text(text)
    return table


# --------------------------------------------------------------------------- #
# the assertions
# --------------------------------------------------------------------------- #

def test_micro_ledger_identical(micro):
    assert micro["on"][0] == micro["off"][0]
    # the fast arm really ran translated: the loop body retires in bursts
    assert micro["on"][2].cpu.tcache.sb_exec > 0
    assert micro["off"][2].cpu.tcache.sb_exec == 0


def test_micro_speedup_meets_floor(micro):
    speedup = micro["off"][1] / micro["on"][1]
    assert speedup >= FLOOR, (
        f"cpu-bound speedup {speedup:.2f}x under the {FLOOR}x floor "
        f"(off {micro['off'][1]:.3f}s, on {micro['on'][1]:.3f}s)")


def test_fleet_outputs_byte_identical(fleet_fidelity, fleet_timing):
    on, off = fleet_fidelity["on"], fleet_fidelity["off"]
    assert on["digest"] == off["digest"]
    assert on["serve_wall_cycles"] == off["serve_wall_cycles"]
    assert on["total_cycles"] == off["total_cycles"]
    assert on["certs"] == off["certs"] and on["certs"]
    assert on["trace_digests"] == off["trace_digests"]
    assert on["trace_digests"]
    # the cache-on arm actually exercised the TLB (the fleet's gate
    # costs are batch-charged on the macro plane, so superblock
    # retirement is a property of the micro arm, not asserted here)
    assert on["tlb_hits"] > 0
    assert off["tlb_hits"] == 0 and off["sb_exec"] == 0
    # the bare timed runs agree with the certificate-issuing runs
    assert fleet_timing["on"][0].digest() == on["digest"]
    assert fleet_timing["off"][0].digest() == on["digest"]


def test_smp_pinned_digests_both_arms(smp_digests):
    for n_cpus, digests in smp_digests.items():
        assert digests["on"] == digests["off"] == SMP_PINNED[n_cpus], (
            f"SMP digest mismatch at n_cpus={n_cpus}: {digests}")


def test_write_artifact(micro, fleet_timing, fleet_fidelity, smp_digests):
    payload = write_artifact(micro, fleet_timing, fleet_fidelity,
                             smp_digests)
    assert payload["cpu_bound"]["ledger_identical"]
    assert all(payload["fleet"]["identical"].values())
    assert all(v["identical"] for v in payload["smp"].values())
    print("\n" + append_tables(payload))
