"""§12 mitigation engine + §9.2 warm-start reuse tests."""

from types import SimpleNamespace

import pytest

from repro.client import RemoteClient
from repro.core import PolicyViolation, erebor_boot, published_measurement
from repro.core.channel import SecureChannel, UntrustedProxy
from repro.core.mitigations import (
    CACHE_FLUSH_CYCLES,
    MitigationConfig,
    SideChannelMitigations,
    TenantMitigationRouter,
    THROTTLE_STALL_CYCLES,
)
from repro.hw.cycles import CycleClock
from repro.hw.memory import PAGE_SIZE
from repro.vm import CvmMachine, MachineConfig, MIB


@pytest.fixture
def system():
    machine = CvmMachine(MachineConfig(memory_bytes=512 * MIB))
    return erebor_boot(machine, cma_bytes=64 * MIB)


def locked_sandbox(system, seed=91):
    sandbox = system.monitor.create_sandbox(f"sb{seed}",
                                            confined_budget=4 * MIB)
    sandbox.declare_confined(512 * 1024)
    channel = SecureChannel(system.monitor, sandbox)
    proxy = UntrustedProxy(system.monitor)
    client = RemoteClient(system.machine.authority, published_measurement(),
                          seed=seed)
    client.connect(proxy, channel)
    client.request(proxy, channel, b"data")
    return sandbox, channel, proxy, client


# --------------------------------------------------------------------------- #
# mitigation engine unit behaviour
# --------------------------------------------------------------------------- #

def test_flush_on_exit_charges_eviction():
    clock = CycleClock()
    engine = SideChannelMitigations(clock, MitigationConfig(flush_on_exit=True))
    engine.on_sandbox_exit(None)
    assert clock.by_tag["mitigation_flush"] == CACHE_FLUSH_CYCLES
    assert engine.stats["flushes"] == 1


def test_rate_limit_throttles_beyond_budget():
    clock = CycleClock()
    engine = SideChannelMitigations(
        clock, MitigationConfig(exit_rate_limit_per_sec=10))
    for _ in range(10):
        engine.on_sandbox_exit(None)
    assert engine.stats["throttles"] == 0
    engine.on_sandbox_exit(None)
    assert engine.stats["throttles"] == 1
    assert clock.by_tag["mitigation_throttle"] == THROTTLE_STALL_CYCLES


def test_rate_limit_window_resets():
    clock = CycleClock()
    engine = SideChannelMitigations(
        clock, MitigationConfig(exit_rate_limit_per_sec=2))
    for _ in range(3):
        engine.on_sandbox_exit(None)
    assert engine.stats["throttles"] == 1
    clock.charge(3 * 2_100_000_000)     # a new one-second window
    engine.on_sandbox_exit(None)
    assert engine.stats["throttles"] == 1


def test_quantized_release_hides_processing_time():
    """Two very different compute times release on interval boundaries."""
    interval = 1_000_000
    releases = []
    for work in (123, 777_321):
        clock = CycleClock()
        engine = SideChannelMitigations(
            clock, MitigationConfig(quantize_output_cycles=interval))
        clock.charge(work)
        releases.append(engine.on_output_release() % interval)
    assert releases == [0, 0]


def test_router_quantizes_only_the_armed_tenants_release():
    """An armed tenant's release waits for the interval boundary; an
    unarmed one, with no default engine, releases at once."""
    interval = 1_000_000
    clock = CycleClock()
    router = TenantMitigationRouter(clock)
    router.arm("noisy", MitigationConfig(quantize_output_cycles=interval))
    clock.charge(123)
    quiet = router.on_output_release(SimpleNamespace(tenant="quiet"))
    assert quiet == clock.cycles == 123
    assert router.on_output_release(SimpleNamespace(tenant="noisy")) \
        == clock.cycles == interval
    assert clock.by_tag["mitigation_quantize"] == interval - 123
    assert router.stats["per_tenant"]["noisy"]["quantized_waits"] == 1


def test_noise_injection_charges_bounded_noise():
    clock = CycleClock()
    engine = SideChannelMitigations(
        clock, MitigationConfig(noise_injection_max_cycles=5000))
    engine.on_output_release()
    assert 0 <= clock.by_tag.get("mitigation_noise", 0) < 5000
    assert engine.stats["noise_ops"] == 1


# --------------------------------------------------------------------------- #
# wired into the monitor
# --------------------------------------------------------------------------- #

def test_armed_monitor_flushes_on_sandbox_exits(system):
    system.monitor.arm_mitigations(MitigationConfig(flush_on_exit=True))
    sandbox, channel, proxy, client = locked_sandbox(system)
    kernel = system.kernel
    kernel.current = sandbox.task
    before = system.machine.clock.events.get("mitigation_flush", 0)
    kernel.advance(kernel.tick_period * 3, sandbox.task)
    assert system.machine.clock.events["mitigation_flush"] > before


def test_armed_monitor_quantizes_channel_output(system):
    interval = 500_000
    system.monitor.arm_mitigations(
        MitigationConfig(quantize_output_cycles=interval))
    sandbox, channel, proxy, client = locked_sandbox(system)
    sandbox.push_output(b"r1")
    channel.fetch_response()
    # the seal happens right after the quantized release; allow its cost
    assert system.machine.clock.events.get("mitigation_quantize", 0) >= 1


def test_unarmed_monitor_has_no_mitigation_costs(system):
    sandbox, channel, proxy, client = locked_sandbox(system)
    sandbox.push_output(b"r1")
    channel.fetch_response()
    assert "mitigation_flush" not in system.machine.clock.by_tag
    assert "mitigation_quantize" not in system.machine.clock.by_tag


# --------------------------------------------------------------------------- #
# warm start
# --------------------------------------------------------------------------- #

def test_warm_reset_scrubs_and_reopens(system):
    sandbox, channel, proxy, client = locked_sandbox(system)
    target = sandbox.io_vma.backing.frames[0]
    assert sandbox.locked
    sandbox.reset_for_reuse()
    assert sandbox.state == "ready" and not sandbox.locked
    # previous client's data is gone
    assert system.machine.phys.read(target * PAGE_SIZE, 16) == b"\x00" * 16
    assert sandbox.input_queue == [] and sandbox.output_queue == []


def test_warm_reset_keeps_mappings_pinned(system):
    sandbox, channel, proxy, client = locked_sandbox(system)
    frames_before = list(sandbox.confined_frames)
    sandbox.reset_for_reuse()
    assert sandbox.confined_frames == frames_before
    # pages still mapped: touching them takes zero faults
    faults = system.kernel.touch_pages(sandbox.task, sandbox.io_vma.start,
                                       64 * 1024, write=True)
    assert faults == 0


def test_warm_reset_serves_second_client(system):
    sandbox, channel, proxy, client = locked_sandbox(system, seed=92)
    sandbox.reset_for_reuse()
    chan2 = SecureChannel(system.monitor, sandbox)
    client2 = RemoteClient(system.machine.authority, published_measurement(),
                           seed=93)
    client2.connect(proxy, chan2)
    client2.request(proxy, chan2, b"second-client-data")
    assert sandbox.locked
    assert sandbox.take_input() == b"second-client-data"
    sandbox.push_output(b"second-result")
    assert client2.fetch_result(proxy, chan2) == b"second-result"


def test_warm_reset_much_cheaper_than_cold_start(system):
    sandbox, channel, proxy, client = locked_sandbox(system, seed=94)
    clock = system.machine.clock
    before = clock.cycles
    sandbox.reset_for_reuse()
    warm = clock.cycles - before
    before = clock.cycles
    cold = system.monitor.create_sandbox("cold", confined_budget=4 * MIB)
    cold.declare_confined(512 * 1024)
    cold_cycles = clock.cycles - before
    assert warm < cold_cycles / 5


def test_warm_reset_dead_sandbox_rejected(system):
    sandbox, channel, proxy, client = locked_sandbox(system, seed=95)
    sandbox.kill("test")
    with pytest.raises(PolicyViolation):
        sandbox.reset_for_reuse()
