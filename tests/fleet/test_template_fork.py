"""Template sealing + copy-on-write fork correctness.

Pins the §9.2 fork semantics end to end: sealed images are immutable and
shared, reads map template frames physically, first writes duplicate
pages into private confined frames (C6 single-mapping preserved), and a
warm reset returns a fork to the golden template view.
"""

import pytest

from repro.core.nested_mmu import NestedMmu
from repro.core.policy import PolicyViolation
from repro.fleet import run_fleet
from repro.fleet.goldens import LLAMA_FLEET_PARAMS
from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE
from repro.hw.paging import PTE_P, PTE_W, make_pte, pte_frame
from repro.obs.metrics import metrics_snapshot


def heap_vma(sandbox):
    return next(v for v in sandbox.confined_vmas if v is not sandbox.io_vma)


# --------------------------------------------------------------------------- #
# sealing
# --------------------------------------------------------------------------- #

def test_capture_seals_golden_image(system, template):
    monitor = system.monitor
    sealed = [sb for sb in monitor.sandboxes.values() if sb.is_template]
    assert len(sealed) == 1
    tsb = sealed[0]
    # the template sandbox no longer owns the frames: a later scrub of it
    # must not zero or recycle golden pages still mapped by children
    assert tsb.confined_frames == []
    for tvma in template.layout:
        for fn in tvma.frames:
            assert monitor.vmmu.template_frames[fn] == template.name
            assert (monitor.phys.frame(fn).owner
                    == f"template:{template.name}")
            assert fn not in monitor.vmmu.confined_owner
    # cold cycles were measured before the seal flipped the image
    assert 0 < template.cold_start_cycles <= template.capture_cycles


def test_template_refuses_client_lifecycle(system, template):
    tsb = next(sb for sb in system.monitor.sandboxes.values()
               if sb.is_template)
    with pytest.raises(PolicyViolation):
        tsb.lock()
    with pytest.raises(PolicyViolation):
        tsb.install_input(b"client-bytes")
    with pytest.raises(PolicyViolation):
        tsb.declare_confined(PAGE_SIZE)
    with pytest.raises(PolicyViolation):
        tsb.reset_for_reuse()


def test_template_frames_never_writable(system, template):
    """The nested MMU refuses any writable mapping of a sealed frame."""
    inst = template.fork()
    vma = heap_vma(inst.sandbox)
    fn = vma.backing.template_frames[0]
    with pytest.raises(PolicyViolation):
        system.monitor.vmmu.write_pte(
            inst.sandbox.task.aspace, vma.start,
            make_pte(fn, PTE_P | PTE_W, vma.pkey))


def test_duplicate_template_name_refused(system, template):
    from repro.apps.base import workload as make_workload
    from repro.fleet import SandboxTemplate
    with pytest.raises(PolicyViolation):
        SandboxTemplate.capture(system, make_workload("helloworld", seed=3),
                                name=template.name)


# --------------------------------------------------------------------------- #
# forking
# --------------------------------------------------------------------------- #

def test_fork_takes_no_frames_upfront(system, template):
    cma_before = len(system.monitor._cma_pool)
    inst = template.fork()
    assert inst.sandbox.confined_frames == []
    assert inst.sandbox.confined_bytes == template.confined_bytes
    assert len(system.monitor._cma_pool) == cma_before


def test_fork_reads_map_shared_template_frames(system, template):
    inst = template.fork()
    sandbox = inst.sandbox
    vma = heap_vma(sandbox)
    system.kernel.touch_pages(sandbox.task, vma.start, PAGE_SIZE,
                              write=False)
    pte = sandbox.task.aspace.get_pte(vma.start)
    assert pte & PTE_P and not pte & PTE_W
    assert pte_frame(pte) == vma.backing.template_frames[0]
    # still zero private frames: the read cost no physical memory
    assert inst.private_bytes == 0


def test_first_write_copies_page_privately(system, template):
    monitor = system.monitor
    inst_a, inst_b = template.fork(), template.fork()
    vma_a = heap_vma(inst_a.sandbox)
    fn_template = vma_a.backing.template_frames[0]
    # golden content planted at init time (simulated via the phys ledger)
    monitor.phys.write(fn_template << PAGE_SHIFT, b"GOLDEN-STATE" * 4)
    golden = bytes(monitor.phys.frame(fn_template).data)

    system.kernel.touch_pages(inst_a.sandbox.task, vma_a.start, PAGE_SIZE,
                              write=True)
    fn_private = vma_a.backing.private[0]
    assert fn_private != fn_template
    # the break copied the golden bytes into the private frame
    assert bytes(monitor.phys.frame(fn_private).data)[:48] == golden[:48]
    # the template is untouched and sibling reads still share it
    assert bytes(monitor.phys.frame(fn_template).data) == golden
    vma_b = heap_vma(inst_b.sandbox)
    system.kernel.touch_pages(inst_b.sandbox.task, vma_b.start, PAGE_SIZE,
                              write=False)
    assert (pte_frame(inst_b.sandbox.task.aspace.get_pte(vma_b.start))
            == fn_template)
    # C6: the private copy is confined to (single-mapped by) fork A
    assert (monitor.vmmu.confined_owner[fn_private]
            == inst_a.sandbox.sandbox_id)
    assert fn_private in inst_a.sandbox.confined_frames
    assert inst_a.private_bytes == PAGE_SIZE


def test_cow_break_is_counted(system, template):
    clock = system.machine.clock
    inst = template.fork()
    vma = heap_vma(inst.sandbox)
    before = clock.events.get("cow_break", 0)
    system.kernel.touch_pages(inst.sandbox.task, vma.start, 3 * PAGE_SIZE,
                              write=True)
    assert clock.events["cow_break"] == before + 3
    assert metrics_snapshot(clock)["counters"]["erebor_cow_breaks_total"][
        f"sandbox={inst.sandbox.sandbox_id}"] == 3


def test_reset_restores_template_view(system, template):
    """Warm reuse of a fork drops private copies back to the golden image."""
    monitor = system.monitor
    inst = template.fork()
    sandbox = inst.sandbox
    vma = heap_vma(sandbox)
    system.kernel.touch_pages(sandbox.task, vma.start, 3 * PAGE_SIZE,
                              write=True)
    dirty = sorted(vma.backing.private.values())
    assert len(dirty) == 3

    sandbox.reset_for_reuse()
    assert vma.backing.private == {}
    assert sandbox.confined_frames == []
    for fn in dirty:
        assert monitor.phys.frame(fn).owner == "cma"
        assert fn not in monitor.vmmu.confined_owner
    # the next session reads the template image again
    system.kernel.touch_pages(sandbox.task, vma.start, PAGE_SIZE,
                              write=False)
    assert (pte_frame(sandbox.task.aspace.get_pte(vma.start))
            == vma.backing.template_frames[0])


def test_forked_session_serves_through_real_channel(system, template):
    """A fork carries a full attested session; plaintext lands in private
    confined frames only (the I/O buffer breaks CoW before install)."""
    from repro.client import RemoteClient
    from repro.core.boot import published_measurement
    from repro.core.channel import SecureChannel, UntrustedProxy

    inst = template.fork()
    sandbox = inst.sandbox
    proxy = UntrustedProxy(system.monitor)
    channel = SecureChannel(system.monitor, sandbox)
    client = RemoteClient(system.machine.authority, published_measurement(),
                          seed=17)
    client.connect(proxy, channel)
    secret = b"forked-session-private-record"
    client.request(proxy, channel, secret)
    assert sandbox.locked
    # the secret is in a private confined frame, never a template frame
    io_backing = sandbox.io_vma.backing
    assert 0 in io_backing.private
    blob = bytes(system.monitor.phys.frame(io_backing.private[0]).data)
    assert secret in blob
    for fn in io_backing.template_frames:
        data = system.monitor.phys.frame(fn).data
        assert data is None or secret not in bytes(data)
    # and the untrusted proxy saw only ciphertext
    assert not proxy.log.saw(secret)


def test_common_region_stops_recording_mappings_at_seal(monkeypatch):
    """Only mappings made while a region is writable can need revoking at
    its seal: the seal drops the record, and the read-only mappings forks
    take afterwards are not kept."""
    at_seal = {}
    seal = NestedMmu.seal_common_region

    def recording_seal(vmmu, name):
        at_seal[name] = len(vmmu.common_regions[name].mappings)
        return seal(vmmu, name)

    monkeypatch.setattr(NestedMmu, "seal_common_region", recording_seal)
    report, system = run_fleet(**dict(LLAMA_FLEET_PARAMS, clients=2,
                                      pool_size=2, tenants=2, n_cpus=2))
    assert report.outcomes == {"completed": 2}
    regions = system.monitor.vmmu.common_regions
    assert set(at_seal) == set(regions) and regions
    for name, region in regions.items():
        assert not region.writable
        assert at_seal[name] > 0
        assert region.mappings == [], name
