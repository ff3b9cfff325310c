"""Two-stage verified boot tests (C1)."""

import pytest

from repro.core import BootVerificationError, erebor_boot, published_measurement
from repro.core.monitor import EreborMonitor
from repro.hw.isa import I, assemble
from repro.kernel.image import SEC_EXEC, Section, SelfImage, build_kernel_image
from repro.kernel.instrument import instrument_image
from repro.vm import CvmMachine, MachineConfig, MIB


def machine():
    return CvmMachine(MachineConfig(memory_bytes=512 * MIB))


def test_raw_kernel_image_rejected_at_stage2():
    with pytest.raises(BootVerificationError) as exc:
        erebor_boot(machine(), skip_instrumentation=True, cma_bytes=16 * MIB)
    assert "sensitive" in str(exc.value)


def test_instrumented_kernel_boots():
    system = erebor_boot(machine(), cma_bytes=16 * MIB)
    assert system.kernel.booted
    assert system.monitor.installed
    assert system.kernel.ops is system.monitor.ops


def test_hand_crafted_malicious_section_rejected():
    evil = SelfImage("evil", 0x1000, [
        Section(".text", 0x1000, assemble([I("nop"), I("tdcall"), I("ret")]),
                SEC_EXEC),
    ])
    with pytest.raises(BootVerificationError):
        erebor_boot(machine(), kernel_image=evil, skip_instrumentation=True,
                    cma_bytes=16 * MIB)


def test_sensitive_bytes_hidden_in_data_section_are_fine():
    # non-executable sections are not scanned (they cannot execute: NX)
    from repro.hw.isa import SENSITIVE_PREFIX, SENSITIVE_OPS
    img = build_kernel_image(extra_sections=[
        Section(".blob", 0x9000_0000,
                bytes([SENSITIVE_PREFIX, SENSITIVE_OPS["tdcall"]]) * 4, 0),
    ])
    system = erebor_boot(machine(), kernel_image=img, cma_bytes=16 * MIB)
    assert system.kernel.booted


def test_measurement_covers_firmware_and_monitor():
    m = machine()
    erebor_boot(m, cma_bytes=16 * MIB)
    assert m.tdx.measurement.mrtd == published_measurement()


def test_tampered_monitor_changes_measurement():
    m = machine()
    m.tdx.build_load("firmware", b"OVMF-sim-1.0:" + b"\x90" * 256)
    m.tdx.build_load("erebor-monitor", b"evil monitor")
    m.tdx.finalize()
    assert m.tdx.measurement.mrtd != published_measurement()


def test_stage2_requires_stage1():
    m = machine()
    monitor = EreborMonitor(m)
    with pytest.raises(RuntimeError):
        monitor.verify_and_load_kernel(b"SELF\x01")


def _traced_monitor(m):
    from repro.obs.trace import Tracer
    m.clock.tracer = Tracer(m.clock)
    monitor = EreborMonitor(m, cma_bytes=16 * MIB)
    monitor.install()
    return monitor


def _rejections(monitor):
    audits = [e.detail for e in monitor.audit_log if e.kind == "verify"]
    triggers = [e.args["detail"] for e in monitor.clock.tracer.events
                if e.name == "flight:verify_reject"]
    return audits, triggers


def test_garbage_image_rejected_through_the_audited_path():
    monitor = _traced_monitor(machine())
    with pytest.raises(BootVerificationError, match="not a SELF image"):
        monitor.verify_and_load_kernel(b"garbage")
    audits, triggers = _rejections(monitor)
    assert audits == ["REJECTED kernel image: not a SELF image"]
    assert triggers == ["kernel image: not a SELF image"]
    assert monitor.kernel is None


def test_image_without_text_rejected_before_any_pass():
    from repro.tdx.attestation import KERNEL_CFG_RTMR_INDEX
    image, _ = instrument_image(build_kernel_image())
    renamed = SelfImage(image.name, image.entry, [
        Section(".code" if s.name == ".text" else s.name, s.va, s.data,
                s.flags) for s in image.sections])
    m = machine()
    m.tdx.finalize()
    monitor = _traced_monitor(m)
    with pytest.raises(BootVerificationError, match="no executable .text"):
        monitor.verify_and_load_kernel(renamed.serialize())
    audits, triggers = _rejections(monitor)
    assert audits == [f"REJECTED kernel {image.name}: no executable .text "
                      "section"]
    assert len(triggers) == 1
    # no pass ran and RTMR[3] never moved
    assert monitor.kernel_verifier_report is None
    assert m.clock.cfg_report_digest == ""
    assert m.clock.events["cfg_verified_image"] == 0
    assert m.tdx.measurement.rtmrs[KERNEL_CFG_RTMR_INDEX] == b""


def test_boot_reserves_confined_pool_and_io_window():
    m = machine()
    system = erebor_boot(m, cma_bytes=16 * MIB)
    usage = m.phys.usage_by_owner()
    assert usage.get("cma", 0) == 16 * MIB
    assert usage.get("shm-io", 0) == EreborMonitor.SHARED_IO_BYTES
    assert usage.get("monitor", 0) > 0


def test_boot_builds_frames_only_for_what_holds_state():
    """The llama-fleet machine (1 GiB, 512 MiB CMA): boot tags its
    regions as extents and builds a frame object only for the kernel
    text and the root page table, not one per frame of the pool."""
    m = CvmMachine(MachineConfig(memory_bytes=1024 * MIB))
    erebor_boot(m, cma_bytes=512 * MIB)
    assert len(m.phys.frames) <= 16
    assert m.phys.usage_by_owner() == {
        "monitor": 64 * 4096, "cma": 512 * MIB,
        "shm-io": EreborMonitor.SHARED_IO_BYTES, "ktext": 4096, "pt": 4096}


def test_kernel_text_tagged_for_wx_policy():
    m = machine()
    erebor_boot(m, cma_bytes=16 * MIB)
    assert m.phys.owned_by("ktext")


def test_instrumentation_round_trip_through_serialize():
    image, report = instrument_image(build_kernel_image())
    assert report.total() == 5
    blob = image.serialize()
    system = erebor_boot(machine(), kernel_image=SelfImage.deserialize(blob),
                         skip_instrumentation=True, cma_bytes=16 * MIB)
    assert system.kernel.booted
