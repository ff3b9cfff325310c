"""Two-stage verified boot (§5.1) and the drop-in deployment entry point.

Stage 1: only the trusted firmware and the Erebor monitor enter the TD;
both are measured into the MRTD, so any remote client can attest exactly
which monitor is governing the CVM before sending data.

Stage 2: the monitor receives the (instrumented) kernel image, byte-scans
every executable section for sensitive instruction sequences, and boots
the deprivileged kernel with :class:`MonitorOps` as its only route to
privilege.

Nothing here touches the host side: the "drop-in" property is that the
whole flow runs on unmodified VMM/TDX interfaces (and, per §10, the same
code boots on non-TDX platform profiles, with SEV falling back to private
page tables for the missing PKS).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.isa import assemble
from ..kernel.image import SelfImage, build_kernel_image
from ..kernel.instrument import instrument_image
from ..kernel.kernel import GuestKernel
from ..tdx.attestation import expected_measurement
from ..vm import CvmMachine
from .channel import DEVICE_PATH, EreborDevice
from .gates import build_monitor_code
from .monitor import EreborFeatures, EreborMonitor

#: the published open-source firmware blob (stands in for OVMF)
FIRMWARE_BLOB = b"OVMF-sim-1.0:" + b"\x90" * 256
#: the cloud provider's trusted paravisor (stands in for COCONUT/OpenHCL)
PARAVISOR_BLOB = b"OpenHCL-sim-1.0:" + b"\xCC" * 384
#: RTMR index the paravisor extends with tenant payloads (monitor binary)
PARAVISOR_RTMR_INDEX = 2


def monitor_binary() -> bytes:
    """The monitor's published binary (gates + dispatch), for measurement."""
    return assemble(build_monitor_code().code)


def published_measurement() -> bytes:
    """The golden MRTD clients must expect (firmware ‖ monitor)."""
    return expected_measurement([
        ("firmware", FIRMWARE_BLOB),
        ("erebor-monitor", monitor_binary()),
    ])


def published_kernel_cfg_rtmr(*, dataflow: bool = True) -> bytes:
    """Golden RTMR[3] for a verified boot of the distribution kernel.

    A remote client replays the monitor's verification pipeline
    (:mod:`repro.analysis.pipeline`: the CFG pass and, for the default
    full boot, the dataflow pass) offline — both verifiers are pure and
    deterministic — over the published
    instrumented kernel image and derives the RTMR value the monitor
    must have extended. A scan-only boot
    (``EreborFeatures(cfg_verifier=False)``) leaves RTMR[3] at its reset
    value and a CFG-only boot (``dataflow_verifier=False``) carries just
    the first extension, so the quote alone distinguishes all three boot
    flavours.
    """
    from ..analysis.pipeline import kernel_rtmr
    image, _ = instrument_image(build_kernel_image())
    return kernel_rtmr(image, dataflow=dataflow)


def published_paravisor_measurement() -> tuple[bytes, bytes]:
    """Golden values for paravisor deployments (§10).

    Returns ``(mrtd, rtmr2)``: the boot measurement covers firmware +
    paravisor only (the cloud provider's payload); the monitor is loaded
    *later* by the paravisor and recorded in a runtime measurement
    register, which the client verifies in addition to the MRTD.
    """
    from ..tdx.attestation import expected_rtmr
    mrtd = expected_measurement([
        ("firmware", FIRMWARE_BLOB),
        ("paravisor", PARAVISOR_BLOB),
    ])
    return mrtd, expected_rtmr([monitor_binary()])


@dataclass
class EreborSystem:
    """A booted Erebor CVM: machine + monitor + deprivileged kernel."""

    machine: CvmMachine
    monitor: EreborMonitor
    kernel: GuestKernel
    device: EreborDevice


def erebor_boot(machine: CvmMachine, *,
                features: EreborFeatures | None = None,
                kernel_image: SelfImage | None = None,
                cma_bytes: int | None = None,
                skip_instrumentation: bool = False,
                paravisor: bool = False) -> EreborSystem:
    """Boot Erebor on a machine; returns the running system.

    ``kernel_image`` defaults to the distribution kernel; unless
    ``skip_instrumentation`` it is run through the instrumentation pass
    first (a raw image would be rejected by the stage-2 verifier — which
    is itself a test scenario).

    With ``paravisor`` the §10 deployment shape is used: the boot-time
    measurement covers firmware + the cloud provider's paravisor, and the
    monitor is recorded in RTMR[2] when the paravisor loads it — clients
    must then expect :func:`published_paravisor_measurement`.
    """
    # --- stage 1: measure the trusted payloads, finalize the TD ---------
    if machine.tdx is not None and not machine.tdx.finalized:
        machine.tdx.build_load("firmware", FIRMWARE_BLOB)
        if paravisor:
            machine.tdx.build_load("paravisor", PARAVISOR_BLOB)
            machine.tdx.finalize()
            # the paravisor loads the tenant's monitor at runtime and
            # extends the runtime measurement register
            machine.tdx.measurement.extend_rtmr(PARAVISOR_RTMR_INDEX,
                                                monitor_binary())
        else:
            machine.tdx.build_load("erebor-monitor", monitor_binary())
            machine.tdx.finalize()
    monitor = EreborMonitor(machine, features, cma_bytes=cma_bytes)
    monitor.install()

    # --- stage 2: verify + load the kernel ------------------------------
    image = kernel_image
    if image is None:
        image = build_kernel_image()
    if not skip_instrumentation:
        image, _ = instrument_image(image)
    kernel = monitor.verify_and_load_kernel(image.serialize())

    # expose the channel device
    device = EreborDevice(monitor)
    kernel.vfs.register(DEVICE_PATH, device)
    return EreborSystem(machine, monitor, kernel, device)
