"""The kernel verification pipeline: which passes run, in what order, and
how their reports extend RTMR[3].

Boot runs the CFG pass (V0–V7) and then, unless the boot is CFG-only,
the dataflow pass (V8–V10); each accepted report's digest extends
RTMR[3] in that order. The monitor's stage-2 load, the published golden
(:func:`repro.core.boot.published_kernel_cfg_rtmr`) and the
``python -m repro.analysis`` CLI all read this one pass list, and both
passes read one decode of each section (:func:`~repro.analysis.cfg.
build_cfg` is memoized).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..hw.cycles import Cost
from ..kernel.image import SelfImage
from ..tdx.attestation import expected_rtmr
from .absint import DataflowVerifier
from .verifier import Report, StaticVerifier


@dataclass(frozen=True)
class KernelPass:
    """One boot-time verification pass and how the monitor books it.

    ``name`` keys the monitor's span (``verify:<name>``), its clock count
    (``<name>_verified_image``) and the clock's digest mirror
    (``<name>_report_digest``); ``label`` names the pass in a rejection
    and ``verb`` in an acceptance audit.
    """

    name: str
    label: str
    verb: str
    verifier: type
    base_cycles: int
    per_instr_cycles: int

    def run(self, image: SelfImage) -> Report:
        # looked up per call, so a patched ``verify_image`` is honoured
        return self.verifier().verify_image(image)

    def cycles(self, report: Report) -> int:
        """Calibrated ``verify`` cycles the monitor charges for ``report``."""
        return self.base_cycles + self.per_instr_cycles * report.instructions


CFG_PASS = KernelPass("cfg", "CFG", "CFG-verified", StaticVerifier,
                      Cost.VERIFY_CFG_BASE, Cost.VERIFY_CFG_PER_INSTR)
DATAFLOW_PASS = KernelPass("dataflow", "dataflow", "dataflow-proven",
                           DataflowVerifier, Cost.VERIFY_DATAFLOW_BASE,
                           Cost.VERIFY_DATAFLOW_PER_INSTR)
#: every pass in boot order, which is also the RTMR[3] extension order
PASSES = (CFG_PASS, DATAFLOW_PASS)


def verify_kernel(image: SelfImage, *,
                  dataflow: bool) -> Iterator[tuple[KernelPass, Report]]:
    """Run the passes over ``image`` in boot order, yielding each report.

    Lazy: a pass runs only when the caller asks for it, so the monitor
    stops at the first rejection. ``dataflow=False`` is the CFG-only boot.
    """
    for kernel_pass in PASSES if dataflow else PASSES[:1]:
        yield kernel_pass, kernel_pass.run(image)


def kernel_rtmr(image: SelfImage, *, dataflow: bool) -> bytes:
    """RTMR[3] after a verified boot of ``image``: each pass's report
    digest, extended in boot order."""
    return expected_rtmr([report.digest().encode()
                          for _, report in verify_kernel(image,
                                                         dataflow=dataflow)])
