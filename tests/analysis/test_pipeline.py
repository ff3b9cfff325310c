"""The kernel verification pipeline: pass order, RTMR[3] chain, one
decode per section, and the pinned report digests."""

import json

import pytest

from repro.analysis import cfg
from repro.analysis.__main__ import main
from repro.analysis.absint import DataflowReport
from repro.analysis.pipeline import (
    CFG_PASS,
    DATAFLOW_PASS,
    kernel_rtmr,
    verify_kernel,
)
from repro.analysis.verifier import Finding
from repro.core import erebor_boot
from repro.core.boot import published_kernel_cfg_rtmr
from repro.fleet.goldens import (
    CFG_ATTACK_DIGESTS,
    DATAFLOW_ATTACK_DIGESTS,
    KERNEL_CFG_DIGEST,
    KERNEL_DATAFLOW_DIGEST,
    KERNEL_RTMR3,
)
from repro.kernel.image import build_kernel_image
from repro.kernel.instrument import instrument_image
from repro.tdx.attestation import expected_rtmr
from repro.vm import CvmMachine, MachineConfig, MIB


def kernel():
    image, _ = instrument_image(build_kernel_image())
    return image


def test_passes_run_in_boot_order():
    image = kernel()
    def order(dataflow):
        return [p for p, _ in verify_kernel(image, dataflow=dataflow)]

    assert order(True) == [CFG_PASS, DATAFLOW_PASS]
    assert order(False) == [CFG_PASS]


def test_rtmr3_chains_the_report_digests_in_pass_order():
    image = kernel()
    digests = [r.digest().encode()
               for _, r in verify_kernel(image, dataflow=True)]
    assert kernel_rtmr(image, dataflow=True) == expected_rtmr(digests)
    assert kernel_rtmr(image, dataflow=False) == expected_rtmr(digests[:1])


def test_failed_checks_sort_numerically():
    findings = [Finding(check, ".text", 0, "x") for check in ("V10", "V8")]
    report = DataflowReport("img", 0, 0, 0, 0, 0, 0, 0, 0, [], None,
                            findings=findings)
    assert report.failed_checks == ["V8", "V10"]
    assert report.first_failure is findings[0]


def test_boot_decodes_each_executable_section_once(monkeypatch):
    decodes = []
    real = cfg.decode_section

    def counting(data, va):
        decodes.append(va)
        return real(data, va)

    monkeypatch.setattr(cfg, "decode_section", counting)
    cfg.build_cfg.cache_clear()
    for _ in range(2):
        system = erebor_boot(CvmMachine(MachineConfig(memory_bytes=512 * MIB)),
                             cma_bytes=16 * MIB)
    assert system.monitor.kernel_dataflow_report.ok
    # both passes, across two boots
    assert decodes == [s.va for s in kernel().executable_sections()]


@pytest.mark.parametrize("cmd,digest,attacks", [
    ("verify", KERNEL_CFG_DIGEST, CFG_ATTACK_DIGESTS),
    ("dataflow", KERNEL_DATAFLOW_DIGEST, DATAFLOW_ATTACK_DIGESTS),
])
def test_self_check_artifact_matches_goldens(tmp_path, capsys, cmd, digest,
                                             attacks):
    artifact = tmp_path / "report.json"
    assert main([cmd, "--self-check", "--json", str(artifact)]) == 0
    payload = json.loads(artifact.read_text())
    assert payload["kernel_digest"] == digest
    assert tuple(a["digest"] for a in payload["attacks"]) == attacks


@pytest.mark.parametrize("dataflow", [True, False])
def test_published_rtmr3_matches_golden(dataflow):
    assert published_kernel_cfg_rtmr(dataflow=dataflow).hex() == \
        KERNEL_RTMR3[dataflow]
