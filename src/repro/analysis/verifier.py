"""The CFG-based static verifier run at boot after the byte scan.

Erebor's two-stage verified boot byte-scans executable sections for
sensitive instructions (paper §5.1).  That scan is necessary but not
sufficient: the security argument also needs *structural* facts — the
entry gate as the only legal indirect-call destination into the monitor,
instrumentation thunks as the only code calling it, W^X sections, no
stray control flow.  :class:`StaticVerifier` proves those facts over the
recovered CFG before the kernel ever executes.

Checks (IDs are stable; clients and the audit log reference them):

======  ===================  ==============================================
ID      name                 rejects
======  ===================  ==============================================
V0      stream-decode        sections that are not clean aligned streams
V1      branch-target        direct branches (and the image entry) landing
                             out of section or between instructions
V2      endbr-pad            statically-known indirect targets that do not
                             land on ``endbr`` (or the entry gate)
V3      gate-provenance      ``icall``s of the entry-gate VA from code that
                             is not an instrumentation-shaped thunk
V4      wx-section           sections mapped writable *and* executable
V5      section-fallthrough  executable sections whose last instruction can
                             fall off the end
V6      byte-scan            sensitive byte sequences at any offset (the
                             paper's original stage-2 scan, folded in)
V7      thunk-liveness       gate thunks that clobber live registers
                             without a matching save/restore bracket
======  ===================  ==============================================

The report is pure and deterministic — no clock, no I/O — so the same
image always yields the same :meth:`VerifierReport.digest`, which the
monitor folds into RTMR[3] of the attestation measurement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar

from ..emc_abi import ENTRY_GATE_VA
from ..hw.isa import INSTR_SIZE, scan_for_sensitive
from ..kernel.image import SelfImage
from .cfg import CfgDecodeError, ControlFlowGraph, TERMINATORS, build_cfg
from .thunks import parse_gate_call_site, thunk_templates

#: stable check-ID → short name table (order is report order)
CHECKS = {
    "V0": "stream-decode",
    "V1": "branch-target",
    "V2": "endbr-pad",
    "V3": "gate-provenance",
    "V4": "wx-section",
    "V5": "section-fallthrough",
    "V6": "byte-scan",
    "V7": "thunk-liveness",
}


@dataclass(frozen=True)
class Finding:
    """One concrete violation: which check, where, and why."""

    check: str                  # key into CHECKS
    section: str                # section name ("<image>" for whole-image)
    offset: int | None          # section-relative byte offset, if localized
    detail: str

    def as_dict(self) -> dict:
        return {"check": self.check, "section": self.section,
                "offset": self.offset, "detail": self.detail}


@dataclass(frozen=True)
class CheckResult:
    """Aggregated verdict for one check ID."""

    check: str
    name: str
    passed: bool
    count: int
    first_section: str | None
    first_offset: int | None
    detail: str                 # detail of the first finding, or ""

    def as_dict(self) -> dict:
        return {"id": self.check, "name": self.name, "passed": self.passed,
                "count": self.count, "first_section": self.first_section,
                "first_offset": self.first_offset, "detail": self.detail}


class Report:
    """What every verification report derives from its ``findings``.

    A subclass names its check table in ``CHECKS`` and defines
    ``as_dict`` (the canonical preimage of :meth:`digest`), plus
    ``span_args`` and ``summary`` for the monitor's span and audit line.
    """

    CHECKS: ClassVar[dict[str, str]]
    findings: list[Finding]

    @property
    def checks(self) -> list[CheckResult]:
        per: dict[str, list[Finding]] = {cid: [] for cid in self.CHECKS}
        for f in self.findings:
            per[f.check].append(f)
        out = []
        for cid, name in self.CHECKS.items():
            fs = per[cid]
            first = fs[0] if fs else None
            out.append(CheckResult(
                check=cid, name=name, passed=not fs, count=len(fs),
                first_section=first.section if first else None,
                first_offset=first.offset if first else None,
                detail=first.detail if first else ""))
        return out

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def failed_checks(self) -> list[str]:
        # numeric, so "V8" sorts before "V10"
        return sorted({f.check for f in self.findings},
                      key=lambda c: int(c[1:]))

    @property
    def first_failure(self) -> Finding | None:
        return self.findings[0] if self.findings else None

    def to_json(self) -> str:
        # sort_keys keeps the preimage independent of dict build order
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """sha256 over the canonical JSON — folded into RTMR[3] at boot."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass
class VerifierReport(Report):
    """Deterministic, attestable summary of one image verification."""

    CHECKS: ClassVar[dict[str, str]] = CHECKS

    image: str
    entry: int
    gate_va: int
    sections: list[dict] = field(default_factory=list)
    instructions: int = 0
    blocks: int = 0
    edges: int = 0
    indirect_sites: int = 0
    gate_sites: int = 0
    findings: list[Finding] = field(default_factory=list)

    def span_args(self) -> dict:
        return {"instructions": self.instructions}

    def summary(self) -> str:
        return f"({self.instructions} instrs, {self.gate_sites} gate thunks)"

    def as_dict(self) -> dict:
        return {
            "image": self.image,
            "entry": self.entry,
            "gate_va": self.gate_va,
            "sections": self.sections,
            "instructions": self.instructions,
            "blocks": self.blocks,
            "edges": self.edges,
            "indirect_sites": self.indirect_sites,
            "gate_sites": self.gate_sites,
            "ok": self.ok,
            "failed_checks": self.failed_checks,
            "checks": [c.as_dict() for c in self.checks],
            "findings": [f.as_dict() for f in self.findings],
        }


class StaticVerifier:
    """Runs the V0–V7 checks over every executable section of an image."""

    def verify_image(self, image: SelfImage) -> VerifierReport:
        report = VerifierReport(image=image.name, entry=image.entry,
                                gate_va=ENTRY_GATE_VA)
        cfgs: list[tuple[object, ControlFlowGraph]] = []
        for sec in image.sections:
            report.sections.append({
                "name": sec.name, "va": sec.va, "size": len(sec.data),
                "flags": sec.flags, "executable": sec.executable})
            if sec.executable and sec.writable:
                report.findings.append(Finding(
                    "V4", sec.name, None,
                    f"section {sec.name} is both writable and executable "
                    f"(flags {sec.flags:#x})"))
            if not sec.executable:
                continue
            for off, name in scan_for_sensitive(sec.data):
                report.findings.append(Finding(
                    "V6", sec.name, off,
                    f"sensitive byte sequence ({name}) at offset {off:#x}"))
            try:
                cfg = build_cfg(sec.data, sec.va)
            except CfgDecodeError as exc:
                report.findings.append(Finding(
                    "V0", sec.name, exc.offset,
                    f"undecodable instruction stream: {exc.description}"))
                continue
            cfgs.append((sec, cfg))
            report.instructions += len(cfg.instrs)
            report.blocks += len(cfg.blocks)
            report.edges += len(cfg.edges)
            report.indirect_sites += len(cfg.indirect_sites)

        self._check_entry(image, cfgs, report)
        for sec, cfg in cfgs:
            self._check_section(sec, cfg, cfgs, report)
        return report

    # -- individual checks -------------------------------------------------

    def _check_entry(self, image, cfgs, report) -> None:
        for _, cfg in cfgs:
            if cfg.contains(image.entry) and cfg.aligned(image.entry):
                return
        report.findings.append(Finding(
            "V1", "<image>", None,
            f"entry {image.entry:#x} is not an aligned instruction in any "
            "executable section"))

    def _check_section(self, sec, cfg, cfgs, report) -> None:
        if cfg.instrs:
            last = cfg.instrs[-1]
            if last.op not in TERMINATORS and last.op not in ("jmp", "ijmp"):
                report.findings.append(Finding(
                    "V5", sec.name, len(sec.data) - INSTR_SIZE,
                    f"section ends in {last.op!r}: execution can fall off "
                    "the section end"))
        for idx, instr in enumerate(cfg.instrs):
            if instr.op in ("jmp", "jz", "jnz", "call"):
                if not (cfg.contains(instr.imm) and cfg.aligned(instr.imm)):
                    report.findings.append(Finding(
                        "V1", sec.name, idx * INSTR_SIZE,
                        f"{instr.op} at offset {idx * INSTR_SIZE:#x} "
                        f"targets {instr.imm:#x}, which is not an aligned "
                        "in-section instruction"))
        for site in cfg.indirect_sites:
            off = site.va - sec.va
            if site.target is None:
                continue            # runtime IBT is the only possible check
            if site.target == ENTRY_GATE_VA:
                self._check_gate_site(sec, cfg, site, off, report)
                continue
            if not self._lands_on_endbr(site.target, cfgs):
                report.findings.append(Finding(
                    "V2", sec.name, off,
                    f"{site.op} at offset {off:#x} targets "
                    f"{site.target:#x}, which is not an endbr landing pad"))

    def _lands_on_endbr(self, target: int, cfgs) -> bool:
        for _, cfg in cfgs:
            if cfg.contains(target):
                instr = cfg.instr_at(target)
                return instr is not None and instr.op == "endbr"
        return False

    def _check_gate_site(self, sec, cfg, site, off, report) -> None:
        if site.op != "icall":
            report.findings.append(Finding(
                "V3", sec.name, off,
                f"{site.op} at offset {off:#x} jumps to the entry gate; "
                "only instrumentation thunks may icall it"))
            return
        icall_index = (site.va - cfg.section_va) // INSTR_SIZE
        parsed = parse_gate_call_site(cfg.instrs, icall_index,
                                      ENTRY_GATE_VA)
        matched = next(
            (t for t in thunk_templates().values()
             if t.matches_body(parsed.body)), None)
        if matched is None or not parsed.ret_ok:
            report.findings.append(Finding(
                "V3", sec.name, off,
                f"icall of the entry gate at offset {off:#x} is not an "
                "instrumentation-shaped thunk"))
        else:
            report.gate_sites += 1
        clobbered = parsed.clobbered
        if clobbered:
            report.findings.append(Finding(
                "V7", sec.name, off,
                f"gate thunk at offset {off:#x} clobbers "
                f"{', '.join(clobbered)} without a save/restore bracket"))
