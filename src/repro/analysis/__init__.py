"""repro.analysis — boot-time static verification and simulator lints.

Erebor's verified boot "only performs byte-level scanning of the executable
sections" (paper §5.1); the security argument, however, rests on stronger
*structural* properties — a single ``endbr`` landing pad in the monitor,
instrumentation thunks as the only legal path to the entry gate, W^X
sections — that the rest of the repo enforces dynamically, one trap at a
time.  This package makes those properties statically checkable, the way
related CVM-confinement systems do (Cabin validates untrusted program
structure before confinement; TME-Box relies on compile-time SFI
validation):

* **Prong 1 — the binary verifier** (:mod:`repro.analysis.verifier`):
  disassembles executable SELF sections of the fixed-width ISA, recovers a
  control-flow graph (:mod:`repro.analysis.cfg`), and runs checks the byte
  scan cannot express — V0–V7, see :data:`repro.analysis.verifier.CHECKS`.
  Boot runs it after the byte scan, first in :mod:`repro.analysis.
  pipeline`; the monitor charges calibrated ``verify:cfg`` cycles, audits
  the verdict, and folds the report digest into the attestation
  measurement (RTMR[3]) so remote clients can distinguish scan-only from
  CFG-verified boots.

* **Prong 2 — the dataflow verifier** (:mod:`repro.analysis.absint`):
  a deterministic worklist fixpoint (join-semilattice abstract
  interpreter) over the same CFGs, adding the *semantic* checks V8–V10:
  sensitive-taint proofs for EMC gate arguments, whole-image push/pop
  balance, and a sound per-image :class:`~repro.analysis.absint.
  StaticBudget` of worst-case EMC/exit counts that
  :mod:`repro.fleet.admission` consumes at admit time.

* **Prong 3 — the discipline linter** (:mod:`repro.analysis.lint`):
  AST rules D1–D7 over ``src/repro`` enforcing the invariants the
  simulator's determinism and calibration depend on (no wall-clock or
  unseeded randomness, observability read-only on the clock, ordered hash
  preimages, no blanket excepts, per-CPU cycle charging in fleet code,
  shared scheduler state committed only on the serial core-ordered
  path); any finding fails it.

CLI: ``python -m repro.analysis {verify,dataflow,lint,report}``.
"""

from __future__ import annotations

from .absint import (
    DATAFLOW_CHECKS,
    DataflowReport,
    DataflowVerifier,
    StaticBudget,
)
from .cfg import BasicBlock, ControlFlowGraph, Edge, build_cfg
from .lint import LintFinding, RULES, lint_paths, lint_source
from .thunks import GateCallSite, parse_gate_call_site, thunk_templates
from .verifier import (
    CHECKS,
    CheckResult,
    Finding,
    StaticVerifier,
    VerifierReport,
)

__all__ = [
    "DATAFLOW_CHECKS", "DataflowReport", "DataflowVerifier", "StaticBudget",
    "BasicBlock", "ControlFlowGraph", "Edge", "build_cfg",
    "LintFinding", "RULES", "lint_paths", "lint_source",
    "GateCallSite", "parse_gate_call_site", "thunk_templates",
    "CHECKS", "CheckResult", "Finding", "StaticVerifier", "VerifierReport",
]
