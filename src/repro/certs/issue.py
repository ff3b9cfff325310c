"""Issuer side: compose per-session evidence into execution certificates.

Runs fleet-side (it holds the booted system), but charges **zero**
simulated cycles: every piece of evidence already exists by the time a
session closes — the scheduler held the session's audit window and the
scrub record at release, the tracer ring holds the request's span tree,
and the TDX measurement registers were extended at boot. Issuance reads
them and signs directly through the platform authority (the
reproduction's collapsed quoting-enclave path), never through the
cycle-charged in-CVM GHCI attest flow — so ``run_fleet`` digests are
byte-identical with certificates on or off, and the pinned SMP digests
stay valid.

The evidence DAG one certificate commits to::

    quote (HMAC) ── report_data ── body_sha256
                                       │ canonical JSON
          ┌──────────┬─────────────────┴┬─────────────┬────────────┐
       session    platform           kernel         audit        scrub
       claims     MRTD/RTMRs     verifier digest  committed     digest
                      │           (→ RTMR[3])       head           │
                      └ restates quote               │             │
                                            audit_segment     scrub_record
                                            (hash-chained)   (attachment)
                                                 trace.tree_digest
                                                       │
                                                  trace_tree (attachment)
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from ..core.audit import AUDIT_GENESIS
from ..obs.reqtrace import RequestTraceIndex
from ..tdx.attestation import KERNEL_CFG_RTMR_INDEX, TdReport
from . import (
    CERT_FORMAT,
    REFS_FORMAT,
    CertificateError,
    bind_report_data,
    body_digest,
    canonical_json,
    serialize_certificate,
    sha256_hex,
)
from .verify import CERTIFIABLE_OUTCOMES

#: the two RTMRs a certificate reports by name (paravisor + CFG verifier)
_NAMED_RTMRS = (2, KERNEL_CFG_RTMR_INDEX)


def _count_nodes(tree: list[dict]) -> int:
    total, stack = 0, list(tree)
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.get("children", ()))
    return total


def published_refs() -> dict:
    """The golden-values file shipped next to a certificate batch.

    Derives — from the published firmware, monitor, and instrumented
    kernel, exactly as a remote client would offline — the MRTD and the
    CFG-verified RTMR[3] a certificate's quote must carry. This is the
    one issuer-side function that imports the simulator (the derivation
    replays the boot measurement); the *verifier* only ever reads the
    resulting JSON.
    """
    from ..core.boot import published_kernel_cfg_rtmr, published_measurement
    return {
        "format": REFS_FORMAT,
        "mrtd": published_measurement().hex(),
        "rtmrs": {str(KERNEL_CFG_RTMR_INDEX):
                  published_kernel_cfg_rtmr().hex()},
    }


class CertificateIssuer:
    """Issues one ``ExecutionCertificate`` per closed fleet session."""

    def __init__(self, system, *, workload: str = "", fleet_seed: int = 0):
        self.system = system
        self.monitor = system.monitor
        self.machine = system.machine
        self.clock = system.machine.clock
        self.workload = workload
        self.fleet_seed = fleet_seed
        if self.machine.tdx is None:
            raise CertificateError(
                "platform-mrtd",
                "certificates require a TD guest (the normal-VM setting "
                "has no measurement registers to attest)")
        if self.monitor.kernel_verifier_report is None:
            raise CertificateError(
                "kernel-digest",
                "certificates require a CFG-verified boot "
                "(EreborFeatures.cfg_verifier was off)")
        #: the ``kernel`` section: boot-time evidence, the same for every
        #: certificate, so its digests are computed once per issuer
        self._kernel = self._kernel_body()

    # ------------------------------------------------------------------ #
    # evidence snapshots
    # ------------------------------------------------------------------ #

    def _kernel_body(self) -> dict:
        """The certificate's ``kernel`` section.

        ``dataflow_digest`` and the ``static_budget`` summary appear only
        on dataflow-proven boots; the offline verifier folds the digest
        into its recomputed RTMR[3] when (and only when) present, so the
        field is covered by the quote, not merely self-reported.
        """
        body = {
            "verifier_digest":
                self.monitor.kernel_verifier_report.digest(),
            "instructions":
                self.monitor.kernel_verifier_report.instructions,
            "gate_sites":
                self.monitor.kernel_verifier_report.gate_sites,
        }
        dataflow = self.monitor.kernel_dataflow_report
        if dataflow is not None:
            budget = dataflow.budget
            body["dataflow_digest"] = dataflow.digest()
            body["static_budget"] = {
                "emc_per_activation": budget.emc_per_activation,
                "exits_per_activation": budget.exits_per_activation,
                "emc_per_kcycle": budget.emc_per_kcycle,
                "exits_per_kcycle": budget.exits_per_kcycle,
            }
        return body

    @staticmethod
    def _audit_segment(session) -> list:
        """The session's contiguous slice of the monitor's audit chain.

        The scheduler opened the window at ``audit_seq_start`` when it
        bound the session to a slot and held its events at close
        (``session.audit_window``), so issuance reads no ring. The last
        held event is the committed head the segment ends at. A window
        the ring evicted part of before close is refused.
        """
        segment = session.audit_window
        if not segment or segment[0].seq != session.audit_seq_start:
            raise CertificateError(
                "audit-evidence",
                f"audit ring no longer held session {session.name!r}'s "
                "whole segment at close (raise "
                "EreborMonitor.AUDIT_LOG_CAPACITY)")
        return segment

    def issue(self, session, index: RequestTraceIndex) -> dict:
        if session.outcome not in CERTIFIABLE_OUTCOMES:
            raise CertificateError(
                "structure",
                f"session {session.name!r} outcome {session.outcome!r} "
                "is not certifiable")
        segment = self._audit_segment(session)
        scrub_record = session.scrub_record
        if not scrub_record:
            raise CertificateError(
                "scrub-evidence",
                f"session {session.name!r} closed without a scrub record "
                "(its slot never went back through WarmPool.release)")

        trace_id = session.trace_id
        if trace_id in index.by_trace:
            # the digest is over the one canonical serialization the
            # attachment is loaded back from: exactly what the
            # certificate file carries (tree_digest_of's bytes)
            text = canonical_json(index.tree_payload(trace_id))
            tree = json.loads(text)
            tree_digest = sha256_hex(text) if tree else ""
            complete = index.complete(trace_id)
        else:
            tree, tree_digest, complete = [], "", False
        measurement = self.machine.tdx.measurement

        body = {
            "session": {
                "name": session.name,
                "tenant": session.tenant,
                "outcome": session.outcome,
                "reason": session.reason,
                "served": session.served,
                "sandbox_id": session.sandbox_id,
                "core": session.core,
                "workload": self.workload,
                "fleet_seed": self.fleet_seed,
            },
            "platform": {
                "mrtd": measurement.mrtd.hex(),
                "rtmrs": {str(i): measurement.rtmrs[i].hex()
                          for i in _NAMED_RTMRS},
            },
            "kernel": copy.deepcopy(self._kernel),
            "audit": {
                "seq_start": segment[0].seq,
                "seq_end": segment[-1].seq + 1,
                "segment_prev": segment[0].prev,
                "committed_head": segment[-1].digest,
                "events": len(segment),
                "genesis": AUDIT_GENESIS,
            },
            "scrub": {
                "digest": sha256_hex(canonical_json(scrub_record)),
            },
            "trace": {
                "trace_id": trace_id,
                "tree_digest": tree_digest,
                "events": _count_nodes(tree),
                "complete": complete,
            },
        }
        digest = body_digest(body)
        report = TdReport(mrtd=measurement.mrtd,
                          rtmrs=tuple(measurement.rtmrs),
                          report_data=bind_report_data(digest))
        quote = self.machine.authority.sign(report)
        return {
            "format": CERT_FORMAT,
            "body": body,
            "body_sha256": digest,
            "quote": {
                "mrtd": report.mrtd.hex(),
                "rtmrs": [r.hex() for r in report.rtmrs],
                "report_data": report.report_data.hex(),
                "signature": quote.signature.hex(),
            },
            "attachments": {
                "audit_segment": [e.to_dict() for e in segment],
                "scrub_record": dict(scrub_record),
                "trace_tree": tree,
            },
        }

    def issue_all(self, sessions, traces: dict | None = None
                  ) -> dict[str, dict]:
        """One certificate per certifiable session, keyed by name.

        ``traces`` is the report's session-name → trace-ID map; the
        tracer ring is indexed once and shared across every issuance.
        Bumps ``erebor_certs_issued_total`` / ``erebor_certs_bytes``.
        """
        index = RequestTraceIndex.from_tracer(self.clock.tracer,
                                              names=traces)
        metrics = self.clock.metrics
        certs: dict[str, dict] = {}
        for session in sessions:
            if session.outcome not in CERTIFIABLE_OUTCOMES:
                continue
            cert = self.issue(session, index)
            certs[session.name] = cert
            if metrics.enabled:   # sizing is a JSON encode
                metrics.inc("erebor_certs_issued_total",
                            tenant=session.tenant)
                metrics.observe("erebor_certs_bytes",
                                len(serialize_certificate(cert)))
        return certs


def write_certificates(certs: dict[str, dict], directory,
                       *, refs: dict | None = None) -> list[Path]:
    """Dump a certificate batch (plus ``published.json``) to a directory.

    File names and bytes are deterministic: ``cert-<session>.json`` in
    sorted order, each in the pinned on-disk form, so two seeded runs
    produce directories that compare equal file-by-file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for name in sorted(certs):
        path = directory / f"cert-{name}.json"
        path.write_text(serialize_certificate(certs[name]))
        paths.append(path)
    if refs is None:
        refs = published_refs()
    refs_path = directory / "published.json"
    refs_path.write_text(serialize_certificate(refs))
    paths.append(refs_path)
    return paths
