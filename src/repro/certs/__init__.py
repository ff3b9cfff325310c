"""``repro.certs`` — per-session execution certificates, verified offline.

Erebor's pitch is private data processing the client does not have to
trust the host for; the certificate is the *proof after the fact*. At
session close the fleet snapshots every piece of evidence the run
already produced — the attestation quote (MRTD + RTMR[2]/RTMR[3]), the
kernel :class:`~repro.analysis.verifier.VerifierReport` digest, the
session's audit-chain segment with the head it commits to, the request
trace tree digest (:mod:`repro.obs.reqtrace`), and the C8 scrub proof
from pool release — and composes them into one ``ExecutionCertificate``
JSON document a relying party can check **offline, client-side, with no
simulator state**::

    python -m repro.certs verify cert.json --published published.json

The document has three layers:

* ``body`` — the claims, canonically serialized (sorted-key JSON) and
  hashed into ``body_sha256``;
* ``quote`` — a TDREPORT whose ``report_data`` binds ``body_sha256``
  (:func:`bind_report_data`), HMAC-signed by the platform's
  :class:`~repro.tdx.attestation.AttestationAuthority`. Tampering with
  any claim breaks the binding; forging the quote breaks the signature;
  grafting another session's quote breaks the binding too — three
  *distinct* failures;
* ``attachments`` — the raw evidence (audit segment, scrub record,
  trace tree) that is **self-authenticating**: each attachment re-hashes
  or hash-chains into a digest committed inside ``body``, so the
  verifier localizes exactly which piece was doctored instead of
  collapsing every tamper into one generic mismatch.

Everything imported here (and by :mod:`repro.certs.verify`) is
simulator-free: :mod:`repro.core.audit`, :mod:`repro.tdx.attestation`,
and :mod:`repro.obs.reqtrace` are pure, so the verifier process never
loads ``repro.hw`` / ``repro.kernel`` / ``repro.fleet`` (the CI
certs-smoke job asserts this on ``sys.modules``). Only the issuer side
(:mod:`repro.certs.issue`, driven by ``run_fleet(certificates=True)``)
touches the simulator — and it charges **zero** simulated cycles: the
quote is signed directly through the authority, outside the in-CVM
GHCI path, so pinned fleet digests are unchanged by issuance.
"""

from __future__ import annotations

import hashlib
import json

from .._lazy import lazy_exports

#: certificate document format tag (bump on breaking layout changes)
CERT_FORMAT = "erebor-cert/1"

#: the published golden-values file (``published.json`` in a cert dir)
REFS_FORMAT = "erebor-cert-refs/1"

#: domain separator prefixing the body hash inside the quote's
#: ``report_data`` — a certificate quote can never be confused with a
#: channel-handshake quote (whose report data binds a DH transcript)
REPORT_DATA_PREFIX = b"erebor-cert/1:"

#: TDREPORT report_data width (TDX ABI: 64 caller-controlled bytes)
REPORT_DATA_LEN = 64


class CertificateError(Exception):
    """A certificate failed verification (or could not be issued).

    ``code`` is a short machine-readable locator — every tamper class
    maps to its own code (``quote-signature``, ``audit-segment``,
    ``scrub-evidence``, ``quote-binding``, ...) so a relying party sees
    *which* piece of evidence was doctored, not just "invalid".
    """

    def __init__(self, code: str, detail: str):
        self.code = code
        self.detail = detail
        super().__init__(f"[{code}] {detail}")


def canonical_json(obj) -> str:
    """The one canonical serialization: sorted keys, no whitespace.

    Issuer and offline verifier must agree byte-for-byte, so both call
    this — never ``json.dumps`` with ad-hoc options.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def body_digest(body: dict) -> str:
    """``body_sha256``: sha256 over the body's canonical serialization."""
    return sha256_hex(canonical_json(body))


def bind_report_data(body_sha256: str) -> bytes:
    """The 64-byte TDREPORT ``report_data`` binding one certificate body.

    Domain-separated prefix + the raw body hash, zero-padded to the ABI
    width. The quote signs this, so the signed platform evidence and the
    claims are inseparable: replaying a quote under a different body (or
    editing any claim) fails the binding check, not merely a convention.
    """
    raw = REPORT_DATA_PREFIX + bytes.fromhex(body_sha256)
    if len(raw) > REPORT_DATA_LEN:
        raise ValueError("bound report data exceeds the TDREPORT width")
    return raw.ljust(REPORT_DATA_LEN, b"\x00")


def serialize_certificate(cert: dict) -> str:
    """Byte-stable file form: sorted keys, indent 2, trailing newline.

    Two seeded fleet runs must write byte-identical certificate files —
    the CI job diffs them — so the on-disk form is pinned here.
    """
    return json.dumps(cert, indent=2, sort_keys=True) + "\n"


def serialized_size(cert: dict) -> int:
    """``len(serialize_certificate(cert))`` from the C encoder's one-line
    form plus the indent: a non-empty container at depth d with n items
    adds a newline and 2d+2 spaces per item, and 2d+1 before its close."""
    size = len(json.dumps(cert, sort_keys=True, separators=(",", ": "))) + 1
    stack = [(cert, 0)]
    while stack:
        node, depth = stack.pop()
        items = node.values() if isinstance(node, dict) else node
        if items:
            size += len(items) * (2 * depth + 3) + 2 * depth + 1
        stack.extend((item, depth + 1) for item in items
                     if isinstance(item, (dict, list, tuple)))
    return size


def load_certificate(path) -> dict:
    with open(path) as fh:
        cert = json.load(fh)
    if not isinstance(cert, dict):
        raise CertificateError("format", f"{path}: not a JSON object")
    return cert


#: lazy re-exports → (module, attribute): ``verify``/``tamper`` are pure;
#: ``issue`` imports the simulator only inside its functions, but is kept
#: lazy too so ``import repro.certs`` stays a leaf import
_LAZY = {
    "CertificateVerifier": ("verify", "CertificateVerifier"),
    "VerifyResult": ("verify", "VerifyResult"),
    "verify_certificate": ("verify", "verify_certificate"),
    "CertificateIssuer": ("issue", "CertificateIssuer"),
    "published_refs": ("issue", "published_refs"),
    "write_certificates": ("issue", "write_certificates"),
    "TAMPERS": ("tamper", "TAMPERS"),
    "tamper_certificate": ("tamper", "tamper_certificate"),
}

__all__ = [
    "CERT_FORMAT", "CertificateError", "CertificateIssuer",
    "CertificateVerifier", "REFS_FORMAT", "REPORT_DATA_LEN",
    "REPORT_DATA_PREFIX", "TAMPERS", "VerifyResult", "bind_report_data",
    "body_digest", "canonical_json", "load_certificate", "published_refs",
    "serialize_certificate", "serialized_size", "sha256_hex",
    "tamper_certificate", "verify_certificate", "write_certificates",
]


__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
