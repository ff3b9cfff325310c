"""TDX substrate: trusted module, host VMM, attestation authority.

:mod:`repro.tdx.attestation` is simulator-free and imported eagerly —
it is what the offline certificate verifier needs. The trusted module
and host VMM (which pull in the hardware model) resolve lazily
(PEP 562), so ``import repro.tdx`` stays pure.
"""

from __future__ import annotations

from .._lazy import lazy_exports
from .attestation import (
    AttestationAuthority,
    Quote,
    QuoteVerificationError,
    TdReport,
    expected_measurement,
)

__all__ = [
    "AttestationAuthority", "HostVmm", "LEAF_ACCEPT_PAGE", "LEAF_TDREPORT",
    "LEAF_VMCALL", "PRIVATE", "PrivateMemoryError", "Quote",
    "QuoteVerificationError", "SHARED", "TdReport", "TdxModule",
    "VMCALL_CPUID", "VMCALL_GETQUOTE", "VMCALL_HLT", "VMCALL_IO",
    "VMCALL_MAPGPA", "expected_measurement",
]

#: lazy re-exports → (module, attribute); module/vmm load the simulator
_LAZY = {
    "LEAF_ACCEPT_PAGE": ("module", "LEAF_ACCEPT_PAGE"),
    "LEAF_TDREPORT": ("module", "LEAF_TDREPORT"),
    "LEAF_VMCALL": ("module", "LEAF_VMCALL"),
    "PRIVATE": ("module", "PRIVATE"),
    "SHARED": ("module", "SHARED"),
    "VMCALL_CPUID": ("module", "VMCALL_CPUID"),
    "VMCALL_GETQUOTE": ("module", "VMCALL_GETQUOTE"),
    "VMCALL_HLT": ("module", "VMCALL_HLT"),
    "VMCALL_IO": ("module", "VMCALL_IO"),
    "VMCALL_MAPGPA": ("module", "VMCALL_MAPGPA"),
    "TdxModule": ("module", "TdxModule"),
    "HostVmm": ("vmm", "HostVmm"),
    "PrivateMemoryError": ("vmm", "PrivateMemoryError"),
}


__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
