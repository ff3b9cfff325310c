"""EREBOR core: monitor, gates, verified boot, sandboxes, secure channel.

Re-exports resolve lazily (PEP 562): the pure audit-chain primitives in
:mod:`repro.core.audit` are loaded by the offline certificate verifier,
which must be able to ``import repro.core`` without dragging in the
hardware simulator behind :mod:`repro.core.boot`.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AUDIT_GENESIS", "AuditEvent", "BootVerificationError", "ChainVerdict",
    "ClientHello", "CommonRegion", "DEVICE_PATH",
    "EmcCall", "ENTRY_GATE_VA", "EreborDevice", "EreborFeatures",
    "EreborMonitor", "EreborSystem", "FIRMWARE_BLOB", "MitigationConfig",
    "MONITOR_BASE_VA",
    "MonitorOps", "NestedMmu", "PKEY_KTEXT", "PKEY_MONITOR", "PKEY_PT",
    "SideChannelMitigations", "published_paravisor_measurement",
    "PKRS_KERNEL", "PKRS_MONITOR", "PolicyViolation", "Sandbox",
    "SandboxViolation", "SecureChannel", "ServerHello", "UntrustedProxy",
    "audit_chain_digest", "build_monitor_code", "erebor_boot",
    "monitor_binary", "published_measurement", "verify_audit_chain",
    "verify_audit_segment",
]

#: lazy re-exports → (module, attribute). ``audit`` and ``policy`` are
#: simulator-free; everything else transitively loads repro.hw/.kernel.
_LAZY = {
    "FIRMWARE_BLOB": ("boot", "FIRMWARE_BLOB"),
    "EreborSystem": ("boot", "EreborSystem"),
    "erebor_boot": ("boot", "erebor_boot"),
    "monitor_binary": ("boot", "monitor_binary"),
    "published_measurement": ("boot", "published_measurement"),
    "published_paravisor_measurement": ("boot",
                                        "published_paravisor_measurement"),
    "DEVICE_PATH": ("channel", "DEVICE_PATH"),
    "ClientHello": ("channel", "ClientHello"),
    "EreborDevice": ("channel", "EreborDevice"),
    "SecureChannel": ("channel", "SecureChannel"),
    "ServerHello": ("channel", "ServerHello"),
    "UntrustedProxy": ("channel", "UntrustedProxy"),
    "ENTRY_GATE_VA": ("emc", "ENTRY_GATE_VA"),
    "EmcCall": ("emc", "EmcCall"),
    "MONITOR_BASE_VA": ("emc", "MONITOR_BASE_VA"),
    "PKEY_KTEXT": ("gates", "PKEY_KTEXT"),
    "PKEY_MONITOR": ("gates", "PKEY_MONITOR"),
    "PKEY_PT": ("gates", "PKEY_PT"),
    "PKRS_KERNEL": ("gates", "PKRS_KERNEL"),
    "PKRS_MONITOR": ("gates", "PKRS_MONITOR"),
    "build_monitor_code": ("gates", "build_monitor_code"),
    "MitigationConfig": ("mitigations", "MitigationConfig"),
    "SideChannelMitigations": ("mitigations", "SideChannelMitigations"),
    "BootVerificationError": ("monitor", "BootVerificationError"),
    "EreborFeatures": ("monitor", "EreborFeatures"),
    "EreborMonitor": ("monitor", "EreborMonitor"),
    "MonitorOps": ("monitor", "MonitorOps"),
    "AUDIT_GENESIS": ("audit", "AUDIT_GENESIS"),
    "AuditEvent": ("audit", "AuditEvent"),
    "ChainVerdict": ("audit", "ChainVerdict"),
    "audit_chain_digest": ("audit", "audit_chain_digest"),
    "verify_audit_chain": ("audit", "verify_audit_chain"),
    "verify_audit_segment": ("audit", "verify_audit_segment"),
    "CommonRegion": ("nested_mmu", "CommonRegion"),
    "NestedMmu": ("nested_mmu", "NestedMmu"),
    "PolicyViolation": ("policy", "PolicyViolation"),
    "SandboxViolation": ("policy", "SandboxViolation"),
    "Sandbox": ("sandbox", "Sandbox"),
}


__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
