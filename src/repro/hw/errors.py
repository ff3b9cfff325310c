"""Hardware fault and exception types raised by the simulated platform.

Faults mirror the x86 exceptions the Erebor paper relies on:

* ``#PF`` (:class:`PageFault`) — paging permission or presence violations.
* ``#GP`` (:class:`GeneralProtectionFault`) — privileged instruction from
  user mode, malformed descriptor loads, etc.
* ``#CP`` (:class:`ControlProtectionFault`) — CET violations (a missed
  ``endbr64`` landing pad or a shadow-stack return mismatch).
* ``#VE`` (:class:`VirtualizationException`) — TDX-injected exception for
  synchronous guest exits the host must emulate.

All faults derive from :class:`HardwareFault` so callers can uniformly trap
"the CPU faulted" without enumerating vectors.
"""

from __future__ import annotations


class SimulatorError(Exception):
    """Internal simulator misuse (a bug in calling code, not a guest fault)."""


class HardwareFault(Exception):
    """Base class for faults the simulated CPU can raise.

    Attributes:
        vector: x86-style exception vector number.
        description: human-readable cause.
    """

    vector = -1

    def __init__(self, description: str = ""):
        super().__init__()
        self.description = description

    def __str__(self) -> str:
        # formatted lazily: fault delivery is a hot simulated path and the
        # message is only ever rendered for unhandled faults and test output
        return f"{type(self).__name__}(vector={self.vector}): {self.description}"


class DivideError(HardwareFault):
    """#DE — divide by zero."""

    vector = 0


class InvalidOpcode(HardwareFault):
    """#UD — undefined or malformed instruction encoding."""

    vector = 6


class DoubleFault(HardwareFault):
    """#DF — a fault occurred while delivering another fault."""

    vector = 8


class GeneralProtectionFault(HardwareFault):
    """#GP — privilege or segmentation violation."""

    vector = 13


class PageFault(HardwareFault):
    """#PF — raised by the MMU on translation or permission failure.

    Attributes:
        address: faulting virtual address.
        is_write: the access was a write.
        is_exec: the access was an instruction fetch.
        is_user: the access originated from user mode.
        present: the mapping existed but permissions failed (vs. not-present).
        pkey_violation: the failure came from a protection-key check.
    """

    vector = 14

    def __init__(
        self,
        address: int,
        *,
        is_write: bool = False,
        is_exec: bool = False,
        is_user: bool = False,
        present: bool = False,
        pkey_violation: bool = False,
        description: str = "",
    ):
        Exception.__init__(self)
        self.address = address
        self.is_write = is_write
        self.is_exec = is_exec
        self.is_user = is_user
        self.present = present
        self.pkey_violation = pkey_violation
        self._description = description

    @property
    def description(self) -> str:
        return self._description or (
            f"addr={self.address:#x} write={self.is_write} "
            f"exec={self.is_exec} user={self.is_user} "
            f"present={self.present} pkey={self.pkey_violation}"
        )

    @description.setter
    def description(self, value: str) -> None:
        self._description = value


class ControlProtectionFault(HardwareFault):
    """#CP — CET control-flow integrity violation."""

    vector = 21

    def __init__(self, description: str = "", *, missing_endbranch: bool = False,
                 shadow_stack_mismatch: bool = False):
        self.missing_endbranch = missing_endbranch
        self.shadow_stack_mismatch = shadow_stack_mismatch
        super().__init__(description)


class VirtualizationException(HardwareFault):
    """#VE — TDX virtualization exception for synchronous exits.

    Attributes:
        exit_reason: symbolic reason (e.g. ``"cpuid"``, ``"wrmsr"``, ``"hypercall"``).
        exit_qualification: reason-specific payload.
    """

    vector = 20

    def __init__(self, exit_reason: str, exit_qualification: object = None,
                 description: str = ""):
        self.exit_reason = exit_reason
        self.exit_qualification = exit_qualification
        super().__init__(description or f"reason={exit_reason}")
