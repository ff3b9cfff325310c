"""Secure data communication: client ↔ monitor, through untrusted relays.

Implements §6.3 end to end:

* **attested handshake** — the client sends an ephemeral DH public value
  and nonce; the monitor (the only party able to execute ``tdcall``)
  binds the transcript hash into a TDX quote's report data and replies
  with its own public value plus the quote. The client verifies the quote
  against the published firmware+monitor measurement before deriving
  keys, so only the genuine monitor can complete the exchange (C5).
* **sealed records** — both directions use sequence-numbered AEAD
  sessions; the proxy and host see ciphertext only.
* **fixed-length output padding** — responses are padded to bucket sizes
  before encryption, closing the output-size covert channel.
* **the ioctl device** — the LibOS reaches the monitor through a reserved
  ``/dev/erebor`` descriptor; the monitor intercepts those ioctls
  (Fig. 7 ③) and moves data between the channel and confined memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..crypto import (
    SealedSession,
    derive_channel_keys,
    fixed_bucket_for,
    generate_keypair,
    pad_to_fixed,
    shared_secret,
    transcript_hash,
    unpad_fixed,
)
from ..hw.cycles import Cost
from .policy import PolicyViolation

if TYPE_CHECKING:
    from .monitor import EreborMonitor
    from .sandbox import Sandbox

DEVICE_PATH = "/dev/erebor-pseudo-io-dev"

#: modelled cycles for AEAD work per 4 KiB (the monitor encrypts in guest)
CRYPTO_PER_PAGE = 9000


def trace_aad(trace_context: str | None, suffix: bytes = b"") -> bytes:
    """AEAD associated data binding a record to its request trace context.

    The federation-ready transport for the per-request trace ID: rather
    than widening the wire framing (extra bytes would change the proxy's
    per-segment network charges and so the cycle ledger), the ID rides as
    *associated data* on the sealed record — zero bytes on the wire, zero
    cycles, but cryptographically bound: both ends must present the same
    context or ``open()`` fails authentication, exactly like the
    migration-TD transport binds session metadata. ``None`` context
    yields ``suffix`` alone, so untraced sessions (and all pre-existing
    callers) are byte-compatible.
    """
    if trace_context is None:
        return suffix
    return b"erebor-trace:" + trace_context.encode() + suffix


@dataclass
class ClientHello:
    public: int
    nonce: bytes


@dataclass
class ServerHello:
    public: int
    quote: object


class SecureChannel:
    """Monitor-side endpoint bound to one sandbox."""

    def __init__(self, monitor: "EreborMonitor", sandbox: "Sandbox"):
        self.monitor = monitor
        self.sandbox = sandbox
        # a fresh ephemeral DH key per channel: the monitor's first
        # channel keeps the historical seed, each later one steps past it
        self.rng = random.Random(0x5EC0 + monitor.channels_opened)
        monitor.channels_opened += 1
        self.rx: SealedSession | None = None   # client -> monitor
        self.tx: SealedSession | None = None   # monitor -> client
        self._partial = bytearray()            # chunked-transfer assembly
        sandbox.channel = self

    @property
    def established(self) -> bool:
        return self.rx is not None

    # ------------------------------------------------------------------ #
    # handshake
    # ------------------------------------------------------------------ #

    def handshake(self, hello: ClientHello) -> ServerHello:
        keypair = generate_keypair(self.rng)
        shared = shared_secret(keypair, hello.public)
        transcript = transcript_hash(
            hello.nonce,
            hello.public.to_bytes(256, "big"),
            keypair.public.to_bytes(256, "big"),
        )
        quote = self.monitor.attest(transcript)     # monitor-only tdcall
        c2m, m2c = derive_channel_keys(shared, transcript)
        self.rx = SealedSession(c2m)
        self.tx = SealedSession(m2c)
        return ServerHello(public=keypair.public, quote=quote)

    # ------------------------------------------------------------------ #
    # records
    # ------------------------------------------------------------------ #

    def _charge_crypto(self, nbytes: int) -> None:
        pages = max(1, (nbytes + 4095) // 4096)
        self.monitor.clock.charge(pages * CRYPTO_PER_PAGE, "channel_crypto")

    def _check_current(self) -> None:
        """Refuse data movement through a superseded channel.

        A sandbox reused between clients (``reset_for_reuse``) detaches
        its channel; a channel object surviving from the previous session
        must never deliver into — or fetch from — the next client's
        sandbox (cross-session confusion at fleet scale).
        """
        if self.sandbox.channel is not self:
            raise PolicyViolation(
                f"stale channel: sandbox {self.sandbox.sandbox_id} was "
                "reset or rebound since this channel was attached")

    def deliver_request(self, record: bytes) -> None:
        """Ciphertext in from the proxy: decrypt straight into the sandbox.

        The record must authenticate against the sandbox's current trace
        context (see :func:`trace_aad`): a record sealed for another
        request — or for a previous tenant of a reused slot — fails open.
        """
        if self.rx is None:
            raise PolicyViolation("channel not established")
        self._check_current()
        with self.monitor.clock.tracer.span("channel:request", "channel",
                                            sandbox=self.sandbox.sandbox_id):
            self._charge_crypto(len(record))
            plaintext = self.rx.open(
                record, aad=trace_aad(self.sandbox.trace_context))
            self.sandbox.install_input(plaintext)

    # chunked transfer: large inputs arrive as a sealed record stream;
    # the AEAD sequence numbers enforce order, a one-byte header marks
    # continuation (0x01) vs final (0x00) chunks
    CHUNK_MORE = 0x01
    CHUNK_FINAL = 0x00

    def deliver_chunk(self, record: bytes) -> bool:
        """One record of a chunked request; returns True when complete."""
        if self.rx is None:
            raise PolicyViolation("channel not established")
        self._check_current()
        self._charge_crypto(len(record))
        plaintext = self.rx.open(
            record, aad=trace_aad(self.sandbox.trace_context, b"chunk"))
        if not plaintext:
            raise PolicyViolation("empty chunk record")
        flag, payload = plaintext[0], plaintext[1:]
        self._partial += payload
        if flag == self.CHUNK_MORE:
            return False
        if flag != self.CHUNK_FINAL:
            raise PolicyViolation(f"bad chunk flag {flag:#x}")
        assembled, self._partial = bytes(self._partial), bytearray()
        self.sandbox.install_input(assembled)
        return True

    def fetch_response(self) -> bytes | None:
        """Sandbox output out to the proxy: pad to a bucket, then seal.

        With §12 mitigations armed, release is additionally gated through
        the quantized-interval/noise engine, so response *timing* carries
        no data-dependent information either.
        """
        if self.tx is None:
            raise PolicyViolation("channel not established")
        self._check_current()
        data = self.sandbox.take_output()
        if data is None:
            return None
        with self.monitor.clock.tracer.span("channel:response", "channel",
                                            sandbox=self.sandbox.sandbox_id):
            bucket = fixed_bucket_for(len(data))
            padded = pad_to_fixed(data, bucket)
            self._charge_crypto(len(padded))
            if self.monitor.mitigations is not None:
                self.monitor.mitigations.on_output_release(self.sandbox)
            return self.tx.seal(
                padded, aad=trace_aad(self.sandbox.trace_context))


class EreborDevice:
    """The ``/dev/erebor`` pseudo-device: LibOS↔monitor doorbell.

    The kernel forwards ioctls on this fd untouched; the monitor
    intercepts them (the fd is reserved) and serves:

    * ``"input"`` — hand pending client data to the sandbox,
    * ``"output"`` — accept result data from the sandbox,
    * ``"declare_confined"`` / ``"attach_common"`` — LibOS loader memory
      declarations (§7's driver-backed mmap path).
    """

    def __init__(self, monitor: "EreborMonitor"):
        self.monitor = monitor

    @property
    def size(self) -> int:
        return 0

    def ioctl(self, kernel, task, request: str, payload=None):
        monitor = self.monitor
        monitor.charge_emc(Cost.VALIDATE_SMAP)
        sandbox: "Sandbox | None" = getattr(task, "sandbox", None)
        if sandbox is None:
            raise PolicyViolation(
                "the erebor device only serves sandboxed tasks")
        if request == "input":
            return sandbox.take_input()
        if request == "output":
            sandbox.push_output(payload or b"")
            return len(payload or b"")
        if request == "declare_confined":
            return sandbox.declare_confined(int(payload))
        if request == "attach_common":
            name, size, initializer = payload
            return sandbox.attach_common(name, size, initializer=initializer)
        raise PolicyViolation(f"unknown erebor ioctl {request!r}")


@dataclass
class ProxyLog:
    """Everything the untrusted proxy could observe."""

    blobs: list[bytes] = field(default_factory=list)

    def saw(self, needle: bytes) -> bool:
        return any(needle in blob for blob in self.blobs)


class UntrustedProxy:
    """The in-CVM relay between the external network and the monitor.

    Runs as a normal (non-sandbox) kernel task; every byte it moves is
    recorded in :attr:`log` (and crosses the host-visible NIC), which the
    security tests scan for plaintext. It has no key material.
    """

    def __init__(self, monitor: "EreborMonitor"):
        self.monitor = monitor
        self.kernel = monitor.kernel
        self.task = self.kernel.spawn("erebor-proxy", kind="proxy")
        self.log = ProxyLog()

    def _observe(self, blob: bytes) -> None:
        self.log.blobs.append(bytes(blob))
        self.monitor.machine.vmm.observe("proxy_relay", bytes(blob))

    def relay_handshake(self, channel: SecureChannel,
                        hello: ClientHello) -> ServerHello:
        self._observe(hello.nonce + hello.public.to_bytes(256, "big"))
        self.kernel.net.external_receive(256)
        reply = channel.handshake(hello)
        self._observe(reply.public.to_bytes(256, "big"))
        self.kernel.net.external_send(reply.public.to_bytes(256, "big"))
        return reply

    def relay_request(self, channel: SecureChannel, record: bytes) -> None:
        self._observe(record)
        self.kernel.net.external_receive(len(record))
        channel.deliver_request(record)

    def relay_chunk(self, channel: SecureChannel, record: bytes) -> bool:
        self._observe(record)
        self.kernel.net.external_receive(len(record))
        return channel.deliver_chunk(record)

    def relay_response(self, channel: SecureChannel) -> bytes | None:
        record = channel.fetch_response()
        if record is not None:
            self._observe(record)
            self.kernel.net.external_send(record)
        return record
