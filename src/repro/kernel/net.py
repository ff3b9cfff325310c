"""Kernel network stack: loopback sockets and the external NIC path.

Two transports, matching the evaluation's two traffic patterns:

* **loopback** — kernel-internal message queues between tasks on the same
  CVM (the Fig. 10 client/server rigs, the proxy↔kernel hop);
* **external** — packets leaving the CVM: data is staged into *shared*
  guest memory and handed to the virtio NIC by a GHCI hypercall; each
  doorbell costs a #VE + tdcall round trip and everything crossing it is
  observable by the host (the secure-channel tests rely on this).

The stack charges per-segment costs so server throughput (Fig. 10)
degrades with Erebor's system-wide interposition exactly the way the
paper measures: small files pay proportionally more transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..hw.cycles import Cost
from ..hw.memory import PAGE_SIZE, pages_for

if TYPE_CHECKING:
    from .kernel import GuestKernel

#: Model MTU: one doorbell moves up to this many bytes of payload.
SEGMENT_BYTES = 16 * 1024
#: per-segment in-kernel protocol work (checksum, queues), cycles
SEGMENT_PROTO_COST = 2600


class NetError(Exception):
    """Socket misuse (bad endpoint, closed peer, ...)."""


@dataclass
class Socket:
    """One endpoint of a loopback stream."""

    port: int
    rx: list[bytes] = field(default_factory=list)
    peer: "Socket | None" = None
    closed: bool = False


class NetStack:
    """Per-kernel network state."""

    def __init__(self, kernel: "GuestKernel"):
        self.kernel = kernel
        self.listeners: dict[int, Socket] = {}
        #: log of (direction, nbytes) external transfers, for tests
        self.external_log: list[tuple[str, int]] = []

    # ------------------------------------------------------------------ #
    # loopback streams
    # ------------------------------------------------------------------ #

    def listen(self, port: int) -> Socket:
        if port in self.listeners:
            raise NetError(f"port {port} already bound")
        sock = Socket(port)
        self.listeners[port] = sock
        return sock

    def connect(self, port: int) -> Socket:
        server = self.listeners.get(port)
        if server is None:
            raise NetError(f"connection refused on port {port}")
        client = Socket(port)
        # model an accepted per-connection endpoint pair
        conn = Socket(port)
        client.peer, conn.peer = conn, client
        server.rx.append(conn)  # pending-accept queue entry
        return client

    def accept(self, server: Socket) -> Socket:
        if not server.rx:
            raise NetError("no pending connection")
        return server.rx.pop(0)

    def send(self, sock: Socket, data: bytes = b"", *,
             nbytes: int | None = None, kernel_internal: bool = False) -> int:
        """Loopback send: charges segmented protocol work on the kernel.

        ``nbytes`` sends a size-only payload (benchmark bulk data without
        materialising bytes). ``kernel_internal`` models sendfile-style
        transmission straight from the page cache: the kernel copies pages
        internally but never crosses the user boundary (no ``stac`` /
        monitor-emulated copy involved).
        """
        if sock.peer is None or sock.peer.closed:
            raise NetError("send on unconnected/closed socket")
        size = nbytes if nbytes is not None else len(data)
        clock = self.kernel.clock
        segments = max(1, (size + SEGMENT_BYTES - 1) // SEGMENT_BYTES)
        clock.charge(segments * SEGMENT_PROTO_COST, "net")
        if kernel_internal:
            pages = max(pages_for(size), 1)
            clock.charge(pages * Cost.COPY_PER_PAGE_NATIVE, "net")
        else:
            # data crosses the user/kernel boundary on both sides
            self.kernel.ops.user_copy(size, to_user=False)
            self.kernel.ops.user_copy(size, to_user=True)
        sock.peer.rx.append(data if nbytes is None else b"\x00" * min(size, 64))
        clock.count("net_segments", segments)
        return size

    def recv(self, sock: Socket) -> bytes:
        if not sock.rx:
            return b""
        return sock.rx.pop(0)

    def close(self, sock: Socket) -> None:
        sock.closed = True
        if sock.peer is not None:
            sock.peer.closed = True

    # ------------------------------------------------------------------ #
    # external path (via shared memory + GHCI doorbell)
    # ------------------------------------------------------------------ #

    def external_send(self, data: bytes) -> None:
        """Transmit off-CVM: stage into shared memory, ring the doorbell.

        Charges a #VE + vmcall per segment and gives the host the bytes
        (observed via the NIC). The caller is responsible for having
        encrypted anything secret — the host sees this verbatim.
        """
        kernel = self.kernel
        for off in range(0, max(len(data), 1), SEGMENT_BYTES):
            segment = data[off:off + SEGMENT_BYTES]
            kernel.clock.charge(Cost.EXC_DELIVERY + Cost.IRET, "ve")
            kernel.clock.count(("ve", "io"))
            kernel.raise_ve_interposition()
            from ..tdx.module import VMCALL_IO
            kernel.ops.vmcall(VMCALL_IO, segment)
            self.external_log.append(("tx", len(segment)))

    def external_receive(self, nbytes: int) -> bytes:
        """Host-injected inbound data (already staged in shared memory)."""
        kernel = self.kernel
        segments = max(1, pages_for(nbytes) * PAGE_SIZE // SEGMENT_BYTES or 1)
        kernel.clock.charge(segments * (Cost.EXC_DELIVERY + Cost.IRET), "ve")
        kernel.clock.count(("ve", "io"), segments)
        self.external_log.append(("rx", nbytes))
        return b""
