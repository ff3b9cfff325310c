"""The LibOS's in-memory stateless filesystem (§6.2, service 2).

All files a sandboxed program needs are preloaded before client data
arrives; afterwards the program operates statelessly on temporary
in-memory files held in confined memory. Nothing here ever issues a
syscall — file data lives in the LibOS heap, and page faults on that heap
are the only kernel interaction (demand paging of confined memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.memory import PAGE_SIZE


class MemFsError(Exception):
    """Missing file / read-only violation inside the LibOS."""


@dataclass
class MemFile:
    """One in-memory file: concrete bytes or a synthetic sized payload."""

    path: str
    data: bytearray = field(default_factory=bytearray)
    synthetic_size: int | None = None
    read_only: bool = False

    @property
    def size(self) -> int:
        if self.synthetic_size is not None:
            return self.synthetic_size
        return len(self.data)


@dataclass
class MemFd:
    file: MemFile
    offset: int = 0


class MemFs:
    """Path-keyed in-memory filesystem bound to one LibOS instance."""

    def __init__(self, libos):
        self._libos = libos
        self._files: dict[str, MemFile] = {}
        self._fds: dict[int, MemFd] = {}
        self._next_fd = 100

    # ------------------------------------------------------------------ #
    # preload (before lock) and runtime API
    # ------------------------------------------------------------------ #

    def preload(self, path: str, data: bytes = b"", *,
                synthetic_size: int | None = None) -> MemFile:
        f = MemFile(path, bytearray(data), synthetic_size, read_only=True)
        self._files[path] = f
        if data:
            self._libos.charge_data_touch(len(data))
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def open(self, path: str, *, create: bool = False) -> int:
        self._libos.charge_emulated_call()
        f = self._files.get(path)
        if f is None:
            if not create:
                raise MemFsError(f"memfs: no such file {path!r}")
            f = MemFile(path)
            self._files[path] = f
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = MemFd(f)
        return fd

    def _fd(self, fd: int) -> MemFd:
        handle = self._fds.get(fd)
        if handle is None:
            raise MemFsError(f"memfs: bad fd {fd}")
        return handle

    def read(self, fd: int, size: int) -> bytes:
        self._libos.charge_emulated_call()
        handle = self._fd(fd)
        f = handle.file
        if f.synthetic_size is not None:
            end = min(handle.offset + size, f.synthetic_size)
            got = max(end - handle.offset, 0)
            pattern = (f.path.encode() + b"|") * 4
            data = (pattern * (got // len(pattern) + 1))[:got]
        else:
            data = bytes(f.data[handle.offset:handle.offset + size])
        handle.offset += len(data)
        self._libos.charge_data_touch(len(data))
        return data

    def write(self, fd: int, data: bytes) -> int:
        self._libos.charge_emulated_call()
        handle = self._fd(fd)
        f = handle.file
        if f.read_only:
            raise MemFsError(f"memfs: {f.path!r} is read-only")
        if f.synthetic_size is not None:
            raise MemFsError(f"memfs: {f.path!r} is synthetic")
        end = handle.offset + len(data)
        if end > len(f.data):
            f.data.extend(b"\x00" * (end - len(f.data)))
        f.data[handle.offset:end] = data
        handle.offset = end
        self._libos.charge_data_touch(len(data))
        return len(data)

    def close(self, fd: int) -> None:
        self._libos.charge_emulated_call()
        self._fds.pop(fd, None)

    def unlink(self, path: str) -> None:
        self._libos.charge_emulated_call()
        if path not in self._files:
            raise MemFsError(f"memfs: no such file {path!r}")
        del self._files[path]

    def wipe(self) -> None:
        """Session cleanup: drop all temporary state."""
        self._files = {p: f for p, f in self._files.items() if f.read_only}
        self._fds.clear()
