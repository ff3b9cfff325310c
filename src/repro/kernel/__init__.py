"""The untrusted guest OS: kernel, tasks, VFS, net, image + instrumentation."""

from .image import (
    SEC_EXEC,
    SEC_WRITE,
    Section,
    SelfImage,
    build_kernel_image,
    kernel_entry_stubs,
)
from .instrument import InstrumentationReport, instrument_image, instrument_text
from .kernel import (
    HZ,
    TIMESLICE_TICKS,
    ExitPath,
    GuestKernel,
    PF_VECTOR,
    TIMER_VECTOR,
    VE_VECTOR,
)
from .ops import NativeOps, PrivilegedOps
from .process import (
    AnonBacking,
    Backing,
    FileBacking,
    PinnedBacking,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    SegmentationFault,
    SharedBacking,
    Task,
    Vma,
)
from .vfs import DebugFsNode, FsError, OpenFile, RegularFile, Vfs

__all__ = [
    "AnonBacking", "Backing", "DebugFsNode", "ExitPath",
    "FileBacking", "FsError", "GuestKernel", "HZ", "InstrumentationReport",
    "NativeOps", "OpenFile", "PF_VECTOR", "PinnedBacking",
    "PrivilegedOps", "PROT_EXEC", "PROT_READ", "PROT_WRITE", "RegularFile",
    "SEC_EXEC", "SEC_WRITE", "Section", "SegmentationFault", "SelfImage",
    "SharedBacking", "Task", "TIMER_VECTOR", "TIMESLICE_TICKS", "VE_VECTOR",
    "Vfs", "Vma",
    "build_kernel_image", "instrument_image", "instrument_text",
    "kernel_entry_stubs",
]
