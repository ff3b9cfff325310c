"""Unit tests for simulated physical memory."""

import pytest

from repro.hw.memory import PAGE_SIZE, PhysicalMemory, pages_for


@pytest.fixture
def phys():
    return PhysicalMemory(64 * 1024 * 1024)  # 64 MiB


def test_alignment_helpers():
    assert pages_for(1) == 1
    assert pages_for(PAGE_SIZE) == 1
    assert pages_for(PAGE_SIZE + 1) == 2
    assert pages_for(0) == 0


def test_frames_are_lazy(phys):
    f = phys.frame(5)
    assert f.data is None
    assert phys.read(5 * PAGE_SIZE, 16) == b"\x00" * 16  # still lazy
    assert phys.frame(5).data is None
    phys.write(5 * PAGE_SIZE + 8, b"hi")
    assert phys.frame(5).data is not None
    assert phys.read(5 * PAGE_SIZE + 8, 2) == b"hi"


def test_cross_page_read_write(phys):
    addr = 3 * PAGE_SIZE - 4
    phys.write(addr, b"abcdefgh")
    assert phys.read(addr, 8) == b"abcdefgh"
    assert phys.read(3 * PAGE_SIZE, 4) == b"efgh"


def test_u64_roundtrip(phys):
    phys.write_u64(0x2000, 0xDEADBEEFCAFEBABE)
    assert phys.read_u64(0x2000) == 0xDEADBEEFCAFEBABE


def test_alloc_assigns_owner_and_skips_used(phys):
    a = phys.alloc_frame("kernel")
    b = phys.alloc_frame("monitor")
    assert a != b
    assert phys.frame(a).owner == "kernel"
    assert phys.frame(b).owner == "monitor"
    assert a in phys.owned_by("kernel")


def test_alloc_contiguous(phys):
    phys.alloc_frames(3, "x")
    got = phys.alloc_frames(4, "y", contiguous=True)
    assert got == list(range(got[0], got[0] + 4))


def test_free_makes_frames_reusable(phys):
    fns = phys.alloc_frames(10, "tmp")
    phys.free_frames(fns)
    again = phys.alloc_frames(10, "tmp2")
    assert set(again) & set(fns), "freed frames should be reused"


def test_free_clears_contents_flags(phys):
    fn = phys.alloc_frame("tmp")
    phys.write(fn * PAGE_SIZE, b"secret")
    phys.frame(fn).is_shadow_stack = True
    phys.free_frames([fn])
    assert phys.frame(fn).data is None
    assert not phys.frame(fn).is_shadow_stack
    assert phys.frame(fn).owner == "free"


def test_out_of_memory(phys):
    with pytest.raises(MemoryError):
        phys.alloc_frames(phys.num_frames + 1, "too-much")


def test_frame_bounds(phys):
    from repro.hw.errors import SimulatorError
    with pytest.raises(SimulatorError):
        phys.frame(phys.num_frames)


def test_usage_by_owner(phys):
    phys.alloc_frames(4, "kernel")
    phys.alloc_frames(2, "monitor")
    usage = phys.usage_by_owner()
    assert usage["kernel"] == 4 * PAGE_SIZE
    assert usage["monitor"] == 2 * PAGE_SIZE


def test_zero_frame(phys):
    fn = phys.alloc_frame("tmp")
    phys.write(fn * PAGE_SIZE, b"x" * 32)
    phys.zero_frame(fn)
    assert phys.read(fn * PAGE_SIZE, 32) == b"\x00" * 32
