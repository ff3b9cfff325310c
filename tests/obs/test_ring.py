"""RingBuffer: bounded append, drop accounting, list-like access."""

import pytest

from repro.obs.ring import RingBuffer


def test_append_within_capacity():
    ring = RingBuffer(4)
    ring.extend([1, 2, 3])
    assert len(ring) == 3
    assert ring.dropped == 0
    assert list(ring) == [1, 2, 3]


def test_overwrite_oldest_and_count_drops():
    ring = RingBuffer(3)
    ring.extend(range(7))
    assert len(ring) == 3
    assert ring.dropped == 4
    assert list(ring) == [4, 5, 6]


def test_indexing_and_slices():
    ring = RingBuffer(3)
    ring.extend([10, 20, 30, 40])     # 10 dropped
    assert ring[0] == 20
    assert ring[-1] == 40
    assert ring[-2:] == [30, 40]
    assert ring[1:] == [30, 40]
    assert list(ring) == [20, 30, 40]


def test_index_out_of_range():
    ring = RingBuffer(2)
    ring.append("a")
    with pytest.raises(IndexError):
        ring[5]


def test_bool_and_clear():
    ring = RingBuffer(2)
    assert not ring
    ring.append(1)
    assert ring
    ring.clear()
    assert not ring and len(ring) == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RingBuffer(0)
