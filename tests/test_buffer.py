"""Unit tests for the shared buffer with dynamic thresholding."""

import pytest
from hypothesis import given, strategies as st

from repro.net.buffer import SharedBuffer


def test_admit_and_release():
    buf = SharedBuffer(1000)
    assert buf.try_admit(0, 400)
    assert buf.used == 400
    assert buf.queue_bytes(0) == 400
    buf.release(0, 400)
    assert buf.used == 0


def test_capacity_is_hard_limit():
    """A second queue may take what is free of the pool and no more:
    the pool fills exactly and then refuses every queue."""
    buf = SharedBuffer(1000)
    assert buf.try_admit(0, 900)
    assert not buf.try_admit(1, 200)
    assert buf.try_admit(1, 100)
    assert buf.used == buf.capacity and buf.free == 0
    assert not any(buf.try_admit(q, 1) for q in range(3))


def test_dynamic_threshold_single_queue():
    """With alpha = 1, one queue converges to at most half the buffer."""
    buf = SharedBuffer(1000)
    admitted = 0
    for _ in range(100):
        if buf.try_admit(0, 10):
            admitted += 10
    # q <= alpha * (capacity - q)  =>  q <= 500
    assert 450 <= admitted <= 500


def test_dynamic_threshold_shrinks_under_contention():
    """A second congested queue reduces the first queue's allowance."""
    buf = SharedBuffer(1000)
    while buf.try_admit(0, 10):
        pass
    q0_alone = buf.queue_bytes(0)
    buf2 = SharedBuffer(1000)
    for _ in range(200):
        buf2.try_admit(0, 10)
        buf2.try_admit(1, 10)
    assert buf2.queue_bytes(0) < q0_alone


def test_threshold_formula():
    buf = SharedBuffer(1000)
    assert buf.threshold() == 1000
    buf.try_admit(0, 300)
    assert buf.threshold() == pytest.approx(700)


def test_release_more_than_held_raises():
    buf = SharedBuffer(1000)
    buf.try_admit(0, 100)
    with pytest.raises(ValueError):
        buf.release(0, 200)


def test_invalid_construction():
    with pytest.raises(ValueError):
        SharedBuffer(0)


def test_register_queue_idempotent():
    buf = SharedBuffer(100)
    buf.register_queue(3)
    buf.try_admit(3, 10)
    buf.register_queue(3)
    assert buf.queue_bytes(3) == 10


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 200),
                          st.booleans()), max_size=200))
def test_accounting_invariants(ops):
    """used == sum of queues, never negative, never above capacity."""
    buf = SharedBuffer(2000)
    held = {q: [] for q in range(4)}
    for queue, size, is_admit in ops:
        if is_admit:
            if buf.try_admit(queue, size):
                held[queue].append(size)
        elif held[queue]:
            buf.release(queue, held[queue].pop())
        assert 0 <= buf.used <= buf.capacity
        assert buf.used == sum(sum(v) for v in held.values())
        for q in range(4):
            assert buf.queue_bytes(q) == sum(held[q])


# ---------------------------------------------------------------------------
# Fluid overlay composition (repro.fluid coupling; see buffer docstring)
# ---------------------------------------------------------------------------
def test_overlay_composes_into_occupancy_not_packet_accounting():
    buf = SharedBuffer(10_000)
    buf.register_queue(0)
    assert buf.try_admit(0, 1_000)
    buf.set_overlay(0, 2_500)
    assert buf.occupancy(0) == 3_500
    assert buf.overlay_bytes(0) == 2_500
    # Packet-tier accounting stays packet-only (sanitizer contract).
    assert buf.queue_bytes(0) == 1_000
    assert buf.used == 1_000
    assert buf.queued_total() == 1_000
    # ... but free capacity (and with it the DT threshold) feels it.
    assert buf.free == 10_000 - 1_000 - 2_500
    assert buf.threshold() == buf.free


def test_overlay_replaces_previous_charge():
    buf = SharedBuffer(10_000)
    buf.set_overlay(3, 4_000)
    buf.set_overlay(3, 1_500)
    assert buf.overlay_total == 1_500
    assert buf.occupancy(3) == 1_500
    buf.set_overlay(3, 0)
    assert buf.overlay_total == 0
    assert buf.occupancy(3) == 0


def test_overlay_guards():
    buf = SharedBuffer(10_000)
    with pytest.raises(ValueError):
        buf.set_overlay(0, -1)
    assert buf.try_admit(0, 6_000)
    with pytest.raises(ValueError):
        buf.set_overlay(1, 5_000)  # 6000 + 5000 > capacity
    buf.set_overlay(1, 4_000)      # exactly full is fine
    assert buf.free == 0


def test_peak_used_tracks_total_occupancy():
    buf = SharedBuffer(10_000)
    buf.set_overlay(0, 3_000)
    assert buf.peak_used == 3_000
    assert buf.try_admit(1, 2_000)
    assert buf.peak_used == 5_000
    buf.set_overlay(0, 0)
    assert buf.peak_used == 5_000  # high-water mark never recedes


def test_zero_overlay_degenerates_to_packet_only():
    """With no overlay every composed reading equals its packet value
    (the byte-identity contract for zero-background hybrid runs)."""
    buf = SharedBuffer(5_000)
    assert buf.try_admit(0, 700)
    assert buf.occupancy(0) == buf.queue_bytes(0) == 700
    assert buf.free == buf.capacity - buf.used
    assert buf.overlay_total == 0
