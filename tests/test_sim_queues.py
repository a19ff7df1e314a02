"""Unit tests for ring buffers."""

import pytest

from repro.sim.queues import RingBuffer


class TestRingBuffer:
    def test_push_pop_order(self):
        ring = RingBuffer("r", 4)
        for i in range(3):
            assert ring.push(i)
        assert ring.pop() == 0
        assert ring.pop() == 1

    def test_drop_on_full(self):
        ring = RingBuffer("r", 2)
        assert ring.push(1)
        assert ring.push(2)
        assert not ring.push(3)
        assert ring.drops == 1
        assert len(ring) == 2

    def test_pop_up_to_budget(self):
        ring = RingBuffer("r", 8)
        for i in range(5):
            ring.push(i)
        batch = ring.pop_up_to(3)
        assert batch == [0, 1, 2]
        assert len(ring) == 2

    def test_pop_up_to_exhausts(self):
        ring = RingBuffer("r", 8)
        ring.push("a")
        assert ring.pop_up_to(64) == ["a"]
        assert ring.empty

    def test_total_enqueued_excludes_drops(self):
        ring = RingBuffer("r", 1)
        ring.push(1)
        ring.push(2)
        assert ring.total_enqueued == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            RingBuffer("r", 0)

    def test_full_and_empty_flags(self):
        ring = RingBuffer("r", 1)
        assert ring.empty and not ring.full
        ring.push(1)
        assert ring.full and not ring.empty
