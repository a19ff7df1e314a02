"""Unit tests for RNG streams and unit helpers."""

import pickle

import pytest

from repro.sim.rng import NORMAL_BLOCK, RngStreams
from repro.sim.units import (
    GBPS,
    MSEC,
    SEC,
    USEC,
    bits_to_bytes,
    gbps,
    ns_per_byte_at_gbps,
)


def _draw(src):
    """The next normal, popped the way the core hot path pops it."""
    return src.buf.pop() if src.buf else src.refill()


class TestRngStreams:
    def test_same_name_same_generator_instance(self):
        rngs = RngStreams(seed=7)
        assert rngs.stream("a") is rngs.stream("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(seed=42).stream("jitter").standard_normal(8)
        b = RngStreams(seed=42).stream("jitter").standard_normal(8)
        assert (a == b).all()

    def test_streams_are_order_independent(self):
        one = RngStreams(seed=1)
        one.stream("x")
        x_then_y = one.stream("y").standard_normal(4)
        two = RngStreams(seed=1)
        y_first = two.stream("y").standard_normal(4)
        assert (x_then_y == y_first).all()

    def test_different_names_differ(self):
        rngs = RngStreams(seed=1)
        a = rngs.stream("a").standard_normal(16)
        b = rngs.stream("b").standard_normal(16)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("s").standard_normal(16)
        b = RngStreams(seed=2).stream("s").standard_normal(16)
        assert not (a == b).all()

    def test_normals_shared_per_stream(self):
        rngs = RngStreams(seed=7)
        assert rngs.normals("core0.jitter") is rngs.normals("core0.jitter")
        assert rngs.normals("core0.jitter") is not rngs.normals("core1.jitter")

    def test_buffered_normals_equal_scalar_draws(self):
        """Block refills yield exactly the scalar-draw sequence, across
        several refill boundaries and with a live generator in between."""
        src = RngStreams(seed=11).normals("jitter")
        ref = RngStreams(seed=11).stream("jitter")
        drawn = [_draw(src) for _ in range(3 * NORMAL_BLOCK + 5)]
        assert drawn == [ref.standard_normal() for _ in range(len(drawn))]
        assert len(src.buf) == NORMAL_BLOCK - 5

    def test_buffered_normals_survive_pickling_mid_buffer(self):
        src = RngStreams(seed=4).normals("jitter")
        for _ in range(10):
            _draw(src)
        clone = pickle.loads(pickle.dumps(src))
        assert len(clone.buf) == NORMAL_BLOCK - 10
        assert [_draw(clone) for _ in range(NORMAL_BLOCK)] == [_draw(src) for _ in range(NORMAL_BLOCK)]

    def test_contains(self):
        rngs = RngStreams()
        assert "x" not in rngs
        rngs.stream("x")
        assert "x" in rngs


class TestUnits:
    def test_time_constants(self):
        assert USEC == 1e3
        assert MSEC == 1e6
        assert SEC == 1e9

    def test_gbps_round_trip(self):
        # 125 MB over 10 ms = 100 Gbps
        assert gbps(125_000_000, 10 * MSEC) == pytest.approx(100.0)

    def test_gbps_one_byte_per_ns_is_8gbps(self):
        assert gbps(1000, 1000) == pytest.approx(8.0)

    def test_gbps_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            gbps(1, 0)

    def test_ns_per_byte(self):
        # at 100 Gbps a byte takes 0.08 ns
        assert ns_per_byte_at_gbps(100.0) == pytest.approx(0.08)

    def test_ns_per_byte_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ns_per_byte_at_gbps(0)

    def test_bits_to_bytes(self):
        assert bits_to_bytes(80) == 10.0

    def test_gbps_constant_is_bytes_per_ns(self):
        assert GBPS == pytest.approx(0.125)
