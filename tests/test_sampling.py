"""Seed plumbing and bit sources.

Reproducibility of every experiment reduces to facts checked here:
substreams are pure functions of (seed, path), block draws equal
bit-by-bit draws from the same generator state, and the job runner
returns results in job order for any thread count.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from anytime.certify import ClassOracle, _IndicatorSource, width_target_run
from anytime.decision import Verdict, decide_with_cs, sprt_ideal, staged_adaptive
from anytime.sampling import (
    ArraySource,
    BernoulliSource,
    IterSource,
    as_bit_source,
    clamp_take,
    count_ones,
    run_jobs,
    seed_sequence,
    substream,
    substream_id,
)


class TestSubstream:
    def test_same_path_same_stream(self):
        a = substream(42, "decide", 3, 17).random(16)
        b = substream(42, "decide", 3, 17).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_component_different_stream(self):
        base = substream(42, "decide", 3, 17).random(8)
        for path in [("decide", 3, 18), ("decide", 4, 17), ("coverage", 3, 17), (3, "decide", 17)]:
            assert not np.array_equal(base, substream(42, *path).random(8))

    def test_string_and_int_components_mix(self):
        # path hashing must not confuse "1" with 1
        assert not np.array_equal(
            substream(7, "1").random(4), substream(7, 1).random(4)
        )

    def test_id_is_stable(self):
        assert substream_id(42, "decide", 0, 0) == substream_id(42, "decide", 0, 0)
        assert substream_id(42, "a") != substream_id(42, "b")
        assert 0 <= substream_id(42, "a") < 2**64

    @pytest.mark.parametrize("path", [("decide", 3, 17), ("union", 0, 0), ()])
    def test_one_derivation_gives_both(self, path):
        seq = seed_sequence(42, *path)
        rng, sid = substream(seq), substream_id(seq)
        reference = substream(42, *path)
        assert sid == substream_id(42, *path)
        np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)
        np.testing.assert_array_equal(rng.random(16), reference.random(16))
        # the union decider spawns its bit and draw streams from the trial's generator
        for child, ref_child in zip(rng.spawn(2), reference.spawn(2)):
            np.testing.assert_array_equal(child.random(8), ref_child.random(8))

    def test_block_draws_equal_single_draws(self):
        block = substream(11, "bits").random(32)
        one_at_a_time = np.array([substream(11, "bits").random(32)[i] for i in range(32)])
        np.testing.assert_array_equal(block, one_at_a_time)


class TestSources:
    def test_bernoulli_source_deterministic(self):
        a = BernoulliSource(substream(5, "s"), 0.3).take(64)
        b = BernoulliSource(substream(5, "s"), 0.3).take(64)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_bernoulli_degenerate(self):
        assert BernoulliSource(substream(5, "s"), 0.0).take(10).sum() == 0
        assert BernoulliSource(substream(5, "s"), 1.0).take(10).sum() == 10

    def test_array_source_sequential_and_remaining(self):
        src = ArraySource([1, 0, 1, 1])
        np.testing.assert_array_equal(src.take(2), [1, 0])
        assert src.remaining == 2
        np.testing.assert_array_equal(src.take(2), [1, 1])
        assert src.remaining == 0

    def test_array_source_overrun_raises(self):
        src = ArraySource([1, 0])
        src.take(2)
        with pytest.raises(RuntimeError):
            src.take(1)

    def test_iter_source(self):
        src = IterSource(iter([1, 1, 0]))
        np.testing.assert_array_equal(src.take(3), [1, 1, 0])
        with pytest.raises(RuntimeError):
            src.take(1)

    def test_as_bit_source_on_ndarray(self):
        # ndarray has a .take method; make sure it still gets wrapped
        src = as_bit_source(np.array([1, 0, 1]))
        assert isinstance(src, ArraySource)
        np.testing.assert_array_equal(src.take(3), [1, 0, 1])

    def test_as_bit_source_passthrough(self):
        # the package's own sources are 0/1 by construction and not wrapped
        sources = [
            ArraySource([1]),
            BernoulliSource(substream(1, "own"), 0.5),
            IterSource([1, 0]),
            _IndicatorSource(ClassOracle((0.5, 0.5), substream(1, "own-oracle")), 0),
        ]
        for src in sources:
            assert as_bit_source(src) is src


class TestRejectNonBits:
    """Values other than 0/1 must raise, never be cast into a verdict."""

    @pytest.mark.parametrize("bits", [[0.9, 0.0], [2, 1], [1, -1], [np.nan], [257]])
    def test_array_source_checks_before_cast(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            ArraySource(np.array(bits))

    def test_iter_source_checks_each_chunk(self):
        src = IterSource(iter([1, 0, 2, 1]))
        np.testing.assert_array_equal(src.take(2), [1, 0])
        with pytest.raises(ValueError, match="0 or 1"):
            src.take(2)

    def test_bools_and_float_bits_pass(self):
        np.testing.assert_array_equal(ArraySource(np.array([True, False])).take(2), [1, 0])
        np.testing.assert_array_equal(IterSource([1.0, 0.0]).take(2), [1, 0])

    def test_fractional_array_is_no_betting_verdict(self):
        # cast first, 0.9 became 0 and this returned GREATER at t = 7
        with pytest.raises(ValueError, match="0 or 1"):
            decide_with_cs("betting", 0.5, np.array([0.9] * 200), 0.05, cap=200)

    @pytest.mark.parametrize("kind", ["betting", "union"])
    def test_stream_of_twos_is_no_verdict(self, kind):
        # cast first, this returned LESS (betting at t = 3, union at t = 1)
        with pytest.raises(ValueError, match="0 or 1"):
            decide_with_cs(kind, 0.5, iter([2] * 200), 0.05, cap=200)

    @pytest.mark.parametrize("kind", ["betting", "union"])
    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_width_target_rejects_sevens_at_the_input(self, kind, wrap):
        with pytest.raises(ValueError, match="0 or 1"):
            width_target_run(wrap([7] * 100), 0.1, 0.05, cs_kind=kind, cap=100)

    def test_valid_stream_still_decides(self):
        verdict, _ = decide_with_cs("betting", 0.5, np.ones(200), 0.05, cap=200)
        assert verdict is Verdict.LESS


class _Constant:
    """A caller's source with a ``take`` method that hands out one fixed value."""

    def __init__(self, value):
        self.value = value

    def take(self, k: int) -> np.ndarray:
        return np.full(k, self.value)


class TestCustomSources:
    """Blocks from a caller's ``take`` are checked before any decider reads them."""

    def test_sevens_are_no_betting_verdict(self):
        # unchecked, this returned LESS after 2 bits
        with pytest.raises(ValueError, match="0 or 1"):
            decide_with_cs("betting", 0.5, _Constant(7), 0.05, cap=200)

    def test_fractions_are_no_sprt_or_staged_verdict(self):
        # unchecked, sprt_ideal returned GREATER at t = 6 and staged_adaptive LESS at t = 100
        with pytest.raises(ValueError, match="0 or 1"):
            sprt_ideal(0.5, 0.7, 0.05, _Constant(0.9), cap=200)
        with pytest.raises(ValueError, match="0 or 1"):
            staged_adaptive(0.5, _Constant(0.9), 0.05)

    def test_valid_custom_source_decides(self):
        verdict, samples = decide_with_cs("betting", 0.5, _Constant(1), 0.05, cap=200)
        assert verdict is Verdict.LESS and samples == 7  # as for an all-ones array

    def test_wrapper_keeps_remaining(self):
        class Finite(_Constant):
            remaining = 3

        assert clamp_take(as_bit_source(Finite(1)), 10) == 3
        assert clamp_take(as_bit_source(_Constant(1)), 10) == 10


class TestCountOnes:
    def test_blocked_count_equals_one_draw(self):
        # 10,001 bits are drawn as three blocks; the stream must not notice
        blocked = BernoulliSource(substream(3, "count"), 0.4)
        whole = BernoulliSource(substream(3, "count"), 0.4)
        assert count_ones(blocked, 10_001) == int(whole.take(10_001).sum())
        np.testing.assert_array_equal(blocked.take(16), whole.take(16))

    def test_array_source_and_empty_count(self):
        src = ArraySource(np.arange(9000) % 3 == 0)
        assert count_ones(src, 0) == 0
        assert count_ones(src, 9000) == 3000
        assert src.remaining == 0


class TestClampTake:
    def test_clamps_to_remaining(self):
        src = ArraySource([1, 0, 1])
        assert clamp_take(src, 10) == 3
        src.take(3)
        with pytest.raises(RuntimeError, match="exhausted"):
            clamp_take(src, 1)

    def test_unbounded_source_passes_through(self):
        src = BernoulliSource(substream(1, "x"), 0.5)
        assert clamp_take(src, 4096) == 4096


class TestRunJobs:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_come_back_in_job_order(self, threads):
        # later jobs finish first in a pool; the results keep job order
        def job(j):
            time.sleep(0.001 * (12 - j))
            return j * j

        assert run_jobs(list(range(12)), job, threads) == [j * j for j in range(12)]
