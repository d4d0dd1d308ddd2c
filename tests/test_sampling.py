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
    blocks,
    run_jobs,
    seed_sequence,
    stage_heads,
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
        # the last block holds what remains; after it the stream has run out
        src = ArraySource([1, 0, 1, 1, 0])
        np.testing.assert_array_equal(src.take(2), [1, 0])
        np.testing.assert_array_equal(src.take(4), [1, 1, 0])
        with pytest.raises(RuntimeError, match="exhausted"):
            src.take(1)

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

    @pytest.mark.parametrize("make", [ArraySource, IterSource])
    def test_finite_sources_hand_out_a_short_last_block(self, make):
        src = make([1, 0, 1])
        np.testing.assert_array_equal(src.take(2), [1, 0])
        np.testing.assert_array_equal(src.take(64), [1])
        with pytest.raises(RuntimeError, match="exhausted"):
            src.take(64)

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

    @pytest.mark.parametrize("kind", ["betting", "union"])
    def test_nested_iterable_is_no_verdict(self, kind):
        # read as a (1, 40) block, this returned union LESS at t = 1
        with pytest.raises(ValueError, match="1-d"):
            decide_with_cs(kind, 0.5, [[1] * 40], 0.05, cap=40)

    def test_nested_iterable_is_no_staged_verdict(self):
        # read as a (100, 2) block, this returned LESS at t = 100
        with pytest.raises(ValueError, match="1-d"):
            staged_adaptive(0.5, [[1, 1]] * 200, 0.05, (100,))

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


class _Oversized:
    """A caller's source whose ``take(k)`` hands out ``2 k`` ones."""

    def take(self, k: int) -> np.ndarray:
        return np.ones(2 * k)


class _Shaped:
    """A caller's source whose ``take(k)`` hands out a ``(k, cols)`` block of ones, or none."""

    def __init__(self, cols):
        self.cols = cols

    def take(self, k: int) -> np.ndarray:
        return np.ones(0) if self.cols is None else np.ones((k, self.cols))


class _Finite:
    """A caller's source of ``n`` ones that keeps the short-last-block rule."""

    def __init__(self, n: int):
        self.left = n

    def take(self, k: int) -> np.ndarray:
        k = min(k, self.left)
        self.left -= k
        return np.ones(k)


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

    @pytest.mark.parametrize("kind", ["betting", "union"])
    @pytest.mark.parametrize(
        "source",
        [_Oversized(), _Shaped(3)],
        ids=["twice-as-many-bits", "k-by-3-block"],
    )
    def test_malformed_blocks_are_no_verdict(self, kind, source):
        # read as they came, these returned LESS (betting at t = 7, union at t = 1)
        with pytest.raises(ValueError, match="1-d|returned"):
            decide_with_cs(kind, 0.5, source, 0.05, cap=200)

    @pytest.mark.parametrize(
        "run",
        [
            lambda src: decide_with_cs("betting", 0.5, src, 0.05, cap=200),
            lambda src: decide_with_cs("union", 0.5, src, 0.05, cap=200),
            lambda src: sprt_ideal(0.5, 0.7, 0.05, src, cap=200),
            lambda src: staged_adaptive(0.5, src, 0.05),
        ],
        ids=["betting", "union", "sprt", "staged"],
    )
    def test_an_empty_block_ends_the_stream(self, run):
        # an empty block used to raise IndexError from inside a decider
        with pytest.raises(RuntimeError, match="bit stream exhausted"):
            run(_Shaped(None))

    def test_a_short_last_block_decides_as_the_array_does(self):
        verdict = decide_with_cs("betting", 0.5, _Finite(16), 0.05, cap=32)
        assert verdict == decide_with_cs("betting", 0.5, np.ones(16), 0.05, cap=32)


class _Recorder:
    """Zeros, recording the size of every ``take``."""

    def __init__(self):
        self.sizes = []

    def take(self, k: int) -> np.ndarray:
        self.sizes.append(k)
        return np.zeros(k, dtype=np.uint8)


class TestBlocks:
    def test_plan_doubles_from_64_to_4096(self):
        src = _Recorder()
        assert sum(b.size for b in blocks(src, 20_000)) == 20_000
        assert src.sizes == [64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096, 3680]

    def test_doubling_marks_leave_the_plan(self):
        bounds = [2**k for k in range(16)]
        plain, marked = _Recorder(), _Recorder()
        list(blocks(plain, bounds[-1]))
        list(blocks(marked, bounds[-1], bounds))
        assert marked.sizes == plain.sizes

    def test_a_sparse_ladder_reads_each_gap_to_its_end(self):
        src = _Recorder()
        list(blocks(src, 120_000, (100, 1_000, 10_000, 120_000)))
        assert src.sizes[:5] == [100, 900, 4096, 4096, 808]
        assert src.sizes[5:] == [4096] * 26 + [3504]

    def test_reading_toward_the_cap_alone_takes_the_largest_blocks(self):
        src = _Recorder()
        list(blocks(src, 10_000, (10_000,)))
        assert src.sizes == [4096, 4096, 1808]

    def test_short_blocks_end_the_walk_at_the_stream_end(self):
        walk = blocks(ArraySource([1] * 100), 1_000)
        assert [b.size for b in (next(walk), next(walk))] == [64, 36]
        with pytest.raises(RuntimeError, match="exhausted"):
            next(walk)


class TestStageHeads:
    def test_blocked_count_equals_one_draw(self):
        # 10,001 bits are drawn as several blocks; the stream must not notice
        blocked = BernoulliSource(substream(3, "count"), 0.4)
        whole = BernoulliSource(substream(3, "count"), 0.4)
        assert list(stage_heads(blocked, [10_001])) == [int(whole.take(10_001).sum())]
        np.testing.assert_array_equal(blocked.take(16), whole.take(16))

    def test_array_source_to_its_last_count(self):
        src = ArraySource(np.arange(9000) % 3 == 0)
        assert list(stage_heads(src, [1, 2, 4, 9000])) == [1, 1, 2, 3000]
        with pytest.raises(RuntimeError, match="exhausted"):
            src.take(1)

    def test_counts_past_the_end_raise_there(self):
        heads = stage_heads(IterSource([1] * 150), [100, 1_000])
        assert next(heads) == 100
        with pytest.raises(RuntimeError, match="exhausted"):
            next(heads)

    def test_a_stopped_reader_draws_no_further_block(self):
        src = _Recorder()
        heads = stage_heads(src, [100, 1_000, 10_000])
        assert next(heads) == 0
        assert src.sizes == [100]


class TestRunJobs:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_come_back_in_job_order(self, threads):
        # later jobs finish first in a pool; the results keep job order
        def job(j):
            time.sleep(0.001 * (12 - j))
            return j * j

        assert run_jobs(list(range(12)), job, threads) == [j * j for j in range(12)]
