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
from hypothesis import example, given
from hypothesis import strategies as st

from anytime.certify import ClassOracle, _IndicatorSource, width_target_run
from anytime.decision import Verdict, decide_with_cs, sprt_ideal, staged_adaptive
from anytime.sampling import (
    ArraySource,
    BernoulliSource,
    IterSource,
    as_bit_source,
    _key_int,
    blocks,
    rekeyable_generator,
    run_jobs,
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

    @given(
        seed=st.integers(0, 2**130),
        path=st.lists(
            st.integers(0, 2**64) | st.integers(2**32 - 2, 2**32 + 1) | st.text(max_size=6),
            max_size=4,
        ),
    )
    @example(seed=42, path=[])
    @example(seed=2**128 - 1, path=["decide", 3, 2**32 - 1])
    @example(seed=2**128, path=["union", 2**64, 2**32])
    def test_keys_restate_seed_sequence(self, seed, path):
        # the oracle is numpy's SeedSequence itself: seeds past four words,
        # parts of one to three words, trial indices on both sides of 2**32
        spawn_key = tuple(_key_int(part) for part in path)

        def key_of(gen):
            return [int(w) for w in gen.bit_generator.state["state"]["key"]]

        want = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64)
        gen = substream(seed, *path, into=rekeyable_generator())
        assert key_of(gen) == [int(w) for w in want]
        assert substream_id(seed, *path) == int(want[0])
        fresh = substream(seed, *path)
        assert key_of(fresh) == key_of(gen)
        # the paths (*path, 0) and (*path, 1) are the public generator's spawn(2) children
        for i, child in enumerate(fresh.spawn(2)):
            assert key_of(substream(seed, *path, i, into=gen)) == key_of(child)
            np.testing.assert_array_equal(
                substream(seed, *path, i, into=gen).random(8), child.random(8)
            )

    @pytest.mark.parametrize("path", [("decide", 3, 17), ("union", 0, 0), ()])
    def test_one_derivation_gives_both(self, path):
        # one pool gives the re-keyed generator and the id; both equal a fresh derivation
        rng = substream(42, *path, into=rekeyable_generator())
        reference = substream(42, *path)
        assert substream_id(42, *path) == int(rng.bit_generator.state["state"]["key"][0])
        np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)
        np.testing.assert_array_equal(rng.random(16), reference.random(16))
        # the union decider's bit and draw streams are the trial generator's spawn(2) children
        for i, ref_child in enumerate(reference.spawn(2)):
            child = substream(42, *path, i, into=rekeyable_generator())
            np.testing.assert_array_equal(child.random(8), ref_child.random(8))

    # Committed known answers: substream_id, the first four raw Philox words
    # and the first four doubles, for three keys.  test_keys_restate_seed_sequence
    # compares against numpy, which would move along with a change to it.
    KNOWN_STREAMS = {
        (42,): (
            0x9F1E2E6DCD540AB7,
            (0x16092F00ECDAB98A, 0x243D19CC24021070, 0x4524D130684EFE02, 0xDFC0F20C3C4B5BCA),
            ("0x1.6092f00ecdab8p-4", "0x1.21e8ce6120108p-3", "0x1.149344c1a13bep-2", "0x1.bf81e4187896bp-1"),
        ),
        (42, "decide", 0, 0): (
            0xF293571AA8A136F0,
            (0x87EB2552186D4F57, 0x0038F6D89702C648, 0x89FF45330D7DA467, 0x8D41322CC9F3B8B6),
            ("0x1.0fd64aa430da9p-1", "0x1.c7b6c4b816000p-11", "0x1.13fe8a661afb4p-1", "0x1.1a82645993e77p-1"),
        ),
        (7, "certify", "betting", 1, 2, 0): (
            0x0D86A138B4CDA544,
            (0x3A09CA7D18FD3A65, 0xDC01334624B37015, 0x55B0EDE36A9966D6, 0xA0E00BA8B54621F3),
            ("0x1.d04e53e8c7e9cp-3", "0x1.b802668c4966ep-1", "0x1.56c3b78daa658p-2", "0x1.41c017516a8c4p-1"),
        ),
    }

    @pytest.mark.parametrize("key", KNOWN_STREAMS, ids=str)
    @pytest.mark.parametrize("rekeyed", [False, True])
    def test_streams_match_committed_known_answers(self, key, rekeyed):
        def generator():
            return substream(*key, into=rekeyable_generator() if rekeyed else None)

        sid, raw, doubles = self.KNOWN_STREAMS[key]
        got = (
            substream_id(*key),
            tuple(int(w) for w in generator().bit_generator.random_raw(4)),
            tuple(float.hex(float(x)) for x in generator().random(4)),
        )
        assert got == (sid, raw, doubles), "numpy's stream changed: every digest would move"

    def test_rekeying_carries_nothing_between_trials(self):
        gen = rekeyable_generator()
        for drawn in (0, 1, 3, 5, 4096):
            gen.random(drawn)
            gen.integers(0, 2**32, 3, dtype=np.uint32)  # leaves a half-used uint64
            substream(42, "decide", 3, 17, into=gen)
            np.testing.assert_equal(gen.bit_generator.state, substream(42, "decide", 3, 17).bit_generator.state)
            np.testing.assert_array_equal(gen.random(16), substream(42, "decide", 3, 17).random(16))

    def test_rekeyable_generators_cannot_spawn(self):
        # a child of a re-keyed generator would not be its path's child
        with pytest.raises(TypeError):
            rekeyable_generator().spawn(2)
        with pytest.raises(ValueError, match="rekeyable_generator"):
            substream(42, "decide", 0, into=substream(42, "other"))

    @pytest.mark.parametrize("seed", [-1, 2.0, True, "42"])
    def test_bad_seeds_raise_on_every_path(self, seed):
        for derive in (substream, substream_id, lambda s, *p: substream(s, *p, into=rekeyable_generator())):
            with pytest.raises(ValueError):
                derive(seed, "decide", 0)

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
            staged_adaptive(0.5, [[1, 1]] * 200, 0.05, cap=100)

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
