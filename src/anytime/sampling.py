"""Deterministic stream derivation and Bernoulli bit sources.

Every simulated trial owns a counter-based substream derived from
``(root seed, *path)`` via numpy's ``SeedSequence`` + Philox, so results
are reproducible bit-for-bit regardless of execution order, chunking, or
thread count.  String path components (method names) are hashed with
blake2b so the derivation never depends on Python's randomized ``hash``.
Every decider, certifier and width-target run reads its bit stream
through one reader: :func:`blocks` draws blocks of 64 bits doubling to
4,096, and :func:`stage_heads` reads the heads at given counts from
them.
:func:`run_jobs` runs the cells of ``anytime coverage``, the one command
whose threads pay off (its vector tails release the GIL), and returns
them in job order for any thread count.  The decide and certify sweeps,
``width`` and ``thresholds`` run in order on the calling thread.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .binom import _check_count, _check_prob

_BLOCK = 4096  # the largest block a reader draws at once
_FIRST_BLOCK = 64  # blocks start here and double up to ``_BLOCK``


def _key_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream path parts must be nonnegative, got {part}")
        return int(part)
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
    raise TypeError(f"substream path parts must be int or str, got {type(part)!r}")


def _seed_sequence(seed, path: tuple) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence) and not path:
        return seed
    _check_count("seed", seed, minimum=0)
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(_key_int(p) for p in path))


def seed_sequence(seed: int, *path) -> np.random.SeedSequence:
    """The ``SeedSequence`` addressed by ``(seed, *path)``.

    :func:`substream` and :func:`substream_id` accept it in place of
    ``(seed, *path)``, so a trial that needs both its generator and its
    recorded id derives the path once.
    """
    return _seed_sequence(seed, path)


def substream(seed, *path) -> np.random.Generator:
    """Independent generator for the substream addressed by ``(seed, *path)``.

    ``seed`` may instead be a :func:`seed_sequence` (and ``path`` empty).
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def substream_id(seed, *path) -> int:
    """Stable 64-bit fingerprint of a substream (recorded in output rows).

    ``seed`` may instead be a :func:`seed_sequence` (and ``path`` empty).
    """
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def run_jobs(jobs: Sequence, fn: Callable, threads: int) -> list:
    """``[fn(job) for job in jobs]``; with ``threads > 1`` the jobs run in a thread pool.

    The results come back in job order either way, so a job that draws
    only from its own substream gives the same output for any ``threads``,
    an integer >= 1 (checked before any job runs).
    """
    _check_count("threads", threads)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


@runtime_checkable
class BitSource(Protocol):
    """Anything that can hand out the next bits of a 0/1 stream.

    ``take(k)`` returns a 1-d block of 1 to ``k`` bits.  It returns fewer
    than ``k`` only at the end of a finite stream, and raises
    ``RuntimeError`` once no bit is left.
    """

    def take(self, k: int) -> np.ndarray:  # pragma: no cover - protocol
        ...


class ZeroOneSource:
    """Base of sources whose blocks keep the :class:`BitSource` rule by construction.

    :func:`as_bit_source` passes these through; any other object with a
    ``take`` method gets each block checked.
    """


class BernoulliSource(ZeroOneSource):
    """I.i.d. Bernoulli(p) bits drawn from a generator."""

    def __init__(self, rng: np.random.Generator, p: float):
        _check_prob("p", p)
        self._rng = rng
        self.p = p

    def take(self, k: int) -> np.ndarray:
        return (self._rng.random(k) < self.p).astype(np.uint8)


def _as_bits(values, ndim: int | None = None) -> np.ndarray:
    """``values`` as a uint8 array, checked to be 0/1 *before* the cast.

    Casting first would turn 0.9 into 0 and 257 into 1 and hand a
    silently different stream to the deciders.  With ``ndim``, an array
    of another number of dimensions raises too: a stream is 1-d, a
    Monte Carlo stream matrix 2-d (streams x time).
    """
    arr = np.asarray(values)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be 0 or 1")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"bits must be a {ndim}-d array of 0/1, got shape {arr.shape}")
    return arr.astype(np.uint8)


def _nonempty(block: np.ndarray) -> np.ndarray:
    """``block``, unless it is empty: then the stream has run out."""
    if block.size == 0:
        raise RuntimeError("bit stream exhausted")
    return block


class ArraySource(ZeroOneSource):
    """Bit stream backed by a fixed array; the last block holds what is left."""

    def __init__(self, bits):
        self._bits = _as_bits(bits, ndim=1)
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        out = _nonempty(self._bits[self._pos : self._pos + k])
        self._pos += out.size
        return out


class IterSource(ZeroOneSource):
    """Adapter for plain Python iterables of 0/1 values (checked per block)."""

    def __init__(self, it: Iterable[int]):
        self._it: Iterator[int] = iter(it)

    def take(self, k: int) -> np.ndarray:
        return _nonempty(_as_bits(list(islice(self._it, k)), ndim=1))


class _CheckedSource(ZeroOneSource):
    """A caller's source with every block checked to keep the :class:`BitSource` rule."""

    def __init__(self, source):
        self._source = source

    def take(self, k: int) -> np.ndarray:
        block = _nonempty(_as_bits(self._source.take(k), ndim=1))
        if block.size > k:
            raise ValueError(f"take({k}) returned {block.size} bits")
        return block


def as_bit_source(stream) -> BitSource:
    """Coerce a stream argument (source, array, or iterable) to a BitSource.

    A source that is not a :class:`ZeroOneSource` is wrapped so that a
    block of 0.9s or 7s, a 2-d block, an empty one or one longer than
    asked raises instead of being read as bits.
    """
    if isinstance(stream, ZeroOneSource):
        return stream
    if isinstance(stream, np.ndarray):  # before the duck check: ndarray has .take
        return ArraySource(stream)
    if hasattr(stream, "take"):
        return _CheckedSource(stream)
    return IterSource(stream)


def blocks(source: BitSource, cap: int, marks: Iterable[int] = ()) -> Iterator[np.ndarray]:
    """The bits of ``source`` up to ``cap``, in blocks of 64 doubling to 4,096.

    A block that would end before the next of the increasing counts
    ``marks`` runs on toward it, and the blocks after it stop at it, each
    at most 4,096 bits.  So a sparse ladder of marks (100, 1,000, ...)
    reads each gap in as few blocks as it can and no bit past it, while
    dense marks (1, 2, 4, ...) never reach past the doubling blocks and
    leave them as they are.  No block runs past ``cap``.  A finite source
    hands out a short last block and then raises, so a reader never asks
    whether a source can run out.
    """
    marks = iter(marks)
    mark = next(marks, 0)  # 0 once the marks run out: no block runs on
    t, size, onto = 0, min(_FIRST_BLOCK, _BLOCK), False
    while t < cap:
        while 0 < mark <= t:
            mark, onto = next(marks, 0), False
        reach = mark - t if onto else max(size, mark - t)
        bits = source.take(min(reach, _BLOCK, cap - t))
        yield bits
        onto = bits.size > size  # ran on past the plan: the next blocks stop at the mark
        t += bits.size
        size = min(2 * size, _BLOCK)


def stage_heads(source: BitSource, bounds: Sequence[int]) -> Iterator[int]:
    """The heads among the first ``t`` bits of ``source``, for each ``t`` in ``bounds``.

    ``bounds`` are increasing counts >= 1.  Each count is yielded as soon
    as the :func:`blocks` read to it are drawn, so a reader that stops at
    a count draws no further block; a finite source that ends before a
    count raises ``RuntimeError`` there.
    """
    heads = t = k = 0
    for bits in blocks(source, bounds[-1], bounds):
        end = t + bits.size
        while k < len(bounds) and bounds[k] <= end:
            yield heads + int(np.count_nonzero(bits[: bounds[k] - t]))
            k += 1
        heads += int(np.count_nonzero(bits))
        t = end
