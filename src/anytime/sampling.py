"""Deterministic stream derivation and Bernoulli bit sources.

Every simulated trial owns a counter-based substream derived from
``(root seed, *path)`` via numpy's ``SeedSequence`` + Philox, so results
are reproducible bit-for-bit regardless of execution order, chunking, or
thread count.  String path components (method names) are hashed with
blake2b so the derivation never depends on Python's randomized ``hash``.
:func:`run_jobs` runs the cells of ``anytime coverage``, the one command
whose threads pay off (its vector tails release the GIL), and returns
them in job order for any thread count.  The decide and certify sweeps,
``width`` and ``thresholds`` run in order on the calling thread.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .binom import _check_count, _check_prob


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
    """Anything that can hand out the next ``k`` bits of a 0/1 stream."""

    def take(self, k: int) -> np.ndarray:  # pragma: no cover - protocol
        ...


class ZeroOneSource:
    """Base of sources whose blocks are 0/1 ``uint8`` arrays by construction.

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


def _as_bits(values) -> np.ndarray:
    """``values`` as a uint8 array, checked to be 0/1 *before* the cast.

    Casting first would turn 0.9 into 0 and 257 into 1 and hand a
    silently different stream to the deciders.
    """
    arr = np.asarray(values)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bits must be 0 or 1")
    return arr.astype(np.uint8)


class ArraySource(ZeroOneSource):
    """Bit stream backed by a fixed array; raises when exhausted."""

    def __init__(self, bits):
        self._bits = _as_bits(bits)
        if self._bits.ndim != 1:
            raise ValueError("bits must be a 1-d array of 0/1")
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        if self._pos + k > self._bits.size:
            raise RuntimeError("bit stream exhausted")
        out = self._bits[self._pos : self._pos + k]
        self._pos += k
        return out

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos


class IterSource(ZeroOneSource):
    """Adapter for plain Python iterables of 0/1 values (checked per chunk)."""

    def __init__(self, it: Iterable[int]):
        self._it: Iterator[int] = iter(it)

    def take(self, k: int) -> np.ndarray:
        chunk = list(islice(self._it, k))
        if len(chunk) < k:
            raise RuntimeError("bit stream exhausted")
        return _as_bits(chunk)


class _CheckedSource(ZeroOneSource):
    """A caller's source with every block checked to be 0/1."""

    def __init__(self, source):
        self._source = source

    def take(self, k: int) -> np.ndarray:
        return _as_bits(self._source.take(k))

    @property
    def remaining(self) -> Optional[int]:
        return getattr(self._source, "remaining", None)


def as_bit_source(stream) -> BitSource:
    """Coerce a stream argument (source, array, or iterable) to a BitSource.

    A source that is not a :class:`ZeroOneSource` is wrapped so that a
    block of 0.9s or 7s raises instead of being read as bits.
    """
    if isinstance(stream, ZeroOneSource):
        return stream
    if isinstance(stream, np.ndarray):  # before the duck check: ndarray has .take
        return ArraySource(stream)
    if hasattr(stream, "take"):
        return _CheckedSource(stream)
    return IterSource(stream)


_COUNT_BLOCK = 4096


def count_ones(source: BitSource, k: int) -> int:
    """Number of ones among the next ``k`` bits of ``source``.

    The bits are drawn at most 4,096 at a time, so a large stage (the
    staged and union deciders reach 10^5 bits and more) never holds its
    whole draw in memory; the sources' blocks concatenate to the same
    stream whatever their sizes.
    """
    _check_count("k", k, minimum=0)
    ones = 0
    while k > 0:
        step = min(k, _COUNT_BLOCK)
        ones += int(source.take(step).sum())
        k -= step
    return ones


def reads_ahead(source: BitSource) -> bool:
    """Whether ``source`` may be drawn in blocks past the bits a reader needs.

    A source that reports ``remaining`` is (:func:`clamp_take` keeps each
    block inside it), and so is a ``ZeroOneSource`` that never runs out.
    An iterable, or a caller's source that does not report ``remaining``,
    may run out at any bit, so a reader that must stop at given counts
    reads it to each count and no further.
    """
    if isinstance(source, IterSource):
        return False
    if isinstance(source, _CheckedSource):
        return source.remaining is not None
    return True


def clamp_take(source: BitSource, want: int) -> int:
    """Largest block size <= ``want`` that a finite source can still satisfy.

    Block-mode consumers fetch bits in chunks ahead of need; against a
    replayed finite array the chunk must not overshoot what is left.
    Unbounded sources (no ``remaining``) pass ``want`` through.
    """
    bound = getattr(source, "remaining", None)
    if bound is None:
        return want
    if bound <= 0:
        raise RuntimeError("bit stream exhausted")
    return min(want, int(bound))
