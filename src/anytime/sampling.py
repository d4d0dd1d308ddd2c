"""Deterministic stream derivation and Bernoulli bit sources.

Every simulated trial owns a counter-based Philox substream addressed by
``(root seed, *path)``.  Its key is the one numpy's
``SeedSequence(seed, spawn_key=path)`` gives Philox
(``generate_state(2, uint64)``), so results are reproducible
bit-for-bit regardless of execution order, chunking, or thread count.
String path components (method names) are hashed with blake2b so the
derivation never depends on Python's randomized ``hash``.
:func:`substream_id`, the ``seed`` column of the decide and certify
CSVs, is the key's first 64-bit word.

The keys are derived on Python ints, restating ``SeedSequence``'s
mixing exactly, and the pool after each ``(seed, *prefix)`` is cached,
so a trial mixes in only its own words.  A trial that needs two
generators (the union decider's bits and draws, a certify trial's labels
and draws) reads the paths ``(*path, 0)`` and ``(*path, 1)``, the
children ``spawn(2)`` gives.  The decide and certify sweeps build one
generator per role and re-key it for each trial with
``substream(seed, *path, into=gen)``; such a generator belongs to one
sweep on one thread.  ``anytime coverage`` runs its cells on a thread
pool, so it keeps a fresh generator per cell.

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
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .binom import _check_count, _check_prob

_BLOCK = 4096  # the largest block a reader draws at once
_FIRST_BLOCK = 64  # blocks start here and double up to ``_BLOCK``


def _key_int(part) -> int:
    if isinstance(part, bool):  # an int to isinstance, but True would alias 1
        raise ValueError(f"substream path parts must be int or str, got {part!r}")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream path parts must be nonnegative, got {part}")
        return int(part)
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
    raise TypeError(f"substream path parts must be int or str, got {type(part)!r}")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_ZEROS = (0, 0, 0, 0)
# generate_state's hash constant before and after each of its four words
_STATE_CONSTS = tuple(
    (_INIT_B * _MULT_B**i & _MASK32, _INIT_B * _MULT_B ** (i + 1) & _MASK32)
    for i in range(_POOL_SIZE)
)


def _words(n: int) -> list[int]:
    """``n >= 0`` as little-endian 32-bit words, at least one (as ``SeedSequence`` reads it)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix_into(pool: list[int], words: Iterable[int], const: int, skip: int = -1) -> int:
    """Mix each word into every pool word but ``skip``, as ``mix_entropy`` does.

    Each word is numpy's ``hashmix`` of it under the running hash
    constant, which this returns advanced; ``mix`` folds it in.
    """
    for word in words:
        for i, x in enumerate(pool):
            if i != skip:
                value = word ^ const
                const = const * _MULT_A & _MASK32
                value = value * const & _MASK32
                mixed = (_MIX_MULT_L * x - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
                pool[i] = mixed ^ mixed >> 16
    return const


@lru_cache(maxsize=1024, typed=True)
def _mixed(seed, *path) -> tuple[tuple[int, ...], int, tuple[int, int]]:
    """``SeedSequence(seed, spawn_key=path)`` on Python ints: (pool, hash constant, Philox key).

    Each prefix of ``path`` is a cache entry of its own, so a trial's path
    mixes in only the words its cached prefix lacks.  ``typed``, so a
    float part never reuses the entry of an equal int.
    """
    if path:
        pool, const, _ = _mixed(seed, *path[:-1])
        pool = list(pool)
        const = _mix_into(pool, _words(_key_int(path[-1])), const)
    else:
        _check_count("seed", seed, minimum=0)
        # numpy pads the run entropy to the pool size when a spawn key
        # follows; without one, its hashmix(0) of the missing words is the same
        entropy = _words(int(seed))
        entropy += [0] * (_POOL_SIZE - len(entropy))
        const, pool = _INIT_A, []
        for word in entropy[:_POOL_SIZE]:
            value = word ^ const
            const = const * _MULT_A & _MASK32
            value = value * const & _MASK32
            pool.append(value ^ value >> 16)
        for src in range(_POOL_SIZE):  # so late words affect earlier ones
            const = _mix_into(pool, [pool[src]], const, skip=src)
        const = _mix_into(pool, entropy[_POOL_SIZE:], const)
    # generate_state(2, np.uint64): the hashed pool words, paired little-endian
    out = [(word ^ a) * b & _MASK32 for word, (a, b) in zip(pool, _STATE_CONSTS)]
    out = [value ^ value >> 16 for value in out]
    return tuple(pool), const, (out[0] | out[1] << 32, out[2] | out[3] << 32)


def substream(seed: int, *path, into: Optional[np.random.Generator] = None) -> np.random.Generator:
    """Independent generator for the substream addressed by ``(seed, *path)``.

    It is backed by ``SeedSequence(seed, spawn_key=path)``, so its
    ``spawn(2)`` children are the substreams ``(*path, 0)`` and
    ``(*path, 1)``.  With ``into``, a generator from
    :func:`rekeyable_generator` (any other raises ``ValueError``), that
    generator is re-keyed instead and returned: the same key, a zero
    counter and an empty buffer, so it draws what a fresh generator
    would, whatever it drew before.
    """
    if into is None:
        _check_count("seed", seed, minimum=0)
        spawn_key = tuple(_key_int(p) for p in path)
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_key)))
    if into.bit_generator.seed_seq is not None:
        raise ValueError("into must come from rekeyable_generator(): it would spawn its old path's children")
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": _mixed(seed, *path)[2]},
        "buffer": _ZEROS,
        "buffer_pos": len(_ZEROS),  # an empty buffer
        "has_uint32": 0,
        "uinteger": 0,
    }
    return into


def rekeyable_generator() -> np.random.Generator:
    """A ``Generator(Philox)`` to re-key with ``substream(..., into=...)``.

    It has no ``SeedSequence``, so it cannot ``spawn``: a child of a
    re-keyed generator would not be the child of its path.  One such
    generator serves one role of one sweep, on one thread.
    """
    return np.random.Generator(np.random.Philox(key=0))


def substream_id(seed: int, *path) -> int:
    """Stable 64-bit fingerprint of a substream (recorded in output rows): its key's first word."""
    return _mixed(seed, *path)[2][0]


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


class LabelOracle(Protocol):
    """A classifier under noise: ``sample(k)`` gives ``k`` labels in ``[0, n_classes)``.

    Each block is a 1-d integer (not boolean) array; ``n_classes`` is an
    integer >= 1.  The certifiers check each block of a caller's oracle.
    """

    n_classes: int

    def sample(self, k: int) -> np.ndarray:  # pragma: no cover - protocol
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
        return (self._rng.random(k) < self.p).view(np.uint8)


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


class _CheckedLabels:
    """A caller's :class:`LabelOracle` with each block checked, and read as ``int64``."""

    def __init__(self, oracle):
        _check_count("n_classes", oracle.n_classes)
        self.n_classes, self._oracle = int(oracle.n_classes), oracle

    def sample(self, k: int) -> np.ndarray:
        labels, n = self._oracle.sample(k), self.n_classes
        ok = isinstance(labels, np.ndarray) and labels.dtype.kind in "iu" and labels.shape == (k,)
        if not (ok and 0 <= labels.min() <= labels.max() < n):
            raise ValueError(f"sample({k}) must return a 1-d integer array of {k} labels in [0, {n})")
        return labels.astype(np.int64, copy=False)  # no narrow type for a reader to wrap in


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
