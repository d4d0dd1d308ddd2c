"""Deterministic stream derivation and Bernoulli bit sources.

Every simulated trial owns a counter-based substream derived from
``(root seed, *path)`` via numpy's ``SeedSequence`` + Philox, so results
are reproducible bit-for-bit regardless of execution order, chunking, or
thread count.  String path components (method names) are hashed with
blake2b so the derivation never depends on Python's randomized ``hash``.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Iterable, Iterator, Protocol, runtime_checkable

import numpy as np


def _key_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"substream path parts must be nonnegative, got {part}")
        return int(part)
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
    raise TypeError(f"substream path parts must be int or str, got {type(part)!r}")


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(_key_int(p) for p in path))


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for the substream addressed by ``(seed, *path)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def substream_id(seed: int, *path) -> int:
    """Stable 64-bit fingerprint of a substream (recorded in output rows)."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


@runtime_checkable
class BitSource(Protocol):
    """Anything that can hand out the next ``k`` bits of a 0/1 stream."""

    def take(self, k: int) -> np.ndarray:  # pragma: no cover - protocol
        ...


class BernoulliSource:
    """I.i.d. Bernoulli(p) bits drawn from a generator."""

    def __init__(self, rng: np.random.Generator, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
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


class ArraySource:
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


class IterSource:
    """Adapter for plain Python iterables of 0/1 values (checked per chunk)."""

    def __init__(self, it: Iterable[int]):
        self._it: Iterator[int] = iter(it)

    def take(self, k: int) -> np.ndarray:
        chunk = list(islice(self._it, k))
        if len(chunk) < k:
            raise RuntimeError("bit stream exhausted")
        return _as_bits(chunk)


def as_bit_source(stream) -> BitSource:
    """Coerce a stream argument (source, array, or iterable) to a BitSource."""
    if isinstance(stream, np.ndarray):  # before the duck check: ndarray has .take
        return ArraySource(stream)
    if hasattr(stream, "take"):
        return stream
    return IterSource(stream)


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
