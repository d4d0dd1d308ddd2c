"""Per-command configuration objects for the benchmark CLI.

Every command's parameters live in one frozen dataclass that validates
eagerly in ``__post_init__`` - an inconsistent flag combination fails
before any sampling starts.  Shared knobs resolve as flags >
environment (``ANYTIME_SEED``, ``ANYTIME_THREADS``) > defaults; the
environment lookup happens in :func:`env_int` so the CLI layer stays a
thin argparse shell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from .binom import _check_alpha
from .decision import METHODS

SEED_ENV = "ANYTIME_SEED"
THREADS_ENV = "ANYTIME_THREADS"
DEFAULT_SEED = 42

CS_KINDS = ("betting", "union")
COVERAGE_KINDS = ("cp", "rcp")
COVERAGE_SIDES = ("upper", "lower", "two")
CERT_CS = ("betting", "union", "adaptive")
CERT_MODES = ("binary", "multiclass")


def env_int(name: str, fallback: int) -> int:
    """Integer environment override with a config-error message."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _check_probs(name: str, values) -> None:
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} entries must be in [0, 1], got {v}")


def _check_common(seed: int, threads: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


@dataclass(frozen=True)
class CoverageConfig:
    n: int
    alpha: float
    p_grid: Tuple[float, ...]
    trials: int
    kinds: Tuple[str, ...]
    side: str
    seed: int
    threads: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        _check_alpha(self.alpha)
        if not self.p_grid:
            raise ValueError("p grid must be nonempty")
        _check_probs("p grid", self.p_grid)
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if not self.kinds:
            raise ValueError("need at least one interval kind")
        for kind in self.kinds:
            if kind not in COVERAGE_KINDS:
                raise ValueError(f"unknown interval kind {kind!r}")
        if self.side not in COVERAGE_SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        _check_common(self.seed, self.threads)


@dataclass(frozen=True)
class WidthConfig:
    alpha: float
    p: float
    horizon: int
    kinds: Tuple[str, ...]
    seed: int
    threads: int

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_probs("p", (self.p,))
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.kinds:
            raise ValueError("need at least one CS kind")
        for kind in self.kinds:
            if kind not in CS_KINDS:
                raise ValueError(f"unknown CS kind {kind!r}")
        _check_common(self.seed, self.threads)


@dataclass(frozen=True)
class DecideConfig:
    q: float
    alpha: float
    p_grid: Tuple[float, ...]
    trials: int
    methods: Tuple[str, ...]
    cap: int
    seed: int
    threads: int

    def __post_init__(self) -> None:
        _check_probs("q", (self.q,))
        _check_alpha(self.alpha)
        if not self.p_grid:
            raise ValueError("p grid must be nonempty")
        _check_probs("p grid", self.p_grid)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.methods:
            raise ValueError("need at least one method")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if "sprt" in self.methods and any(p == self.q for p in self.p_grid):
            raise ValueError("sprt requires every grid p to differ from q")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        _check_common(self.seed, self.threads)


@dataclass(frozen=True)
class CertifyConfig:
    mode: str
    cs: Tuple[str, ...]
    probs: Tuple[float, ...]
    sigma: float
    radii: Tuple[float, ...]
    alpha: float
    lam: float
    trials: int
    cap: int
    target_class: int
    warmup: int
    seed: int
    threads: int

    def __post_init__(self) -> None:
        if self.mode not in CERT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.cs:
            raise ValueError("need at least one certification method")
        for cs in self.cs:
            if cs not in CERT_CS:
                raise ValueError(f"unknown certification method {cs!r}")
            if cs == "adaptive" and self.mode != "binary":
                raise ValueError("the staged baseline certifies in binary mode only")
        if len(self.probs) < (2 if self.mode == "multiclass" else 1):
            raise ValueError(f"mode {self.mode!r} needs more oracle classes")
        _check_probs("probs", self.probs)
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probs must sum to 1, got {sum(self.probs)!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.radii or not all(r >= 0.0 for r in self.radii):
            raise ValueError("radii must be a nonempty list of nonnegative reals")
        _check_alpha(self.alpha)
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if not 0 <= self.target_class < len(self.probs):
            raise ValueError(f"target class {self.target_class} out of range")
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        _check_common(self.seed, self.threads)


@dataclass(frozen=True)
class ThresholdsConfig:
    p: float
    alpha: float
    n_max: int
    seed: int
    threads: int

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        _check_alpha(self.alpha)
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        _check_common(self.seed, self.threads)
