"""Per-command configuration objects for the benchmark CLI.

Every command's parameters live in one frozen dataclass that validates
eagerly in ``__post_init__``, through the checks of the library functions
the command runs, before any sampling starts; only what no library
function sees (mode against methods, classes per mode, flags the mode
does not read, nonempty lists) is checked here.  The CLI passes each
field by name, from the flag of the same name.

The common fields follow one rule.  ``seed`` (``--seed``, default
:data:`DEFAULT_SEED`; no environment variable sets it) is read by every
run that draws: not by ``thresholds``, nor by ``coverage`` with no Monte
Carlo trials.  ``threads`` only schedules work and changes no byte:
``coverage`` runs its cells on it (vector tails that release the GIL),
the other commands run in order on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .binom import _check_alpha, _check_count, _check_prob
from .certify import DEFAULT_WARMUP, CertSpec, _check_class_probs, _check_target
# CS_KINDS and COVERAGE_KINDS stay importable from here: the CLI's defaults
from .decision import CS_KINDS, _check_sweep, _union_schedule  # noqa: F401
from .intervals import COVERAGE_KINDS, _check_coverage_args  # noqa: F401
from .sequences import _check_dp_args

DEFAULT_SEED = 42

CERT_CS = ("betting", "union", "adaptive")
CERT_MODES = ("binary", "multiclass")
# certify flags that one mode reads and the other does not: the mode that
# reads each, and its default (the CLI's), which the other mode must keep
CERT_MODE_FLAGS = {
    "lam": ("multiclass", 0.5),
    "warmup": ("multiclass", DEFAULT_WARMUP),
    "target_class": ("binary", 0),
}


def _nonempty(name: str, values) -> None:
    if not values:
        raise ValueError(f"{name} must be nonempty")


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
        _nonempty("p grid", self.p_grid)
        _nonempty("interval kinds", self.kinds)
        for kind in self.kinds:
            for p in self.p_grid:
                _check_coverage_args(self.n, p, self.alpha, kind, self.side)
        _check_count("trials", self.trials, minimum=0)  # 0: exact coverage only
        _check_count("seed", self.seed, minimum=0)
        _check_count("threads", self.threads)


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
        _check_prob("p", self.p)
        _check_count("horizon", self.horizon)
        _nonempty("CS kinds", self.kinds)
        for kind in self.kinds:
            _union_schedule(kind, self.alpha)
        _check_count("seed", self.seed, minimum=0)
        _check_count("threads", self.threads)


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
        _check_sweep(
            self.q, self.alpha, self.p_grid, self.trials, self.methods, self.cap, self.seed
        )
        _check_count("threads", self.threads)


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
        for name, (mode, default) in CERT_MODE_FLAGS.items():
            if self.mode != mode and getattr(self, name) != default:
                raise ValueError(f"{name} is read in {mode} mode only")
        _nonempty("radii", self.radii)
        for radius in self.radii:
            CertSpec(self.sigma, radius, self.alpha, self.lam)
        _nonempty("certification methods", self.cs)
        for cs in self.cs:
            if cs != "adaptive":
                _union_schedule(cs, self.alpha)
            elif self.mode != "binary":
                raise ValueError("the staged baseline certifies in binary mode only")
        _check_class_probs(self.probs)
        if self.mode == "multiclass" and len(self.probs) < 2:
            raise ValueError("mode 'multiclass' needs at least 2 oracle classes")
        _check_target(self.target_class, len(self.probs))
        _check_count("trials", self.trials)
        _check_count("cap", self.cap)
        _check_count("warmup", self.warmup)
        _check_count("seed", self.seed, minimum=0)
        _check_count("threads", self.threads)


@dataclass(frozen=True)
class ThresholdsConfig:
    p: float
    alpha: float
    n_max: int
    seed: int
    threads: int

    def __post_init__(self) -> None:
        _check_count("n_max", self.n_max)  # the table has at least one row
        _check_dp_args(self.n_max, self.p, self.alpha)
        _check_count("seed", self.seed, minimum=0)
        _check_count("threads", self.threads)
