"""Vectorized Monte Carlo kernels behind the statistical guarantee tests.

The stateful classes in :mod:`anytime.sequences` are the reference
implementations; the kernels here evaluate the same constructions over
whole stream matrices at once so that validity experiments with tens of
thousands of streams finish in seconds.  Unit tests pin the two code
paths against each other on small inputs.  The ever-exclusion kernels
read the fixed-``p`` kernels of :mod:`anytime.sequences`: the betting one
:func:`~anytime.sequences.exclusion_edge`, as ``dp_thresholds`` does, and
the union one the union decider's per-stage count windows.
"""

from __future__ import annotations

import math

import numpy as np

from .binom import _check_alpha, _check_count, _check_prob
from .intervals import _check_coverage_args, lower_tail_mix, upper_tail_mix
# the noqa names are unused: bound so the benchmark self-test sees the tracer wrap them
from .intervals import rcp_upper_lo  # noqa: F401
from .sampling import _as_bits
from .sequences import Schedule, betting_endpoints, betting_running, kt_log_wealth  # noqa: F401
from .sequences import exclusion_edge, union_draws, union_stages, union_windows


def bernoulli_matrix(rng: np.random.Generator, streams: int, horizon: int, p: float) -> np.ndarray:
    """``streams x horizon`` matrix of i.i.d. Bernoulli(p) bits."""
    _check_prob("p", p)
    return (rng.random((streams, horizon)) < p).astype(np.uint8)


# ---------------------------------------------------------------------------
# Ever-exclusion (time-uniform validity)


def betting_ever_excluded(bits: np.ndarray, p: float, alpha: float) -> np.ndarray:
    """Per stream: does ``p`` ever leave the betting CS within the horizon?

    ``p`` is outside the instantaneous interval iff the KT wealth against
    ``p`` exceeds ``1/alpha``; the running interval makes any exclusion
    permanent.  So a stream is excluded iff its cumulative heads ever
    reach an :func:`~anytime.sequences.exclusion_edge` at the float after
    ``log(1/alpha)`` (``>`` is ``>=`` there).
    """
    bits = _as_bits(bits, ndim=2)
    _check_alpha(alpha)
    threshold = math.nextafter(math.log(1.0 / alpha), math.inf)
    up = exclusion_edge(bits.shape[1], p, threshold, upper=True)[1:]
    lo = exclusion_edge(bits.shape[1], p, threshold, upper=False)[1:]
    heads = np.cumsum(bits, axis=1, dtype=np.int64)
    return ((heads >= up) | (heads <= lo)).any(axis=1)


def union_ever_excluded(
    bits: np.ndarray,
    p: float,
    schedule: Schedule,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Per stream: does ``p`` ever leave the union-bound CS within the horizon?

    Exclusion can only happen at stage boundaries, where it is a direct
    tail comparison - no endpoint bisection needed, and only inside the
    stage's count windows (:func:`~anytime.sequences.union_windows`, as
    in the union decider).  ``rng`` provides the per-stage randomization
    draws (:func:`~anytime.sequences.union_draws` of each stage, one per
    stream, drawn for every stream); ``None`` runs the deterministic-CP
    variant.
    """
    bits = _as_bits(bits, ndim=2)
    _check_prob("p", p)
    n_streams, horizon = bits.shape
    bounds, half, windows = union_windows(p, schedule, horizon)
    edges = (0,) + bounds  # heads at the stage boundaries only: each stage's sum, accumulated
    heads = np.add.reduceat(bits[:, : edges[-1]], edges[:-1], axis=1, dtype=np.float64)
    ever = np.zeros(n_streams, dtype=bool)
    for x, t, per_side, (less_from, greater_to) in zip(heads.cumsum(axis=1).T, bounds, half, windows):
        w_lo, w_up = union_draws(rng, 1, (n_streams,))[0]
        less = x >= less_from
        ever[less] |= upper_tail_mix(x[less], t, p, w_lo[less]) <= per_side
        greater = x <= greater_to
        ever[greater] |= lower_tail_mix(x[greater], t, p, w_up[greater]) <= per_side
    return ever


# ---------------------------------------------------------------------------
# Endpoint traces (running intervals over a whole stream at once)


def betting_trace(bits: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Running betting-CS endpoints after every bit.

    ``bits`` may be 1-d (one stream) or 2-d (streams x time); returns
    running ``(lo, up)`` arrays of the same shape, the same values as
    :class:`~anytime.sequences.BettingCS` fed each stream bit by bit.  One
    :func:`~anytime.sequences.betting_running` call gives them up to a
    stream's first crossing, where the interval collapses to the sample
    mean.  From a collapsed point the running bounds are again a running
    max and min, carried in from the mean, up to the next crossing: one
    more call per collapse.
    """
    arr = np.atleast_2d(_as_bits(bits))
    heads = np.cumsum(arr, axis=1, dtype=np.float64)
    trials = np.arange(1, arr.shape[1] + 1, dtype=np.float64)
    run_lo, run_up = betting_running(heads, trials, alpha, 0.0, 1.0)
    for row in np.flatnonzero((run_lo > run_up).any(axis=1)).tolist():
        # never the first bit: a single instantaneous interval cannot cross
        j = int(np.argmax(run_lo[row] > run_up[row]))
        while True:
            run_lo[row, j] = run_up[row, j] = mean = float(heads[row, j]) / (j + 1)
            j += 1
            if j == arr.shape[1]:
                break
            lo, up = betting_running(heads[row : row + 1, j:], trials[j:], alpha, mean, mean)
            run_lo[row, j:], run_up[row, j:] = lo[0], up[0]
            crossed = lo[0] > up[0]
            if not crossed.any():
                break
            j += int(np.argmax(crossed))
    if np.ndim(bits) == 1:
        return run_lo[0], run_up[0]
    return run_lo, run_up


def union_trace(
    bits: np.ndarray,
    schedule: Schedule,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Running union-bound CS endpoints after every bit (1-d stream).

    The same values as :class:`~anytime.sequences.UnionCS` fed the bits
    one by one, with the same draws.
    """
    arr = _as_bits(bits, ndim=1)
    bounds = schedule.boundaries(arr.size)
    heads = np.cumsum(arr, dtype=np.int64)[bounds - 1]
    budget = [schedule.budget(k) for k in range(1, bounds.size + 1)]
    lo, up = union_stages(heads, bounds, budget, union_draws(rng, bounds.size), 0.0, 1.0)
    # each bit sees the running interval of the last boundary at or before it
    stage = np.searchsorted(bounds, np.arange(1, arr.size + 1), side="right") - 1
    return lo[stage], up[stage]


# ---------------------------------------------------------------------------
# Fixed-n interval coverage by simulation (CLI companion to the exact
# enumeration in anytime.intervals)


def mc_coverage(
    n: int,
    p: float,
    alpha: float,
    kind: str,
    side: str,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo coverage estimate of a fixed-n interval construction.

    ``side="two"`` checks each side at ``alpha / 2`` and draws ``w_up``
    before ``w_lo``, unlike every union path
    (:func:`~anytime.sequences.union_draws`); the coverage digests pin it.
    """
    _check_coverage_args(n, p, alpha, kind, side)
    _check_count("trials", trials)
    x = rng.binomial(n, p, size=trials).astype(np.float64)
    sides = ("upper", "lower") if side == "two" else (side,)
    covered = True
    for one in sides:
        w = rng.random(trials) if kind == "rcp" else 1.0
        mix = upper_tail_mix if one == "upper" else lower_tail_mix
        covered = covered & (mix(x, n, p, w) >= alpha / len(sides))
    return float(np.mean(covered))
