"""Sequential decision engines: is the stream mean above or below ``p``?

All deciders consume a 0/1 stream whose unknown mean is ``q`` and compare
it against a known threshold ``p``.  Verdicts are *threshold-relative*:

* ``Verdict.GREATER`` - the threshold exceeds the mean (``p > q``),
  declared when the running upper bound drops below ``p``;
* ``Verdict.LESS`` - the threshold is below the mean (``p < q``);
* ``Verdict.UNDECIDED`` - sample cap reached;
* ``Verdict.ABSTAIN`` - produced only by the staged-adaptive baseline
  after the last stage of its full ladder.

The CS-based decider halts at the first time the threshold leaves the
running interval, so its wrong-verdict probability inherits the
confidence sequence's level ``alpha``, uniformly over stopping times.
The staged baseline's fixed ladder ``DEFAULT_STAGES``, with Bonferroni
budgets and one cap rule, is written once: :func:`staged_adaptive`
tests two Clopper-Pearson bounds per stage, and the adaptive kind of
:func:`anytime.certify.certify_binary` tests the lower one only.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .binom import _check_alpha, _check_count, _check_prob, binom_cdf, binom_sf
from .intervals import lower_tail_mix, upper_tail_mix
from .sampling import (
    BernoulliSource,
    as_bit_source,
    blocks,
    keyed_trials,
    rekeyable_generator,
    stage_heads,
    substream,
    substream_id,
)
from .sequences import Schedule, _doubling_cell, kt_log_wealth, union_draws

DEFAULT_STAGES = (100, 1_000, 10_000, 120_000)
DEFAULT_CAP = 1_000_000

METHODS = ("sprt", "betting", "union", "adaptive")
CS_KINDS = ("betting", "union")


class Verdict(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    UNDECIDED = "undecided"
    ABSTAIN = "abstain"


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """One decision trial: configuration, outcome, and bookkeeping."""

    method: str
    p: float
    q: float
    alpha: float
    trial: int
    verdict: Verdict
    samples: int
    seed: int
    wall_ns: int

    def is_wrong(self) -> bool:
        if self.verdict is Verdict.GREATER:
            return self.p <= self.q
        if self.verdict is Verdict.LESS:
            return self.p >= self.q
        return False


def _check_cs_kind(cs_kind: str) -> None:
    if cs_kind not in CS_KINDS:
        raise ValueError(f"unknown cs_kind {cs_kind!r}")


def _union_schedule(cs_kind: str, alpha: float) -> Optional[Schedule]:
    """The union kind's schedule, doubling at ``alpha``; ``None`` for betting."""
    _check_cs_kind(cs_kind)
    return None if cs_kind == "betting" else Schedule.doubling(alpha)


# ---------------------------------------------------------------------------
# Confidence-sequence decider


def decide_with_cs(
    cs_kind: str,
    p: float,
    stream,
    alpha: float,
    cap: int = DEFAULT_CAP,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Verdict, int]:
    """Run a confidence sequence until ``p`` leaves the running interval.

    Parameters
    ----------
    cs_kind : {"betting", "union"}
        The union kind runs the doubling schedule at ``alpha``
        (``Schedule.doubling(alpha)``); other schedules run through
        :class:`~anytime.sequences.UnionCS` or the :mod:`anytime.mc` kernels,
        which take any :class:`~anytime.sequences.Schedule`.
    p : float
        Threshold in [0, 1] (degenerate endpoints allowed: they are
        excluded at the first contradicting bit).
    stream
        Bit source / array / iterable with mean ``q``.
    alpha : float
        Wrong-verdict budget.
    cap : int
        Maximum samples, an integer >= 1; returns ``Verdict.UNDECIDED``
        when reached.
    rng : Generator, optional
        Randomization draws for the union kind's randomized CP pairs
        (``None`` uses the deterministic pairs).

    Both kinds read the stream through :func:`~anytime.sampling.blocks`,
    in blocks that start at 64 bits and double up to 4,096, so they may
    draw past the deciding bit to the end of its block.  The betting kind
    scores every bit of a block, from integer running counts, so the KT
    mixture reads its log-gamma tables; the verdict is the first crossing,
    so it does not depend on the block sizes.  The union kind reads the heads at
    each stage boundary from its block (:func:`~anytime.sampling.stage_heads`).
    A finite stream, array or iterable alike, hands out a short last
    block, so a verdict inside it is found; a read past its end raises
    ``RuntimeError``.  Each ``(p, alpha, cap)`` has a cached union cell
    (:func:`~anytime.sequences._doubling_cell`, 512 of them kept): the
    schedule's stages and, per stage, the count window at which each side
    can fire, all built by :func:`~anytime.sequences.union_windows` the
    first time a trial needs the cell and never changed after.  Only
    counts inside a window evaluate their tail mixture, as in
    :func:`~anytime.mc.union_ever_excluded`; the verdicts and sample
    counts are the ones evaluating every stage gives.

    Returns
    -------
    (Verdict, int)
        Verdict and the number of samples consumed at the decision.
    """
    _check_alpha(alpha)
    _check_cs_kind(cs_kind)
    _check_prob("p", p)
    _check_count("cap", cap)
    source = as_bit_source(stream)
    if cs_kind == "betting":
        return _decide_betting(p, source, alpha, cap)
    return _decide_union(p, source, alpha, cap, rng)


def _decide_betting(p, source, alpha, cap):
    threshold = math.log(1.0 / alpha)
    heads, t = 0, 0
    for bits in blocks(source, cap):
        # integer counts: the KT mixture reads its log-gamma tables
        h_cum = heads + np.add.accumulate(bits, dtype=np.intp)
        t_cum = np.arange(t + 1, t + bits.size + 1, dtype=np.intp)
        excluded = np.asarray(kt_log_wealth(h_cum, t_cum, p)) > threshold
        if excluded.any():
            i = int(np.argmax(excluded))
            mean = h_cum[i] / t_cum[i]
            return (Verdict.LESS if mean > p else Verdict.GREATER), int(t_cum[i])
        heads, t = int(h_cum[-1]), int(t_cum[-1])
    return Verdict.UNDECIDED, cap


def _decide_union(p, source, alpha, cap, rng):
    bounds, half, windows = _doubling_cell(p, alpha, cap)
    # one array draw per trial, not one per stage
    draws = union_draws(rng, len(bounds)).tolist()
    stages = zip(stage_heads(source, bounds), bounds, half, windows, draws)
    for heads, t, per_side, (less_from, greater_to), (w_lo, w_up) in stages:
        if heads >= less_from and float(upper_tail_mix(heads, t, p, w_lo)) <= per_side:
            return Verdict.LESS, t  # running lower bound rose above p
        if heads <= greater_to and float(lower_tail_mix(heads, t, p, w_up)) <= per_side:
            return Verdict.GREATER, t  # running upper bound fell below p
    return Verdict.UNDECIDED, cap


# ---------------------------------------------------------------------------
# Oracle sequential probability ratio test (knows both p and q)


def sprt_ideal(
    p: float,
    q: float,
    alpha: float,
    stream,
    cap: int = DEFAULT_CAP,
) -> tuple[Verdict, int]:
    """SPRT between the two simple hypotheses ``mean = p`` and ``mean = q``.

    The log likelihood ratio for ``q`` against ``p`` crosses
    ``+log(1/alpha)`` -> declare for ``q`` (verdict by the sign of
    ``q - p``), or ``-log(1/alpha)`` -> declare for ``p`` (mirrored
    verdict).  Wrong-verdict probability is at most ``alpha`` by the
    classical SPRT bound; this is the per-instance yardstick the
    threshold-agnostic methods are measured against.  Returns
    ``Verdict.UNDECIDED`` at ``cap`` samples (an integer >= 1).  Bits are
    read through :func:`~anytime.sampling.blocks` (64 doubling to 4,096);
    the log likelihood ratio is one running sum, so the verdict does not
    depend on the block sizes.
    """
    _check_prob("p", p)
    _check_prob("q", q)
    _check_alpha(alpha)
    _check_count("cap", cap)
    if p == q:
        raise ValueError("sprt_ideal needs distinct hypotheses p != q")
    source = as_bit_source(stream)
    head_step = _log_ratio(q, p)
    tail_step = _log_ratio(1.0 - q, 1.0 - p)
    threshold = math.log(1.0 / alpha)
    for_q = Verdict.LESS if q > p else Verdict.GREATER
    for_p = Verdict.GREATER if q > p else Verdict.LESS
    # {p, q} = {0, 1}: every step is infinite and the first decides; a running
    # sum past it could add -inf to +inf
    first_decides = math.isinf(head_step) and math.isinf(tail_step)
    llr, t = 0.0, 0
    for bits in blocks(source, cap):
        if first_decides:
            bits = bits[:1]
        steps = np.where(bits == 1, head_step, tail_step)
        # carried into the first step, so the path is one running sum
        # whatever the block sizes (cumsum adds in order)
        steps[0] += llr
        path = np.cumsum(steps)
        hit = (path >= threshold) | (path <= -threshold)
        if hit.any():
            i = int(np.argmax(hit))
            return (for_q if path[i] >= threshold else for_p), t + i + 1
        llr = float(path[-1])
        t += bits.size
    return Verdict.UNDECIDED, cap


def _log_ratio(num: float, den: float) -> float:
    """log(num/den) with the 0-probability conventions of a likelihood ratio."""
    if num > 0.0 and den > 0.0:
        return math.log(num) - math.log(den)
    if num == den:  # both zero: the event is impossible under either hypothesis
        return 0.0
    return math.inf if den == 0.0 else -math.inf


# ---------------------------------------------------------------------------
# Staged-adaptive baseline (fixed ladder of sample sizes, Bonferroni budgets)


def staged_adaptive(
    p: float,
    stream,
    alpha: float,
    cap: int = DEFAULT_CAP,
) -> tuple[Verdict, int]:
    """Multi-stage baseline: deterministic CP pairs on cumulative counts.

    The budget ``alpha`` is split evenly over the ``s`` stages of
    ``DEFAULT_STAGES``, and each stage's share again between two one-sided
    deterministic Clopper-Pearson bounds.  Declares as soon as a stage's
    pair separates the threshold, abstains after the last stage.  Stages
    past ``cap`` (an integer >= 1) are dropped and the survivors keep
    their budgets, so a cap never changes an early-stage decision; a cut
    ladder ends Undecided at ``cap``, without drawing when no stage
    survives.
    """
    return _staged(p, stream, alpha, cap, 2)


def _staged(p, stream, alpha, cap, sides) -> tuple[Verdict, int]:
    """The ladder of :func:`staged_adaptive`, testing ``sides`` (1 or 2) CP bounds per stage.

    Stage ``i`` reads the heads among the first ``DEFAULT_STAGES[i]`` bits
    through :func:`~anytime.sampling.stage_heads`.  The lower bound clears
    ``p`` (Less) when ``binom_sf(heads, t, p)`` is below the budget
    ``alpha / (sides len(DEFAULT_STAGES))``, also on a cut ladder: the
    exact test that a CP root solve approximates.  With two sides the
    upper bound falls below ``p`` (Greater) when ``binom_cdf`` is.
    """
    _check_prob("p", p)
    _check_alpha(alpha)
    _check_count("cap", cap)
    source = as_bit_source(stream)
    stages = tuple(n for n in DEFAULT_STAGES if n <= cap)
    if not stages:
        return Verdict.UNDECIDED, cap
    budget = alpha / (sides * len(DEFAULT_STAGES))
    for t, heads in zip(stages, stage_heads(source, stages)):
        if float(binom_sf(heads, t, p)) < budget:
            return Verdict.LESS, t  # lower bound above the threshold
        if sides == 2 and float(binom_cdf(heads, t, p)) < budget:
            return Verdict.GREATER, t  # upper bound below the threshold
    if len(stages) < len(DEFAULT_STAGES):
        return Verdict.UNDECIDED, cap
    return Verdict.ABSTAIN, t


# ---------------------------------------------------------------------------
# Benchmark sweep


@dataclass(frozen=True, slots=True)
class SweepSummary:
    """Per (method, threshold) aggregate over a sweep's trials."""

    method: str
    p: float
    mean_samples: float
    ratio_vs_sprt: float  # nan when sprt not in the sweep or p == q
    lower_bound_info: float  # (1/(24 eps^2)) log log(1/eps) at eps = |p - q|; nan if undefined


def gap_lower_bound_info(eps: float) -> float:
    """Informational sample-size floor ``(1/(24 eps^2)) * log log(1/eps)``."""
    if not 0.0 < eps < 1.0:
        return math.nan
    return math.log(math.log(1.0 / eps)) / (24.0 * eps * eps)


def run_trial(
    method: str,
    p: float,
    q: float,
    alpha: float,
    cap: int,
    rng: np.random.Generator,
    children: Optional[tuple[np.random.Generator, np.random.Generator]] = None,
) -> tuple[Verdict, int]:
    """One decision trial of ``method`` against a fresh B(q) stream.

    The union method runs the doubling schedule at ``alpha``, the adaptive
    method the ``DEFAULT_STAGES`` ladder.  The union method reads its bits
    and its randomized CP draws from ``rng.spawn(2)``, or from
    ``children`` when given: :func:`benchmark_sweep` hands in generators
    it re-keyed to the same two paths.
    """
    if method == "union":
        bit_rng, w_rng = rng.spawn(2) if children is None else children
        return decide_with_cs("union", p, BernoulliSource(bit_rng, q), alpha, cap, rng=w_rng)
    source = BernoulliSource(rng, q)
    if method == "betting":
        return decide_with_cs("betting", p, source, alpha, cap)
    if method == "sprt":
        return sprt_ideal(p, q, alpha, source, cap)
    if method == "adaptive":
        return staged_adaptive(p, source, alpha, cap)
    raise ValueError(f"unknown method {method!r}")


def _check_sweep(q, alpha, grid, trials, methods, cap, seed) -> None:
    """The arguments of :func:`benchmark_sweep`, also the ``anytime decide`` config's."""
    _check_prob("q", q)
    _check_alpha(alpha)
    if not grid:
        raise ValueError("p grid must be nonempty")
    for p in grid:
        _check_prob("p grid entry", p)
    _check_count("trials", trials)
    if not methods:
        raise ValueError("methods must be nonempty")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        if methods.count(method) > 1:  # its rows would repeat, seeds and all
            raise ValueError(f"method {method!r} is listed twice")
        if method == "sprt" and any(p == q for p in grid):
            raise ValueError("sprt needs p != q at every grid point")
    _check_count("cap", cap)
    _check_count("seed", seed, minimum=0)


def benchmark_sweep(
    q: float,
    alpha: float,
    grid: Iterable[float],
    trials: int,
    methods: Sequence[str] = METHODS,
    cap: int = DEFAULT_CAP,
    seed: int = 42,
) -> tuple[list[TrialRecord], list[SweepSummary]]:
    """Decision benchmark over a grid of thresholds, all streams from B(q).

    Each trial runs :func:`run_trial`: the union method on the doubling
    schedule and the adaptive method on ``DEFAULT_STAGES``, as ``anytime
    decide`` does.  Every argument is checked before any trial runs, by
    :func:`_check_sweep`: the grid (of probabilities) and the method list
    must be nonempty, with no method listed twice, ``trials`` and ``cap``
    integers >= 1.  Every (method, grid index, trial index) triple owns an
    independent counter-based substream of ``seed``, so records are
    reproducible bit-for-bit whatever the execution order; a union trial
    reads the paths ``(..., 0)`` and ``(..., 1)`` below it.  The sweep re-keys one
    generator per role for each trial (:func:`~anytime.sampling.substream`
    with ``into``) before the trial's clock starts, reading keys that
    :func:`~anytime.sampling.keyed_trials` mixed for up to 4,096 paths at
    once, outside every trial's clock.  The sweep is one loop per method
    over its (threshold, trial) pairs, threshold by threshold, on the
    calling thread: the trials are mostly Python, so a thread pool would
    only add GIL hand-offs to each trial's ``wall_ns``.  The summaries
    follow once every cell has run, so each finds its threshold's SPRT
    mean wherever ``"sprt"`` sits in ``methods``.  The union trials of one
    threshold share its cached stage cell (see :func:`decide_with_cs`):
    the first trial builds every stage's count windows at once, and every
    trial evaluates a tail only near them.

    Returns the flat trial records plus per-(method, threshold) summaries
    (mean samples, ratio to the SPRT mean at the same threshold, and the
    informational ``(1/(24 eps^2)) log log(1/eps)`` floor at
    ``eps = |p - q|``).
    """
    grid = [float(p) for p in grid]
    _check_sweep(q, alpha, grid, trials, methods, cap, seed)

    # one generator per role, re-keyed for each trial
    bits_rng, draws_rng = rekeyable_generator(), rekeyable_generator()
    records, mean_samples = [], {}
    for method in methods:
        union = method == "union"
        for gi, trial in keyed_trials(seed, (method,), len(grid), trials, children=union):
            p, path, children = grid[gi], (method, gi, trial), None
            if union:
                rng = substream(seed, *path, 0, into=bits_rng)
                children = (rng, substream(seed, *path, 1, into=draws_rng))
            else:
                rng = substream(seed, *path, into=bits_rng)
            start = time.perf_counter_ns()
            verdict, samples = run_trial(method, p, q, alpha, cap, rng, children)
            wall = time.perf_counter_ns() - start
            sid = substream_id(seed, *path)
            records.append(TrialRecord(method, p, q, alpha, trial, verdict, samples, sid, wall))
            if trial == trials - 1:
                mean_samples[method, gi] = float(np.mean([r.samples for r in records[-trials:]]))

    # every cell has run, so each ratio finds the sprt mean wherever sprt sits in methods
    summaries = []
    for method in methods:
        for gi, p in enumerate(grid):
            mean, sprt_mean = mean_samples[method, gi], mean_samples.get(("sprt", gi), math.nan)
            ratio = mean / sprt_mean if sprt_mean == sprt_mean and sprt_mean > 0 else math.nan
            summaries.append(SweepSummary(method, p, mean, ratio, gap_lower_bound_info(abs(p - q))))
    return records, summaries
