"""Anytime-valid confidence sequences for a Bernoulli mean.

Two constructions:

* **Union-bound CS** - at a sparse schedule of stage boundaries, spend a
  per-stage slice of the total budget on a fresh randomized
  Clopper-Pearson pair and intersect with the running interval.  The
  stage budgets sum to (at most) ``alpha``, so the running interval is a
  level-``alpha`` confidence sequence by a union bound.

* **Betting CS** - run the Krichevsky-Trofimov sequential mixture as a
  betting scheme; the wealth accumulated against any candidate ``p`` is a
  nonnegative martingale with unit initial capital, so by Ville's
  inequality the set ``{p : wealth_t(p) < 1/alpha}`` is a level-``alpha``
  confidence sequence, uniformly over time.  The log-wealth is convex in
  ``p`` with its minimum at the sample mean, so the set is an interval
  whose endpoints are defined by a fixed bisection on each side of the
  mean and computed by a Newton-steered replay of it (same bits, two
  log-wealth evaluations per endpoint instead of 34).

Both classes expose ``update(bit) -> Interval`` returning the *running*
intersection (nested by construction).  Each construction has one
running-bound kernel that the classes, deciders, certifiers and traces
stop on.  :func:`union_running` accumulates stage endpoints and solves
only those whose cheap bound clears the carried value;
:func:`union_stages` pairs it into the two-sided interval.  Against a
fixed ``p`` a union stage can fire only inside a count window per side:
:func:`union_windows` builds every stage's windows at once, and the union
decider and the Monte Carlo ever-exclusion read them.
:func:`betting_running` returns the running betting bounds at every
column and solves only the endpoints that can move them;
:func:`betting_first_pass` finds the first column whose running bounds
pass a caller's monotone test, with one pass over each block's shared
terms and the same screen, so the certifiers and width-target runs are
predicates over it.

Against a fixed ``p`` the betting test is two integer heads edges per
``t``, one on each side of ``p t``: :func:`exclusion_edge` finds them
for :func:`dp_thresholds` and the Monte Carlo ever-exclusion by a
guided search of the log-wealth.  It bisects sparse anchor edges, guesses
the edges between them, and probes each guess and its neighbour, about
2.3 log-wealth evaluations per ``t`` where a bisection alone takes 12.

The KT log-mixture of integer counts reads its three log-gammas from two
tables, ``gammaln(k + 1/2)`` and ``gammaln(k + 1)``, which grow by powers
of two to the largest count asked, up to ``k = 2**17`` (2 MB for both):
the same bits as evaluating ``special.gammaln``, which float counts and
counts past the tables still do.  The betting decider,
:func:`exclusion_edge`, and the multiclass certifier and width-target
runs (through :func:`betting_first_pass`) pass integer counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np
from scipy import special

from .binom import HALVINGS, _boolean, _check_alpha, _check_count, _check_prob, _whole
from .binom import binom_sf, halve_with_guess
from .intervals import Interval, rcp_upper_lo, rcp_upper_lo_bound

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_NEWTON_CAP = 40
_KT_NEWTON_TOL = 1e-10  # last Newton step in log p; the next error is ~ its square
_BLOCK = 8192  # elements per betting_endpoints block, values of t per exclusion_edge block
_ANCHOR = 64  # values of t per bisected anchor edge of an exclusion_edge block
_PROBE_ROUNDS = 3  # probe pairs per guessed edge before the bisection takes over
_COUNT_CAP = 2**53  # largest betting trials: every count up to it is a float
_COUNTS = "integers 0 <= heads <= trials with 1 <= trials <= 2**53"


# ---------------------------------------------------------------------------
# Krichevsky-Trofimov mixture wealth


def kt_log_mixture(heads, trials):
    """Closed-form log of the KT mixture likelihood ``Q(heads, trials)``.

    ``Q`` is the Bayes mixture of all Bernoulli likelihoods under a
    Beta(1/2, 1/2) prior; equivalently the product of the sequential
    predictions ``(H_i + 1/2) / (i + 1)``.  Order-invariant: depends on
    the stream only through the counts.  Accepts arrays; counts that are
    not integers with ``0 <= heads <= trials`` (NaN and booleans too)
    raise ``ValueError``.  The library's kernels call the unchecked
    :func:`_kt_log_mixture`.

    ``log Q = lgamma(heads + 1/2) + lgamma(tails + 1/2) - log pi -
    lgamma(trials + 1)``.  Counts given as signed integer arrays with
    ``trials`` below ``2**17 + 1`` read the three log-gammas from two
    tables, ``gammaln(k + 1/2)`` and ``gammaln(k + 1)`` built by the same
    ``special.gammaln`` and summed in the same order, so the result is the
    same bits as evaluating them.  The tables grow by powers of two to
    the largest ``trials`` asked, 2 MB in all at the cap.  Float counts and
    counts past the tables take ``special.gammaln`` itself.
    """
    return _kt_log_mixture(heads, trials, check=True)


# entries per log-gamma table at most: trials up to 2**17, 1 MB each.  The
# tables grow by powers of two to the largest count asked, so runs whose
# counts stay small build small ones
_TABLE_CAP = 2**17 + 1
_tables = (np.empty(0), np.empty(0))  # one pair, shared by every caller


def _log_gamma_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    """``gammaln(k + 1/2)`` and ``gammaln(k + 1)`` for every count ``k <= top < _TABLE_CAP``.

    A pair too short for ``top`` is replaced by one of the next power of
    two entries (at most ``_TABLE_CAP``), each table built in place and
    the pair swapped in with one assignment, so a caller on another
    thread reads either pair whole.
    """
    global _tables
    tables = _tables
    if tables[0].size <= top:
        size = min(1 << top.bit_length(), _TABLE_CAP)
        half = np.arange(size, dtype=float)
        whole = half + 1.0
        half += 0.5
        tables = special.gammaln(half, out=half), special.gammaln(whole, out=whole)
        for table in tables:
            table.flags.writeable = False
        _tables = tables
    return tables


def _kt_log_mixture(heads, trials, check=False):
    h, t = np.asarray(heads), np.asarray(trials)
    if check and (_boolean(h) or _boolean(t)):
        raise ValueError(f"counts must be integers, not booleans; got {heads}, {trials}")
    if h.dtype.kind == t.dtype.kind == "i" and h.size and t.size:
        tails = t - h  # cannot wrap once both are >= 0
        valid = h.min() >= 0 and t.min() >= 0 and tails.min() >= 0
        top = int(t.max())
        if valid and top < _TABLE_CAP:
            half, whole = _log_gamma_tables(top)
            out = half[h] + half[tails] - 2.0 * _LOG_SQRT_PI - whole[t]
            return float(out) if out.ndim == 0 else out
        check = check and not valid
    h, t = np.asarray(h, dtype=float), np.asarray(t, dtype=float)
    if check and not (_whole(h) and _whole(t) and (0.0 <= h).all() and (h <= t).all()):
        raise ValueError(f"counts must be integers, 0 <= heads <= trials; got {heads}, {trials}")
    out = (
        special.gammaln(h + 0.5)
        + special.gammaln(t - h + 0.5)
        - 2.0 * _LOG_SQRT_PI
        - special.gammaln(t + 1.0)
    )
    return float(out) if out.ndim == 0 else out


def kt_log_wealth(heads, trials, p):
    """Log wealth of the KT bettor against the constant bettor at ``p``.

    ``log W = log Q(heads, trials) - heads log p - tails log(1 - p)``.
    Degenerate ``p`` in {0, 1} follows the ``xlogy`` limit convention:
    ``+inf`` as soon as the sample contradicts ``p`` (which is what makes
    a degenerate candidate leave the betting CS at the first
    contradicting bit), and ``log Q`` itself for a constant matching
    sample.  Accepts arrays; counts that :func:`kt_log_mixture` rejects
    and a ``p`` outside [0, 1] (NaN too) raise ``ValueError``.  A float
    ``p`` in (0, 1) takes its two logs once and scales them by the counts,
    the same bits as ``xlogy`` and ``xlog1py`` (which compute ``x *
    log(y)`` and ``x * log1p(y)``).  Integer counts are kept integer, so
    ``log Q`` reads its tables.  The library's kernels call the unchecked
    :func:`_kt_log_wealth`.
    """
    return _kt_log_wealth(heads, trials, p, check=True)


def _kt_log_wealth(heads, trials, p, check=False):
    log_mix = _kt_log_mixture(heads, trials, check)
    heads, trials = np.asarray(heads), np.asarray(trials)
    if not heads.dtype.kind == trials.dtype.kind == "i":
        heads, trials = np.asarray(heads, dtype=float), np.asarray(trials, dtype=float)
    if isinstance(p, float) and 0.0 < p < 1.0:
        out = (
            log_mix
            - heads * float(special.xlogy(1.0, p))
            - (trials - heads) * float(special.xlog1py(1.0, -p))
        )
    else:
        p = np.asarray(p, dtype=float)
        if not np.all((0.0 <= p) & (p <= 1.0)):  # NaN fails too
            raise ValueError(f"p must be in [0, 1], got {p}")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = log_mix - special.xlogy(heads, p) - special.xlog1py(trials - heads, -p)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Stage schedules


@dataclass(frozen=True)
class Schedule:
    """Stage schedule for the union-bound construction.

    Boundaries are the deduplicated integers ``ceil(growth ** K)``,
    ``K = 0, 1, 2, ...`` (so ``growth = 2`` gives 1, 2, 4, 8, ...), and
    the k-th update spends ``(offset + 1) * alpha / ((k + offset) * (k +
    offset + 1))``, a telescoping family that sums to exactly ``alpha``.
    :meth:`doubling` is the classic ``alpha / (k (k + 1))`` split on
    ``growth = 2``; :meth:`geometric` is ``5 alpha / ((k + 4)(k + 5))`` on
    ``growth = 1.1``.
    """

    alpha: float
    growth: float = 2.0
    offset: int = 0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        if not 1.0 < self.growth < math.inf:
            raise ValueError(f"growth must exceed 1 and be finite, got {self.growth}")
        _check_count("offset", self.offset, minimum=0)

    @classmethod
    def doubling(cls, alpha: float) -> "Schedule":
        return cls(alpha)

    @classmethod
    def geometric(cls, alpha: float) -> "Schedule":
        return cls(alpha, growth=1.1, offset=4)

    def budget(self, k: int) -> float:
        """Miscoverage budget of the k-th stage (1-indexed)."""
        _check_count("stage index", k)
        m = k + self.offset
        return (self.offset + 1) * self.alpha / (m * (m + 1))

    def walk(self) -> Iterator[int]:
        """The stage boundaries in increasing order, without end.

        The boundary after ``b`` comes from the first exponent ``K`` with
        ``growth ** K > b``.  The walk guesses ``K`` from the logarithms and
        corrects the guess on the same ``growth ** K`` floats that stepping
        through every exponent compares, so the boundaries are that walk's
        however close ``growth`` is to 1.
        """
        log_growth = math.log(self.growth)
        boundary = 1
        yield boundary  # ceil(growth ** 0)
        while True:
            exponent = int(math.log(boundary) / log_growth)
            while self.growth ** (exponent - 1) > boundary:
                exponent -= 1
            while (value := self.growth**exponent) <= boundary:
                exponent += 1
            boundary = math.ceil(value)
            yield boundary

    def boundaries(self, limit: int) -> np.ndarray:
        """All stage boundaries ``<= limit``, sorted, distinct, starting at 1."""
        return np.fromiter(itertools.takewhile(limit.__ge__, self.walk()), dtype=np.int64)


# ---------------------------------------------------------------------------
# Union-bound confidence sequence


def union_draws(rng: Optional[np.random.Generator], stages: int, streams: tuple = ()):
    """Randomization draws of ``stages`` union stages, lower endpoint first.

    ``rng.random((stages, 2, *streams))``: the same values, in the same
    order, as drawing each stage's lower-endpoint uniforms and then its
    upper-endpoint ones.  ``None`` gives ones of that shape (deterministic
    CP): ``1.0 * P(B >= x) + 0.0 * P(B >= x + 1)`` is ``P(B >= x)``.
    """
    shape = (stages, 2, *streams)
    return np.ones(shape) if rng is None else rng.random(shape)


def union_running(x, t, alpha, w, bound, lo0):
    """Running rCP lower endpoints along rows of stages, carried in from ``lo0``.

    ``x`` is 2-d (rows x stages): successes bound a mean from below,
    failures from above through ``1 - .``.  ``t``, ``alpha`` and ``w``
    broadcast against ``x`` (scalars stay scalars), ``bound`` is their
    :func:`~anytime.intervals.rcp_upper_lo_bound` and ``lo0`` holds one
    carry per row.  Returns ``np.maximum.accumulate`` of the elements'
    :func:`~anytime.intervals.rcp_upper_lo` along each row from ``lo0``,
    bit for bit; only elements whose bound clears their row's carry can
    move it, and those are solved in one call.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-d (rows x stages), got shape {x.shape}")
    lo0 = np.broadcast_to(np.asarray(lo0, dtype=float), x.shape[:1])
    solve = np.asarray(bound) > lo0[:, None]
    lo = np.full(x.shape, -np.inf)
    if solve.any():
        lo[solve] = rcp_upper_lo(
            *(v if np.ndim(v) == 0 else np.broadcast_to(v, x.shape)[solve] for v in (x, t, alpha, w))
        )
    return np.maximum.accumulate(np.column_stack([lo0, lo]), axis=1)[:, 1:]


def union_stages(heads, t, budget, w, lo, up):
    """Running two-sided union-bound interval after each of several stages.

    Stage ``k`` has ``heads[k]`` successes in ``t[k]`` trials, spends
    ``budget[k] / 2`` on each endpoint and draws ``w[k]``
    (:func:`union_draws`).  From the running ``(lo, up)``, returns the
    running ``(lo, up)`` arrays after each stage, from one
    :func:`union_running` call.  Where they cross, the interval collapses
    to that stage's sample mean and the later stages carry on from there.
    """
    heads, t, budget = (np.asarray(v, dtype=float) for v in (heads, t, budget))
    w = np.broadcast_to(w, (t.size, 2))
    x = np.stack([heads, t - heads])
    alpha = np.broadcast_to(budget / 2.0, x.shape)
    bound = rcp_upper_lo_bound(x, t, alpha, w.T)
    run = union_running(x, t, alpha, w.T, bound, [lo, _complement_carry(up)])
    lo, up = run[0], np.minimum(up, 1.0 - run[1])
    crossed = np.flatnonzero(lo > up)
    if crossed.size:  # crossing pieces live inside a miscovering event
        k = crossed[0] + 1
        lo[k - 1] = up[k - 1] = mean = heads[k - 1] / t[k - 1]
        lo[k:], up[k:] = union_stages(heads[k:], t[k:], budget[k:], w[k:], mean, mean)
    return lo, up


def _complement_carry(up: float) -> float:
    """Carry ``c`` of a failures row, with ``min(up, 1 - max(c, e)) == min(up, 1 - e)``.

    That needs ``1 - c >= up``.  ``1 - (1 - up)`` is ``up`` unless ``up``
    is a collapsed mean whose complement rounds; one step down then
    restores the inequality.
    """
    c = 1.0 - up
    return c if 1.0 - c >= up else math.nextafter(c, 0.0)


class UnionCS:
    """Union-bound confidence sequence (stagewise randomized CP pairs).

    Parameters
    ----------
    schedule : Schedule
        Stage boundaries and per-stage budgets; each stage's budget is
        split evenly between the two endpoints.
    draws : callable, optional
        Source of uniform randomization draws ``w``; called twice per
        stage, lower endpoint first.  A draw outside ``[0, 1]`` (NaN too)
        raises ``ValueError``.  ``None`` fixes ``w = 1`` (plain
        deterministic Clopper-Pearson, slightly conservative).
    """

    def __init__(self, schedule: Schedule, draws: Optional[Callable[[], float]] = None):
        self.schedule = schedule
        self._draws = draws
        self.heads = 0
        self.trials = 0
        self.stage = 0
        self._walk = schedule.walk()
        self._next_boundary = next(self._walk)
        self.lo = 0.0
        self.up = 1.0

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.up)

    def update(self, bit: int) -> Interval:
        """Feed one bit; returns the running interval (changes only at boundaries)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        self.heads += bit
        self.trials += 1
        if self.trials == self._next_boundary:
            # the walk moves on first: a stage whose draw raises is skipped
            self._next_boundary = next(self._walk)
            self.stage += 1
            w = np.ones((1, 2))  # no draws: deterministic CP
            if self._draws is not None:
                w[0] = self._draws(), self._draws()  # lower endpoint first
                _check_prob("w", w[0, 0])
                _check_prob("w", w[0, 1])
            budget = self.schedule.budget(self.stage)
            lo, up = union_stages([self.heads], [self.trials], [budget], w, self.lo, self.up)
            self.lo, self.up = float(lo[0]), float(up[0])
        return self.interval


def union_windows(p: float, schedule: Schedule, limit: int) -> tuple[tuple, tuple, tuple]:
    """A schedule's union stages up to ``limit`` at one ``p``, with their count windows.

    Returns ``(bounds, half, windows)``: the boundaries up to ``limit``,
    the half stage budgets, and per stage ``(less_from, greater_to)``, the
    heads at which the stage can fire each side.  With ``S(x) =
    binom_sf(x, t, p)`` and ``x*`` the smallest ``x`` with ``S(x) <= b``,
    the mixture ``w S(h) + (1 - w) S(h + 1)`` is at least ``S(h + 1)``, so
    a count ``h <= x* - 3`` exceeds ``b`` for every ``w`` by at least one
    pmf term, far above the tails' rounding.  The count ``x* - 2`` mixes
    ``S(x* - 2)`` and ``S(x* - 1)``, both above ``b``; the window starts
    past it where the smaller of the two exceeds ``b`` by more than the
    mixture's rounding (at most three roundings on each term), and at it
    otherwise.  The failures mirror it with ``1 - p``.  Every stage's
    edges on both sides are found at once, in one :func:`_bisect_edges`
    pass.  The union decider and :func:`~anytime.mc.union_ever_excluded`
    evaluate a tail mixture only inside these windows.
    """
    t = schedule.boundaries(limit)
    half = np.array([schedule.budget(k) / 2.0 for k in range(1, t.size + 1)])
    starts = _window_start(np.tile(t, 2), np.repeat([p, 1.0 - p], t.size), np.tile(half, 2))
    less_from, greater_to = starts[: t.size], t - starts[t.size :]
    windows = tuple(zip(less_from.tolist(), greater_to.tolist()))
    return tuple(t.tolist()), tuple(half.tolist()), windows


def _window_start(t: np.ndarray, p, b: np.ndarray) -> np.ndarray:
    """Per stage, the first count whose upper tail mixture may reach ``b``.

    That is ``x* - 1`` or ``x* - 2``, as :func:`union_windows` sets out.
    ``p`` is one value or one per stage.
    """
    p = np.broadcast_to(p, t.shape)
    edge = _tail_edges(t, p, b)
    below, at = np.split(binom_sf(np.r_[edge - 2, edge - 1], np.tile(t, 2), np.tile(p, 2)), 2)
    # the computed mixture is at least min(S(x* - 2), S(x* - 1)) (1 - 2^-53)^3;
    # b >= 2^-1000 keeps a subnormal term's absolute rounding far below that margin
    clear = (np.minimum(below, at) * (1.0 - 4.0 * np.finfo(float).eps) > b) & (b >= 2.0**-1000)
    return edge - np.where(clear, 1, 2)


# shared by every union decider trial; keyed on plain numbers, so a lookup builds no Schedule
@functools.lru_cache(maxsize=512)
def _doubling_cell(p: float, alpha: float, limit: int) -> tuple[tuple, tuple, tuple]:
    return union_windows(p, Schedule.doubling(alpha), limit)


def _tail_edges(t: np.ndarray, p, b: np.ndarray) -> np.ndarray:
    """Per element, the smallest ``x`` with ``binom_sf(x, t, p) <= b``, for ``0 <= b < 1``.

    ``p`` is one value or one per element.  The tail is nonincreasing in
    ``x``, 1 at ``x = 0`` and 0 at ``t + 1``, so a bisection of ``[0, t +
    1]`` finds it.
    """
    p = np.broadcast_to(p, t.shape)
    inner, outer = np.zeros_like(t), t + 1
    _bisect_edges(lambda x, i: binom_sf(x, t[i], p[i]) <= b[i], inner, outer, np.arange(t.size))
    return outer


# ---------------------------------------------------------------------------
# Betting confidence sequence


def betting_endpoints(heads, trials, alpha):
    """Instantaneous betting-CS endpoints, vectorized over time/streams.

    For arrays ``heads`` (successes so far) and ``trials >= 1``, returns
    arrays ``(lo, up)`` with the endpoints of
    ``{p : kt_log_wealth(heads, trials, p) <= log(1/alpha)}``.
    ``alpha`` may be an array broadcast against the counts; each element's
    threshold is ``math.log(1.0 / alpha)`` of its own value.
    The log-wealth is convex in ``p``, minimized at the sample mean, so
    each endpoint is bracketed on one side of the mean: the answer is the
    midpoint of the cell that 34 halvings of ``[0, mean]`` (lower) or
    ``[mean, 1]`` (upper) end in, bit for bit (endpoint error below
    1e-10).  :func:`~anytime.binom.halve_with_guess` reaches that cell
    from a Newton estimate of each root and checks it with two log-wealth
    evaluations; both sides run as one stacked array.  ``heads = 0`` pins
    the lower endpoint at 0, ``heads = trials`` pins the upper at 1.
    Counts that are not integers (booleans too), counts outside ``0 <=
    heads <= trials``, ``trials`` outside ``[1, 2**53]`` and ``alpha``
    outside (0, 1) raise ``ValueError``.
    """
    if _boolean(heads) or _boolean(trials):
        raise ValueError("betting_endpoints needs integer counts, not booleans")
    if isinstance(alpha, float) or np.ndim(alpha) == 0:  # the per-bit path: keep it lean
        _check_alpha(alpha)
        heads, trials = np.broadcast_arrays(
            np.asarray(heads, dtype=float), np.asarray(trials, dtype=float)
        )
        threshold = math.log(1.0 / alpha)
    else:
        heads, trials, alpha = np.broadcast_arrays(
            np.asarray(heads, dtype=float),
            np.asarray(trials, dtype=float),
            np.asarray(alpha, dtype=float),
        )
        threshold = _thresholds(alpha.ravel())
    if heads.ndim == 0:  # one count (every BettingCS.update): plain comparisons
        h, t = float(heads), float(trials)
        counted = 1.0 <= t <= _COUNT_CAP and 0.0 <= h <= t and h.is_integer() and t.is_integer()
    else:
        counted = _counted(heads, trials)
    if not counted:
        raise ValueError(f"betting_endpoints needs {_COUNTS}")
    shape = heads.shape
    heads, trials = heads.ravel(), trials.ravel()
    lo, up = np.empty_like(heads), np.empty_like(heads)
    for start in range(0, heads.size, _BLOCK):  # blocks keep the temporaries small
        part = slice(start, start + _BLOCK)
        thr = threshold[part] if isinstance(threshold, np.ndarray) else threshold
        lo[part], up[part] = _betting_block(heads[part], trials[part], thr)
    return lo.reshape(shape), up.reshape(shape)


def _thresholds(alpha):
    """``math.log(1.0 / alpha)`` of each element of a 1-d array, as for a scalar ``alpha``.

    Every element must lie in (0, 1), as :func:`~anytime.binom._check_alpha` asks.
    """
    valid = (alpha > 0.0) & (alpha < 1.0)  # NaN fails too
    if not valid.all():
        _check_alpha(float(alpha[~valid][0]))
    if alpha.size and (alpha == alpha[0]).all():
        return np.full(alpha.shape, math.log(1.0 / float(alpha[0])))
    values, index = np.unique(alpha, return_inverse=True)
    return np.array([math.log(1.0 / a) for a in values.tolist()])[index.ravel()]


def _betting_block(heads, trials, threshold):
    log_mix = _kt_log_mixture(heads, trials)
    mean = heads / trials
    tails = trials - heads
    has_lo = heads >= 1
    has_up = heads <= trials - 1
    # Rows [0, m) solve the lower endpoint, rows [m, 2m) the upper one, in
    # one array so each numpy call serves both.  For the Newton guess the
    # upper problem is the lower one with heads and tails swapped, p -> 1 - p.
    m = heads.size
    cat = np.concatenate
    upper = np.repeat([False, True], m)
    active = cat([has_lo, has_up])
    log_mix2 = cat([log_mix, log_mix])
    threshold2 = cat([threshold, threshold]) if isinstance(threshold, np.ndarray) else threshold
    root = _kt_lower_root(cat([heads, tails]), cat([tails, heads]), log_mix2, threshold2, active)
    lo_b, hi_b = halve_with_guess(
        cat([np.zeros_like(mean), mean]),
        cat([mean, np.ones_like(mean)]),
        np.where(upper, 1.0 - root, root),
        _kt_above,
        (log_mix2, cat([heads, heads]), cat([tails, tails]), threshold2, upper),
        HALVINGS,
        ~active,
    )
    mid = 0.5 * (lo_b + hi_b)
    return np.where(has_lo, mid[:m], 0.0), np.where(has_up, mid[m:], 1.0)


def _kt_above(p, log_mix, heads, tails, threshold, upper):
    """Halving predicate of :func:`betting_endpoints`: is the endpoint at or below ``p``?"""
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = log_mix - special.xlogy(heads, p) - special.xlog1py(tails, -p) <= threshold
    return inside != upper


def _kt_lower_root(heads, tails, log_mix, threshold, active):
    """Newton estimate of the lower crossing of the log-wealth with ``threshold``.

    In ``u = log p`` the log-wealth ``log_mix - heads u - tails log(1 - e^u)``
    is convex and decreasing left of the mean, and at or above the
    threshold at the safe point ``u = (log_mix - threshold) / heads``.
    Newton starts at the larger of that point and the Gaussian
    approximation of the crossing, and no iterate goes below the safe
    point.  On the outer side (wealth above the threshold) the tangent of
    the convex function lies below it, so the iterates move right
    monotonically and cannot overshoot; a start on the inner side crosses
    to the outer side in one step.  Inactive elements (``heads = 0``: no
    lower crossing) are skipped and keep 0.  Batches of up to
    ``_FLOAT_NEWTON`` elements iterate on Python floats
    (:func:`_float_newton`); the result is only the guess that steers the
    halvings, so ``math``'s last bits, where they differ from numpy's,
    cannot change an endpoint.
    """
    if heads.size <= _FLOAT_NEWTON:
        thr = threshold.tolist() if isinstance(threshold, np.ndarray) else [threshold] * heads.size
        c = [m - t if a else None for m, t, a in zip(log_mix.tolist(), thr, active.tolist())]
        return np.array(_float_newton(heads.tolist(), tails.tolist(), c))
    root = np.zeros_like(heads)
    act = np.flatnonzero(active)
    if act.size == 0:
        return root
    h, s = heads[act], tails[act]
    c = log_mix[act] - (threshold[act] if isinstance(threshold, np.ndarray) else threshold)
    with np.errstate(all="ignore"):
        safe, u = _kt_newton_start(h, s, c)
        for _ in range(_NEWTON_CAP):  # inline steps: every large solver batch runs this loop
            e = np.exp(u)
            step = (c - h * u - s * np.log1p(-e)) / (h - s * e / (1.0 - e))
            u = np.fmax(safe, u + step)
            if np.all(np.abs(step) <= _KT_NEWTON_TOL):
                break
    root[act] = np.exp(u)
    return root


# Largest batch whose Newton iteration runs on Python floats: below it the
# ~8 numpy calls per iteration cost more than the float steps of every
# element (the per-bit BettingCS path has two, one per side).
_FLOAT_NEWTON = 16


def _float_newton(h, s, c):
    """:func:`_kt_lower_root` on lists, with ``c = log_mix - threshold`` (``None``: inactive).

    The same start, steps and stopping rule as the array loop, all active
    elements in lockstep; inactive ones give 0.  ``math`` raises where
    numpy returns NaN or ``-inf`` (``log1p(-1)`` at ``u = 0`` when
    ``s = 0``, a zero slope); those steps are NaN, which ``np.fmax``
    turns into the safe point.
    """
    exp, log1p, nan = math.exp, math.log1p, math.nan
    u = [0.0] * len(c)
    live = []
    for i, (hi, si, ci) in enumerate(zip(h, s, c)):
        if ci is not None:
            safe = ci / hi
            u[i] = _float_start(hi, si, ci, safe)
            live.append((i, hi, si, ci, safe))
    for _ in range(_NEWTON_CAP):
        done = True
        for i, hi, si, ci, safe in live:
            ui = u[i]
            try:
                e = exp(ui)
                step = (ci - hi * ui - si * log1p(-e)) / (hi - si * e / (1.0 - e))
            except (ValueError, ZeroDivisionError, OverflowError):
                step = nan
            ui += step
            u[i] = ui if ui > safe else safe  # np.fmax(safe, u + step)
            done = done and abs(step) <= _KT_NEWTON_TOL
        if done:
            break
    return [0.0 if ci is None else exp(ui) for ui, ci in zip(u, c)]


def _float_start(h, s, c, safe):
    """:func:`_kt_newton_start`'s Newton start of one element, on floats."""
    try:
        t = h + s
        m = h / t
        excess = h * math.log(m) + (s * math.log1p(-m) if s else 0.0) - c
        return max(safe, math.log(m - math.sqrt(2.0 * excess * m * (1.0 - m) / t)))
    except ValueError:  # where numpy's start is NaN or -inf, np.fmax keeps the safe point
        return safe


def _kt_newton_start(h, s, c):
    """Safe point and start of :func:`_kt_lower_root`'s Newton iteration, in ``u = log p``."""
    safe = c / h
    t = h + s
    m = h / t
    excess = special.xlogy(h, m) + special.xlog1py(s, -m) - c  # threshold - log W(mean)
    return safe, np.fmax(safe, np.log(m - np.sqrt(2.0 * excess * m * (1.0 - m) / t)))


# ---------------------------------------------------------------------------
# Running betting bounds

# The screen trusts a log-wealth value only where it clears the threshold
# by more than ``_EVAL_SLACK * (2 |log_mix| + |h log p| + |s log1p(-p)|)``.
# That bounds the rounding error of the halving predicate (``xlogy`` /
# ``xlog1py``) at ``p`` and at every point the conclusion covers: toward
# the mean the growing term is at most ``|log_mix|`` (the mixture is at
# most the maximum likelihood), and away from it the log-wealth rises
# faster than its error.  The screen itself forms the plain products
# ``h log p`` and ``s log1p(-p)``, which differ from ``xlogy`` / ``xlog1py``
# by a few ulps of the same terms.  A few ulps would do; 2^-40 leaves a
# factor of ~2,000.
_EVAL_SLACK = 2.0**-40
# Final cell of the 34 halvings, as a share of its bracket's length.
_CELL = 2.0**-HALVINGS
# Longest run of steps that share one candidate for the running bounds.
_RUN = 64


def betting_running(heads, trials, alpha, lo0, up0):
    """Running betting-CS bounds of several streams, carried in from ``lo0`` and ``up0``.

    ``heads`` is 2-d with one row per stream; ``trials`` broadcasts
    against it (one row shared by all streams, or one per stream);
    ``alpha``, ``lo0`` and ``up0`` hold one value per row.  Returns
    ``(lo, up)`` shaped like ``heads`` and equal, bit for bit, to
    ``np.maximum.accumulate`` / ``np.minimum.accumulate`` along each row of
    :func:`betting_endpoints`, starting from the carried-in bounds.  Each
    step is solved at most once, in one :func:`betting_endpoints` call per
    block of ``_BLOCK`` elements.  Counts that are not integers with ``0
    <= heads <= trials`` and ``1 <= trials <= 2**53`` raise
    ``ValueError``; integer counts read the log-gamma tables.

    The running lower bound at column ``c`` is the largest of ``lo0`` and
    the endpoints ``lo_j``, ``j <= c``, and most of those endpoints cannot
    be the largest.  A screen on each block's shared terms
    (:func:`_betting_terms`) finds them without solving them:

    * One Newton step of :func:`_kt_lower_root` from its start, backed
      off past rounding (:func:`_kt_outer_point`), gives a point ``y_j``
      left of step ``j``'s root.  If one log-wealth evaluation puts
      ``y_j`` outside the set by more than its rounding error, every
      point left of ``y_j`` is outside too, so endpoint ``j`` is at least
      ``L_j = y_j - 2 cell`` (the endpoint is the midpoint of a
      34-halving cell of ``[0, mean]``, ``cell = mean 2^-34`` wide).
      These are the bounds of :func:`_certified`, computed here at every
      step; any subset gives valid bounds (:func:`betting_first_pass`
      takes those :func:`_candidates` picks), a good one gives tight ones.
    * ``P_c``, the largest of ``lo0`` and those ``L_j`` with ``j <= c``,
      is at most the running bound at ``c``.  If ``P_j - 2 cell`` is at
      or above the mean, or inside the set at ``j`` by more than its
      rounding error, endpoint ``j`` is below ``P_j`` and is not the
      running bound at ``j`` or at any later column.

    The upper side is the mirror image.  Steps that pass neither screen
    go to :func:`betting_endpoints` (both sides at once); the screened
    ones enter the running max as ``-inf`` (``+inf`` in the running min).
    The exact bounds at each block's last column are carried to the next.
    """
    heads, trials, budget, run = _running_args(heads, trials, alpha, lo0, up0)
    rows, n = heads.shape
    lo, up = np.empty((rows, n)), np.empty((rows, n))
    width = max(1, _BLOCK // max(rows, 1))
    for start in range(0, n, width):
        stop = min(start + width, n)
        terms = _betting_terms(heads, trials, budget, start, stop, every=True)
        lo[:, start:stop], up[:, start:stop] = _screen(terms, run, 0, 0, stop - start - 1)
        run = lo[:, stop - 1], up[:, stop - 1]
    return lo, up


def _running_args(heads, trials, alpha, lo0, up0):
    """2-d counts (integers kept), ``(alpha, threshold)`` and the carried-in bounds per row."""
    heads = np.asarray(heads)
    if heads.ndim != 2:
        raise ValueError(f"heads must be 2-d (streams x time), got shape {heads.shape}")
    rows, n = heads.shape
    trials = np.asarray(trials)
    # a row shared by all streams stays one row (one log-mixture pass for it)
    trials = np.broadcast_to(trials, heads.shape if trials.ndim == 2 else (1, n))
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (rows,))
    run = tuple(np.broadcast_to(np.asarray(v, dtype=float), (rows,)) for v in (lo0, up0))
    return heads, trials, (alpha[:, None], _thresholds(alpha)[:, None]), run


def _betting_terms(heads, trials, budget, start, stop, every):
    """The shared terms of the block ``[start, stop)``, its counts checked once.

    Float counts, taken once the log-mixture has read its tables from
    integer ones, and certified bounds (:func:`_certified`) at every step
    with ``every``, else at the steps :func:`_candidates` picks, ``-inf`` /
    ``+inf`` elsewhere.
    """
    heads, trials = heads[:, start:stop], trials[:, start:stop]
    if not _counted(heads, trials):
        raise ValueError(f"betting counts must be {_COUNTS}")
    log_mix = _kt_log_mixture(heads, trials)
    heads, trials = np.asarray(heads, dtype=float), np.asarray(trials, dtype=float)
    tails = trials - heads
    mean = heads / trials
    alpha, threshold = (np.broadcast_to(v, heads.shape) for v in budget)
    with np.errstate(all="ignore"):
        if every:
            bound_lo, bound_up = _certified(heads, tails, mean, log_mix, threshold)
        else:
            pick = _candidates(mean, trials, threshold)
            bound_lo = np.full_like(heads, -np.inf)
            bound_up = np.full_like(heads, np.inf)
            bound_lo[pick], bound_up[pick] = _certified(
                heads[pick], tails[pick], mean[pick], log_mix[pick], threshold[pick]
            )
    return heads, trials, tails, mean, log_mix, alpha, threshold, bound_lo, bound_up


def _counted(heads, trials):
    """Are all counts integers with ``0 <= heads <= trials`` and ``1 <= trials <= 2**53``?

    Booleans are not counts.  Past ``2**53`` a float ``trials - 1`` rounds
    to ``trials``, and an all-heads step would look as if it had a tail.
    """
    if _boolean(heads) or _boolean(trials):
        return False
    whole = heads.dtype.kind == trials.dtype.kind == "i" or _whole(heads) and _whole(trials)
    # ``all(in range)`` rather than ``not any(out of range)``, so NaN fails too
    trials_in = ((trials >= 1) & (trials <= _COUNT_CAP)).all()
    return bool(whole and trials_in and (heads >= 0).all() and (heads <= trials).all())


def _accumulate(lo0, up0, lo, up):
    """Running max of ``lo`` and min of ``up`` along each row, carried in from ``lo0`` / ``up0``."""
    lo = np.maximum.accumulate(np.column_stack([lo0, lo]), axis=1)
    return lo[:, 1:], np.minimum.accumulate(np.column_stack([up0, up]), axis=1)[:, 1:]


def _screen(terms, run, begin, first, last):
    """Exact running bounds at block columns ``first..last``, with ``run`` carried into ``begin``.

    Steps from ``begin`` to ``first`` meet ``P`` at ``first``, and later
    steps meet their own; see :func:`betting_running` for the screen.
    """
    heads, trials, tails, mean, log_mix, alpha, threshold, bound_lo, bound_up = (
        v[:, begin : last + 1] for v in terms
    )
    first -= begin
    with np.errstate(all="ignore"):
        p_lo, p_up = _accumulate(*run, bound_lo, bound_up)
        p_lo[:, :first], p_up[:, :first] = p_lo[:, first : first + 1], p_up[:, first : first + 1]
        q_lo = p_lo - 2.0 * mean * _CELL
        q_up = p_up + 2.0 * (1.0 - mean) * _CELL
        # steps whose endpoint cannot be the running bound at their column
        inside_lo = (q_lo > 0.0) & _kt_inside(q_lo, log_mix, heads, tails, threshold)
        inside_up = (q_up < 1.0) & _kt_inside(q_up, log_mix, heads, tails, threshold)
        keep_lo = (q_lo >= mean) | inside_lo
        keep_up = (q_up <= mean) | inside_up
    solve = ~(keep_lo & keep_up)
    lo_i = np.full_like(heads, -np.inf)
    up_i = np.full_like(heads, np.inf)
    if solve.any():
        lo_i[solve], up_i[solve] = betting_endpoints(
            heads[solve], np.broadcast_to(trials, heads.shape)[solve], alpha[solve]
        )
    lo, up = _accumulate(*run, lo_i, up_i)
    return lo[:, first:], up[:, first:]


def betting_first_pass(heads, trials, alpha, lo0, up0, passes):
    """The first column whose running betting bounds pass ``passes``, with those bounds.

    Arguments, and the count check of every block it reads, as for
    :func:`betting_running`.  ``passes(lo, up)`` maps running bounds at
    some columns (rows x columns) to one bool per column.  It must satisfy:

    * bounds that are looser outward (lower ones lower, upper ones
      higher) pass only where the exact ones pass;
    * once a column passes, every later column passes too.

    Returns ``(column, lo, up)``: the first passing column and the exact
    running bounds there, one per row; or ``None`` and the exact bounds
    at the last column.

    One pass per block of at most ``_BLOCK`` elements: the carried
    certified bounds of its shared terms (:func:`_betting_terms`) hint at
    the first pass, and the screen of :func:`betting_running` solves,
    on the same terms, from ``_RUN`` columns before the hinted column, or,
    without a hint or past one the exact bounds refute, from the last.
    """
    heads, trials, budget, run = _running_args(heads, trials, alpha, lo0, up0)
    rows, n = heads.shape
    width = max(1, _BLOCK // max(rows, 1))
    for start in range(0, n, width):
        last = min(width, n - start) - 1
        terms = _betting_terms(heads, trials, budget, start, start + last + 1, every=False)
        hinted = _hinted_column(terms, run, passes)
        right = last if hinted is None else hinted
        mark = last if hinted is None else max(hinted - _RUN, 0)
        col, *run = _window_pass(terms, run, passes, 0, mark, right)
        if col is None and right < last:  # the exact bounds refute the hint
            col, *run = _window_pass(terms, run, passes, right + 1, last, last)
        if col is not None:
            return start + col, *run
    return None, *run


def _hinted_column(terms, run, passes):
    """The first block column where the certified bounds of ``terms``, carried in, pass; or None."""
    lo, up = terms[-2:]
    cols = np.flatnonzero(np.isfinite(lo).any(axis=0) | np.isfinite(up).any(axis=0))
    hint = passes(*_accumulate(*run, lo[:, cols], up[:, cols]))
    return int(cols[np.argmax(hint)]) if hint.any() else None


def _window_pass(terms, run, passes, begin, mark, last):
    """:func:`betting_first_pass` in the block columns ``[begin, last]``, solved from ``mark``.

    If ``mark > begin`` already passes, one more screen solves ``[begin, mark]``.
    """
    lo, up = _screen(terms, run, begin, mark, last)
    hit = passes(lo, up)
    if hit[0] and mark > begin:
        lo, up = _screen(terms, run, begin, begin, mark)
        hit, mark = passes(lo, up), begin
    if not hit.any():
        return None, lo[:, -1], up[:, -1]
    i = int(np.argmax(hit))
    return mark + i, lo[:, i], up[:, i]


def _candidates(mean, trials, threshold):
    """Steps likely to hold the largest lower (smallest upper) betting endpoint of their run.

    Runs are ``_RUN`` columns long.  No endpoint is evaluated: each run's
    steps are ranked by the Gaussian approximation ``mean -/+ sqrt(mean (1
    - mean) (2 log(1/alpha) + log t) / t)`` of the endpoints, so certified
    bounds there (:func:`_certified`) are tight bounds on the running
    ones; ties are all kept.
    """
    n = mean.shape[1]
    starts = np.arange(0, n, _RUN)
    lengths = np.diff(starts, append=n)
    half = np.sqrt(mean * (1.0 - mean) * (2.0 * threshold + np.log(trials)) / trials)
    near_lo, near_up = mean - half, mean + half
    best_lo = np.repeat(np.maximum.reduceat(near_lo, starts, axis=1), lengths, axis=1)
    best_up = np.repeat(np.minimum.reduceat(near_up, starts, axis=1), lengths, axis=1)
    return (near_lo == best_lo) | (near_up == best_up)


def _certified(heads, tails, mean, log_mix, threshold):
    """Certified bounds ``(L, U)`` on the betting-CS endpoints, without solving them.

    From the counts' shared terms (:func:`_betting_terms`; the caller
    silences numpy): ``L <= lo`` and ``U >= up`` element by element, where
    ``(lo, up) = betting_endpoints(heads, heads + tails, alpha)`` and
    ``threshold = log(1/alpha)``; ``L = -inf`` (``U = +inf``) where
    nothing is certified.  Each bound costs one backed-off Newton point
    (:func:`_kt_outer_point`) and one log-wealth evaluation.  A running
    max of ``L`` (min of ``U``) is thus a lower bound on the running lower
    bound (upper bound on the running upper bound).
    """
    margin = 4.0 * _EVAL_SLACK * (np.abs(log_mix) + threshold)
    y_lo = _kt_outer_point(heads, tails, log_mix - threshold, margin)
    y_up = 1.0 - _kt_outer_point(tails, heads, log_mix - threshold, margin)
    ok_lo = (y_lo < mean) & _kt_outside(y_lo, log_mix, heads, tails, threshold)
    ok_up = (y_up > mean) & _kt_outside(y_up, log_mix, heads, tails, threshold)
    return (
        np.where(ok_lo, y_lo - 2.0 * mean * _CELL, -np.inf),
        np.where(ok_up, y_up + 2.0 * (1.0 - mean) * _CELL, np.inf),
    )


def _kt_outer_point(heads, tails, c, margin):
    """A ``p`` left of the lower root where the log-wealth clears the threshold by ``margin``.

    One Newton step of :func:`_kt_lower_root` from its start lands left of
    the root, often closer to it than rounding can resolve.  The log-wealth
    is convex in ``u = log p``, so a further step left by ``margin`` over
    its slope at that point raises it by at least ``margin``.
    """
    safe, u = _kt_newton_start(heads, tails, c)
    e = np.exp(u)
    u = np.fmax(safe, u + (c - heads * u - tails * np.log1p(-e)) / (heads - tails * e / (1.0 - e)))
    e = np.exp(u)
    return np.exp(u - margin / (heads - tails * e / (1.0 - e)))


def _kt_wealth_and_slack(p, log_mix, heads, tails):
    a, b = heads * np.log(p), tails * np.log1p(-p)
    return log_mix - a - b, _EVAL_SLACK * (2.0 * np.abs(log_mix) + np.abs(a) + np.abs(b))


def _kt_outside(p, log_mix, heads, tails, threshold):
    """Is ``p`` outside the set by more than the rounding error of the halving predicate?"""
    wealth, slack = _kt_wealth_and_slack(p, log_mix, heads, tails)
    return wealth > threshold + slack


def _kt_inside(p, log_mix, heads, tails, threshold):
    """Is ``p`` inside the set by more than the rounding error of the halving predicate?"""
    wealth, slack = _kt_wealth_and_slack(p, log_mix, heads, tails)
    return wealth <= threshold - slack


class BettingCS:
    """Betting confidence sequence (KT mixture + Ville's inequality)."""

    def __init__(self, alpha: float):
        _check_alpha(alpha)
        self.alpha = alpha
        self.heads = 0
        self.trials = 0
        self.lo = 0.0
        self.up = 1.0

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.up)

    def update(self, bit: int) -> Interval:
        """Feed one bit; returns the running interval."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        self.heads += bit
        self.trials += 1
        inst_lo, inst_up = betting_endpoints(
            np.asarray(self.heads), np.asarray(self.trials), self.alpha
        )
        self.lo, self.up = max(self.lo, float(inst_lo)), min(self.up, float(inst_up))
        if self.lo > self.up:  # crossing pieces live inside a miscovering event
            self.lo = self.up = self.heads / self.trials
        return self.interval


# ---------------------------------------------------------------------------
# Exclusion edges of a fixed p


def exclusion_edge(horizon: int, p: float, threshold: float, upper: bool) -> np.ndarray:
    """For t = 0..horizon, the edge of the heads counts whose KT wealth clears ``threshold``.

    With ``upper``, ``E[t]`` is the smallest ``h > p t`` with
    ``kt_log_wealth(h, t, p) >= threshold`` (``t + 1`` if none);
    otherwise the largest ``h < p t`` with it (``-1`` if none).  The
    counts that clear a finite ``threshold > 0`` are those at or beyond
    an edge; any other ``threshold`` raises ``ValueError``.

    Each edge is searched on its side of ``p t``.  The test is monotone
    there: ``W(h + 1) / W(h) = (h + 1/2) (1 - p) / ((t - h - 1/2) p)``
    rises with ``h`` (the log-wealth is convex in ``h``) and exceeds 1
    iff ``h > p t - 1/2``.  Near the mean the wealth is below any
    threshold ``log(1/alpha) > 0``: at ``h = p t`` it is the mixture over
    the largest likelihood, at most 1.  At ``p`` in {0, 1} every count on
    the side has wealth ``+inf``.  ``t`` runs in blocks of ``_BLOCK``, so
    the temporaries stay flat at any horizon.

    The search is guided: every ``_ANCHOR``-th edge of a block is bisected,
    the others are guessed from the anchors' interpolated distance to
    ``p t`` and probed with the count next to the guess, and the bisection
    finishes whatever bracket is still open.  A probe only narrows a
    bracket, so the edges are those of the bisection alone, for about 2.3
    log-wealth evaluations per ``t`` instead of 12.  A bracket of one
    count is left to the bisection, which settles it with one evaluation,
    and a block with no wider bracket open after its anchors guesses
    nothing: where the edges sit at the ends of their brackets (``p`` at
    or near 0 or 1) the search evaluates no more than the bisection.
    """
    _check_count("horizon", horizon, minimum=0)
    _check_prob("p", p)
    if not 0.0 < threshold < math.inf:  # NaN fails too
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    out = np.empty(horizon + 1, dtype=np.int64)
    step = 1 if upper else -1  # away from the mean
    for start in range(0, horizon + 1, _BLOCK):
        t = np.arange(start, min(start + _BLOCK, horizon + 1))
        # ``inner`` fails the test and ``outer`` passes: first the mean's side, the sentinel
        inner = (np.floor(p * t) if upper else np.ceil(p * t)).astype(np.int64)
        outer = t + 1 if upper else np.full_like(t, -1)
        anchors = np.union1d(np.arange(0, t.size, _ANCHOR), [t.size - 1])

        def passes(h, i):
            return _kt_log_wealth(h, t[i], p) >= threshold

        _bisect_edges(passes, inner, outer, anchors)
        gap = np.abs(outer - inner)
        open_ = np.flatnonzero(gap > 1)
        # a bracket of one count takes one bisection step; only wider ones are probed
        live = np.flatnonzero(gap > 2)
        guess = _guess_edges(t, p, threshold, outer, anchors, step) if live.size else None
        for _ in range(_PROBE_ROUNDS):
            if not live.size:
                break
            # the guess and its neighbour toward the mean, both inside the open bracket
            low, high = (inner[live], outer[live]) if upper else (outer[live], inner[live])
            far = np.clip(guess[live], low + 1, high - 1)
            near = np.clip(far - step, low + 1, high - 1)
            hit = _kt_log_wealth(np.r_[far, near], np.tile(t[live], 2), p) >= threshold
            hit_far, hit_near = np.split(hit, 2)
            outer[live] = np.where(hit_near, near, np.where(hit_far, far, outer[live]))
            inner[live] = np.where(hit_far, np.where(hit_near, inner[live], near), far)
            # the next pair: on past ``near`` toward the mean, or past ``far`` away from it
            guess[live] = np.where(hit_near, near - step, far + 2 * step)
            live = live[np.abs(outer[live] - inner[live]) > 2]
        _bisect_edges(passes, inner, outer, open_)
        out[start : start + t.size] = outer
    return out


def _bisect_edges(passes, inner, outer, live):
    """Halve the brackets ``(inner, outer)`` at indices ``live`` to adjacent counts, in place.

    ``passes(x, i)`` tests counts ``x`` at indices ``i``; it is monotone
    along each bracket, false at ``inner`` and true at ``outer``.
    """
    live = live[np.abs(outer[live] - inner[live]) > 1]
    while live.size:
        mid = (inner[live] + outer[live]) // 2
        hit = passes(mid, live)
        outer[live[hit]] = mid[hit]
        inner[live[~hit]] = mid[~hit]
        live = live[np.abs(outer[live] - inner[live]) > 1]


def _guess_edges(t, p, threshold, outer, anchors, step):
    """Edges guessed from the exact ones at ``anchors``.

    An anchor's root of ``kt_log_wealth(h, t, p) = threshold`` in a real
    ``h`` is placed by linear interpolation between its edge and the
    count before it.  The root's distance from ``p t`` is smooth in
    ``t``, so it is interpolated between anchors, and each guess is the
    first count past its root.  At ``p`` in {0, 1} or at a sentinel edge
    the interpolation weight is meaningless but finite: a guess only
    narrows brackets.
    """
    edge, t_edge = outer[anchors], t[anchors]
    before, at = np.split(_kt_log_wealth(np.r_[edge - step, edge], np.tile(t_edge, 2), p), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.clip(np.nan_to_num((threshold - before) / (at - before), nan=0.5), 0.0, 1.0)
    offset = edge - step * (1.0 - share) - p * t_edge
    root = p * t + np.interp(np.arange(t.size), anchors, offset)
    return (np.ceil(root) if step > 0 else np.floor(root)).astype(np.int64)


def dp_thresholds(n_max: int, p: float, alpha: float) -> np.ndarray:
    """Minimal heads counts that exclude ``p`` from below, for t = 0..n_max.

    ``H[t]`` is the smallest ``h`` with ``h > p t`` and
    ``kt_log_wealth(h, t, p) >= log(1/alpha)`` - i.e. a stream excludes
    ``p`` from the lower side at time ``t`` iff it has seen at least
    ``H[t]`` heads.  ``H[t] = t + 1`` when no count suffices.  The side
    condition matters: the KT wealth is U-shaped in ``h``, and without
    ``h > p t`` the all-tails corner (an *upper*-side exclusion) would be
    picked up as soon as ``p`` is large.  The upper :func:`exclusion_edge`
    at ``log(1/alpha)``: where the wealth is exactly ``1/alpha`` (``t = 3``,
    ``p = 0.25``, ``alpha = 0.05``) the rounding of ``kt_log_wealth`` decides.
    """
    _check_dp_args(n_max, p, alpha)
    return exclusion_edge(n_max, p, math.log(1.0 / alpha), upper=True)


def _check_dp_args(n_max: int, p: float, alpha: float) -> None:
    _check_count("n_max", n_max, minimum=0)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    _check_alpha(alpha)


# ---------------------------------------------------------------------------
# Width envelopes


def ub_cs_width_envelope(t, alpha: float):
    """Union-bound CS width envelope ``sqrt((log(1/alpha) + log log t) / t)``.

    The rate of the doubling schedule.  ``alpha`` must lie in (0, 1) and
    ``t`` must be finite with ``t >= 3``.
    """
    return _width_envelope(t, alpha, 3, lambda t: np.log(np.log(t)))


def bet_cs_width_envelope(t, alpha: float):
    """Betting CS width envelope ``sqrt((log(1/alpha) + log t) / t)``.

    ``alpha`` must lie in (0, 1) and ``t`` must be finite with ``t >= 1``.
    """
    return _width_envelope(t, alpha, 1, np.log)


def _width_envelope(t, alpha: float, least: int, log_term):
    """``sqrt((log(1/alpha) + log_term(t)) / t)`` for a finite ``t >= least``."""
    _check_alpha(alpha)
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= least) & (t_arr < math.inf)):  # NaN fails too
        raise ValueError(f"envelope needs a finite t >= {least}")
    val = np.sqrt((math.log(1.0 / alpha) + log_term(t_arr)) / t_arr)
    return float(val) if np.ndim(t) == 0 else val
