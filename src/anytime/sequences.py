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
intersection (nested by construction).  For whole streams at once,
:func:`betting_running` returns the running betting bounds and solves
only the endpoints that can move them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .binom import halve_with_guess
from .intervals import Interval, rcp_upper_lo

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_ENDPOINT_ITERS = 34  # halvings of [0, 1]: final bracket below 1e-10
_NEWTON_CAP = 40
_KT_NEWTON_TOL = 1e-10  # last Newton step in log p; the next error is ~ its square
_BLOCK = 8192  # elements per betting_endpoints block


# ---------------------------------------------------------------------------
# Krichevsky-Trofimov mixture wealth


def kt_log_mixture(heads, trials):
    """Closed-form log of the KT mixture likelihood ``Q(heads, trials)``.

    ``Q`` is the Bayes mixture of all Bernoulli likelihoods under a
    Beta(1/2, 1/2) prior; equivalently the product of the sequential
    predictions ``(H_i + 1/2) / (i + 1)``.  Order-invariant: depends on
    the stream only through the counts.  Accepts arrays.
    """
    heads = np.asarray(heads, dtype=float)
    trials = np.asarray(trials, dtype=float)
    out = (
        special.gammaln(heads + 0.5)
        + special.gammaln(trials - heads + 0.5)
        - 2.0 * _LOG_SQRT_PI
        - special.gammaln(trials + 1.0)
    )
    return float(out) if out.ndim == 0 else out


def kt_log_wealth(heads, trials, p):
    """Log wealth of the KT bettor against the constant bettor at ``p``.

    ``log W = log Q(heads, trials) - heads log p - tails log(1 - p)``.
    Degenerate ``p`` in {0, 1} follows the ``xlogy`` limit convention:
    ``+inf`` as soon as the sample contradicts ``p`` (which is what makes
    a degenerate candidate leave the betting CS at the first
    contradicting bit), and ``log Q`` itself for a constant matching
    sample.  Accepts arrays.
    """
    heads = np.asarray(heads, dtype=float)
    trials = np.asarray(trials, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            kt_log_mixture(heads, trials)
            - special.xlogy(heads, p)
            - special.xlog1py(trials - heads, -np.asarray(p, dtype=float))
        )
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Stage schedules


@dataclass(frozen=True)
class Schedule:
    """Stage schedule for the union-bound construction.

    Boundaries are the deduplicated integers ``ceil(growth ** K)``,
    ``K = 0, 1, 2, ...`` (so ``growth = 2`` gives 1, 2, 4, 8, ...), and
    the k-th update spends ``budget(k)``:

    * ``poly == 2`` (default): the telescoping family
      ``(offset + 1) * alpha / ((k + offset) * (k + offset + 1))``,
      which sums to exactly ``alpha``.  ``offset = 0`` is the classic
      ``alpha / (k (k + 1))`` split; ``offset = 4`` gives
      ``5 alpha / ((k + 4)(k + 5))``, the default for slow-growing
      (``growth = 1.1``) schedules.
    * ``poly != 2``: ``alpha * (k + offset) ** -poly``, normalized by the
      Hurwitz zeta value so the total stays ``alpha``.
    """

    alpha: float
    growth: float = 2.0
    poly: float = 2.0
    offset: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {self.growth}")
        if self.poly <= 1.0:
            raise ValueError(f"poly must exceed 1, got {self.poly}")
        if self.offset < 0 or int(self.offset) != self.offset:
            raise ValueError(f"offset must be a nonnegative integer, got {self.offset}")

    @classmethod
    def doubling(cls, alpha: float) -> "Schedule":
        return cls(alpha)

    @classmethod
    def geometric(cls, alpha: float, growth: float = 1.1, offset: int = 4) -> "Schedule":
        return cls(alpha, growth=growth, offset=offset)

    def budget(self, k: int) -> float:
        """Miscoverage budget of the k-th stage (1-indexed)."""
        if k < 1:
            raise ValueError(f"stage index must be >= 1, got {k}")
        m = k + self.offset
        if self.poly == 2.0:
            return (self.offset + 1) * self.alpha / (m * (m + 1))
        norm = float(special.zeta(self.poly, self.offset + 1.0))
        return self.alpha * m ** (-self.poly) / norm

    def boundaries(self, limit: int) -> np.ndarray:
        """All stage boundaries ``<= limit``, sorted, distinct, starting at 1."""
        if limit < 1:
            return np.empty(0, dtype=np.int64)
        out = []
        exponent = 0
        previous = 0
        while True:
            b = math.ceil(self.growth**exponent)
            if b > limit:
                break
            if b > previous:
                out.append(b)
                previous = b
            exponent += 1
        return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Union-bound confidence sequence


class UnionCS:
    """Union-bound confidence sequence (stagewise randomized CP pairs).

    Parameters
    ----------
    schedule : Schedule
        Stage boundaries and per-stage budgets.
    draws : callable, optional
        Source of uniform randomization draws ``w``; called once per
        one-sided update, lower endpoint first.  ``None`` fixes ``w = 1``
        (plain deterministic Clopper-Pearson, slightly conservative).
    sides : {"two", "lower", "upper"}
        ``"two"`` splits each stage budget evenly between the endpoints;
        the one-sided variants spend it all on one endpoint (used by the
        certification streams, which only consume one bound).
    """

    def __init__(
        self,
        schedule: Schedule,
        draws: Optional[Callable[[], float]] = None,
        sides: str = "two",
    ):
        if sides not in ("two", "lower", "upper"):
            raise ValueError(f"unknown sides {sides!r}")
        self.schedule = schedule
        self.sides = sides
        self._draws = draws
        self.heads = 0
        self.trials = 0
        self.stage = 0
        self._next_exponent = 0
        self._next_boundary = 1
        self.lo = 0.0
        self.up = 1.0

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.up)

    def _draw(self) -> float:
        return 1.0 if self._draws is None else float(self._draws())

    def _advance_boundary(self) -> None:
        while True:
            self._next_exponent += 1
            b = math.ceil(self.schedule.growth**self._next_exponent)
            if b > self._next_boundary:
                self._next_boundary = b
                return

    def update(self, bit: int) -> Interval:
        """Feed one bit; returns the running interval (changes only at boundaries)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        self.heads += bit
        self.trials += 1
        if self.trials == self._next_boundary:
            self.stage += 1
            budget = self.schedule.budget(self.stage)
            per_side = budget / 2.0 if self.sides == "two" else budget
            if self.sides in ("two", "lower"):
                w = self._draw()
                lo_k = float(rcp_upper_lo(np.asarray(self.heads), self.trials, per_side, w))
                self.lo = max(self.lo, lo_k)
            if self.sides in ("two", "upper"):
                w = self._draw()
                up_k = 1.0 - float(
                    rcp_upper_lo(np.asarray(self.trials - self.heads), self.trials, per_side, w)
                )
                self.up = min(self.up, up_k)
            if self.lo > self.up:
                # Crossing one-sided pieces live inside an already
                # miscovering event; collapse to the sample-mean point.
                mean = self.heads / self.trials
                self.lo = self.up = mean
            self._advance_boundary()
        return self.interval


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
    """
    if isinstance(alpha, float) or np.ndim(alpha) == 0:  # the per-bit path: keep it lean
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
    shape = heads.shape
    heads, trials = heads.ravel(), trials.ravel()
    lo, up = np.empty_like(heads), np.empty_like(heads)
    for start in range(0, heads.size, _BLOCK):  # blocks keep the temporaries small
        part = slice(start, start + _BLOCK)
        thr = threshold[part] if isinstance(threshold, np.ndarray) else threshold
        lo[part], up[part] = _betting_block(heads[part], trials[part], thr)
    return lo.reshape(shape), up.reshape(shape)


def _thresholds(alpha):
    """``math.log(1.0 / alpha)`` of each element of a 1-d array, as for a scalar ``alpha``."""
    values, index = np.unique(alpha, return_inverse=True)
    return np.array([math.log(1.0 / a) for a in values.tolist()])[index.ravel()]


def _betting_block(heads, trials, threshold):
    log_mix = kt_log_mixture(heads, trials)
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
        _ENDPOINT_ITERS,
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
    lower crossing) are skipped and keep 0.
    """
    root = np.zeros_like(heads)
    act = np.flatnonzero(active)
    if act.size == 0:
        return root
    h, s = heads[act], tails[act]
    c = log_mix[act] - (threshold[act] if isinstance(threshold, np.ndarray) else threshold)
    with np.errstate(all="ignore"):
        safe, u = _kt_newton_start(h, s, c)
        for _ in range(_NEWTON_CAP):  # inline steps: this loop runs on every BettingCS bit
            e = np.exp(u)
            step = (c - h * u - s * np.log1p(-e)) / (h - s * e / (1.0 - e))
            u = np.fmax(safe, u + step)
            if np.all(np.abs(step) <= _KT_NEWTON_TOL):
                break
    root[act] = np.exp(u)
    return root


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
# by more than ``_EVAL_SLACK * (2 |log_mix| + |xlogy(h, p)| + |xlog1py(s, -p)|)``.
# That bounds the rounding error of the halving predicate at ``p`` and at
# every point the conclusion covers: toward the mean the growing term is
# at most ``|log_mix|`` (the mixture is at most the maximum likelihood),
# and away from it the log-wealth rises faster than its error.  A few
# ulps would do; 2^-40 leaves a factor of ~2,000.
_EVAL_SLACK = 2.0**-40
# Final cell of the 34 halvings, as a share of its bracket's length.
_CELL = 2.0**-_ENDPOINT_ITERS


def betting_running(heads, trials, alpha, lo0, up0):
    """Running betting-CS bounds of several streams, carried in from ``lo0`` and ``up0``.

    ``heads`` is 2-d with one row per stream; ``trials`` broadcasts
    against it (one row shared by all streams, or one per stream);
    ``alpha``, ``lo0`` and ``up0`` hold one value per row.  Returns
    ``(lo, up)`` shaped like ``heads`` and equal, bit for bit, to
    ``np.maximum.accumulate`` / ``np.minimum.accumulate`` along each row of
    :func:`betting_endpoints`, starting from the carried-in bounds.

    Most steps cannot move a running bound, and their endpoints are never
    solved.  A screen finds them, one vector pass per side:

    * One Newton step of :func:`_kt_lower_root` from its start, backed
      off past rounding (:func:`_kt_outer_point`), gives a point ``y_j``
      left of step ``j``'s root.  If one log-wealth evaluation puts
      ``y_j`` outside the set by more than its rounding error, every
      point left of ``y_j`` is outside too, so endpoint ``j`` is at least
      ``L_j = y_j - 2 cell`` (the endpoint is the midpoint of a
      34-halving cell of ``[0, mean]``, ``cell = mean 2^-34`` wide).
    * Let ``x_t`` be the largest of ``lo0`` and the ``L_j`` with
      ``j < t``: the running bound before step ``t`` is at least
      ``x_t``.  If ``x_t - 2 cell`` is at or above the mean, or inside
      the set at ``t`` by more than its rounding error, endpoint ``t`` is
      below ``x_t`` and cannot raise the running bound.

    The upper side is the mirror image.  Steps that pass neither screen
    go to :func:`betting_endpoints` (both sides at once); the screened
    ones enter the running max as ``-inf`` (``+inf`` in the running min).
    At most ``_BLOCK`` elements are screened at a time, with the bounds
    carried from block to block.
    """
    heads = np.asarray(heads, dtype=float)
    if heads.ndim != 2:
        raise ValueError(f"heads must be 2-d (streams x time), got shape {heads.shape}")
    rows, cols = heads.shape
    trials = np.broadcast_to(np.asarray(trials, dtype=float), heads.shape)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (rows,))
    lo_run = np.broadcast_to(np.asarray(lo0, dtype=float), (rows,))
    up_run = np.broadcast_to(np.asarray(up0, dtype=float), (rows,))
    threshold = _thresholds(alpha)[:, None]
    lo, up = np.empty_like(heads), np.empty_like(heads)
    width = max(1, _BLOCK // max(rows, 1))
    for start in range(0, cols, width):
        part = slice(start, min(start + width, cols))
        lo[:, part], up[:, part] = _running_block(
            heads[:, part], trials[:, part], alpha, threshold, lo_run, up_run
        )
        lo_run, up_run = lo[:, part.stop - 1], up[:, part.stop - 1]
    return lo, up


def _running_block(heads, trials, alpha, threshold, lo0, up0):
    log_mix = kt_log_mixture(heads, trials)
    tails = trials - heads
    mean = heads / trials
    cell_lo = mean * _CELL
    cell_up = (1.0 - mean) * _CELL
    with np.errstate(all="ignore"):
        # certified bounds on each step's endpoints (-inf / +inf: none)
        margin = 4.0 * _EVAL_SLACK * (np.abs(log_mix) + threshold)
        y_lo = _kt_outer_point(heads, tails, log_mix - threshold, margin)
        y_up = 1.0 - _kt_outer_point(tails, heads, log_mix - threshold, margin)
        ok_lo = (y_lo < mean) & _kt_outside(y_lo, log_mix, heads, tails, threshold)
        ok_up = (y_up > mean) & _kt_outside(y_up, log_mix, heads, tails, threshold)
        bound_lo = np.where(ok_lo, y_lo - 2.0 * cell_lo, -np.inf)
        bound_up = np.where(ok_up, y_up + 2.0 * cell_up, np.inf)
        # the running bounds before each step are at least as tight as these
        x_lo = np.maximum.accumulate(np.column_stack([lo0, bound_lo[:, :-1]]), axis=1)
        x_up = np.minimum.accumulate(np.column_stack([up0, bound_up[:, :-1]]), axis=1)
        q_lo = x_lo - 2.0 * cell_lo
        q_up = x_up + 2.0 * cell_up
        # steps whose endpoint cannot move the running bound
        inside_lo = (q_lo > 0.0) & _kt_inside(q_lo, log_mix, heads, tails, threshold)
        inside_up = (q_up < 1.0) & _kt_inside(q_up, log_mix, heads, tails, threshold)
        keep_lo = (q_lo >= mean) | inside_lo
        keep_up = (q_up <= mean) | inside_up
    solve = ~(keep_lo & keep_up)
    lo_i = np.full_like(heads, -np.inf)
    up_i = np.full_like(heads, np.inf)
    if solve.any():
        lo_i[solve], up_i[solve] = betting_endpoints(
            heads[solve], trials[solve], np.broadcast_to(alpha[:, None], heads.shape)[solve]
        )
    lo = np.maximum.accumulate(np.column_stack([lo0, lo_i]), axis=1)[:, 1:]
    up = np.minimum.accumulate(np.column_stack([up0, up_i]), axis=1)[:, 1:]
    return lo, up


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
    a, b = special.xlogy(heads, p), special.xlog1py(tails, -p)
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
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.heads = 0
        self.trials = 0
        self.log_mixture = 0.0
        self.lo = 0.0
        self.up = 1.0

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.up)

    def update(self, bit: int) -> Interval:
        """Feed one bit; returns the running interval."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        predict = (self.heads + 0.5) / (self.trials + 1.0)
        self.log_mixture += math.log(predict if bit else 1.0 - predict)
        self.heads += bit
        self.trials += 1
        inst_lo, inst_up = betting_endpoints(
            np.asarray(self.heads), np.asarray(self.trials), self.alpha
        )
        self.lo = max(self.lo, float(inst_lo))
        self.up = min(self.up, float(inst_up))
        if self.lo > self.up:
            mean = self.heads / self.trials
            self.lo = self.up = mean
        return self.interval


# ---------------------------------------------------------------------------
# Precomputed decision thresholds

_DP_REFRESH = 4096  # periodic closed-form resync against drift


def dp_thresholds(n_max: int, p: float, alpha: float) -> np.ndarray:
    """Minimal heads counts that exclude ``p`` from below, for t = 0..n_max.

    ``H[t]`` is the smallest ``h`` with ``h > p t`` and
    ``kt_log_wealth(h, t, p) >= log(1/alpha)`` - i.e. a stream excludes
    ``p`` from the lower side at time ``t`` iff it has seen at least
    ``H[t]`` heads.  ``H[t] = t + 1`` when no count suffices.  The side
    condition matters: the KT wealth is U-shaped in ``h``, and without
    ``h > p t`` the all-tails corner (an *upper*-side exclusion) would be
    picked up as soon as ``p`` is large.

    Runs a single amortized-O(n_max) frontier walk using the constant-time
    wealth transitions in ``h`` and ``t``, with a periodic closed-form
    resync so log-space drift stays harmless.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    log = math.log
    threshold = log(1.0 / alpha)
    ln_odds = log(1.0 - p) - log(p)
    out = np.empty(n_max + 1, dtype=np.int64)
    out[0] = 1  # t = 0: nothing can be excluded
    if n_max == 0:
        return out
    h = 1
    logw = log(0.5) - log(p)  # W(1, 1)
    for t in range(1, n_max + 1):
        hmin = math.floor(p * t) + 1
        while h < hmin:
            logw += log(h + 0.5) - log(t - h - 0.5) + ln_odds
            h += 1
        while h - 1 >= hmin:
            step = log(h - 0.5) - log(t - h + 0.5) + ln_odds
            if logw - step >= threshold:
                logw -= step
                h -= 1
            else:
                break
        while logw < threshold and h < t:
            logw += log(h + 0.5) - log(t - h - 0.5) + ln_odds
            h += 1
        out[t] = h if logw >= threshold else t + 1
        if t < n_max:
            logw += log(t - h + 0.5) - log(t + 1.0) - log(1.0 - p)
            if t % _DP_REFRESH == 0:
                logw = float(kt_log_wealth(h, t + 1, p))
    return out


# ---------------------------------------------------------------------------
# Width envelopes


def ub_cs_width_envelope(t, alpha: float, constant: float = 1.0, schedule: Schedule | None = None):
    """Width envelope of the union-bound CS.

    With no schedule: ``constant * sqrt((log(1/alpha) + log log t) / t)``
    (valid for ``t >= 3``), the rate of the doubling schedule.  With a
    schedule, the generalized form
    ``constant * sqrt(growth * (log(1/(poly-1)) + log(1/alpha)
    + poly * log(log_growth t)) / t)``.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 3):
        raise ValueError("envelope needs t >= 3")
    if schedule is None:
        val = constant * np.sqrt((math.log(1.0 / alpha) + np.log(np.log(t_arr))) / t_arr)
    else:
        beta, gamma = schedule.growth, schedule.poly
        log_stages = np.log(t_arr) / math.log(beta)
        val = constant * np.sqrt(
            beta
            * (math.log(1.0 / (gamma - 1.0)) + math.log(1.0 / alpha) + gamma * np.log(log_stages))
            / t_arr
        )
    return float(val) if np.ndim(t) == 0 else val


def bet_cs_width_envelope(t, alpha: float, constant: float = 1.0):
    """Width envelope of the betting CS: ``constant * sqrt((log(1/alpha) + log t) / t)``."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 1):
        raise ValueError("envelope needs t >= 1")
    val = constant * np.sqrt((math.log(1.0 / alpha) + np.log(t_arr)) / t_arr)
    return float(val) if np.ndim(t) == 0 else val
