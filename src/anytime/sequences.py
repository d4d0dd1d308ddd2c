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
intersection (nested by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .binom import Counts, halve_with_guess
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

    def boundary_count(self, t: int) -> int:
        """Number of stage updates performed by time ``t``."""
        return int(self.boundaries(t).size)


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
    def counts(self) -> Counts:
        return Counts(self.heads, self.trials)

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
    The log-wealth is convex in ``p``, minimized at the sample mean, so
    each endpoint is bracketed on one side of the mean: the answer is the
    midpoint of the cell that 34 halvings of ``[0, mean]`` (lower) or
    ``[mean, 1]`` (upper) end in, bit for bit (endpoint error below
    1e-10).  :func:`~anytime.binom.halve_with_guess` reaches that cell
    from a Newton estimate of each root and checks it with two log-wealth
    evaluations; both sides run as one stacked array.  ``heads = 0`` pins
    the lower endpoint at 0, ``heads = trials`` pins the upper at 1.
    """
    heads, trials = np.broadcast_arrays(
        np.asarray(heads, dtype=float), np.asarray(trials, dtype=float)
    )
    shape = heads.shape
    heads, trials = heads.ravel(), trials.ravel()
    threshold = math.log(1.0 / alpha)
    lo, up = np.empty_like(heads), np.empty_like(heads)
    for start in range(0, heads.size, _BLOCK):  # blocks keep the temporaries small
        part = slice(start, start + _BLOCK)
        lo[part], up[part] = _betting_block(heads[part], trials[part], threshold)
    return lo.reshape(shape), up.reshape(shape)


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
    root = _kt_lower_root(cat([heads, tails]), cat([tails, heads]), log_mix2, threshold, active)
    lo_b, hi_b = halve_with_guess(
        cat([np.zeros_like(mean), mean]),
        cat([mean, np.ones_like(mean)]),
        np.where(upper, 1.0 - root, root),
        _kt_above,
        (log_mix2, cat([heads, heads]), cat([tails, tails]), threshold, upper),
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
    h, s, c = heads[act], tails[act], log_mix[act] - threshold
    safe = c / h
    with np.errstate(all="ignore"):
        t = h + s
        m = h / t
        excess = special.xlogy(h, m) + special.xlog1py(s, -m) - c  # threshold - log W(mean)
        u = np.fmax(safe, np.log(m - np.sqrt(2.0 * excess * m * (1.0 - m) / t)))
        for _ in range(_NEWTON_CAP):
            e = np.exp(u)
            step = (c - h * u - s * np.log1p(-e)) / (h - s * e / (1.0 - e))
            u = np.fmax(safe, u + step)
            if np.all(np.abs(step) <= _KT_NEWTON_TOL):
                break
    root[act] = np.exp(u)
    return root


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
    def counts(self) -> Counts:
        return Counts(self.heads, self.trials)

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
