"""Fixed-sample confidence intervals for a Bernoulli mean.

Implements the classical (deterministic) Clopper-Pearson construction, its
randomized refinement with exact ``1 - alpha`` coverage, and the Hoeffding
interval used by the nonadaptive baseline.

The randomized upper construction, for ``x`` observed successes out of ``n``
and an external uniform draw ``w``, keeps ``p`` in the interval iff

    P(B(n, p) > x) + w * P(B(n, p) = x) > alpha.

That tail mixture equals ``w * P(B >= x) + (1 - w) * P(B >= x + 1)``, a
convex combination of two nondecreasing functions of ``p`` - so it is
provably monotone and the endpoint search by bisection always brackets.
The only non-bracketing cases are the clamped endpoints handled explicitly
below (mixture never exceeds ``alpha``: empty improvement, endpoint pinned
to the degenerate side).  The endpoint is defined as the midpoint of the
cell a fixed number of halvings ends in; it is computed by steering those
halvings with a Newton estimate of the crossing and checking the final
cell with two evaluations of the mixture, which gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np
from scipy import special

from .binom import HALVINGS, _check_alpha, _check_count, _check_prob, binom_cdf, binom_sf
from .binom import halve_with_guess, log_binom_pmf

_NEWTON_CAP = 40
_RCP_NEWTON_TOL = 1e-9  # last Newton step; the next error is ~ its square

COVERAGE_KINDS = ("cp", "rcp")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed subinterval of [0, 1] with endpoints ``lo <= up``."""

    lo: float
    up: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.up <= 1.0):
            raise ValueError(f"invalid interval [{self.lo}, {self.up}]")

    @property
    def width(self) -> float:
        return self.up - self.lo

    def contains(self, p: float) -> bool:
        return self.lo <= p <= self.up


def _check_interval_args(x: int, n: int, alpha: float, w: float = 1.0) -> None:
    _check_count("n", n)
    _check_count("x", x, minimum=0)
    if not x <= n:
        raise ValueError(f"need 0 <= x <= n with n >= 1, got x={x} n={n}")
    _check_alpha(alpha)
    _check_prob("w", w)


def upper_tail_mix(x, n, p, w):
    """``P(B(n, p) > x) + w * P(B(n, p) = x)``, nondecreasing in ``p``."""
    return w * binom_sf(x, n, p) + (1.0 - w) * binom_sf(x + 1, n, p)


def lower_tail_mix(x, n, p, w):
    """``P(B(n, p) < x) + w * P(B(n, p) = x)``: the failures' ``upper_tail_mix``."""
    return upper_tail_mix(n - x, n, 1.0 - p, w)


def rcp_upper_lo(x, n, alpha, w):
    """Lower endpoint of the randomized upper interval, vectorized.

    Returns the leftmost ``p`` with ``upper_tail_mix(x, n, p, w) > alpha``
    (the interval is ``[that point, 1]``), or the clamped endpoint when the
    mixture never crosses ``alpha``.  The answer is the midpoint of the
    cell that ``binom.HALVINGS`` = 34 halvings of ``[0, 1]`` end in, bit
    for bit, so it is within 2^-35 (below 1e-10) of the crossing;
    :func:`rcp_upper_lo_bound` bounds exactly this answer.
    :func:`~anytime.binom.halve_with_guess` reaches that cell from a
    Newton estimate of the root and checks it with two evaluations of the
    mixture.  Accepts arrays for ``x``, ``n``, ``alpha`` and ``w``; this
    same kernel backs the scalar API and the Monte Carlo harness so the
    two can never drift apart.
    """
    x, n, alpha, w = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, n, alpha, w)))
    shape = x.shape
    x, n, alpha, w = (v.ravel() for v in (x, n, alpha, w))
    # Mixture at the endpoints of [0, 1]:  F(1) = 1 unless x = n (then w),
    # F(0) = w for x = 0 and 0 otherwise.
    f_one = np.where(x >= n, w, 1.0)
    f_zero = np.where(x <= 0, w, 0.0)
    never = f_one <= alpha  # no p is ever excluded-from-below: clamp to 1
    always = f_zero > alpha  # even p = 0 is retained: endpoint 0
    settled = never | always
    guess = _rcp_root(x, n, alpha, w, settled)
    lo, hi = halve_with_guess(
        np.zeros_like(x), np.ones_like(x), guess, _rcp_above, (x, n, alpha, w), HALVINGS, settled
    )
    out = 0.5 * (lo + hi)
    out = np.where(never, 1.0, np.where(always, 0.0, out))
    return out.reshape(shape)


def rcp_upper_lo_bound(x, n, alpha, w):
    """Upper bound on :func:`rcp_upper_lo`, found without solving it.

    The mixture is at least ``P(B(n, p) > x)``, whose ``alpha``-quantile
    ``betaincinv(x + 1, n - x, alpha)`` is the CP bound for ``x + 1``
    successes, so for every ``w`` the crossing lies at or below that
    quantile.  One evaluation of the mixture checks that the halving
    predicate holds at ``q = min(1, quantile + 2^-34)``, one halving cell
    further out.  The mixture is nondecreasing, so the halvings' final
    cell then starts below ``q`` and the endpoint, its midpoint, is below
    ``q + 2^-34``.  Where the check fails, or ``x = n`` (no such tail),
    the bound is 1.  Arrays broadcast like :func:`rcp_upper_lo`'s; each
    element is checked on scalars, which take the float path of the
    binomial tails (the same values as the array path, without its
    validation cost).
    """
    cell = 2.0**-HALVINGS
    elements = np.broadcast(*(np.asarray(a, dtype=float) for a in (x, n, alpha, w)))
    out = np.ones(elements.shape)
    flat = out.reshape(-1)
    for i, (xi, ni, ai, wi) in enumerate(elements):
        if not xi < ni:
            continue
        q = float(special.betaincinv(xi + 1.0, ni - xi, ai)) + cell
        q = q if q < 1.0 else 1.0  # NaN as well, like np.fmin
        if upper_tail_mix(xi, ni, q, wi) > ai:
            flat[i] = q + cell if q + cell < 1.0 else 1.0
    return out


def _rcp_above(p, x, n, alpha, w):
    return upper_tail_mix(x, n, p, w) > alpha


def _rcp_root(x, n, alpha, w, settled):
    """Newton estimate of the crossing ``upper_tail_mix(x, n, p, w) = alpha``.

    The mixture ``F = w I_p(x, n-x+1) + (1-w) I_p(x+1, n-x)`` crosses
    between the two Clopper-Pearson quantiles where each tail alone equals
    ``alpha``.  Newton steps on ``log F``, clipped to that bracket, use
    ``dI_p(a, b)/dp = p^(a-1) (1-p)^(b-1) / B(a, b)``; both tails of all
    elements go through each ``scipy.special`` call as one ``(2, m)``
    array.  Settled elements are skipped and keep 0.
    """
    guess = np.zeros_like(x)
    act = np.flatnonzero(~settled)
    if act.size == 0:
        return guess
    x, n, alpha, w = x[act], n[act], alpha[act], w[act]
    has_lo = x >= 1  # I_p(x, n-x+1) is a real tail; x = 0 gives the constant 1
    has_up = x < n  # I_p(x+1, n-x) is a real tail; x = n gives the constant 0
    a = np.stack([np.where(has_lo, x, 1.0), np.where(has_up, x + 1.0, n)])
    b = n - a + 1.0
    c = np.stack([np.where(has_lo, w, 0.0), np.where(has_up, 1.0 - w, 0.0)])
    c0 = np.where(has_lo, 0.0, w)
    quantile = special.betaincinv(a, b, alpha)
    lo = np.where(has_lo, quantile[0], 0.0)
    hi = np.where(has_up, quantile[1], 1.0)
    log_alpha = np.log(alpha)
    p = lo + (1.0 - w) * (hi - lo)
    with np.errstate(all="ignore"):
        log_c = np.log(c) - special.betaln(a, b)  # -inf for a zero weight
        a1, b1 = a - 1.0, b - 1.0
        for _ in range(_NEWTON_CAP):
            f = c0 + (c * special.betainc(a, b, p)).sum(axis=0)
            log_df = special.xlogy(a1, p) + special.xlog1py(b1, -p) + log_c
            df = np.exp(log_df).sum(axis=0)
            step = (log_alpha - np.log(f)) * f / df
            p = np.fmin(np.fmax(p + step, lo), hi)
            if np.all(np.abs(step) <= _RCP_NEWTON_TOL):
                break
    guess[act] = p
    return guess


def rcp_upper(x: int, n: int, alpha: float, w: float) -> Interval:
    """Randomized Clopper-Pearson upper interval ``[lo, 1]``.

    Parameters
    ----------
    x, n : int
        Observed successes out of ``n`` Bernoulli trials.
    alpha : float
        Miscoverage budget in (0, 1).
    w : float
        External randomization draw in [0, 1].  ``w = 1`` recovers the
        deterministic construction; ``w -> 0`` recovers the deterministic
        interval for ``x + 1`` successes.

    Returns
    -------
    Interval
        ``[lo, 1]``, degenerate ``[1, 1]`` when the randomized test keeps
        no ``p`` excluded (empty improvement; endpoint clamped).
    """
    _check_interval_args(x, n, alpha, w)
    lo = float(rcp_upper_lo(np.asarray(x), n, alpha, w))
    return Interval(lo, 1.0)


def rcp_lower(x: int, n: int, alpha: float, w: float) -> Interval:
    """Randomized Clopper-Pearson lower interval ``[0, up]``.

    Mirror image of :func:`rcp_upper`: counting failures instead of
    successes maps the two constructions onto each other, and the
    implementation uses that symmetry directly.
    """
    _check_interval_args(x, n, alpha, w)
    up = 1.0 - float(rcp_upper_lo(np.asarray(n - x), n, alpha, w))
    return Interval(0.0, up)


def cp_upper(x: int, n: int, alpha: float) -> Interval:
    """Deterministic Clopper-Pearson upper interval (``w = 1`` case)."""
    return rcp_upper(x, n, alpha, 1.0)


def cp_lower(x: int, n: int, alpha: float) -> Interval:
    """Deterministic Clopper-Pearson lower interval (``w = 1`` case)."""
    return rcp_lower(x, n, alpha, 1.0)


def rcp_two_sided(x: int, n: int, alpha: float, w_up: float, w_lo: float) -> Interval:
    """Two-sided randomized interval: both one-sided pieces at ``alpha / 2``.

    With independent draws the two pieces can in principle cross; that event
    lives inside an already-miscovering event, so the interval collapses to
    the point at the sample mean (keeps the coverage accounting intact and
    the return type well-formed).
    """
    _check_interval_args(x, n, alpha, 1.0)
    lo = rcp_upper(x, n, alpha / 2.0, w_up).lo
    up = rcp_lower(x, n, alpha / 2.0, w_lo).up
    if lo > up:
        mean = x / n
        return Interval(mean, mean)
    return Interval(lo, up)


def hoeffding_interval(heads: int, trials: int, alpha: float) -> Interval:
    """Two-sided Hoeffding interval ``mean +/- sqrt(ln(2/alpha) / (2 t))``."""
    _check_interval_args(heads, trials, alpha)
    mean = heads / trials
    half = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))
    return Interval(max(0.0, mean - half), min(1.0, mean + half))


def hoeffding_sample_size(eps: float, gamma: float) -> int:
    """Samples for the fixed-width Hoeffding test: ``ceil(2 ln(1/gamma) / eps^2)``, at least 1."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    square = eps * eps  # underflows for eps below ~1e-154
    size = 2.0 * math.log(1.0 / gamma) / square if square > 0.0 else math.inf
    if not size < math.inf:  # NaN too: an overflowing eps with a subnormal gamma
        raise ValueError(f"the Hoeffding sample size at eps={eps}, gamma={gamma} is not finite")
    return max(1, math.ceil(size))


def enumeration_coverage(
    n: int,
    p: float,
    alpha: float,
    kind: str = "rcp",
    side: str = "upper",
) -> float:
    """Exact coverage of a Clopper-Pearson style interval under ``B(n, p)``.

    Sums, over all outcomes ``x``, the probability that the realized
    interval contains ``p``; for the randomized kind the uniform draw is
    integrated out analytically per outcome (the exclusion event given
    ``X = x`` is ``{W < threshold(x)}``), so no Monte Carlo enters.  For
    the one-sided randomized constructions the sum telescopes to exactly
    ``1 - alpha``; the two-sided variant is slightly conservative because
    independent draws can exclude on both sides at once.

    Parameters
    ----------
    n, p, alpha
        Binomial size, true mean, and miscoverage budget.
    kind : {"rcp", "cp"}
    side : {"upper", "lower", "two"}
    """
    _check_coverage_args(n, p, alpha, kind, side)
    x = np.arange(n + 1)
    pmf = np.exp(log_binom_pmf(x, n, p))
    if side == "two":
        ex_up = _exclusion_probs(n, p, alpha / 2.0, kind, "upper", pmf)
        ex_lo = _exclusion_probs(n, p, alpha / 2.0, kind, "lower", pmf)
        excl = ex_up + ex_lo - ex_up * ex_lo
    else:
        excl = _exclusion_probs(n, p, alpha, kind, side, pmf)
    return float(1.0 - np.sum(pmf * excl))


def _check_coverage_args(n: int, p: float, alpha: float, kind: str, side: str) -> None:
    """The arguments of :func:`enumeration_coverage` and :func:`~anytime.mc.mc_coverage`."""
    _check_count("n", n)
    _check_prob("p", p)
    _check_alpha(alpha)
    if kind not in COVERAGE_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if side not in ("upper", "lower", "two"):
        raise ValueError(f"unknown side {side!r}")


def _exclusion_probs(n: int, p: float, alpha: float, kind: str, side: str, pmf) -> np.ndarray:
    """P(p excluded | X = x) for x = 0..n, with the w-draw integrated out; ``pmf`` is P(X = x)."""
    x = np.arange(n + 1)
    if side == "upper":
        # excluded iff upper_tail_mix(x, n, p, W) <= alpha, i.e.
        # W <= (alpha - P(B >= x + 1)) / pmf(x)
        slack = alpha - binom_sf(x + 1, n, p)
    else:
        slack = alpha - binom_cdf(x - 1, n, p)
    if kind == "rcp":
        return np.clip(slack, 0.0, pmf) / np.where(pmf > 0.0, pmf, 1.0) + np.where(
            (pmf == 0.0) & (slack >= 0.0), 1.0, 0.0
        )
    # Deterministic construction: excluded iff the full tail falls strictly
    # below alpha (at exact equality the endpoint sits on p: still covered).
    tail = binom_sf(x, n, p) if side == "upper" else binom_cdf(x, n, p)
    return (tail < alpha).astype(float)
