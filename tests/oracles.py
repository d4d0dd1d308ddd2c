"""Slow, independent reference implementations used only by the tests.

Nothing in here imports from :mod:`anytime`.  Binomial tails are exact
rational sums via :mod:`fractions`, the Gaussian cdf comes from
``math.erf``, its quantile from bisection, and the Krichevsky-Trofimov
mixture from exact double-factorial products.  All of it is O(n) or
worse per call; the point is to pin the fast code paths against
arithmetic that cannot share their bugs.

The exceptions are the last two sections: the plain fixed-count
endpoint bisections, written with the same float expressions and
``scipy.special`` calls as the library's predicates, so the fast solvers
can be required to return the very same bits; the betting ever-exclusion
of a stream matrix as the log-wealth at every step, in the same
expressions; the exclusion edges of a fixed ``p`` as a plain bisection
of the log-wealth, in the same expressions; the union decision and the
union ever-exclusion of a stream matrix as every stage's tail pair
evaluated plainly, and the count edges as a plain bisection of the
tail; the running union and betting intervals as plain scans over the
bisections; and the multiclass betting and union certifiers as plain
scans over those bisections, so the screened running bounds and the
certified stopping can be required to give the same verdicts and
sample counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import special


# ---------------------------------------------------------------------------
# Exact binomial tails


def exact_binom_pmf(x: int, n: int, p: Fraction) -> Fraction:
    if x < 0 or x > n:
        return Fraction(0)
    return math.comb(n, x) * p**x * (1 - p) ** (n - x)


def exact_binom_sf(x: int, n: int, p: Fraction) -> Fraction:
    """P(Binomial(n, p) >= x), exactly."""
    if x <= 0:
        return Fraction(1)
    return sum((exact_binom_pmf(k, n, p) for k in range(x, n + 1)), Fraction(0))


def exact_binom_cdf(x: int, n: int, p: Fraction) -> Fraction:
    """P(Binomial(n, p) <= x), exactly."""
    if x >= n:
        return Fraction(1)
    return sum((exact_binom_pmf(k, n, p) for k in range(0, x + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# Gaussian cdf / quantile without scipy


def gauss_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gauss_quantile_by_bisection(u: float, tol: float = 1e-13) -> float:
    if not 0.0 < u < 1.0:
        raise ValueError("u must be in (0, 1)")
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gauss_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Exact KT mixture likelihood Q(h, t)
#
# Q(h, t) = prod_{i=1}^{h} (2i-1) * prod_{i=1}^{t-h} (2i-1) / (2^t * t!)
# -- the product of the (H+1/2)/(t+1) predictive probabilities in any
# order.  Exact as a Fraction; floats underflow past t ~ 800, so keep
# oracle calls to modest t.


@lru_cache(maxsize=None)
def _odd_factorial(m: int) -> int:
    """1 * 3 * 5 * ... * (2m - 1); equals 1 for m = 0."""
    out = 1
    for i in range(1, m + 1):
        out *= 2 * i - 1
    return out


def exact_kt_mixture(h: int, t: int) -> Fraction:
    if not 0 <= h <= t:
        raise ValueError("need 0 <= h <= t")
    return Fraction(_odd_factorial(h) * _odd_factorial(t - h), 2**t * math.factorial(t))


def exact_kt_log_wealth(h: int, t: int, p: Fraction) -> float:
    """log of Q(h, t) / (p^h (1-p)^(t-h)); p must be a Fraction in (0, 1)."""
    wealth = exact_kt_mixture(h, t) / (p**h * (1 - p) ** (t - h))
    return math.log(wealth)


def brute_halting_heads(t: int, p: Fraction, alpha: Fraction) -> int:
    """Minimal h with h > p*t and KT wealth >= 1/alpha; t+1 if none.

    Pure-rational comparison; no logs, no floats.
    """
    target = 1 / alpha
    for h in range(t + 1):
        if h <= p * t:
            continue
        wealth = exact_kt_mixture(h, t) / (p**h * (1 - p) ** (t - h))
        if wealth >= target:
            return h
    return t + 1


# ---------------------------------------------------------------------------
# Plain endpoint bisections (bit-exact references for the fast solvers)

ENDPOINT_ITERS = 34  # halvings of [0, 1]: final bracket below 1e-10


def _float_sf(x, n, p):
    """``P(B(n, p) >= x)`` with the float arithmetic of ``anytime.binom.binom_sf``."""
    x, n, p = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(n, dtype=float), np.asarray(p, dtype=float)
    )
    interior = (x >= 1) & (x <= n)
    xs = np.where(interior, x, 1.0)
    ns = np.where(n >= 1, n, 1.0)
    out = special.betainc(xs, ns - xs + 1.0, p)
    return np.where(x <= 0, 1.0, np.where(x > n, 0.0, out))


def bisect_rcp_upper_lo(x, n, alpha, w, iters: int = ENDPOINT_ITERS):
    """Randomized-CP lower endpoint by ``iters`` plain halvings of [0, 1]."""
    x = np.asarray(x, dtype=float)
    w = np.broadcast_to(np.asarray(w, dtype=float), x.shape).copy()
    never = np.where(x >= n, w, 1.0) <= alpha
    always = np.where(x <= 0, w, 0.0) > alpha
    lo, hi = np.zeros_like(x), np.ones_like(x)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = w * _float_sf(x, n, mid) + (1.0 - w) * _float_sf(x + 1, n, mid) > alpha
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.where(never, 1.0, np.where(always, 0.0, 0.5 * (lo + hi)))


def stepping_boundaries(growth, limit):
    """The distinct ``ceil(growth ** K)`` up to ``limit``, ``K`` stepping through every integer."""
    out, k = [], 0
    while (b := math.ceil(growth**k)) <= limit:
        if not out or b > out[-1]:
            out.append(b)
        k += 1
    return out


def union_scan(bits, schedule, rng=None):
    """Running two-sided union-bound interval after each bit, every stage solved plainly.

    At each stage boundary the successes' lower endpoint and one minus
    the failures' spend half the stage budget each, the lower endpoint
    drawing its uniform first (``w = 1`` without ``rng``); crossing
    endpoints collapse to the sample mean.  Returns an ``(n, 2)`` array.
    """
    boundaries = set(schedule.boundaries(len(bits)).tolist())
    lo, up, heads, k = 0.0, 1.0, 0, 0
    out = []
    for t, bit in enumerate(bits, start=1):
        heads += int(bit)
        if t in boundaries:
            k += 1
            half = schedule.budget(k) / 2.0
            w_lo, w_up = (1.0, 1.0) if rng is None else (rng.random(), rng.random())
            lo = max(lo, float(bisect_rcp_upper_lo(heads, t, half, w_lo)))
            up = min(up, 1.0 - float(bisect_rcp_upper_lo(t - heads, t, half, w_up)))
            if lo > up:
                lo = up = heads / t
        out.append((lo, up))
    return np.array(out)


def union_decide_scan(p, bits, alpha, cap, rng=None):
    """Union-bound decision of ``p`` on ``bits``: every doubling stage evaluated plainly.

    At each boundary ``t_k <= cap`` (1, 2, 4, ...) the heads so far give
    the successes' randomized tail ``w S(h) + (1 - w) S(h + 1)`` and the
    failures' mirror, each against half of ``alpha / (k (k + 1))``, the
    lower side first and with its uniform first (``w = 1`` without
    ``rng``).  Returns ``("less" | "greater" | "undecided", samples)``,
    and raises ``RuntimeError`` at the first boundary past the end of
    ``bits``.
    """
    boundaries = stepping_boundaries(2.0, cap)
    shape = (len(boundaries), 2)
    draws = np.ones(shape) if rng is None else rng.random(shape)
    for k, (t, (w_lo, w_up)) in enumerate(zip(boundaries, draws.tolist()), start=1):
        if t > len(bits):
            raise RuntimeError("bit stream exhausted")
        heads = int(np.sum(bits[:t]))
        per_side = alpha / (k * (k + 1)) / 2.0
        if _tail_mix(heads, t, p, w_lo) <= per_side:
            return "less", t
        if _tail_mix(t - heads, t, 1.0 - p, w_up) <= per_side:
            return "greater", t
    return "undecided", cap


def bisect_count_edge(t, p, b):
    """Smallest ``x`` with ``P(B(t, p) >= x) <= b`` by plain bisection of [0, t + 1]."""
    lo, hi = 0, t + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(_float_sf(mid, t, p)) <= b:
            hi = mid
        else:
            lo = mid
    return hi


def window_start(t, p, b):
    """First count of a union stage's window: ``x* - 1`` or ``x* - 2`` by plain bisection.

    ``x* - 1`` where ``S(x* - 2)`` and ``S(x* - 1)`` both exceed ``b`` by
    more than a relative ``2^-50`` (and ``b >= 2^-1000``), otherwise
    ``x* - 2``.
    """
    edge = bisect_count_edge(t, p, b)
    lowest = min(float(_float_sf(edge - 2, t, p)), float(_float_sf(edge - 1, t, p)))
    return edge - (1 if lowest * (1.0 - 2.0**-50) > b and b >= 2.0**-1000 else 2)


def union_ever_excluded_by_tails(bits, p, schedule, rng=None):
    """Per stream of a ``streams x horizon`` matrix: does a union stage ever exclude ``p``?

    Every stream's tail pair at every boundary of ``schedule``, each side
    against half the stage budget, in the library's expressions; each
    stage draws its streams' lower-side uniforms and then the upper-side
    ones (ones without ``rng``).  The plain evaluation that the count
    windows of the Monte Carlo kernel must reproduce.
    """
    n_streams, horizon = bits.shape
    heads = np.cumsum(bits, axis=1, dtype=np.float64)
    ever = np.zeros(n_streams, dtype=bool)
    for k, t in enumerate(schedule.boundaries(horizon).tolist(), start=1):
        per_side = schedule.budget(k) / 2.0
        w_lo, w_up = np.ones((2, n_streams)) if rng is None else rng.random((2, n_streams))
        x = heads[:, t - 1]
        ever |= _tail_mix(x, t, p, w_lo) <= per_side
        ever |= _tail_mix(t - x, t, 1.0 - p, w_up) <= per_side
    return ever


def _tail_mix(x, n, p, w):
    return w * _float_sf(x, n, p) + (1.0 - w) * _float_sf(x + 1, n, p)


def kt_log_mixture_by_gammaln(heads, trials):
    """The KT log-mixture of float counts by three ``special.gammaln`` passes."""
    return (
        special.gammaln(heads + 0.5)
        + special.gammaln(trials - heads + 0.5)
        - 2.0 * (0.5 * math.log(math.pi))
        - special.gammaln(trials + 1.0)
    )


def betting_ever_excluded_by_wealth(bits, p, alpha):
    """Per stream: does the KT log-wealth against ``p`` ever exceed ``log(1/alpha)``?

    The log-wealth at every stream and step of a ``streams x horizon``
    matrix, in the library's expressions: the plain evaluation that the
    exclusion edges of the Monte Carlo kernel must reproduce.
    """
    heads = np.cumsum(bits, axis=1, dtype=np.float64)
    trials = np.arange(1, heads.shape[1] + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_wealth = (
            kt_log_mixture_by_gammaln(heads, trials)
            - special.xlogy(heads, p)
            - special.xlog1py(trials - heads, -p)
        )
    return (log_wealth > math.log(1.0 / alpha)).any(axis=1)


def bisect_exclusion_edge(horizon, p, threshold, upper, evaluated=None):
    """Exclusion edges of a fixed ``p`` for t = 0..horizon by plain bisection.

    With ``upper``, the smallest ``h > p t`` whose log-wealth clears
    ``threshold`` (``t + 1`` if none); otherwise the largest ``h < p t``
    with it (``-1`` if none).  Each bracket runs from the mean's side of
    ``p t`` to the sentinel and is halved down to adjacent counts.  A list
    passed as ``evaluated`` gets the number of log-wealths of each halving.
    """
    t = np.arange(horizon + 1)
    inner = (np.floor(p * t) if upper else np.ceil(p * t)).astype(np.int64)
    outer = t + 1 if upper else np.full_like(t, -1)
    live = np.flatnonzero(np.abs(outer - inner) > 1)
    while live.size:
        mid = (inner[live] + outer[live]) // 2
        if evaluated is not None:
            evaluated.append(mid.size)
        h, n = mid.astype(float), t[live].astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mix = kt_log_mixture_by_gammaln(h, n)
            log_wealth = log_mix - special.xlogy(h, p) - special.xlog1py(n - h, -p)
        hit = log_wealth >= threshold
        outer[live[hit]] = mid[hit]
        inner[live[~hit]] = mid[~hit]
        live = live[np.abs(outer[live] - inner[live]) > 1]
    return outer


def bisect_betting_endpoints(heads, trials, alpha, iters: int = ENDPOINT_ITERS):
    """Betting-CS endpoints by ``iters`` plain halvings on each side of the mean."""
    heads = np.asarray(heads, dtype=float)
    trials = np.asarray(trials, dtype=float)
    threshold = math.log(1.0 / alpha)
    log_mix = kt_log_mixture_by_gammaln(heads, trials)
    mean = heads / trials
    tails = trials - heads

    def inside(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            return log_mix - special.xlogy(heads, p) - special.xlog1py(tails, -p) <= threshold

    lo_b, hi_b = np.zeros_like(mean), mean.copy()
    for _ in range(iters):
        mid = 0.5 * (lo_b + hi_b)
        keep = inside(mid)
        hi_b = np.where(keep, mid, hi_b)
        lo_b = np.where(keep, lo_b, mid)
    lo = np.where(heads >= 1, 0.5 * (lo_b + hi_b), 0.0)

    lo_b, hi_b = mean.copy(), np.ones_like(mean)
    for _ in range(iters):
        mid = 0.5 * (lo_b + hi_b)
        keep = inside(mid)
        lo_b = np.where(keep, mid, lo_b)
        hi_b = np.where(keep, hi_b, mid)
    up = np.where(heads <= trials - 1, 0.5 * (lo_b + hi_b), 1.0)
    return lo, up


# Seeds of fair-coin streams, ``default_rng(s).random(n) < 0.5``, whose
# running betting intervals cross within 300 bits: 5, 25 and 40 at alpha
# 0.5, and 1 to 5 at alpha 0.9.
BETTING_CROSSING_SEEDS = (1, 2, 3, 4, 5, 25, 40)


def betting_scan(bits, alpha):
    """Running betting-CS interval after each bit, every endpoint solved plainly.

    Each step intersects the running interval with the plain bisection's
    endpoints; crossing endpoints collapse to the sample mean, and later
    steps carry on from it.  Returns an ``(n, 2)`` array.
    """
    return betting_scan_collapses(bits, alpha)[0]


def betting_scan_collapses(bits, alpha):
    """:func:`betting_scan` and the (0-based) steps at which the interval collapsed."""
    bits = np.asarray(bits, dtype=np.int64)
    heads = np.cumsum(bits).tolist()
    inst_lo, inst_up = bisect_betting_endpoints(heads, np.arange(1, bits.size + 1), alpha)
    lo, up = 0.0, 1.0
    out, collapses = [], []
    for t, (h, i_lo, i_up) in enumerate(zip(heads, inst_lo.tolist(), inst_up.tolist()), start=1):
        lo, up = max(lo, i_lo), min(up, i_up)
        if lo > up:
            lo = up = h / t
            collapses.append(t - 1)
        out.append((lo, up))
    return np.array(out).reshape(-1, 2), collapses


# ---------------------------------------------------------------------------
# Multiclass certification as plain scans (references for the screened
# running bounds and the certified stopping)


def _guarded_radius(lo_a, up_b, sigma):
    """Radius ``(sigma/2)(Phi^-1(lo_a) - Phi^-1(up_b))`` with the library's boundary conventions."""
    lo_a = np.asarray(lo_a, dtype=float)
    up_b = np.asarray(up_b, dtype=float)
    tiny = 1e-15
    gap = special.ndtri(np.clip(lo_a, tiny, 1.0 - tiny)) - special.ndtri(
        np.clip(up_b, tiny, 1.0 - tiny)
    )
    r = 0.5 * sigma * gap
    r = np.where((lo_a >= 1.0) | (up_b <= 0.0), np.inf, r)
    return np.where((lo_a <= 0.0) | (up_b >= 1.0), -np.inf, r)


def multiclass_betting_scan(sample, n_classes, sigma, radius, alpha, lam, cap, warmup, block=4096):
    """``(verdict, samples)`` of multiclass betting certification, every step solved.

    Class A is the most frequent label of the first ``warmup`` labels
    from ``sample(k)``; the runner-up is the most frequent other class at
    each step, counted class by class with a ``cumsum`` of its indicator.
    The warmup step is scanned alone, then blocks of ``block`` labels.
    Every step's endpoints come from the plain bisection, and the running
    bounds are ``np.maximum.accumulate`` / ``np.minimum.accumulate`` of
    them.  The pessimistic pair certifies (``"greater"``), the optimistic
    pair refutes (``"less"``).
    """
    if cap <= warmup:
        sample(cap)
        return "undecided", cap
    counts = np.bincount(sample(warmup), minlength=n_classes).astype(np.int64)
    a_cls = int(np.argmax(counts))
    run = [0.0, 1.0, 0.0, 1.0]  # lo A, up A, lo B, up B

    def scan(h_a, m_b, t_arr):
        lo_a, up_a = bisect_betting_endpoints(h_a, t_arr, lam * alpha)
        lo_b, up_b = bisect_betting_endpoints(m_b, t_arr, (1.0 - lam) * alpha)
        la = np.maximum.accumulate(np.concatenate(([run[0]], lo_a)))[1:]
        ua = np.minimum.accumulate(np.concatenate(([run[1]], up_a)))[1:]
        lb = np.maximum.accumulate(np.concatenate(([run[2]], lo_b)))[1:]
        ub = np.minimum.accumulate(np.concatenate(([run[3]], up_b)))[1:]
        cert = _guarded_radius(la, ub, sigma) >= radius
        refute = _guarded_radius(ua, lb, sigma) < radius
        hit = cert | refute
        if hit.any():
            i = int(np.argmax(hit))
            return ("greater" if cert[i] else "less"), int(t_arr[i])
        run[:] = la[-1], ua[-1], lb[-1], ub[-1]
        return None

    t = warmup
    runner_up = max(int(c) for i, c in enumerate(counts) if i != a_cls)
    out = scan(counts[[a_cls]], np.array([runner_up]), np.array([t]))
    if out is not None:
        return out
    while t < cap:
        k = min(block, cap - t)
        labels = sample(k)
        m_b = np.zeros(k, dtype=np.int64)
        for c in range(n_classes):  # one class at a time: O(block) memory
            cum = counts[c] + np.cumsum(labels == c)
            if c == a_cls:
                h_a = cum
            else:
                np.maximum(m_b, cum, out=m_b)
            counts[c] = cum[-1]
        t_arr = t + np.arange(1, k + 1, dtype=np.int64)
        out = scan(h_a, m_b, t_arr)
        if out is not None:
            return out
        t += k
    return "undecided", cap


def multiclass_union_scan(
    sample, n_classes, sigma, radius, lam, cap, warmup, boundaries, budget, rng=None
):
    """``(verdict, samples)`` of multiclass union certification, every stage solved.

    ``boundaries`` are the schedule's stage boundaries up to ``cap`` and
    ``budget(k)`` the budget of the k-th (1-indexed, counted from the
    first boundary even inside the warmup).  At each boundary past the
    warmup, class A's lower bound gets ``lam * budget(k)`` and the
    runner-up complement's lower bound ``(1 - lam) * budget(k)``, with
    ``rng.random(2)`` drawing A's uniform first (``w = 1`` without
    ``rng``).  Certifies (``"greater"``) at the first stage whose running
    pair reaches ``radius``; never refutes.
    """
    if cap <= warmup:
        sample(cap)
        return "undecided", cap
    counts = np.bincount(sample(warmup), minlength=n_classes).astype(np.int64)
    a_cls = int(np.argmax(counts))
    la, ub = 0.0, 1.0
    t = warmup
    for k, t_k in enumerate(boundaries, start=1):
        t_k = int(t_k)
        if t_k <= warmup:
            continue
        counts += np.bincount(sample(t_k - t), minlength=n_classes)
        t = t_k
        b = budget(k)
        w = 1.0 if rng is None else rng.random(2)
        runner_up = max(int(c) for i, c in enumerate(counts) if i != a_cls)
        x = np.array([counts[a_cls], t - runner_up])
        lo = bisect_rcp_upper_lo(x, t, np.array([lam * b, (1.0 - lam) * b]), w)
        la = max(la, float(lo[0]))
        ub = min(ub, 1.0 - float(lo[1]))
        if float(_guarded_radius(la, ub, sigma)) >= radius:
            return "greater", t
    return "undecided", cap
