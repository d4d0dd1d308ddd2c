"""Randomized-smoothing certification on top of the sequential estimators.

A Gaussian-smoothed classifier is provably constant within l2 radius
``r(p_a, p_b) = (sigma/2)(Phi^{-1}(p_a) - Phi^{-1}(p_b))`` of an input,
where ``p_a`` lower-bounds the top class probability and ``p_b``
upper-bounds every other class.  Binary certification collapses the
rest into one superclass via ``p_b <= 1 - p_a``, so certifying radius
``r`` reduces to deciding whether ``p_a`` exceeds the threshold
``Phi(r / sigma)`` - a job for :func:`anytime.decision.decide_with_cs`
(the betting and union kinds) or for the one-sided form of the staged
ladder behind :func:`anytime.decision.staged_adaptive` (the adaptive
kind, the fixed-ladder baseline).
Multiclass certification instead runs two confidence sequences, a lower
bound for the most observed class A and an upper bound for the
*currently* second-most observed class: the runner-up by count was
observed at least as often as the true runner-up, so its bound is wider
and the estimate stays conservative.  That pays off exactly when
``p_a < 1/2``, where the binary reduction can never certify anything.

The radius formula is the only smoothing-specific ingredient; swapping
in another noise distribution means swapping ``radius_gauss_l2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .binom import _check_alpha, _check_count, _check_prob, gauss_quantile
from .decision import DEFAULT_CAP, Verdict, _staged, _union_schedule
from .decision import decide_with_cs
from .intervals import Interval, rcp_upper_lo_bound
from .sampling import _BLOCK, LabelOracle, ZeroOneSource, _CheckedLabels, as_bit_source, blocks
from .sampling import stage_heads
# betting_endpoints and rcp_upper_lo stay bound here: perfbench/selftest.py
# checks that the tracer wraps them in every module that held them
from .intervals import rcp_upper_lo  # noqa: F401
from .sequences import betting_endpoints, betting_first_pass  # noqa: F401
from .sequences import _complement_carry, union_draws, union_running, union_stages

DEFAULT_WARMUP = 100


@dataclass(frozen=True, slots=True)
class CertSpec:
    """Certification target: noise scale, radius, and failure budget.

    The driver called decides how the budget is spent: one-vs-rest
    (:func:`certify_binary`, with the betting, union or adaptive kind)
    or multiclass (:func:`certify_multiclass`, betting or union).
    ``lam`` is the fraction of ``alpha`` the multiclass driver spends on
    the top-class lower bound (the rest goes to the runner-up's upper
    bound); the one-vs-rest driver ignores it.
    """

    sigma: float
    radius: float
    alpha: float
    lam: float = 0.5

    def __post_init__(self) -> None:
        binary_threshold(self.radius, self.sigma)  # checks radius and sigma
        _check_alpha(self.alpha)
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")


class ClassOracle:
    """Synthetic base classifier: i.i.d. class labels with fixed probabilities.

    Stands in for "one forward pass under noise"; each oracle owns its
    generator so concurrent runs stay independent and reproducible.
    """

    def __init__(self, probs, rng: np.random.Generator):
        self.probs = probs = _check_class_probs(probs)
        self._cum = np.cumsum(probs)
        self._cum[-1] = 1.0  # guard the top bin against rounding
        self._rng = rng

    @property
    def n_classes(self) -> int:
        return self.probs.size

    def sample(self, k: int) -> np.ndarray:
        """Draw ``k`` class labels."""
        return np.searchsorted(self._cum, self._rng.random(k), side="right").astype(np.int64)


def _check_class_probs(probs) -> np.ndarray:
    """Class probabilities as a float array: nonempty, 1-d, each in [0, 1], summing to 1."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("probs must be a nonempty 1-d array")
    valid = (probs >= 0.0) & (probs <= 1.0)  # NaN fails too
    if not valid.all():
        _check_prob("probs entry", float(probs[~valid][0]))
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ValueError(f"probs must sum to 1 (got {probs.sum()!r})")
    return probs


def _check_target(target_class: int, n_classes: int) -> None:
    """A class index of an oracle with ``n_classes`` classes."""
    _check_count("target_class", target_class, minimum=0)
    if not target_class < n_classes:
        raise ValueError(f"target_class {target_class} out of range")


def _checked_labels(oracle) -> LabelOracle:
    """``oracle``, with each block checked unless it is a :class:`ClassOracle`."""
    return oracle if isinstance(oracle, ClassOracle) else _CheckedLabels(oracle)


class _IndicatorSource(ZeroOneSource):
    """Bit stream "the oracle emitted the target class"."""

    def __init__(self, oracle: LabelOracle, target: int):
        self._oracle = oracle
        self._target = target

    def take(self, k: int) -> np.ndarray:
        return (self._oracle.sample(k) == self._target).view(np.uint8)


# ---------------------------------------------------------------------------
# Radius geometry


def _check_sigma(sigma: float) -> None:
    """A noise scale: ``0 < sigma < inf``; NaN fails."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def radius_gauss_l2(p_a: float, p_b: float, sigma: float) -> float:
    """Certified l2 radius ``(sigma/2)(Phi^{-1}(p_a) - Phi^{-1}(p_b))``.

    Negative when ``p_a < p_b``; callers clamp for reporting.  Both
    probabilities must be interior - the degenerate endpoints have
    infinite quantiles and are handled by the callers' guards.
    """
    _check_sigma(sigma)
    if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
        raise ValueError("radius_gauss_l2 needs interior probabilities")
    return 0.5 * sigma * (gauss_quantile(p_a) - gauss_quantile(p_b))


def binary_threshold(radius: float, sigma: float) -> float:
    """The ``p*`` with ``radius_gauss_l2(p*, 1-p*, sigma) == radius``: ``Phi(radius/sigma)``."""
    if not radius >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    _check_sigma(sigma)
    return float(special.ndtr(radius / sigma))


def _guarded_radius(lo_a, up_b, sigma: float):
    """Vectorized radius with boundary conventions for CS endpoints.

    ``lo_a = 0`` or ``up_b = 1`` carries no certification evidence:
    radius ``-inf``.  ``lo_a = 1`` or ``up_b = 0`` is infinitely strong:
    ``+inf``.  The uninformative branch wins when both apply.  Two floats
    (the running bounds the drivers test at every stage) take a float
    path with the same clip and quantile, so the same value.
    """
    # the clip keeps both inside gauss_quantile's domain; ndtri (the same
    # quantile) skips its domain checks, which cost more than the quantile
    tiny = 1e-15
    if isinstance(lo_a, float) and isinstance(up_b, float):
        if lo_a <= 0.0 or up_b >= 1.0:
            return -math.inf
        if lo_a >= 1.0 or up_b <= 0.0:
            return math.inf
        gap = special.ndtri(min(max(lo_a, tiny), 1.0 - tiny)) - special.ndtri(
            min(max(up_b, tiny), 1.0 - tiny)
        )
        return 0.5 * sigma * gap
    lo_a = np.asarray(lo_a, dtype=float)
    up_b = np.asarray(up_b, dtype=float)
    gap = special.ndtri(np.clip(lo_a, tiny, 1.0 - tiny)) - special.ndtri(
        np.clip(up_b, tiny, 1.0 - tiny)
    )
    r = 0.5 * sigma * gap
    r = np.where((lo_a >= 1.0) | (up_b <= 0.0), np.inf, r)
    return np.where((lo_a <= 0.0) | (up_b >= 1.0), -np.inf, r)


# ---------------------------------------------------------------------------
# Certification drivers

_CERT_FLIP = {
    Verdict.LESS: Verdict.GREATER,  # threshold below the mean -> certified
    Verdict.GREATER: Verdict.LESS,
    Verdict.UNDECIDED: Verdict.UNDECIDED,
    Verdict.ABSTAIN: Verdict.ABSTAIN,
}


def certify_binary(
    oracle: LabelOracle,
    target_class: int,
    spec: CertSpec,
    cs_kind: str = "betting",
    cap: int = DEFAULT_CAP,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Verdict, int]:
    """One-vs-rest certification of ``target_class`` at ``spec.radius``.

    Greater = certified at the radius; Less = not certifiable this way
    (in particular whenever the class probability is below 1/2);
    Undecided at the cap.  The betting and union kinds run
    :func:`~anytime.decision.decide_with_cs` on the class indicator at
    the threshold ``Phi(radius / sigma)``; the union kind runs the
    doubling schedule at ``spec.alpha``, and
    :class:`~anytime.sequences.UnionCS` and the :mod:`anytime.mc` kernels
    take any :class:`~anytime.sequences.Schedule`.  The adaptive kind is
    the fixed-ladder baseline: the ``DEFAULT_STAGES`` ladder of
    :func:`~anytime.decision.staged_adaptive`, one-sided at
    ``spec.alpha / s`` per stage, so it certifies or, after the full
    ladder, abstains, and never declares Less.  Its stages past ``cap``
    are dropped and a cut ladder ends Undecided at ``cap``.  ``rng``
    feeds the union kind's randomized CP draws only.  A ``target_class``
    the oracle lacks raises before any sample is drawn.
    """
    oracle = _checked_labels(oracle)
    _check_target(target_class, oracle.n_classes)
    p_star = binary_threshold(spec.radius, spec.sigma)
    source = _IndicatorSource(oracle, target_class)
    if cs_kind == "adaptive":
        verdict, used = _staged(p_star, source, spec.alpha, cap, 1)
    else:
        verdict, used = decide_with_cs(cs_kind, p_star, source, spec.alpha, cap, rng=rng)
    return _CERT_FLIP[verdict], used


def certify_multiclass(
    oracle: LabelOracle,
    spec: CertSpec,
    cs_kind: str = "betting",
    cap: int = DEFAULT_CAP,
    rng: Optional[np.random.Generator] = None,
    warmup: int = DEFAULT_WARMUP,
) -> tuple[Verdict, int]:
    """Two-stream certification: lower-bound class A, upper-bound the runner-up.

    A is frozen as the most observed class after ``warmup`` samples
    (which count toward both streams).  The A stream gets budget
    ``lam * alpha`` for its lower bound; the runner-up-by-count stream
    gets ``(1 - lam) * alpha`` for its upper bound, conservatively valid
    for the true runner-up because its count dominates.  Certifies
    (Greater) when the pessimistic radius reaches ``spec.radius``;
    declares non-certifiable (Less) when even the optimistic radius -
    top-class upper bound against runner-up lower bound - falls short,
    which requires two-sided streams and so never happens with the
    one-sided union updates.  The union kind runs the doubling schedule
    at ``spec.alpha``, with stages counted from ``t = 1``: those inside
    the warmup are skipped with their budgets.
    :class:`~anytime.sequences.UnionCS` and the :mod:`anytime.mc` kernels
    take any :class:`~anytime.sequences.Schedule`.
    """
    oracle = _checked_labels(oracle)
    if oracle.n_classes < 2:
        raise ValueError("multiclass certification needs >= 2 classes")
    sched = _union_schedule(cs_kind, spec.alpha)
    _check_count("warmup", warmup)
    _check_count("cap", cap)
    if cap <= warmup:
        oracle.sample(cap)
        return Verdict.UNDECIDED, cap

    counts = np.bincount(oracle.sample(warmup), minlength=oracle.n_classes).astype(np.int64)
    a_cls = int(np.argmax(counts))
    if sched is None:
        return _multiclass_betting(oracle, spec, cap, counts, a_cls, warmup)
    return _multiclass_union(oracle, spec, cap, counts, a_cls, warmup, sched, rng)


def _verdicts(lo, up, spec):
    """Certify and refute tests on running bounds (row 0 class A, row 1 the runner-up).

    The pessimistic pair (lo A, up B) certifies, the optimistic pair
    (up A, lo B) refutes.  Both tests are monotone in the bounds, so
    bounds that are looser outward (lower ones lower, upper ones higher)
    pass a test only where the exact bounds pass it too.
    """
    cert = _guarded_radius(lo[0], up[1], spec.sigma) >= spec.radius
    refute = _guarded_radius(up[0], lo[1], spec.sigma) < spec.radius
    return cert, refute


def _multiclass_betting(oracle, spec, cap, counts, a_cls, warmup):
    # row 0 bounds class A with budget lam * alpha, row 1 the runner-up
    # with (1 - lam) * alpha.  Running bounds only tighten, so once a test
    # passes it keeps passing: betting_first_pass builds each block's shared
    # terms once, from these integer counts (the log-mixture reads its
    # tables), and solves exact bounds at a few columns only.  Blocks hold
    # class labels, not bits, so they are flat ones of the bit readers'
    # largest size, ``_BLOCK``.
    alpha = np.array([spec.lam * spec.alpha, (1.0 - spec.lam) * spec.alpha])
    run = np.zeros(2), np.ones(2)
    label_type = np.min_scalar_type(oracle.n_classes - 1)

    def passes(lo, up):
        cert, refute = _verdicts(lo, up, spec)
        return cert | refute

    runner_up = np.delete(counts, a_cls).max()
    pending = np.array([[counts[a_cls]], [runner_up]])  # the warmup step rides in the first block
    t = warmup
    while t < cap:
        k = min(_BLOCK - pending.shape[1], cap - t)
        block = _class_heads(oracle.sample(k), counts, a_cls, runner_up, label_type)
        heads = np.hstack([pending, block])
        t_arr = np.arange(t + 1 - pending.shape[1], t + k + 1)
        pending, runner_up, t = pending[:, :0], heads[1, -1], t + k
        col, *run = betting_first_pass(heads, t_arr, alpha, *run, passes)
        if col is not None:
            cert, _ = _verdicts(*run, spec)
            return (Verdict.GREATER if cert else Verdict.LESS), int(t_arr[col])
    return Verdict.UNDECIDED, cap


def _class_heads(labels, counts, a_cls, runner_up, label_type):
    """Class A's count and the runner-up's after each label of a block, in O(block + classes).

    ``counts`` holds every class's count before the block and is advanced
    past it in place; ``runner_up`` is the largest count of another class
    before the block.  A label's class count right after it is its count
    before the block plus its rank among the block's labels of its class,
    plus one; the runner-up's count is the running max of these over the
    labels other than A.  One stable sort of the labels, in the smallest
    unsigned type that holds them (numpy radix-sorts those up to 16 bits),
    gives the ranks.
    """
    per_class = np.bincount(labels, minlength=counts.size)
    order = np.argsort(labels.astype(label_type), kind="stable")
    first = np.cumsum(per_class) - per_class  # where each class starts in ``order``
    rank = np.empty_like(labels)
    rank[order] = np.arange(labels.size) - np.repeat(first, per_class)
    is_a = labels == a_cls
    heads_a = counts[a_cls] + np.cumsum(is_a)
    own = counts[labels] + rank + 1
    own[is_a] = 0
    own[0] = max(own[0], runner_up)
    counts += per_class
    return np.stack([heads_a, np.maximum.accumulate(own)])


def _multiclass_union(oracle, spec, cap, counts, a_cls, warmup, sched, rng):
    # one-sided updates: the whole per-stage share goes to the single
    # bound each stream needs, so the refute branch can never fire.  Row 0
    # bounds A from below, row 1 the runner-up's complement; A draws first.
    #
    # rcp_upper_lo_bound bounds each endpoint from above, so the running
    # bounds reach at most (la_opt, ub_opt).  While that optimistic pair
    # cannot certify, the stage's endpoints wait; at the first stage that
    # could, one union_running call solves the waiting endpoints that can
    # still move (la, ub).  Waiting stages could not certify, so only the
    # current stage is tested.
    la, ub = 0.0, 1.0
    la_opt, ub_opt = la, ub
    waiting = []  # per stage: t, x, budget, draw, bound (one column each)
    others = np.arange(oracle.n_classes) != a_cls
    t = warmup
    for k_idx, t_k in enumerate(sched.boundaries(cap).tolist(), start=1):
        if t_k <= warmup:  # budget stays indexed by the global stage count
            continue
        counts += np.bincount(oracle.sample(t_k - t), minlength=oracle.n_classes)
        t = t_k
        budget = sched.budget(k_idx)
        w = union_draws(rng, 1)[0]
        x = np.array([counts[a_cls], t - counts[others].max()])
        alpha = np.array([spec.lam * budget, (1.0 - spec.lam) * budget])
        bound = rcp_upper_lo_bound(x, t, alpha, w)
        waiting.append((t, x, alpha, w, bound))
        la_opt, ub_opt = max(la_opt, float(bound[0])), min(ub_opt, 1.0 - float(bound[1]))
        if float(_guarded_radius(la_opt, ub_opt, spec.sigma)) < spec.radius:
            continue
        n, x, alpha, w, bound = (np.array(col).T for col in zip(*waiting))
        waiting.clear()
        run = union_running(
            x, t if n.size == 1 else n, alpha, w, bound, [la, _complement_carry(ub)]
        )
        la, ub = float(run[0, -1]), min(ub, 1.0 - float(run[1, -1]))
        la_opt, ub_opt = la, ub
        if float(_guarded_radius(la, ub, spec.sigma)) >= spec.radius:
            return Verdict.GREATER, t
    return Verdict.UNDECIDED, cap


# ---------------------------------------------------------------------------
# Width-target estimation task


def width_target_run(
    stream,
    eps: float,
    alpha: float,
    cs_kind: str = "betting",
    cap: int = DEFAULT_CAP,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Interval, int]:
    """Run a confidence sequence until its running width drops below ``eps``.

    The width is checked after each update, so the run always consumes
    at least one sample (``eps >= 1`` terminates right there: any single
    update leaves width strictly below 1).  Returns the stateful class's
    running interval and the sample count at termination - width < ``eps``
    whenever that is before ``cap``.  The union kind runs the doubling
    schedule at ``alpha``; :class:`~anytime.sequences.UnionCS` and the
    :mod:`anytime.mc` kernels take any :class:`~anytime.sequences.Schedule`.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_alpha(alpha)
    sched = _union_schedule(cs_kind, alpha)
    _check_count("cap", cap)
    source = as_bit_source(stream)
    if sched is None:
        return _width_target_betting(source, eps, alpha, cap)
    return _width_target_union(source, eps, cap, sched, rng)


def _width_target_betting(source, eps, alpha, cap):
    lo_run, up_run = 0.0, 1.0
    heads, t = 0, 0
    # read toward ``cap`` alone, so in 4,096-bit blocks from the first: a
    # betting_first_pass call costs far more than the columns it adds
    for bits in blocks(source, cap, (cap,)):
        h = heads + np.cumsum(bits, dtype=np.int64)
        t_arr = t + np.arange(1, bits.size + 1, dtype=np.int64)
        col, lo, up = betting_first_pass(
            h[None, :], t_arr, alpha, lo_run, up_run, lambda lo, up: (up - lo < eps)[0]
        )
        if col is not None:
            lo, up = float(lo[0]), float(up[0])
            if lo > up:  # the crossing collapses BettingCS to the sample mean
                lo = up = int(h[col]) / int(t_arr[col])
            return Interval(lo, up), int(t_arr[col])
        lo_run, up_run = float(lo[0]), float(up[0])
        heads, t = int(h[-1]), int(t_arr[-1])
    return Interval(lo_run, up_run), cap


def _width_target_union(source, eps, cap, sched, rng):
    lo_run, up_run = 0.0, 1.0
    bounds = sched.boundaries(cap).tolist()
    for k_idx, (t, heads) in enumerate(zip(bounds, stage_heads(source, bounds)), start=1):
        w = union_draws(rng, 1)
        lo, up = union_stages([heads], [t], [sched.budget(k_idx)], w, lo_run, up_run)
        lo_run, up_run = float(lo[0]), float(up[0])
        if up_run - lo_run < eps:
            return Interval(lo_run, up_run), t
    return Interval(lo_run, up_run), cap
