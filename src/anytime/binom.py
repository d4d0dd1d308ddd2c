"""Numerically stable binomial and Gaussian primitives.

Every tail probability used by the intervals, confidence sequences and
certification layers funnels through this module, so precision conventions
are controlled in exactly one place.  Tail functions use the regularized
incomplete beta identity

    P(B(n, p) >= x) = I_p(x, n - x + 1),

which stays accurate (~1e-13 relative) for tails far below the 1e-9
absolute accuracy the callers need, and broadcasts over numpy arrays.
Calls whose arguments are all Python numbers (the per-stage checks of
the deciders) skip the array machinery and make one ``special.betainc``
call on floats, which gives the same value as a one-element array.

Conventions (they differ from scipy.stats.binom, mind the inequality):

* ``binom_sf(x, n, p)``  is the inclusive upper tail  P(B >= x)
* ``binom_cdf(x, n, p)`` is the inclusive lower tail  P(B <= x), computed
  as the mirrored upper tail ``binom_sf(n - x, n, 1 - p)``: the failures
  of ``B(n, p)`` are ``B(n, 1 - p)``
* counts ``x`` and ``n`` are integers (``n >= 0``, ``x`` of any sign);
  fractional, NaN or infinite counts raise ``ValueError``

The module also holds the root finders: the vectorized fixed-count
:func:`halve` that defines every confidence endpoint (``HALVINGS`` = 34
halvings), and :func:`halve_with_guess`, which reaches the same final
cell from a guess of the root and two predicate evaluations.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special


_X_ERROR = "x must be an integer"
_N_ERROR = "n must be a nonnegative integer"
_P_ERROR = "p must lie in [0, 1]"
_NUMBER = (int, float)


# The argument rules of the entry points; per-bit and per-stage hot paths
# (``BettingCS.update``, ``UnionCS.update``, ``_scalar_args``) compare inline.


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_prob(name: str, p: float) -> None:
    """A probability: ``0 <= p <= 1``; NaN fails."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


def _check_count(name: str, value, minimum: int = 1) -> None:
    """An integer (``int`` or ``np.integer``, not ``bool``) of at least ``minimum``."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _whole(a: np.ndarray) -> bool:
    """Whether every element of the float array ``a`` is a finite integer; NaN fails."""
    return bool((np.floor(a) == a).all() and np.isfinite(a).all())


def _check_x_n_p(x, n, p) -> None:
    """The tails' argument rule on arrays: integer ``x``, integer ``n >= 0``, ``p`` in [0, 1]."""
    n_arr = np.asarray(n, dtype=float)
    # ``not all(in range)`` rather than ``any(out of range)``: NaN fails too
    if not ((n_arr >= 0.0).all() and _whole(n_arr)):
        raise ValueError(_N_ERROR)
    if not _whole(np.asarray(x, dtype=float)):
        raise ValueError(_X_ERROR)
    p_arr = np.asarray(p, dtype=float)
    if not ((p_arr >= 0.0).all() and (p_arr <= 1.0).all()):
        raise ValueError(_P_ERROR)


def _scalar_args(x, n, p) -> bool:
    """Whether ``x``, ``n``, ``p`` are all Python numbers; validates them if so.

    Such calls (one tail per decision stage) take the float path of
    :func:`binom_sf`: plain comparisons and one ``special.betainc`` call,
    the same value the array path gives, without its array conversions.
    """
    if not (isinstance(x, _NUMBER) and isinstance(n, _NUMBER) and isinstance(p, _NUMBER)):
        return False
    if not (n >= 0.0 and float(n).is_integer()):
        raise ValueError(_N_ERROR)
    if not float(x).is_integer():
        raise ValueError(_X_ERROR)
    if not 0.0 <= p <= 1.0:
        raise ValueError(_P_ERROR)
    return True


def _as_result(value: np.ndarray, scalar: bool) -> float | np.ndarray:
    return float(value) if scalar else value


def log_binom_pmf(x, n, p):
    """Log of the binomial pmf, ``log P(B(n, p) = x)``.

    Parameters
    ----------
    x : int or array_like
        Number of successes, an integer.  Values outside ``[0, n]`` give
        ``-inf``.
    n : int or array_like
        Number of trials, a nonnegative integer.
    p : float or array_like
        Success probability in ``[0, 1]``.  The degenerate endpoints use
        the ``0 * log 0 = 0`` convention, so e.g. ``x = n = 5, p = 1``
        gives ``0.0`` and ``x < n, p = 1`` gives ``-inf``.

    Returns
    -------
    float or ndarray
    """
    _check_x_n_p(x, n, p)
    scalar = np.isscalar(x) and np.isscalar(n) and np.isscalar(p)
    x, n, p = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(n, dtype=float), np.asarray(p, dtype=float)
    )
    in_range = (x >= 0) & (x <= n)
    xs = np.where(in_range, x, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            special.gammaln(n + 1.0)
            - special.gammaln(xs + 1.0)
            - special.gammaln(n - xs + 1.0)
            + special.xlogy(xs, p)
            + special.xlog1py(n - xs, -p)
        )
    out = np.where(in_range, out, -np.inf)
    return _as_result(out, scalar)


def binom_sf(x, n, p):
    """Inclusive upper tail ``P(B(n, p) >= x)``.

    ``x <= 0`` returns 1 and ``x > n`` returns 0; otherwise the
    regularized incomplete beta identity ``I_p(x, n - x + 1)`` is used.
    Broadcasts over array inputs.
    """
    if _scalar_args(x, n, p):
        x, n = float(x), float(n)
        if x <= 0.0:
            return 1.0
        if x > n:
            return 0.0
        return float(special.betainc(x, n - x + 1.0, p))
    _check_x_n_p(x, n, p)
    scalar = np.isscalar(x) and np.isscalar(n) and np.isscalar(p)
    x, n, p = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(n, dtype=float), np.asarray(p, dtype=float)
    )
    interior = (x >= 1) & (x <= n)
    xs = np.where(interior, x, 1.0)
    ns = np.where(n >= 1, n, 1.0)
    out = special.betainc(xs, ns - xs + 1.0, p)
    out = np.where(x <= 0, 1.0, np.where(x > n, 0.0, out))
    return _as_result(out, scalar)


def binom_cdf(x, n, p):
    """Inclusive lower tail ``P(B(n, p) <= x)``: the upper tail of the failures.

    ``binom_sf(n - x, n, 1 - p)``, so ``x < 0`` returns 0, ``x >= n``
    returns 1, and otherwise ``I_{1-p}(n - x, x + 1)``, which keeps tiny
    lower tails accurate instead of computing ``1 - binom_sf``.
    """
    return binom_sf(n - x, n, 1.0 - p)


def gauss_quantile(u):
    """Standard normal quantile ``Phi^{-1}(u)`` for ``u`` in (0, 1).

    Absolute error is far below the 1e-9 contract (scipy's ``ndtri`` is
    accurate to machine precision); the open-interval domain is enforced.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((0.0 < u_arr) & (u_arr < 1.0)):  # NaN fails too
        raise ValueError("gauss_quantile requires 0 < u < 1")
    out = special.ndtri(u_arr)
    return float(out) if np.isscalar(u) else out


# Halvings that define every endpoint: the final cell of a bracket in
# [0, 1] is at most 2^-34 wide, below 1e-10.
HALVINGS = 34


def halve(lo, hi, above, iters: int):
    """``iters`` halvings of the brackets ``[lo, hi]``, elementwise.

    ``above(mid)`` says per element whether the sought point lies at or
    below ``mid``: the bracket keeps ``[lo, mid]`` where it holds and
    ``[mid, hi]`` elsewhere.  ``lo`` and ``hi`` are 1-d arrays (they are
    not modified) and ``above`` returns a boolean array of the same shape.
    ``above`` may instead be an array of guesses, which steers each
    halving by ``guess < mid``; batches of up to ``_FLOAT_REPLAY`` such
    elements are replayed on Python floats, whose ``0.5 * (lo + hi)`` and
    ``<`` are the same IEEE operations, so the cells are the same bits.
    Returns the final ``(lo, hi)`` arrays.
    """
    if not callable(above):
        if lo.size <= _FLOAT_REPLAY:
            return _float_replay(lo, hi, above, iters)
        above = above.__lt__
    cells = np.stack([lo, hi])  # row 0: lower ends, row 1: upper ends
    lo_row, hi_row = cells
    col = np.arange(cells.shape[1])
    for _ in range(iters):
        mid = 0.5 * (lo_row + hi_row)
        # mid replaces the upper end where ``above`` holds, the lower elsewhere
        cells[above(mid).view(np.int8), col] = mid
    return lo_row, hi_row


# Largest batch that :func:`halve` replays on Python floats: below it the
# ~4 numpy calls per halving cost more than ~34 float steps per element.
_FLOAT_REPLAY = 64


def _float_replay(lo, hi, guess, iters: int):
    lo_out, hi_out = [], []
    for a, b, g in zip(lo.tolist(), hi.tolist(), guess.tolist()):
        for _ in range(iters):
            mid = 0.5 * (a + b)
            if g < mid:
                b = mid
            else:
                a = mid
        lo_out.append(a)
        hi_out.append(b)
    return np.array(lo_out, dtype=float), np.array(hi_out, dtype=float)


def halve_with_guess(lo, hi, guess, above: Callable, params: tuple, iters: int, settled):
    """``halve(lo, hi, lambda mid: above(mid, *params), iters)``, two predicate values each.

    The halvings are replayed with the decision ``mid > guess`` in place
    of ``above(mid, *params)`` (on Python floats for small batches, see
    :func:`halve`), and the predicate is then evaluated only at the two
    ends of each final cell, in one vector call.  For a predicate that
    is monotone in ``mid`` exactly one leaf cell has ``above`` false at
    its left end and true at its right end, so a cell that passes is the
    one the plain halving ends in.  Elements that fail (a guess in the
    wrong cell) rerun the plain halving, on that subset only; elements
    flagged ``settled`` (answer fixed by the caller) are not checked.
    ``params`` are 1-d arrays aligned with ``lo``, or scalars, passed on
    to ``above``.
    """
    lo_f, hi_f = halve(lo, hi, guess, iters)
    ends = above(np.stack([lo_f, hi_f]), *params)
    failed = np.flatnonzero(~settled & (ends[0] | ~ends[1]))
    if failed.size:
        sub = tuple(a[failed] if np.ndim(a) else a for a in params)
        lo_f[failed], hi_f[failed] = halve(
            lo[failed], hi[failed], lambda mid: above(mid, *sub), iters
        )
    return lo_f, hi_f
