"""The fast endpoint solvers return the plain bisection's bits.

``rcp_upper_lo`` and ``betting_endpoints`` reach the final cell of a
fixed 34-halving bisection from a Newton guess, check it with two
predicate evaluations and rerun the plain halving where the check fails.
Every test here compares with ``==`` against the plain bisections in
``oracles.py``: the fast path may not move an endpoint by a single ulp.
The last class checks the certified bounds that let callers skip the
solvers: the betting screen's ``_certified`` and ``rcp_upper_lo_bound``
must lie on the outer side of the endpoints they bound.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from scipy import special
from hypothesis import example, given
from hypothesis import strategies as st

import anytime.binom
import anytime.intervals
import anytime.sequences
from anytime.intervals import rcp_upper_lo, rcp_upper_lo_bound, upper_tail_mix
from anytime.sampling import substream
from anytime.sequences import (
    BettingCS,
    _certified,
    _kt_log_mixture,
    _thresholds,
    betting_endpoints,
    kt_log_mixture,
)

from oracles import betting_scan, bisect_betting_endpoints, bisect_rcp_upper_lo

SIZES = st.one_of(st.integers(1, 60), st.integers(1, 10**9), st.sampled_from([10**9]))
ALPHAS = st.one_of(
    st.sampled_from([1e-12, 1e-9, 1e-6, 0.001, 0.05, 0.5, 0.999]),
    st.floats(1e-12, 0.999),
)
DRAWS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def counts(draw, size=SIZES):
    """``(x, n)`` with the boundary counts 0 and n drawn often."""
    n = draw(size)
    x = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    return x, n


def certified_bounds(heads, trials, alpha):
    """``_certified`` on the shared terms that the betting screen builds from these counts."""
    heads, trials, alpha = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (heads, trials, alpha))
    )
    threshold = _thresholds(alpha.ravel()).reshape(alpha.shape)
    log_mix = np.asarray(_kt_log_mixture(heads, trials))
    with np.errstate(all="ignore"):
        return _certified(heads, trials - heads, heads / trials, log_mix, threshold)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


class CountHalvings:
    """Records the size of every ``halve`` call (the replay, then the fallback).

    ``plain`` holds the sizes of the plain halvings alone (a predicate,
    not guesses, steers them).
    """

    def __init__(self, monkeypatch):
        self.sizes = []
        self.plain = []
        real = anytime.binom.halve

        def spy(lo, hi, above, iters):
            self.sizes.append(np.size(lo))
            if callable(above):
                self.plain.append(np.size(lo))
            return real(lo, hi, above, iters)

        monkeypatch.setattr(anytime.binom, "halve", spy)


class TestRcpUpperLo:
    @given(counts(), ALPHAS, DRAWS)
    def test_scalar(self, xn, alpha, w):
        x, n = xn
        assert_same_bits(
            rcp_upper_lo(np.asarray(x), n, alpha, w), bisect_rcp_upper_lo(np.asarray(x), n, alpha, w)
        )

    @given(st.data(), SIZES, ALPHAS)
    def test_vector(self, data, n, alpha):
        k = data.draw(st.integers(1, 12))
        x = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0, n]), st.integers(0, n)),
                                        min_size=k, max_size=k)))
        w = np.array(data.draw(st.lists(DRAWS, min_size=k, max_size=k)))
        assert_same_bits(rcp_upper_lo(x, n, alpha, w), bisect_rcp_upper_lo(x, n, alpha, w))

    def test_every_count_and_extreme_draws(self):
        x = np.arange(41)
        for alpha in (1e-12, 0.01, 0.7):
            for w in (0.0, alpha, 1.0, np.linspace(0.0, 1.0, 41)):
                assert_same_bits(rcp_upper_lo(x, 40, alpha, w), bisect_rcp_upper_lo(x, 40, alpha, w))

    def test_bad_guess_takes_the_fallback(self, monkeypatch):
        x = np.arange(0, 200, 7)
        w = np.linspace(0.05, 0.95, x.size)
        want = bisect_rcp_upper_lo(x, 200, 1e-4, w)
        real = anytime.intervals._rcp_root
        # three cells off: every element fails the cell check but x = 0,
        # whose endpoint is settled at 0 (w > alpha) and is not checked
        monkeypatch.setattr(
            anytime.intervals, "_rcp_root", lambda *a: real(*a) + 3.0 * 2.0**-34
        )
        halvings = CountHalvings(monkeypatch)
        assert_same_bits(rcp_upper_lo(x, 200, 1e-4, w), want)
        # the replay of every element, then the fallback of all but x = 0
        assert halvings.sizes == [x.size, x.size - 1]
        assert halvings.plain == [x.size - 1]


class TestBettingEndpoints:
    @given(counts(), ALPHAS)
    def test_scalar(self, ht, alpha):
        h, t = ht
        got = betting_endpoints(np.asarray(h), np.asarray(t), alpha)
        want = bisect_betting_endpoints(np.asarray(h), np.asarray(t), alpha)
        for g, r in zip(got, want):
            assert_same_bits(g, r)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, -0.5, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        # the scalar path, and the array path's thresholds, which the running kernels share
        for a in (alpha, np.array([0.05, alpha])):
            with pytest.raises(ValueError, match="alpha"):
                betting_endpoints(3, 10, a)

    @pytest.mark.parametrize(
        "heads, trials", [(12, 10), (0, 0), (3, 0.5), (-1, 10), (math.nan, 10), (3, math.nan)]
    )
    def test_rejects_impossible_counts(self, heads, trials):
        with pytest.raises(ValueError, match="heads"):
            betting_endpoints(heads, trials, 0.05)  # one count: the per-bit path
        with pytest.raises(ValueError, match="heads"):
            betting_endpoints(np.array([3, heads]), np.array([10, trials]), 0.05)
        with pytest.raises(ValueError, match="heads"):
            betting_endpoints(heads, trials, np.array([0.05]))

    @given(st.data(), SIZES, ALPHAS)
    def test_vector(self, data, t, alpha):
        k = data.draw(st.integers(1, 12))
        h = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0, t]), st.integers(0, t)),
                                        min_size=k, max_size=k)))
        for g, r in zip(betting_endpoints(h, t, alpha), bisect_betting_endpoints(h, t, alpha)):
            assert_same_bits(g, r)

    @given(st.data(), SIZES)
    def test_alpha_array(self, data, t):
        # one threshold per element, each the scalar call's math.log(1 / alpha)
        k = data.draw(st.integers(1, 12))
        h = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0, t]), st.integers(0, t)),
                                        min_size=k, max_size=k)))
        alpha = np.array(data.draw(st.lists(ALPHAS, min_size=k, max_size=k)))
        got = betting_endpoints(h, t, alpha)
        for i in range(k):
            want = betting_endpoints(np.asarray(h[i]), np.asarray(t), float(alpha[i]))
            for g, r in zip(got, want):
                assert_same_bits(g[i], r)

    def test_stream_matrix_and_long_vector(self):
        rng = np.random.default_rng(7)
        bits = rng.random((3, 6000)) < np.array([[0.01], [0.5], [0.97]])
        heads = np.cumsum(bits, axis=1, dtype=np.float64)
        trials = np.arange(1, 6001, dtype=np.float64)
        # 18,000 elements: more than one solver block
        for g, r in zip(betting_endpoints(heads, trials, 1e-3),
                        bisect_betting_endpoints(heads, trials, 1e-3)):
            assert_same_bits(g, r)

    def test_natural_fallback(self, monkeypatch):
        # the lower endpoint at 3 heads in 3 is 1/4, a cell edge, and the
        # Newton guess lands in the cell right of it where the rounded
        # predicate puts the answer in the cell to the left; the check
        # catches it and the plain halving of that one endpoint gives the
        # answer
        halvings = CountHalvings(monkeypatch)
        got = betting_endpoints(np.asarray(3), np.asarray(3), 0.05)
        assert halvings.sizes == [2, 1] and halvings.plain == [1]
        for g, r in zip(got, bisect_betting_endpoints(np.asarray(3), np.asarray(3), 0.05)):
            assert_same_bits(g, r)

    @pytest.mark.parametrize("case, fallbacks", [("random", 148), ("stream", 4)])
    def test_rare_plain_halving(self, monkeypatch, case, fallbacks):
        # guesses near a cell edge can land one cell off through rounding,
        # and those endpoints rerun the plain halving: 148 of the 400,000
        # endpoints of random counts up to 2^24 trials, 4 of the 65,536 of
        # a p = 0.4 stream.  All of them are the plain bisection's bits.
        if case == "random":
            rng = np.random.default_rng(2024)
            t = rng.integers(1, 2**24, 200_000).astype(float)
            h = np.floor(rng.random(t.size) * (t + 1))
        else:
            bits = np.random.default_rng(7).random(32_768) < 0.4
            h = np.cumsum(bits).astype(float)
            t = np.arange(1.0, bits.size + 1.0)
        halvings = CountHalvings(monkeypatch)
        got = betting_endpoints(h, t, 0.001)
        assert sum(halvings.plain) == fallbacks
        for g, r in zip(got, bisect_betting_endpoints(h, t, 0.001)):
            assert_same_bits(g, r)

    def test_bad_guess_takes_the_fallback(self, monkeypatch):
        h = np.arange(0, 301, 10)
        want = bisect_betting_endpoints(h, 300, 0.01)
        real = anytime.sequences._kt_lower_root
        monkeypatch.setattr(
            anytime.sequences, "_kt_lower_root", lambda *a: real(*a) * (1.0 + 1e-6)
        )
        halvings = CountHalvings(monkeypatch)
        for g, r in zip(betting_endpoints(h, 300, 0.01), want):
            assert_same_bits(g, r)
        assert halvings.sizes[0] == 2 * h.size and len(halvings.sizes) == 2


FLOAT_NEWTON = anytime.sequences._FLOAT_NEWTON
EDGES = np.array([0, 1, 10**9 - 1, 10**9])


@st.composite
def small_batches(draw):
    """1 to ``_FLOAT_NEWTON + 1`` counts ``(heads, trials)``, with heads 0, 1, t - 1 and t often.

    The solver stacks both sides of each count, so the Newton batch holds
    two elements per count: the draws fall on both sides of the float path.
    """
    k = draw(st.integers(1, FLOAT_NEWTON + 1))
    pairs = []
    for _ in range(k):
        t = draw(SIZES)
        pairs.append((draw(st.one_of(st.sampled_from([0, 1, t - 1, t]), st.integers(0, t))), t))
    return tuple(np.array(v) for v in zip(*pairs))


# at t = 1e9 the four edge counts alone (8 Newton elements, floats) and
# repeated past the cutoff (array loop), at both extremes of alpha
SMALL_BATCH_EXAMPLES = [
    example(batch=(h, np.full(h.size, 10**9)), alpha=alpha)
    for h in (EDGES, np.resize(EDGES, FLOAT_NEWTON + 1))
    for alpha in (1e-12, 0.999)
]


def with_examples(test):
    for ex in SMALL_BATCH_EXAMPLES:
        test = ex(test)
    return test


class TestSmallBatches:
    """Batches of up to ``_FLOAT_NEWTON`` Newton elements take the guess on Python floats."""

    @with_examples
    @given(batch=small_batches(), alpha=ALPHAS)
    def test_same_bits_as_the_plain_bisection(self, batch, alpha):
        heads, trials = batch
        got = betting_endpoints(heads, trials, alpha)
        for g, r in zip(got, bisect_betting_endpoints(heads, trials, alpha)):
            assert_same_bits(g, r)

    @with_examples
    @given(batch=small_batches(), alpha=ALPHAS)
    def test_float_guess_matches_the_array_loop(self, batch, alpha):
        heads, trials = (np.asarray(v, dtype=float) for v in batch)
        tails = trials - heads
        log_mix = kt_log_mixture(heads, trials)
        # the lower and upper problems, stacked as betting_endpoints does
        h, s = np.concatenate([heads, tails]), np.concatenate([tails, heads])
        log_mix, active = np.concatenate([log_mix, log_mix]), np.concatenate([heads, tails]) >= 1
        threshold = math.log(1.0 / alpha)
        roots = []
        for cutoff in (0, h.size):  # the array loop, then the float path
            with mock.patch.object(anytime.sequences, "_FLOAT_NEWTON", cutoff):
                roots.append(anytime.sequences._kt_lower_root(h, s, log_mix, threshold, active))
        array, floats = roots
        assert (array[~active] == 0.0).all() and (floats[~active] == 0.0).all()
        # Both solve the rounded equation log_mix - h u - s log1p(-e^u) = threshold
        # for u = log p, with exp and log1p that may differ in the last bit:
        # the roots may differ by a few ulps of its terms over its slope.
        r, h, s = array[active], h[active], s[active]
        u = np.log(r)
        terms = np.abs(log_mix[active] - threshold) + np.abs(h * u) + np.abs(s * np.log1p(-r))
        with np.errstate(divide="ignore"):
            rounding = 4.0 * 2.0**-52 * terms / np.abs(h - s * r / (1.0 - r))
        assert (np.abs(floats[active] - r) <= (1e-12 + rounding) * r).all()

    @pytest.mark.parametrize("p", [0.3, 0.02])
    def test_no_plain_halving_bit_by_bit(self, monkeypatch, p):
        # the online benchmark's stream (2,000 bits, p = 0.3, alpha 0.05) and
        # a skewed one fed to BettingCS: every per-bit float guess steers its
        # solve into the right cell, and the intervals are the plain scan's
        bits = (substream(42, "online", "bits").random(2000) < p).astype(np.int64)
        halvings = CountHalvings(monkeypatch)
        cs = BettingCS(0.05)
        got = np.array([(iv.lo, iv.up) for iv in map(cs.update, bits.tolist())])
        assert halvings.plain == []
        assert got.tobytes() == betting_scan(bits, 0.05).tobytes()


@pytest.mark.parametrize("alpha", [1e-12, 0.05])
def test_pinned_ends(alpha):
    t = np.array([1.0, 5.0, 1e9])
    lo, up = betting_endpoints(np.zeros(3), t, alpha)
    assert np.all(lo == 0.0) and np.all(up < 1.0)
    lo, up = betting_endpoints(t, t, alpha)
    assert np.all(up == 1.0) and np.all(lo > 0.0)
    # x = n with w <= alpha: never excluded from below (clamped to 1);
    # x = 0 with w > alpha: even p = 0 is kept
    assert rcp_upper_lo(np.asarray(10), 10, alpha, alpha) == 1.0
    assert rcp_upper_lo(np.asarray(0), 10, alpha, min(1.0, 2 * alpha)) == 0.0


class TestCertifiedBounds:
    """Bounds computed without solving: never on the inner side of the endpoint."""

    @given(counts(), ALPHAS)
    def test_certified_bounds_bracket_the_endpoints(self, ht, alpha):
        h, t = ht
        lo, up = betting_endpoints(np.asarray(h), t, alpha)
        bound_lo, bound_up = certified_bounds(h, t, alpha)
        assert bound_lo <= lo and bound_up >= up, (bound_lo, lo, bound_up, up)

    @given(st.data(), SIZES)
    def test_certified_bounds_vector(self, data, t):
        k = data.draw(st.integers(1, 12))
        h = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0, t]), st.integers(0, t)),
                                        min_size=k, max_size=k)))
        alpha = np.array(data.draw(st.lists(ALPHAS, min_size=k, max_size=k)))
        lo, up = betting_endpoints(h, t, alpha)
        bound_lo, bound_up = certified_bounds(h, t, alpha)
        assert np.all(bound_lo <= lo) and np.all(bound_up >= up)

    def test_certified_bounds_are_tight_off_the_edges(self):
        # the bounds are one backed-off Newton point away from the root, far
        # closer than the steps between endpoints they are meant to screen
        t = np.array([100.0, 1e4, 1e6, 1e9])
        lo, up = betting_endpoints(np.floor(0.5 * t), t, 0.001)
        bound_lo, bound_up = certified_bounds(np.floor(0.5 * t), t, 0.001)
        assert np.all(lo - bound_lo <= 1e-3 * lo) and np.all(bound_up - up <= 1e-3 * (1.0 - up))

    @given(counts(), ALPHAS, DRAWS)
    def test_rcp_bound_is_above_the_endpoint(self, xn, alpha, w):
        x, n = xn
        lo = rcp_upper_lo(np.asarray(x), n, alpha, w)
        assert rcp_upper_lo_bound(x, n, alpha, w) >= lo

    @given(st.data(), SIZES, ALPHAS)
    def test_rcp_bound_vector(self, data, n, alpha):
        k = data.draw(st.integers(1, 12))
        x = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0, n]), st.integers(0, n)),
                                        min_size=k, max_size=k)))
        w = np.array(data.draw(st.lists(DRAWS, min_size=k, max_size=k)))
        assert np.all(rcp_upper_lo_bound(x, n, alpha, w) >= rcp_upper_lo(x, n, alpha, w))

    @staticmethod
    def rcp_bound_on_arrays(x, n, alpha, w):
        """The bound's expression on whole arrays (the tails' array path)."""
        x, n, a, w = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, n, alpha, w)))
        has_tail = x < n
        q = np.where(has_tail, special.betaincinv(x + 1.0, np.where(has_tail, n - x, 1.0), a), 1.0)
        q = np.fmin(q + 2.0**-34, 1.0)
        ok = has_tail & (upper_tail_mix(x, n, q, w) > a)
        return np.where(ok, np.fmin(q + 2.0**-34, 1.0), 1.0)

    @given(st.data(), SIZES, ALPHAS)
    def test_rcp_bound_matches_the_array_expression(self, data, n, alpha):
        # the bound checks each element on scalars: the same bits
        k = data.draw(st.integers(1, 12))
        x = np.array(data.draw(st.lists(st.one_of(st.sampled_from([0, n]), st.integers(0, n)),
                                        min_size=k, max_size=k)))
        w = np.array(data.draw(st.lists(DRAWS, min_size=k, max_size=k)))
        want = self.rcp_bound_on_arrays(x, n, alpha, w)
        assert_same_bits(rcp_upper_lo_bound(x, n, alpha, w), want)

    @pytest.mark.parametrize("n", [1, 10**6, 10**9])
    def test_rcp_bound_near_one_matches_the_array_expression(self, n):
        # one success short of n, the CP quantile can sit within a cell of 1
        x = np.array([n - 1, n - 1, n - 1, max(n - 2, 0)])
        alpha, w = np.array([1e-12, 0.5, 0.999, 0.5]), np.array([0.0, 0.3, 1.0, 0.5])
        want = self.rcp_bound_on_arrays(x, n, alpha, w)
        assert_same_bits(rcp_upper_lo_bound(x, n, alpha, w), want)

    def test_rcp_bound_is_the_next_cp_bound(self):
        # at w = 0 the mixture is the CP tail for x + 1 successes itself, so
        # the bound sits a few halving cells above the endpoint; x = n has no
        # such tail and gets the trivial bound 1
        n = np.array([10, 1000, 10**6, 10**9])
        x = np.floor(0.3 * n)
        gap = rcp_upper_lo_bound(x, n, 1e-6, 0.0) - rcp_upper_lo(x, n, 1e-6, 0.0)
        assert np.all(gap >= 0.0) and np.all(gap <= 3.0 * 2.0**-34)
        at_n = rcp_upper_lo_bound(np.array([7, 7]), 7, 0.01, np.array([0.0, 1.0]))
        assert at_n.tolist() == [1.0, 1.0]
