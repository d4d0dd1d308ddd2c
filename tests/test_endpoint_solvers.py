"""The fast endpoint solvers return the plain bisection's bits.

``rcp_upper_lo`` and ``betting_endpoints`` reach the final cell of a
fixed 34-halving bisection from a Newton guess, check it with two
predicate evaluations and rerun the plain halving where the check fails.
Every test here compares with ``==`` against the plain bisections in
``oracles.py``: the fast path may not move an endpoint by a single ulp.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import anytime.binom
import anytime.intervals
import anytime.sequences
from anytime.intervals import rcp_upper_lo
from anytime.sequences import betting_endpoints

from oracles import bisect_betting_endpoints, bisect_rcp_upper_lo

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


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes(), (got, want)


class CountHalvings:
    """Records the size of every ``halve`` call (the replay, then the fallback)."""

    def __init__(self, monkeypatch):
        self.sizes = []
        real = anytime.binom.halve

        def spy(lo, hi, above, iters):
            self.sizes.append(np.size(lo))
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
        # from [0, 1] the replay needs no halving; the one call is the fallback
        assert halvings.sizes == [x.size - 1]


class TestBettingEndpoints:
    @given(counts(), ALPHAS)
    def test_scalar(self, ht, alpha):
        h, t = ht
        got = betting_endpoints(np.asarray(h), np.asarray(t), alpha)
        want = bisect_betting_endpoints(np.asarray(h), np.asarray(t), alpha)
        for g, r in zip(got, want):
            assert_same_bits(g, r)

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
        # the Newton guess for the lower endpoint at 3 heads in 3 lands in
        # the neighbouring cell; the check catches it and the plain
        # halving of that one element gives the answer
        halvings = CountHalvings(monkeypatch)
        got = betting_endpoints(np.asarray(3), np.asarray(3), 0.05)
        assert halvings.sizes == [2, 1]
        for g, r in zip(got, bisect_betting_endpoints(np.asarray(3), np.asarray(3), 0.05)):
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
