"""Binomial tails, the Gaussian quantile, and the halving primitives.

Tail probabilities are checked against exact rational sums; the quantile
against an erf-based bisection oracle.  Everything downstream (intervals,
confidence sequences, certification) leans on these few functions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import anytime.binom
from anytime.binom import (
    binom_cdf,
    binom_sf,
    gauss_quantile,
    halve,
    log_binom_pmf,
)

from oracles import exact_binom_cdf, exact_binom_pmf, exact_binom_sf, gauss_quantile_by_bisection

TAIL_CASES = [
    (0, 1, 0.5),
    (1, 1, 0.5),
    (3, 10, 0.1),
    (7, 10, 0.91),
    (16, 16, 0.5),
    (50, 100, 0.5),
    (93, 100, 0.933),
    (0, 200, 0.001),
    (200, 200, 0.999),
]


class TestTails:
    @pytest.mark.parametrize("x,n,p", TAIL_CASES)
    def test_sf_matches_exact_sum(self, x, n, p):
        exact = float(exact_binom_sf(x, n, Fraction(p).limit_denominator(10**9)))
        np.testing.assert_allclose(float(binom_sf(x, n, p)), exact, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("x,n,p", TAIL_CASES)
    def test_cdf_matches_exact_sum(self, x, n, p):
        exact = float(exact_binom_cdf(x, n, Fraction(p).limit_denominator(10**9)))
        np.testing.assert_allclose(float(binom_cdf(x, n, p)), exact, rtol=1e-12, atol=1e-300)

    def test_out_of_range_counts(self):
        assert float(binom_sf(0, 5, 0.3)) == 1.0
        assert float(binom_sf(6, 5, 0.3)) == 0.0
        assert float(binom_cdf(5, 5, 0.3)) == 1.0
        assert float(binom_cdf(-1, 5, 0.3)) == 0.0

    def test_vectorized_over_x(self):
        x = np.arange(0, 11)
        sf = binom_sf(x, 10, 0.3)
        assert sf.shape == (11,)
        # complement identity P(X >= x) + P(X <= x-1) = 1
        np.testing.assert_allclose(sf + binom_cdf(x - 1, 10, 0.3), 1.0, atol=1e-13)

    @given(
        n=st.integers(1, 80),
        p=st.floats(0.01, 0.99),
        x=st.integers(0, 80),
    )
    def test_sf_monotone(self, n, p, x):
        x = min(x, n)
        # nonincreasing in x, and bounded in [0, 1]
        a, b = float(binom_sf(x, n, p)), float(binom_sf(x + 1, n, p))
        assert 0.0 <= b <= a <= 1.0

    @pytest.mark.parametrize("x,n,p", [(3, 10, 0.2), (0, 4, 0.7), (10, 10, 0.5)])
    def test_log_pmf(self, x, n, p):
        exact = float(exact_binom_pmf(x, n, Fraction(p).limit_denominator(10**9)))
        np.testing.assert_allclose(math.exp(float(log_binom_pmf(x, n, p))), exact, rtol=1e-12)


class TestScalarPath:
    """Python-number arguments take the float path; it must return the array path's bits."""

    @given(
        x=st.integers(-3, 60),
        n=st.integers(0, 50),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(x=0, n=0, p=0.5)
    @example(x=1, n=0, p=0.5)
    @example(x=-1, n=0, p=0.0)
    @example(x=0, n=5, p=1.0)
    @example(x=5, n=5, p=0.0)
    @example(x=6, n=5, p=0.3)
    @example(x=-2, n=5, p=0.3)
    def test_scalar_equals_one_element_array(self, x, n, p):
        for tail in (binom_sf, binom_cdf):
            scalar = tail(x, n, p)
            vector = tail(np.array([x]), np.array([n]), np.array([p]))
            assert type(scalar) is float
            assert scalar == vector[0]

    @pytest.mark.parametrize("x,n", [(0.5, 3), (0.5, 0.25), (2.5, 3), (float("nan"), 3)])
    def test_fractional_counts_match_too(self, x, n):
        for tail in (binom_sf, binom_cdf):
            assert tail(x, n, 0.3) == tail(np.array([x]), np.array([n]), np.array([0.3]))[0]


class TestRejectsBadParameters:
    """NaN and out-of-range ``n`` or ``p`` raise on the scalar and the array path alike."""

    @pytest.mark.parametrize("fn", [binom_sf, binom_cdf, log_binom_pmf])
    @pytest.mark.parametrize(
        "n,p,match",
        [
            (10, math.nan, "p must"),
            (math.nan, 0.3, "n must"),
            (10, 1.5, "p must"),
            (10, -0.1, "p must"),
            (-1, 0.3, "n must"),
        ],
    )
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: np.array([v])], ids=["scalar", "array"])
    def test_raises(self, fn, n, p, match, wrap):
        # before the check, binom_sf(3, 10, nan) gave nan and binom_sf(3, nan, 0.3) gave 0.3
        with pytest.raises(ValueError, match=match):
            fn(wrap(3), wrap(n), wrap(p))


class TestGaussQuantile:
    @pytest.mark.parametrize("u", [0.025, 0.1586553, 0.5, 0.8413447, 0.975, 0.999, 1e-6])
    def test_against_erf_bisection(self, u):
        np.testing.assert_allclose(float(gauss_quantile(u)), gauss_quantile_by_bisection(u), atol=2e-9)

    def test_symmetry(self):
        u = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(gauss_quantile(u) + gauss_quantile(1 - u), 0.0, atol=1e-12)

    def test_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                gauss_quantile(bad)


CUTOFF = anytime.binom._FLOAT_REPLAY


class TestHalveReplay:
    """Guess-steered halving on Python floats gives the vector replay's bits."""

    @given(
        st.data(),
        st.sampled_from([1, 2, 5, CUTOFF, CUTOFF + 1, 150]),
        st.sampled_from([1, 34, 60]),
    )
    def test_float_replay_equals_vector_replay(self, data, size, iters):
        unit = st.floats(0.0, 1.0)
        ends = np.sort(np.array(data.draw(st.lists(st.tuples(unit, unit), min_size=size,
                                                   max_size=size))), axis=1)
        lo, hi = ends[:, 0].copy(), ends[:, 1].copy()
        # guesses in and around the brackets, on their ends, and NaN
        guess = np.array(data.draw(st.lists(
            st.one_of(st.floats(-0.5, 1.5), st.just(float("nan")), st.sampled_from([0.0, 1.0])),
            min_size=size, max_size=size,
        )))
        lo_v, hi_v = halve(lo, hi, guess.__lt__, iters)
        lo_f, hi_f = anytime.binom._float_replay(lo, hi, guess, iters)
        assert lo_f.tobytes() == lo_v.tobytes() and hi_f.tobytes() == hi_v.tobytes()
        lo_d, hi_d = halve(lo, hi, guess, iters)  # either replay, by batch size
        assert lo_d.tobytes() == lo_v.tobytes() and hi_d.tobytes() == hi_v.tobytes()
        assert (lo == ends[:, 0]).all() and (hi == ends[:, 1]).all()

