"""Fixed-n interval constructions and their exact-coverage arithmetic.

The endpoint bisection is pinned two ways: against hand-derived closed
forms at n = 2, and against the exact rational tail mix evaluated at the
returned endpoint (the mix must sit at alpha there, independent of how
the search got there).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anytime.binom import binom_cdf
from anytime.intervals import (
    Interval,
    cp_upper,
    enumeration_coverage,
    lower_tail_mix,
    rcp_lower,
    rcp_upper,
    upper_tail_mix,
)

from oracles import exact_binom_sf


class TestTailMix:
    @pytest.mark.parametrize("x,n,p,w", [(2, 2, 0.5, 0.2), (3, 10, 0.3, 0.7), (0, 5, 0.9, 0.5)])
    def test_upper_mix_matches_exact(self, x, n, p, w):
        frac_p = Fraction(p).limit_denominator(10**9)
        exact = w * exact_binom_sf(x, n, frac_p) + (1 - w) * exact_binom_sf(x + 1, n, frac_p)
        np.testing.assert_allclose(float(upper_tail_mix(x, n, p, w)), float(exact), rtol=1e-12)

    @given(
        n=st.integers(0, 60),
        x=st.integers(-2, 62),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        w=st.floats(0.0, 1.0),
    )
    def test_lower_mix_is_the_mix_of_lower_tails(self, n, x, p, w):
        # the mirrored upper mixture gives exactly the lower tails' mixture
        want = w * binom_cdf(x, n, p) + (1.0 - w) * binom_cdf(x - 1, n, p)
        assert lower_tail_mix(x, n, p, w) == want
        xs = np.array([x - 1, x, x + 1])
        ps, ws = np.full(3, p), np.array([w, 1.0 - w, 0.5])
        want = ws * binom_cdf(xs, n, ps) + (1.0 - ws) * binom_cdf(xs - 1, n, ps)
        assert np.array_equal(lower_tail_mix(xs, n, ps, ws), want)

    def test_lower_is_mirror_of_upper(self):
        # P-weighted lower tail at (x, p) equals upper tail at (n-x, 1-p)
        np.testing.assert_allclose(
            float(lower_tail_mix(3, 10, 0.3, 0.25)),
            float(upper_tail_mix(7, 10, 0.7, 0.25)),
            rtol=1e-12,
        )


class TestClopperPearson:
    def test_n2_closed_forms(self):
        # sup{p : P(B(2,p) >= x) > a} has closed forms at n = 2
        np.testing.assert_allclose(cp_upper(0, 2, 0.05).lo, 0.0, atol=1e-3)
        np.testing.assert_allclose(cp_upper(1, 2, 0.05).lo, 1 - math.sqrt(0.95), atol=1e-3)
        np.testing.assert_allclose(cp_upper(2, 2, 0.05).lo, math.sqrt(0.05), atol=1e-3)

    def test_upper_is_one_sided(self):
        iv = cp_upper(7, 10, 0.1)
        assert iv.up == 1.0 and 0.0 < iv.lo < 1.0

    def test_lower_mirrors_upper(self):
        up = rcp_lower(3, 10, 0.07, 1.0).up
        np.testing.assert_allclose(up, 1.0 - cp_upper(7, 10, 0.07).lo, atol=1e-9)

    @pytest.mark.parametrize("x,n,alpha", [(2, 2, 0.05), (5, 12, 0.01), (1, 30, 0.001)])
    def test_endpoint_sits_at_alpha(self, x, n, alpha):
        lo = cp_upper(x, n, alpha).lo
        tail = float(exact_binom_sf(x, n, Fraction(lo).limit_denominator(10**12)))
        assert abs(tail - alpha) < 1e-8


class TestRandomizedCP:
    def test_n2_closed_forms(self):
        # exclusion condition for x = n = 2 is w p^2 > alpha, so lo = sqrt(alpha/w)
        np.testing.assert_allclose(rcp_upper(2, 2, 0.05, 0.2).lo, 0.5, atol=1e-9)
        iv = rcp_upper(2, 2, 0.05, 0.04)  # sqrt(alpha/w) > 1: clamps to a point at 1
        assert iv.lo == iv.up == 1.0
        np.testing.assert_allclose(rcp_lower(0, 2, 0.05, 0.2).up, 0.5, atol=1e-9)
        assert rcp_lower(0, 2, 0.05, 0.04).up == 0.0

    def test_w_one_is_deterministic_cp(self):
        for x, n, alpha in [(0, 7, 0.1), (3, 7, 0.05), (7, 7, 0.01)]:
            np.testing.assert_allclose(rcp_upper(x, n, alpha, 1.0).lo, cp_upper(x, n, alpha).lo, atol=1e-9)

    def test_lo_nonincreasing_in_w(self):
        ws = np.linspace(0.02, 1.0, 30)
        los = [rcp_upper(4, 9, 0.05, float(w)).lo for w in ws]
        assert all(a >= b - 1e-12 for a, b in zip(los, los[1:]))

    def test_w_to_zero_approaches_next_count(self):
        lo = rcp_upper(4, 9, 0.05, 1e-12).lo
        np.testing.assert_allclose(lo, cp_upper(5, 9, 0.05).lo, atol=1e-5)

    @pytest.mark.parametrize("x,n,alpha,w", [(2, 2, 0.05, 0.2), (5, 12, 0.02, 0.6), (9, 20, 0.001, 0.31)])
    def test_endpoint_sits_at_alpha(self, x, n, alpha, w):
        lo = rcp_upper(x, n, alpha, w).lo
        frac = Fraction(lo).limit_denominator(10**12)
        mix = w * exact_binom_sf(x, n, frac) + (1 - w) * exact_binom_sf(x + 1, n, frac)
        assert abs(float(mix) - alpha) < 1e-8

    @given(
        x=st.integers(0, 15),
        n=st.integers(1, 15),
        w=st.floats(0.01, 1.0),
        alpha=st.floats(0.001, 0.3),
    )
    def test_mirror_symmetry(self, x, n, w, alpha):
        x = min(x, n)
        lower = rcp_lower(x, n, alpha, w)
        upper = rcp_upper(n - x, n, alpha, w)
        np.testing.assert_allclose(lower.up, 1.0 - upper.lo, atol=1e-9)


class TestEnumerationCoverage:
    def test_randomized_is_exact_everywhere(self):
        for p in (0.013, 0.2, 0.5, 0.91, 0.987):
            for n in (2, 17, 100):
                cov = enumeration_coverage(n, p, 0.001, kind="rcp", side="upper")
                np.testing.assert_allclose(cov, 0.999, atol=1e-10)

    def test_randomized_two_sided_is_exact(self):
        cov = enumeration_coverage(25, 0.37, 0.05, kind="rcp", side="two")
        np.testing.assert_allclose(cov, 0.95, atol=1e-10)

    def test_deterministic_is_conservative(self):
        for p in (0.05, 0.33, 0.91):
            for n in (3, 40, 200):
                assert enumeration_coverage(n, p, 0.01, kind="cp", side="upper") >= 0.99 - 1e-12

    def test_deterministic_saturates_above_root_alpha(self):
        n, alpha = 20, 0.05
        edge = alpha ** (1.0 / n)
        assert enumeration_coverage(n, edge * 1.01, alpha, kind="cp", side="upper") == pytest.approx(1.0, abs=1e-12)
        assert enumeration_coverage(n, edge * 0.97, alpha, kind="cp", side="upper") < 1.0

    @pytest.mark.parametrize("n", [2, 11, 50])
    def test_randomization_never_hurts(self, n):
        # the randomized interval is a subset, so its coverage is lower
        for q in (0.08, 0.5, 0.77):
            cov_rcp = enumeration_coverage(n, q, 0.05, kind="rcp", side="upper")
            cov_cp = enumeration_coverage(n, q, 0.05, kind="cp", side="upper")
            assert cov_rcp <= cov_cp + 1e-12

    @pytest.mark.parametrize(
        "n, alpha", [(10, 2.0), (10, 1.0), (10, 0.0), (10, math.nan), (0, 0.05), (-3, 0.05)]
    )
    def test_rejects_alpha_outside_the_unit_interval_and_n_below_one(self, n, alpha):
        with pytest.raises(ValueError):
            enumeration_coverage(n, 0.5, alpha)


class TestInterval:
    def test_contains_and_width(self):
        iv = Interval(0.2, 0.7)
        assert iv.contains(0.2) and iv.contains(0.7) and not iv.contains(0.71)
        np.testing.assert_allclose(iv.width, 0.5)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(0.8, 0.2)
