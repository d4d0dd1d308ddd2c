"""Confidence sequences: KT mixture arithmetic, schedules, and the exclusion edges.

The KT closed form is pinned against exact double-factorial rationals,
the stage budgets against their telescoping sums, the stateful updates
against single-step closed forms, the union stage windows and the
exclusion edges against plain bisections (the latter also against the
log-wealth at and next to them), and the threshold table against a
pure-rational brute force.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special

import anytime.sequences
from anytime.binom import binom_sf
from anytime.decision import decide_with_cs
from anytime.intervals import lower_tail_mix, rcp_upper_lo, rcp_upper_lo_bound, upper_tail_mix
from anytime.sampling import BernoulliSource, substream
from anytime.sequences import (
    BettingCS,
    Schedule,
    UnionCS,
    bet_cs_width_envelope,
    betting_endpoints,
    betting_first_pass,
    betting_running,
    dp_thresholds,
    exclusion_edge,
    kt_log_mixture,
    kt_log_wealth,
    ub_cs_width_envelope,
    union_draws,
    union_running,
    union_windows,
)
from anytime.sequences import _BLOCK

from oracles import (
    BETTING_CROSSING_SEEDS,
    betting_scan,
    bisect_count_edge,
    bisect_exclusion_edge,
    brute_halting_heads,
    exact_kt_log_wealth,
    exact_kt_mixture,
    kt_log_mixture_by_gammaln,
    stepping_boundaries,
    union_scan,
    window_start,
)


class TestKtMixture:
    def test_two_heads(self):
        # 0.5 * 0.75: the first two sequential predictions on an all-ones stream
        np.testing.assert_allclose(kt_log_mixture(2, 2), math.log(0.375), atol=1e-12)

    @pytest.mark.parametrize("h,t", [(0, 0), (0, 1), (1, 1), (3, 7), (40, 80), (200, 400), (0, 350)])
    def test_matches_exact_rational(self, h, t):
        expected = 0.0 if t == 0 else math.log(exact_kt_mixture(h, t))
        np.testing.assert_allclose(kt_log_mixture(h, t), expected, atol=1e-10)

    def test_incremental_accumulation_and_order_invariance(self, rng):
        # the running product of the predictions (H + 1/2) / (i + 1) must
        # land on the closed form, for a stream and for any permutation of it
        for _ in range(50):
            t = int(rng.integers(1, 120))
            bits = (rng.random(t) < rng.random()).astype(int)
            for stream in (bits, rng.permutation(bits)):
                log_mixture, heads = 0.0, 0
                for i, b in enumerate(stream.tolist()):
                    predict = (heads + 0.5) / (i + 1.0)
                    log_mixture += math.log(predict if b else 1.0 - predict)
                    heads += b
                np.testing.assert_allclose(
                    log_mixture, kt_log_mixture(int(bits.sum()), t), atol=1e-9
                )

    def test_wealth_at_zero_time_is_zero(self):
        # initial wealth 1, up to log-gamma rounding
        np.testing.assert_allclose(kt_log_wealth(0, 0, 0.3), 0.0, atol=1e-12)

    def test_wealth_closed_form(self):
        # logW = logQ - logP at a few exact points
        for h, t in [(2, 2), (5, 9), (0, 6)]:
            exact = exact_kt_log_wealth(h, t, Fraction(1, 4))
            np.testing.assert_allclose(kt_log_wealth(h, t, 0.25), exact, atol=1e-10)

    def test_degenerate_p_limits(self):
        # a contradicting bit sends the wealth to +inf; a matching constant
        # sample leaves just the mixture likelihood
        assert kt_log_wealth(1, 5, 0.0) == math.inf
        assert kt_log_wealth(4, 5, 1.0) == math.inf
        np.testing.assert_allclose(kt_log_wealth(0, 5, 0.0), kt_log_mixture(0, 5), atol=1e-12)
        np.testing.assert_allclose(kt_log_wealth(5, 5, 1.0), kt_log_mixture(5, 5), atol=1e-12)

    @given(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 10**7),
        st.floats(0.0, 1.0),
    )
    @example(1e-300, 10**7, 0.5)
    @example(5e-324, 3, 1.0)
    @example(1.0 - 2.0**-53, 10**7, 0.0)
    @example(0.3, 0, 0.0)
    def test_float_p_gives_the_bits_of_xlogy(self, p, t, share):
        # a float p in (0, 1) scales its two logs by the counts; xlogy and
        # xlog1py compute x * log(y) and x * log1p(y), so the bits agree,
        # at h = 0 and h = t too
        t_arr = np.full(5, float(t))
        h = np.array([0.0, t, math.floor(share * t), t // 2, max(t - 1, 0)])
        expected = kt_log_mixture(h, t_arr) - special.xlogy(h, p) - special.xlog1py(t_arr - h, -p)
        got = kt_log_wealth(h, t_arr, p)
        assert got.tobytes() == expected.tobytes()
        assert kt_log_wealth(int(h[2]), t, p) == expected[2]

    def test_supermartingale_mean(self, rng):
        # E[W_t] = 1 under the true p; check the empirical mean stays within
        # five standard errors at a handful of fixed times
        p, streams, horizon = 0.3, 4000, 64
        bits = (rng.random((streams, horizon)) < p).astype(np.int64)
        heads = bits.cumsum(axis=1)
        for t in (4, 16, 64):
            wealth = np.exp(kt_log_wealth(heads[:, t - 1], t, p))
            se = wealth.std(ddof=1) / math.sqrt(streams)
            assert wealth.mean() <= 1.0 + 5.0 * se


class _CountingSpecial:
    """``scipy.special`` with a count of the ``gammaln`` calls."""

    def __init__(self):
        self.gammaln_calls = 0

    def gammaln(self, x):
        self.gammaln_calls += 1
        return special.gammaln(x)

    def __getattr__(self, name):
        return getattr(special, name)


class TestLogGammaTables:
    """Integer counts read ``gammaln(k + 1/2)`` and ``gammaln(k + 1)`` from tables."""

    EDGES = [0, 1, 1023, 1024, 2047, 2048, 2**17 - 1, 2**17, 2**17 + 1]

    @given(
        trials=st.lists(
            st.one_of(st.sampled_from(EDGES), st.integers(0, 2**18)), min_size=1, max_size=16
        ),
        share=st.floats(0.0, 1.0),
        p=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
    )
    @example([0, 1, 1023, 1024, 2**17, 2**17 + 1], 1.0, 0.25)
    @example([0, 1, 1023, 1024, 2**17, 2**17 + 1], 0.0, 0.0)
    def test_integer_counts_give_the_bits_of_gammaln(self, trials, share, p):
        # heads at 0, at t and in between, each against every trials count
        t = np.array(trials, dtype=np.int64)
        for h in (np.zeros_like(t), t, np.floor(share * t).astype(np.int64)):
            want = kt_log_mixture_by_gammaln(h.astype(float), t.astype(float))
            assert kt_log_mixture(h, t).tobytes() == want.tobytes()
            got = kt_log_wealth(h, t, p)
            assert got.tobytes() == kt_log_wealth(h.astype(float), t.astype(float), p).tobytes()
            assert kt_log_mixture(int(h[-1]), int(t[-1])) == want[-1]

    @pytest.mark.parametrize(
        "heads, trials, gammaln_calls",
        [
            (np.array([0, 5, 1024]), np.array([3, 7, 2**17]), 0),
            (np.array([0.0, 5.0]), np.array([3.0, 7.0]), 3),  # float counts
            (np.array([0, 5]), np.array([3, 2**17 + 1]), 3),  # past the cap
            (np.array([0, 5, 1], dtype=np.uint64), np.array([3, 7, 2], dtype=np.uint64), 3),
            (np.array([-1, 5]), np.array([3, 7]), 3),  # unchecked invalid counts
            (np.array([4, 5]), np.array([3, 7]), 3),
            (np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3),
        ],
    )
    def test_only_valid_integer_counts_below_the_cap_read_the_tables(
        self, monkeypatch, heads, trials, gammaln_calls
    ):
        half, whole = anytime.sequences._log_gamma_tables(2**17)  # built before gammaln is counted
        assert half.size == whole.size == 2**17 + 1
        counting = _CountingSpecial()
        monkeypatch.setattr(anytime.sequences, "special", counting)
        got = anytime.sequences._kt_log_mixture(heads, trials)
        assert counting.gammaln_calls == gammaln_calls
        want = kt_log_mixture_by_gammaln(heads.astype(float), trials.astype(float))
        assert np.asarray(got).tobytes() == want.tobytes()

    def test_tables_grow_by_powers_of_two_to_the_largest_count_asked(self, monkeypatch):
        # from no tables, counts on both sides of each growth step, up to
        # the cap and one past it: every entry read gives gammaln's bits
        seq = anytime.sequences
        monkeypatch.setattr(seq, "_tables", (np.empty(0), np.empty(0)))
        sizes = []
        for power in range(10, 18):
            for top in (2**power - 1, 2**power, 2**power + 1):
                steps = np.arange(top + 1)
                heads = np.stack([steps, steps // 2])  # every half entry, then every whole one
                trials = np.stack([np.full_like(steps, top), steps])
                want = kt_log_mixture_by_gammaln(heads.astype(float), trials.astype(float))
                assert kt_log_mixture(heads, trials).tobytes() == want.tobytes(), top
                sizes.append(seq._tables[0].size)
        cap = 2**17 + 1
        want_sizes = []
        for power in range(10, 18):
            grown = min(2 ** (power + 1), cap)
            want_sizes += [2**power, grown, grown]  # below the step, at it, past it
        assert sizes == want_sizes
        assert seq._tables[1].size == cap

    def test_a_betting_trial_past_the_cap_decides_as_gammaln_does(self, monkeypatch):
        # its blocks read the tables up to 2**17 trials and gammaln after
        def trial():
            stream = BernoulliSource(substream(3, "past the cap"), 0.5)
            return decide_with_cs("betting", 0.496, stream, 0.05, 10**6)

        verdict, samples = trial()
        assert samples > 2**17
        monkeypatch.setattr(anytime.sequences, "_TABLE_CAP", 0)  # every block by gammaln
        assert trial() == (verdict, samples)


class TestSchedule:
    def test_doubling_budgets(self):
        sched = Schedule.doubling(0.05)
        np.testing.assert_allclose(sched.budget(1), 0.05 / 2)
        np.testing.assert_allclose(sched.budget(3), 0.05 / 12)

    def test_doubling_budget_telescopes(self):
        sched = Schedule.doubling(0.01)
        ks = np.arange(1, 10**6 + 1, dtype=np.float64)
        total = float(np.sum(sched.alpha / (ks * (ks + 1))))
        # partial sum has closed form alpha * K / (K + 1)
        np.testing.assert_allclose(total, 0.01 * ks[-1] / (ks[-1] + 1), atol=1e-12)
        assert total <= sched.alpha

    def test_geometric_budget_telescopes(self):
        sched = Schedule.geometric(0.05)
        total = sum(sched.budget(k) for k in range(1, 200001))
        assert total <= 0.05 + 1e-15
        np.testing.assert_allclose(total, 0.05, atol=1e-5)
        np.testing.assert_allclose(sched.budget(1), 5 * 0.05 / (5 * 6), atol=1e-15)

    def test_doubling_boundaries(self):
        np.testing.assert_array_equal(
            Schedule.doubling(0.1).boundaries(70), [1, 2, 4, 8, 16, 32, 64]
        )

    @pytest.mark.parametrize(
        "growth, limit",
        [(2.0, 10**6), (1.5, 10**6), (1.1, 10**6), (1 + 1e-3, 10**6), (1 + 1e-6, 4)],
    )
    def test_boundaries_are_the_stepping_walks(self, growth, limit):
        assert Schedule(0.05, growth=growth).boundaries(limit).tolist() == stepping_boundaries(
            growth, limit
        )

    def test_a_growth_next_to_one_walks_in_jumps(self):
        # stepping one exponent at a time, the third boundary alone takes
        # some 7e11 powers of the growth
        cs = UnionCS(Schedule(0.05, growth=1 + 1e-12))
        start = time.perf_counter()
        for _ in range(100):
            cs.update(1)
        assert time.perf_counter() - start < 1.0
        assert cs.stage == 100  # every integer is a boundary

    def test_geometric_boundaries_deduplicated(self):
        b = Schedule.geometric(0.1).boundaries(30)
        assert b[0] == 1 and b[-1] <= 30
        assert np.all(np.diff(b) >= 1)
        assert len(set(b.tolist())) == b.size

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(1.5)
        with pytest.raises(ValueError):
            Schedule(0.05, growth=1.0)
        with pytest.raises(ValueError):
            Schedule(0.05, growth=math.nan)


class TestUnionCS:
    def test_first_update_closed_form(self):
        # t = 1 triggers stage 1: per-side budget alpha/4; for a single head
        # the exclusion condition is p > alpha/4
        cs = UnionCS(Schedule.doubling(0.05))
        iv = cs.update(1)
        np.testing.assert_allclose((iv.lo, iv.up), (0.0125, 1.0), atol=1e-9)
        cs = UnionCS(Schedule.doubling(0.05))
        iv = cs.update(0)
        np.testing.assert_allclose((iv.lo, iv.up), (0.0, 0.9875), atol=1e-9)

    def test_interval_frozen_between_boundaries(self):
        cs = UnionCS(Schedule.doubling(0.05))
        cs.update(1)
        at_two = cs.update(1)
        at_three = cs.update(0)  # t = 3 is not a boundary
        assert (at_three.lo, at_three.up) == (at_two.lo, at_two.up)
        at_four = cs.update(0)
        assert (at_four.lo, at_four.up) != (at_three.lo, at_three.up)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_nesting(self, bits):
        cs = UnionCS(Schedule.doubling(0.02))
        prev = cs.interval
        for b in bits:
            iv = cs.update(b)
            assert iv.lo >= prev.lo - 1e-12 and iv.up <= prev.up + 1e-12
            prev = iv

    def test_randomized_draws_consumed_lower_side_first(self, rng):
        # with w ~ 1 on the lower side and w ~ 0 on the upper side the
        # interval must match the hand-assembled pair
        draws = iter([1.0, 1e-12])
        cs = UnionCS(Schedule.doubling(0.05), draws=lambda: next(draws))
        iv = cs.update(1)
        # w = 1 on the lower side gives the deterministic bound alpha/4;
        # w ~ 0 on the upper side tightens it to 1 - alpha/4.  Swapped
        # draws would instead collapse the lower side, so this pins the
        # documented draw order.
        np.testing.assert_allclose(iv.lo, 0.0125, atol=1e-9)
        np.testing.assert_allclose(iv.up, 0.9875, atol=1e-9)

    def test_a_rejected_draw_skips_only_its_stage(self):
        draws = iter([math.nan] + [1.0] * 20)
        cs = UnionCS(Schedule.doubling(0.05), draws=lambda: next(draws))
        with pytest.raises(ValueError, match="w must be in"):
            cs.update(1)
        for _ in range(15):  # boundaries 2, 4, 8 and 16
            iv = cs.update(1)
        assert cs.stage == 5 and iv.lo > 0.0

    def test_no_generator_draws_ones(self):
        # deterministic CP in the same shape as the randomized draws
        assert np.array_equal(union_draws(None, 3, (4,)), np.ones((3, 2, 4)))
        assert union_draws(substream(0, "w"), 3, (4,)).shape == (3, 2, 4)

    def test_matches_the_plain_stage_scan_through_collapses(self):
        # a lax budget makes the endpoints cross often; after a collapse the
        # upper bound is a sample mean, whose complement can round
        collapsed = 0
        for seed in range(30):
            rng = substream(seed, "collapse")
            bits = (rng.random(150) < rng.random()).astype(np.int64)
            sched = Schedule(0.9, growth=1.1)
            draws = substream(seed, "collapse-w")
            cs = UnionCS(sched, draws=lambda: float(draws.random()))
            got = np.array([(iv.lo, iv.up) for iv in map(cs.update, bits.tolist())])
            assert got.tobytes() == union_scan(bits, sched, substream(seed, "collapse-w")).tobytes()
            collapsed += bool((got[:, 0] == got[:, 1]).any())
        assert collapsed >= 10

    @pytest.mark.parametrize("growth", [1.1, 1.5, 2.0, 3.7])
    def test_stages_end_at_schedule_boundaries(self, growth):
        sched = Schedule(0.05, growth=growth)
        cs = UnionCS(sched)
        ends = []
        for t in range(1, 10**6 + 1):
            cs.update(1)
            if cs.stage > len(ends):
                ends.append(t)
        assert ends == sched.boundaries(10**6).tolist()


class TestUnionRunning:
    """The union kernel is the running max of its elements' rCP endpoints, bit for bit."""

    @given(
        st.data(),
        st.integers(1, 3),
        st.integers(1, 6),
        st.sampled_from(["none", "near", "anywhere"]),
        st.sampled_from(["zero", "one", "random"]),
    )
    def test_equals_accumulated_endpoints(self, data, rows, stages, carry, draw):
        def grid(strategy):
            cells = st.lists(strategy, min_size=stages, max_size=stages)
            return np.array(data.draw(st.lists(cells, min_size=rows, max_size=rows)))

        t = grid(st.integers(1, 10**9)).astype(float)
        share = grid(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        x = np.round(share * t)
        alpha = 10.0 ** -grid(st.floats(0.3, 12.0))
        w = {"zero": 0.0, "one": 1.0}.get(draw)
        if w is None:
            w = grid(st.floats(0.0, 1.0))
        lo = rcp_upper_lo(x, t, alpha, w)
        if carry == "none":
            lo0 = np.zeros(rows)
        elif carry == "near":
            pick = lo[np.arange(rows), data.draw(st.integers(0, stages - 1))]
            lo0 = np.nextafter(pick, data.draw(st.sampled_from([-np.inf, np.inf])))
            lo0 = np.where(data.draw(st.booleans()), pick, lo0)
        else:
            lo0 = grid(st.floats(0.0, 1.0))[:, 0]
        got = union_running(x, t, alpha, w, rcp_upper_lo_bound(x, t, alpha, w), lo0)
        want = np.maximum.accumulate(np.column_stack([lo0, lo]), axis=1)[:, 1:]
        assert got.tobytes() == want.tobytes()

    def test_solves_only_elements_whose_bound_clears_the_carry(self, monkeypatch):
        solved = []
        real = anytime.sequences.rcp_upper_lo

        def recording(x, n, alpha, w):
            solved.append(np.size(x))
            return real(x, n, alpha, w)

        monkeypatch.setattr(anytime.sequences, "rcp_upper_lo", recording)
        t = np.array([10.0, 100.0, 1000.0, 10_000.0])
        x = np.array([[3.0, 40.0, 500.0, 5000.0], [7.0, 60.0, 500.0, 5000.0]])
        bound = rcp_upper_lo_bound(x, t, 0.01, 1.0)
        lo0 = np.array([0.3, 0.4])
        union_running(x, t, 0.01, 1.0, bound, lo0)
        assert solved == [int((bound > lo0[:, None]).sum())]
        assert 0 < solved[0] < x.size
        solved.clear()
        union_running(x, t, 0.01, 1.0, bound, [1.0, 1.0])
        assert solved == []


FAIR_STREAMS = tuple((seed, 0.5, 300) for seed in (0, *BETTING_CROSSING_SEEDS))
SKEWED_STREAMS = ((0, 0.02, 3000), (1, 0.3, 3000), (2, 0.97, 3000))


PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53, 1e-12, 1.0 - 1e-12]),
    st.floats(0.0, 1.0),
)


class TestUnionCells:
    """The union stage windows: count edges of the tail and the cells that cache them."""

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 10**7),
                st.one_of(st.just(0.0), st.floats(1e-300, 0.25)),
            ),
            min_size=1,
            max_size=4,
        ),
        p=st.one_of(PROBS, st.lists(PROBS, min_size=4, max_size=4)),
    )
    @example([(1, 0.25)], 0.5)
    @example([(10**7, 1e-300)], 0.5)
    @example([(524_288, 2.5e-5), (0, 0.1), (1, 0.0)], 0.91)
    # one p per element, as union_windows bisects p and 1 - p in one pass
    @example([(524_288, 2.5e-5), (524_288, 2.5e-5)], [0.91, 1.0 - 0.91, 0.5, 0.5])
    @example([(1000, 1e-3), (1000, 1e-3), (7, 0.0), (7, 0.0)], [0.0, 1.0, 5e-324, 1.0 - 2**-53])
    def test_tail_edges_are_the_plain_bisection(self, edges, p):
        t, b = (np.array(column) for column in zip(*edges))
        if isinstance(p, list):
            p = np.array(p[: t.size])
        got = anytime.sequences._tail_edges(t, p, b)
        each = np.broadcast_to(p, t.shape).tolist()
        assert got.tolist() == [bisect_count_edge(ti, pi, bi) for (ti, bi), pi in zip(edges, each)]

    def test_cells_of_another_alpha_or_cap_keep_their_own_edges(self):
        anytime.sequences._doubling_cell.cache_clear()
        keys = [(0.3, 0.01, 1000), (0.3, 0.001, 1000), (0.3, 0.01, 3000)]
        for p, alpha, cap in keys:
            for trial in range(20):
                stream = BernoulliSource(substream(8, "cells", trial), 0.32)
                decide_with_cs("union", p, stream, alpha, cap, rng=substream(8, "w", trial))
        cells = [anytime.sequences._doubling_cell(*key) for key in keys]
        assert len({id(cell) for cell in cells}) == 3
        for (p, alpha, cap), (bounds, half, windows) in zip(keys, cells):
            assert bounds == tuple(stepping_boundaries(2.0, cap))
            want_half, want_windows = [], []
            for k, t in enumerate(bounds):
                b = alpha / ((k + 1) * (k + 2)) / 2.0
                want_half.append(b)
                want_windows.append((window_start(t, p, b), t - window_start(t, 1.0 - p, b)))
            assert half == tuple(want_half)
            assert windows == tuple(want_windows)

    @pytest.mark.parametrize(
        "schedule", [Schedule.geometric(0.05), Schedule(1e-9, growth=1.7, offset=3)]
    )
    def test_a_cell_of_any_schedule_has_its_stages_and_edges(self, schedule):
        bounds, half, windows = union_windows(0.91, schedule, 5000)
        assert bounds == tuple(stepping_boundaries(schedule.growth, 5000))
        assert len(half) == len(windows) == len(bounds)
        for k, t in enumerate(bounds):
            b = schedule.budget(k + 1) / 2.0
            assert half[k] == b
            assert windows[k] == (window_start(t, 0.91, b), t - window_start(t, 0.09, b))

    @given(
        p=st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5]), st.floats(0.0, 1.0)),
        alpha=st.sampled_from([0.5, 0.05, 1e-3, 1e-12, 1e-300]),
        limit=st.integers(0, 2**16),
    )
    @example(0.5, 0.05, 2**16)
    def test_no_count_next_to_a_window_fires(self, p, alpha, limit):
        # the count just outside each window fails its side's test at every w,
        # in the rounding of the mixtures the decider and the Monte Carlo run
        bounds, half, windows = union_windows(p, Schedule.doubling(alpha), limit)
        w = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0])
        for t, b, (less_from, greater_to) in zip(bounds, half, windows):
            if less_from >= 1:
                assert (upper_tail_mix(less_from - 1, t, p, w) > b).all()
            if greater_to <= t - 1:
                assert (lower_tail_mix(greater_to + 1, t, p, w) > b).all()

    @pytest.mark.parametrize(
        "y, scale, margin",
        [
            (320, 1.0 - 1e-9, 1),  # S(x* - 1) = S(y) clears b by far more than the rounding
            (320, 1.0 - 2.0**-53, 2),  # b one step below S(y): within the mixture's rounding
            (870, 1.0 - 1e-9, 2),  # S(y) below 2^-1000: a subnormal rounding is not relative
        ],
    )
    def test_a_margin_of_one_needs_both_tails_clear_of_the_budget(self, y, scale, margin):
        # b just below the tail S(y) puts the edge x* at y + 1
        t, p = np.array([1000]), 0.3
        b = np.array([float(binom_sf(y, 1000, p)) * scale])
        assert anytime.sequences._tail_edges(t, p, b)[0] == y + 1
        assert anytime.sequences._window_start(t, p, b)[0] == y + 1 - margin

    def test_limit_zero_has_no_stages(self):
        assert union_windows(0.5, Schedule.doubling(0.05), 0) == ((), (), ())

    def test_a_cell_is_immutable(self):
        # a cached cell is shared by every trial of its key: nothing in it can change
        bounds, half, windows = union_windows(0.3, Schedule.doubling(0.01), 1000)
        assert all(type(part) is tuple for part in (bounds, half, windows, *windows))


class TestBettingCS:
    def test_single_step_closed_forms(self):
        cs = BettingCS(0.05)
        iv = cs.update(1)
        np.testing.assert_allclose((iv.lo, iv.up), (0.025, 1.0), atol=1e-8)
        cs = BettingCS(0.05)
        iv = cs.update(0)
        np.testing.assert_allclose((iv.lo, iv.up), (0.0, 0.975), atol=1e-8)

    def test_two_heads_closed_form(self):
        cs = BettingCS(0.05)
        cs.update(1)
        iv = cs.update(1)
        np.testing.assert_allclose(iv.lo, math.sqrt(0.375 * 0.05), atol=1e-4)
        assert iv.up == 1.0

    def test_all_ones_crosses_half_at_seven(self):
        # first t with (alpha * Q(t, t)) ** (1/t) > 0.5
        cs = BettingCS(0.05)
        crossed = [cs.update(1).lo > 0.5 for _ in range(10)]
        assert crossed.index(True) == 6  # t = 7, zero-based index 6

    @pytest.mark.parametrize(
        "alpha, streams",
        [pytest.param(a, FAIR_STREAMS, id=str(a)) for a in (1e-9, 0.001, 0.05, 0.5, 0.9)]
        + [pytest.param(1e-12, SKEWED_STREAMS, id="1e-12-skewed")],
    )
    def test_matches_the_plain_scan_through_collapses(self, alpha, streams):
        # at a lax alpha the running interval crosses; it collapses to the
        # sample mean there and can cross again at any later step.  Skewed
        # streams at a strict alpha keep one endpoint near 0 or 1 for
        # thousands of steps
        for seed, p, n in streams:
            bits = (np.random.default_rng(seed).random(n) < p).astype(np.int64)
            cs = BettingCS(alpha)
            got = np.array([(iv.lo, iv.up) for iv in map(cs.update, bits.tolist())])
            assert got.tobytes() == betting_scan(bits, alpha).tobytes(), seed

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=150))
    def test_nesting(self, bits):
        cs = BettingCS(0.01)
        prev = cs.interval
        for b in bits:
            iv = cs.update(b)
            assert iv.lo >= prev.lo - 1e-12 and iv.up <= prev.up + 1e-12
            prev = iv

    def test_endpoints_vectorized_consistency(self, rng):
        bits = (rng.random(80) < 0.6).astype(int)
        heads = bits.cumsum()
        lo, up = betting_endpoints(heads, np.arange(1, 81), 0.05)
        cs = BettingCS(0.05)
        inst = []
        run_lo = 0.0
        for b in bits:
            iv = cs.update(int(b))
            inst.append((iv.lo, iv.up))
        run = np.maximum.accumulate(lo), np.minimum.accumulate(up)
        np.testing.assert_allclose([a for a, _ in inst], run[0], atol=1e-9)
        np.testing.assert_allclose([b for _, b in inst], run[1], atol=1e-9)


ALPHAS = st.one_of(st.sampled_from([1e-12, 1e-6, 0.001, 0.05, 0.5]), st.floats(1e-12, 0.999))
STREAMS = st.sampled_from(["random", "zeros", "ones"])


def accumulated_endpoints(heads, trials, alpha, lo0, up0):
    """The running bounds by definition: accumulate every step's endpoints, row by row."""
    lo, up = [], []
    for r in range(heads.shape[0]):
        lo_r, up_r = betting_endpoints(heads[r], trials, float(alpha[r]))
        lo.append(np.maximum.accumulate(np.concatenate(([lo0[r]], lo_r)))[1:])
        up.append(np.minimum.accumulate(np.concatenate(([up0[r]], up_r)))[1:])
    return np.array(lo), np.array(up)


def stream_rows(seed, kinds, start, cols):
    """Heads counts after each of ``cols`` steps past ``start`` trials, one row per kind."""
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "zeros":  # heads = 0 throughout
            h0, bits = 0, np.zeros(cols)
        elif kind == "ones":  # heads = t throughout
            h0, bits = start, np.ones(cols)
        else:
            p = rng.uniform(0.001, 0.999)
            h0, bits = rng.binomial(start, p), rng.random(cols) < p
        rows.append(h0 + np.cumsum(bits))
    return np.array(rows, dtype=float)


class TestBettingRunning:
    """``betting_running`` returns the accumulate of ``betting_endpoints``, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(STREAMS, min_size=1, max_size=3),
        start=st.one_of(st.integers(0, 60), st.integers(0, 10**9), st.just(10**9)),
        cols=st.one_of(st.just(1), st.integers(1, 3000)),
        alphas=st.lists(ALPHAS, min_size=3, max_size=3),
        carry=st.sampled_from(["none", "near", "any"]),
    )
    @example(0, ["zeros", "ones", "random"], 10**9, 1, [1e-12, 1e-12, 0.5], "near")
    @example(1, ["random", "random"], 0, 3000, [1e-12, 0.05, 0.05], "none")
    @example(2, ["random"], 10**9, 3000, [1e-12, 0.05, 0.05], "any")
    def test_equals_accumulated_endpoints(self, seed, kinds, start, cols, alphas, carry):
        heads = stream_rows(seed, kinds, start, cols)
        trials = start + np.arange(1, cols + 1, dtype=float)
        alpha = np.array(alphas[: len(kinds)])
        lo0, up0 = carried_bounds(seed, carry, heads, trials, alpha)
        got = betting_running(heads, trials, alpha, lo0, up0)
        want = accumulated_endpoints(heads, trials, alpha, lo0, up0)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("start", [100, 10**6])
    def test_screen_solves_few_more_steps_than_move(self, monkeypatch, start):
        # the point of the kernel: only steps that move a running bound,
        # plus a few near misses, are solved.  Past ~6e4 trials one Newton
        # step lands within rounding of the root, so the screen's outer
        # points must be backed off to count.
        solved = []
        real = anytime.sequences.betting_endpoints

        def counting(heads, trials, alpha):
            solved.append(np.size(heads))
            return real(heads, trials, alpha)

        monkeypatch.setattr(anytime.sequences, "betting_endpoints", counting)
        bits = np.random.default_rng(3).random(20_000) < 0.5
        heads = (start // 2 + np.cumsum(bits))[None, :].astype(float)
        trials = start + np.arange(1, 20_001, dtype=float)
        lo, up = betting_running(heads, trials, [0.001], [0.0], [1.0])
        monkeypatch.setattr(anytime.sequences, "betting_endpoints", real)
        want = accumulated_endpoints(heads, trials, [0.001], [0.0], [1.0])
        assert lo.tobytes() == want[0].tobytes() and up.tobytes() == want[1].tobytes()
        moves = np.count_nonzero((np.diff(lo, prepend=0.0) > 0) | (np.diff(up, prepend=1.0) < 0))
        assert sum(solved) <= 2 * moves, (sum(solved), moves)

    def test_blocks_carry_the_bounds(self, monkeypatch):
        # a tiny block size puts every block boundary through the carry
        monkeypatch.setattr(anytime.sequences, "_BLOCK", 8)
        heads = stream_rows(4, ["random", "random", "ones"], 5, 300)
        trials = 5 + np.arange(1, 301, dtype=float)
        alpha = np.array([0.01, 0.2, 0.01])
        got = betting_running(heads, trials, alpha, np.zeros(3), np.ones(3))
        want = accumulated_endpoints(heads, trials, alpha, np.zeros(3), np.ones(3))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_rejects_one_dimensional_heads(self):
        with pytest.raises(ValueError):
            betting_running(np.arange(5.0), np.arange(1.0, 6.0), 0.05, 0.0, 1.0)

    @pytest.mark.parametrize("alpha", [2.0, 0.0, math.nan, [0.05, 1.0]])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        heads = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="alpha"):
            betting_running(heads, np.arange(1.0, 4.0), alpha, 0.0, 1.0)


def carried_bounds(seed, carry, heads, trials, alpha):
    """Carry-in bounds: none (0, 1), near the first step's endpoints, or anywhere."""
    rows = heads.shape[0]
    lo0, up0 = np.zeros(rows), np.ones(rows)
    if carry == "none":
        return lo0, up0
    # near: just around the first step's endpoints, where a carry decides
    # whether a step moves the bound; any: anywhere in [0, 1]
    rng = np.random.default_rng(seed + 1)
    if carry == "near":
        first = accumulated_endpoints(heads[:, :1], trials[:1], alpha, lo0, up0)
        lo0 = np.clip(first[0][:, 0] * rng.uniform(0.99, 1.01, rows), 0.0, 1.0)
        up0 = np.clip(first[1][:, 0] * rng.uniform(0.99, 1.01, rows), 0.0, 1.0)
        return lo0, up0
    lo0 = rng.uniform(0.0, 1.0, rows)
    return lo0, rng.uniform(lo0, 1.0)


class TestBettingFirstPass:
    """``betting_first_pass`` finds the first column where the running bounds pass a test."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(STREAMS, min_size=1, max_size=3),
        start=st.one_of(st.integers(0, 60), st.integers(0, 10**9), st.just(10**5)),
        width=st.integers(1, _BLOCK),
        beyond=st.booleans(),
        alphas=st.lists(ALPHAS, min_size=3, max_size=3),
        carry=st.sampled_from(["none", "near", "any"]),
        integer=st.booleans(),
        where=st.one_of(st.floats(0.0, 1.0), st.none()),
    )
    @example(0, ["random", "random"], 10, 40, True, [0.05, 1e-12, 0.5], "none", True, 0.3)
    @example(1, ["random"], 0, _BLOCK, False, [1e-12, 0.05, 0.5], "near", False, None)
    @example(2, ["ones", "random", "zeros"], 10**9, 1, False, [1e-12] * 3, "any", True, 0.0)
    @example(3, ["random"], 1000, 200, True, [0.05] * 3, "none", True, 1.0)
    @example(4, ["random", "random"], 50, 100, True, [0.01] * 3, "near", False, 1.0)
    def test_equals_the_first_pass_of_accumulated_endpoints(
        self, seed, kinds, start, width, beyond, alphas, carry, integer, where
    ):
        # the width test of width-target runs, over all rows: monotone in
        # the bounds and in the column.  ``where`` puts its first pass near
        # a chosen column; None gives a test that never passes.  The widths
        # reach past one block of the kernel, ``_BLOCK // rows`` columns.
        block = _BLOCK // len(kinds)
        cols = block + 1 + width % 300 if beyond else 1 + (width - 1) % block
        heads = stream_rows(seed, kinds, start, cols)
        trials = start + np.arange(1, cols + 1, dtype=float)
        alpha = np.array(alphas[: len(kinds)])
        lo0, up0 = carried_bounds(seed, carry, heads, trials, alpha)
        lo, up = accumulated_endpoints(heads, trials, alpha, lo0, up0)
        if where is None:
            passes = lambda lo, up: np.zeros(lo.shape[1], dtype=bool)  # noqa: E731
        else:
            eps = (up - lo).max(axis=0)[int(where * (cols - 1))] + 1e-12
            passes = lambda lo, up: (up - lo < eps).all(axis=0)  # noqa: E731
        if integer:
            heads, trials = heads.astype(np.int64), trials.astype(np.int64)
        col, got_lo, got_up = betting_first_pass(heads, trials, alpha, lo0, up0, passes)
        hit = passes(lo, up)
        want = int(np.argmax(hit)) if hit.any() else None
        at = cols - 1 if want is None else want
        assert col == want
        assert got_lo.tobytes() == lo[:, at].tobytes() and got_up.tobytes() == up[:, at].tobytes()


class TestExclusionEdge:
    @given(
        st.floats(0.0, 1.0),
        st.floats(1e-12, 0.999),
        st.integers(0, 30_000),
    )
    @example(0.0, 0.05, 3000)
    @example(1.0, 0.05, 3000)
    @example(1e-6, 1e-12, 30_000)
    @example(1.0 - 1e-6, 1e-12, 30_000)
    @example(0.5, 0.999, 30_000)
    def test_edges_clear_the_threshold_and_their_inner_neighbours_do_not(self, p, alpha, horizon):
        # each edge is on its side of p t and clears the threshold; the next
        # count toward the mean lies on the mean's side or does not clear it
        threshold = math.log(1.0 / alpha)
        t = np.arange(horizon + 1)
        mean = p * t

        def clears(h):
            with np.errstate(all="ignore"):
                return np.asarray(kt_log_wealth(h, t, p)) >= threshold

        up = exclusion_edge(horizon, p, threshold, upper=True)
        real = up <= t
        assert (up > mean)[real].all() and clears(np.minimum(up, t))[real].all()
        assert ((up - 1 <= mean) | ~clears(up - 1)).all()
        assert (up[~real] == t[~real] + 1).all()

        lo = exclusion_edge(horizon, p, threshold, upper=False)
        real = lo >= 0
        assert (lo < mean)[real].all() and clears(np.maximum(lo, 0))[real].all()
        assert ((lo + 1 >= mean) | ~clears(lo + 1)).all()
        assert (lo[~real] == -1).all()

    @given(
        st.floats(0.0, 1.0),
        st.floats(1e-12, 0.999),
        st.integers(0, 4 * anytime.sequences._BLOCK),
        st.booleans(),
    )
    @example(0.0, 0.05, 20_000, True)
    @example(1.0, 0.05, 20_000, False)
    @example(1e-6, 1e-12, 20_000, True)
    @example(1e-6, 1e-12, 20_000, False)
    @example(1.0 - 1e-6, 1e-12, 20_000, True)
    @example(1.0 - 1e-6, 1e-12, 20_000, False)
    @example(0.91, 0.001, 3 * anytime.sequences._BLOCK + 5, True)
    @example(0.5, 0.999, 2 * anytime.sequences._BLOCK, False)
    @example(0.25, 0.05, 3 * anytime.sequences._BLOCK + 5, True)  # the tie at t = 3
    def test_matches_the_bisection(self, p, alpha, horizon, upper):
        # the guided search narrows brackets only: its edges are the plain
        # bisection's, bit for bit, ties at the threshold included
        threshold = math.log(1.0 / alpha)
        want = bisect_exclusion_edge(horizon, p, threshold, upper)
        assert exclusion_edge(horizon, p, threshold, upper).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shift", [-1000, -3, -2, -1, 1, 2, 3, 1000, "jitter"])
    def test_a_wrong_guess_changes_no_edge(self, monkeypatch, rng, shift):
        # guesses off by a few counts take the later probe rounds, far-off
        # ones the bisection; the edges stay the bisection's
        guess_edges = anytime.sequences._guess_edges

        def wrong(*args):
            guess = guess_edges(*args)
            return guess + (rng.integers(-4, 5, guess.size) if shift == "jitter" else shift)

        monkeypatch.setattr(anytime.sequences, "_guess_edges", wrong)
        for p, alpha in [(0.91, 0.001), (0.25, 0.05), (0.5, 0.999), (1e-6, 1e-12)]:
            threshold = math.log(1.0 / alpha)
            for upper in (True, False):
                want = bisect_exclusion_edge(20_000, p, threshold, upper)
                got = exclusion_edge(20_000, p, threshold, upper)
                assert got.tobytes() == want.tobytes(), (p, alpha, upper)

    def test_the_tie_keeps_the_log_wealth_rounding(self):
        # at t = 3, p = 1/4 the wealth of 3 heads is 20 = 1/alpha exactly, and
        # kt_log_wealth rounds it below log 20: no edge, the sentinel 4
        threshold = math.log(1.0 / 0.05)
        assert kt_log_wealth(3, 3, 0.25) < threshold
        assert exclusion_edge(3, 0.25, threshold, upper=True)[3] == 4

    def test_about_two_log_wealth_evaluations_per_t(self, monkeypatch):
        # the tables config: a plain bisection evaluates 12.06 counts per t
        evaluated = []

        def counted(heads, trials, p):
            evaluated.append(np.size(heads))
            return unchecked(heads, trials, p)

        unchecked = anytime.sequences._kt_log_wealth
        monkeypatch.setattr(anytime.sequences, "_kt_log_wealth", counted)
        horizon, threshold = 125_000, math.log(1000.0)
        edges = exclusion_edge(horizon, 0.91, threshold, upper=True)
        assert sum(evaluated) <= 3 * (horizon + 1)
        assert edges.tobytes() == bisect_exclusion_edge(horizon, 0.91, threshold, True).tobytes()

    @pytest.mark.parametrize(
        "p, upper", [(1e-6, False), (0.0, False), (1.0, True), (1e-6, True), (0.91, False)]
    )
    def test_no_more_log_wealth_evaluations_than_the_bisection(self, monkeypatch, p, upper):
        # on the first three sides (almost) every bracket is closed or holds
        # one count, where a guess or a probe pair would cost more than the
        # bisection's one evaluation; on the last two the guesses pay off
        evaluated, bisected = [], []

        def counted(heads, trials, p):
            evaluated.append(np.size(heads))
            return unchecked(heads, trials, p)

        unchecked = anytime.sequences._kt_log_wealth
        monkeypatch.setattr(anytime.sequences, "_kt_log_wealth", counted)
        horizon, threshold = 125_000, math.log(1000.0)
        edges = exclusion_edge(horizon, p, threshold, upper)
        want = bisect_exclusion_edge(horizon, p, threshold, upper, evaluated=bisected)
        assert sum(evaluated) <= sum(bisected)
        assert edges.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_p_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must be in"):
            exclusion_edge(10, p, 1.0, upper=True)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_threshold_that_is_not_positive_and_finite(self, threshold):
        # NaN used to give every sentinel and -1 counts on the mean's side
        for upper in (True, False):
            with pytest.raises(ValueError, match="threshold must be positive and finite"):
                exclusion_edge(6, 0.5, threshold, upper)

    def test_horizon_zero_is_one_edge_and_a_negative_one_raises(self):
        # a negative horizon used to give an empty array
        assert exclusion_edge(0, 0.5, 1.0, upper=True).tolist() == [1]
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            exclusion_edge(-1, 0.5, 1.0, upper=True)


class TestDpThresholds:
    def test_empty_horizon(self):
        assert dp_thresholds(0, 0.3, 0.05).tolist() == [1]

    def test_blocks_give_the_same_table(self, monkeypatch):
        want = dp_thresholds(3000, 0.7, 0.01)
        monkeypatch.setattr(anytime.sequences, "_BLOCK", 8)
        assert dp_thresholds(3000, 0.7, 0.01).tobytes() == want.tobytes()

    def test_first_entries_at_half(self):
        table = dp_thresholds(4, 0.5, 0.05)
        # max single-toss wealth is 1 < 20: nothing decidable at t = 1
        assert table[1] == 2
        assert table[0] == 1

    @pytest.mark.parametrize("p,alpha", [(0.5, 0.05), (0.91, 0.001), (0.3, 0.01)])
    def test_matches_exact_rational_brute_force(self, p, alpha):
        table = dp_thresholds(60, p, alpha)
        fp = Fraction(p).limit_denominator(1000)
        fa = Fraction(alpha).limit_denominator(100000)
        for t in range(1, 61):
            assert table[t] == brute_halting_heads(t, fp, fa), f"t={t}"

    def test_nondecreasing(self):
        for p, alpha in [(0.5, 0.05), (0.91, 0.001)]:
            table = dp_thresholds(3000, p, alpha)
            assert np.all(np.diff(table) >= 0)

    def test_sentinel_when_unreachable(self):
        table = dp_thresholds(6, 0.5, 0.001)
        unreachable = table > np.arange(7)
        assert unreachable.all()  # even all heads cannot reach 1000 in 6 tosses

    def test_threshold_equivalence_with_betting_exclusion(self, rng):
        # heads >= H[t] iff the wealth against p clears 1/alpha on the
        # lower side; spot-check on random streams away from ties
        p, alpha = 0.43, 0.01
        table = dp_thresholds(400, p, alpha)
        thr = math.log(1.0 / alpha)
        for _ in range(20):
            bits = (rng.random(400) < 0.7).astype(int)
            heads = bits.cumsum()
            t = np.arange(1, 401)
            by_table = heads >= table[1:]
            by_wealth = (kt_log_wealth(heads, t, p) > thr) & (heads > p * t)
            assert np.array_equal(by_table, by_wealth)


class TestWidthEnvelopes:
    def test_union_envelope_value(self):
        val = ub_cs_width_envelope(1024, 0.001)
        np.testing.assert_allclose(
            val, math.sqrt((math.log(1000.0) + math.log(math.log(1024.0))) / 1024.0), atol=1e-12
        )
        assert abs(val - 0.093) < 1e-3

    def test_betting_envelope_value(self):
        np.testing.assert_allclose(
            bet_cs_width_envelope(256, 0.01),
            math.sqrt((math.log(100.0) + math.log(256.0)) / 256.0),
            atol=1e-12,
        )

    def test_union_rejects_small_t(self):
        with pytest.raises(ValueError):
            ub_cs_width_envelope(2, 0.05)

    def test_nonincreasing_from_eight(self):
        t = np.arange(8, 5000)
        for vals in (ub_cs_width_envelope(t, 0.001), bet_cs_width_envelope(t, 0.001)):
            assert np.all(np.diff(vals) <= 1e-15)
