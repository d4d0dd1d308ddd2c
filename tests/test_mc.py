"""Vectorized Monte Carlo kernels vs the stateful reference classes.

The kernels re-derive running endpoints and ever-exclusion flags with
matrix arithmetic; these tests force agreement with the bit-by-bit
class updates on shared streams, then spot-check the simulated coverage
numbers against exact enumeration.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import anytime.mc
from anytime.certify import binary_threshold
from anytime.intervals import enumeration_coverage
from anytime.mc import (
    bernoulli_matrix,
    betting_ever_excluded,
    betting_trace,
    mc_coverage,
    union_ever_excluded,
    union_trace,
)
from anytime.sampling import substream
from anytime.sequences import BettingCS, Schedule, UnionCS

from oracles import (
    BETTING_CROSSING_SEEDS,
    betting_ever_excluded_by_wealth,
    betting_scan,
    betting_scan_collapses,
    union_ever_excluded_by_tails,
)


def assert_same_bytes(got, want):
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestBettingTrace:
    def test_matches_stateful_updates(self, rng):
        bits = (rng.random(200) < 0.37).astype(np.int64)
        cs = BettingCS(0.01)
        ivs = [cs.update(int(b)) for b in bits]
        want = np.array([iv.lo for iv in ivs]), np.array([iv.up for iv in ivs])
        assert_same_bytes(betting_trace(bits, 0.01), want)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, math.nan])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            betting_trace(np.array([1, 0, 1, 1], dtype=np.uint8), alpha)

    @pytest.mark.parametrize("alpha", [1e-9, 0.001, 0.05, 0.5, 0.9])
    def test_matches_the_plain_scan_through_collapses(self, alpha):
        # streams that cross collapse to the sample mean, as BettingCS does,
        # whether traced alone or as rows of a matrix
        seeds = (0, *BETTING_CROSSING_SEEDS)
        bits = np.array([np.random.default_rng(s).random(300) < 0.5 for s in seeds], dtype=np.int64)
        rows = betting_trace(bits, alpha)
        for i, row in enumerate(bits):
            want = betting_scan(row, alpha).T
            assert_same_bytes(betting_trace(row, alpha), want)
            assert_same_bytes((rows[0][i], rows[1][i]), want)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.999])
    def test_one_running_call_per_collapse(self, monkeypatch, alpha):
        # from a collapsed mean the running bounds are again a running max
        # and min, so a trace makes one kernel call, plus one per collapse
        # before the last bit; the width command's seed-2 stream collapses
        # three times at alpha 0.5
        calls = []
        real = anytime.mc.betting_running

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(anytime.mc, "betting_running", spy)

        def restarts(row):
            want, steps = betting_scan_collapses(row, alpha)
            n = sum(j < row.size - 1 for j in steps)
            del calls[:]
            assert_same_bytes(betting_trace(row, alpha), want.T)
            assert len(calls) == 1 + n
            return n

        width = (substream(2, "width", "bits").random(4096) < 0.5).astype(np.int64)
        seed_2 = restarts(width)
        if alpha == 0.5:
            assert seed_2 == 3
        bits = np.array(
            [np.random.default_rng(s).random(300) < 0.5 for s in BETTING_CROSSING_SEEDS],
            dtype=np.int64,
        )
        total = sum(restarts(row) for row in bits)
        del calls[:]
        rows = betting_trace(bits, alpha)
        assert len(calls) == 1 + total
        for i, row in enumerate(bits):
            assert_same_bytes((rows[0][i], rows[1][i]), betting_scan(row, alpha).T)

    def test_matrix_rows_are_independent_streams(self, rng):
        bits = (rng.random((3, 60)) < 0.5).astype(np.int64)
        lo, up = betting_trace(bits, 0.05)
        for i in range(3):
            row_lo, row_up = betting_trace(bits[i], 0.05)
            np.testing.assert_array_equal(lo[i], row_lo)
            np.testing.assert_array_equal(up[i], row_up)

    def test_ever_excluded_consistent_with_trace(self, rng):
        alpha = 0.05
        bits = (rng.random((300, 128)) < 0.7).astype(np.int64)
        for p in (0.5, 0.7, 0.9):
            flagged = betting_ever_excluded(bits, p, alpha)
            lo, up = betting_trace(bits, alpha)
            outside = (lo[:, -1] > p + 1e-9) | (up[:, -1] < p - 1e-9)
            inside_always = (lo[:, -1] < p - 1e-9) & (up[:, -1] > p - 1e-9)
            # strict disagreement is only possible inside the bisection
            # tolerance band around an endpoint
            assert not np.any(outside & ~flagged)
            assert not np.any(inside_always & flagged)


class TestBettingEverExcluded:
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 0.02, 0.999, binary_threshold(0.5, 1.0)])
    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.5])
    def test_matches_the_log_wealth_at_every_step(self, p, alpha):
        # rows drawn around p, so some streams leave the CS and some never do
        rng = substream(31, "ever", str(p), str(alpha))
        q = np.clip(p + rng.normal(0.0, 0.05, size=(300, 1)), 0.0, 1.0)
        bits = (rng.random((300, 1500)) < q).astype(np.uint8)
        got = betting_ever_excluded(bits, p, alpha)
        np.testing.assert_array_equal(got, betting_ever_excluded_by_wealth(bits, p, alpha))
        assert 0 < got.sum() < got.size


class TestRejectsNonBits:
    KERNELS = {
        "betting_ever_excluded": lambda b: betting_ever_excluded(np.atleast_2d(b), 0.5, 0.05),
        "union_ever_excluded": lambda b: union_ever_excluded(
            np.atleast_2d(b), 0.5, Schedule(0.05), substream(1, "w")
        ),
        "betting_trace": lambda b: betting_trace(b, 0.05),
        "union_trace": lambda b: union_trace(b, Schedule(0.05), substream(1, "w")),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("bad", [2, 0.5])
    def test_rejects(self, kernel, bad):
        bits = np.array([bad, bad, 1, 0, 1])
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            self.KERNELS[kernel](bits)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("form", ["uint8", "bool", "int list"])
    def test_zero_one_input_passes(self, kernel, form):
        bits = substream(2, "bits").random(200) < 0.7
        given = {
            "uint8": bits.astype(np.uint8), "bool": bits, "int list": bits.astype(int).tolist()
        }
        want = self.KERNELS[kernel](bits.astype(np.int64))
        got = self.KERNELS[kernel](given[form])
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def stateful_union(bits, sched, draws):
    cs = UnionCS(sched, draws=None if draws is None else lambda: float(draws.random()))
    ivs = [cs.update(int(b)) for b in bits]
    return np.array([iv.lo for iv in ivs]), np.array([iv.up for iv in ivs])


class TestUnionTrace:
    def test_matches_stateful_updates_deterministic(self, rng):
        bits = (rng.random(300) < 0.4).astype(np.int64)
        sched = Schedule.doubling(0.01)
        assert_same_bytes(union_trace(bits, sched, None), stateful_union(bits, sched, None))

    def test_matches_stateful_updates_randomized(self):
        bits = (substream(3, "bits").random(150) < 0.6).astype(np.int64)
        sched = Schedule.doubling(0.05)
        want = stateful_union(bits, sched, substream(3, "draws"))
        assert_same_bytes(union_trace(bits, sched, substream(3, "draws")), want)

    @pytest.mark.parametrize("seed", [50, 164, 189, 229, 275])
    def test_crossed_interval_collapses_like_the_stateful_class(self, seed):
        # these streams cross at a stage boundary; the trace must collapse
        # to the sample mean there and carry on, as UnionCS does
        bits = (substream(seed, "b").random(64) < 0.5).astype(np.int64)
        sched = Schedule.doubling(0.05)
        lo, up = union_trace(bits, sched, substream(seed, "w"))
        assert (lo <= up).all()
        assert_same_bytes((lo, up), stateful_union(bits, sched, substream(seed, "w")))

    def test_ever_excluded_matches_trace(self):
        sched = Schedule.doubling(0.05)
        bits = (substream(9, "m").random((200, 256)) < 0.8).astype(np.int64)
        flagged = union_ever_excluded(bits, 0.5, sched, substream(9, "w"))
        ever = union_ever_excluded_by_tails(bits, 0.5, sched, substream(9, "w"))
        np.testing.assert_array_equal(flagged, ever)

    def test_validity_at_logged_times(self):
        # the full-horizon check: the true mean stays inside every logged
        # interval for at least a 1 - alpha fraction of streams
        alpha, p, streams, horizon = 0.05, 0.1, 1000, 512
        sched = Schedule.doubling(alpha)
        bits = bernoulli_matrix(substream(12, "bits"), streams, horizon, p)
        bad_union = union_ever_excluded(bits, p, sched, substream(12, "w"))
        bad_betting = betting_ever_excluded(bits, p, alpha)
        se = 3.0 * math.sqrt(alpha * (1 - alpha) / streams)
        assert bad_union.mean() <= alpha + se
        assert bad_betting.mean() <= alpha + se


class TestUnionEverExcluded:
    """The union kernel tests tails only inside the count windows, with every tail's answers."""

    SPECIAL_P = [
        0.0, 1.0, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), 1e-12, 1.0 - 1e-12
    ]

    @given(
        p=st.one_of(st.sampled_from(SPECIAL_P), st.floats(0.0, 1.0)),
        alpha_exp=st.floats(0.05, 12.0),
        schedule=st.one_of(
            st.sampled_from([(2.0, 0), (1.1, 4)]),
            st.tuples(st.floats(1.05, 4.0), st.integers(0, 30)),
        ),
        streams=st.integers(1, 4),
        horizon=st.integers(0, 2**16),
        shift=st.floats(-0.1, 0.1),
        seeded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(0.5, 12.0, (2.0, 0), 4, 2**16, 0.002, True, 0)
    @example(math.nextafter(1.0, 0.0), 12.0, (1.1, 4), 3, 2**16, -1e-4, True, 1)
    @example(1e-12, 3.0, (1.1, 4), 2, 4096, 0.0, False, 2)
    @example(0.0, 1.3, (2.0, 0), 2, 100, 0.01, True, 3)
    @example(0.3, 6.0, (1.05, 30), 4, 2**16, 0.004, False, 4)
    @example(0.5, 1.3, (2.0, 0), 3, 0, 0.0, True, 5)  # no stage at all
    def test_matches_every_tail(
        self, p, alpha_exp, schedule, streams, horizon, shift, seeded, seed
    ):
        # rows of mean near p, some of which leave the CS
        sched = Schedule(10.0**-alpha_exp, *schedule)
        rng = substream(seed, "bits")
        q = np.clip(p + shift * np.arange(streams)[:, None], 0.0, 1.0)
        bits = (rng.random((streams, horizon)) < q).astype(np.uint8)
        draws = (lambda: substream(seed, "w")) if seeded else (lambda: None)
        got = union_ever_excluded(bits, p, sched, draws())
        np.testing.assert_array_equal(got, union_ever_excluded_by_tails(bits, p, sched, draws()))


class TestMcCoverage:
    def test_tracks_enumeration(self):
        n, alpha, trials = 25, 0.05, 40000
        for p in (0.2, 0.6):
            for kind in ("cp", "rcp"):
                sim = mc_coverage(n, p, alpha, kind, "upper", trials, substream(4, kind, str(p)))
                exact = enumeration_coverage(n, p, alpha, kind=kind, side="upper")
                assert abs(sim - exact) < 4.0 * math.sqrt(exact * (1 - exact) / trials) + 1e-4

    @pytest.mark.parametrize(
        "n, alpha, trials",
        [(10, 2.0, 10), (10, math.nan, 10), (10, 0.0, 10), (0, 0.05, 10), (10, 0.05, 0), (10, 0.05, -1)],
    )
    def test_rejects_bad_alpha_n_and_trials(self, n, alpha, trials):
        with pytest.raises(ValueError):
            mc_coverage(n, 0.5, alpha, "rcp", "upper", trials, substream(0, "bad"))

    def test_two_sided_randomized_near_nominal(self):
        sim = mc_coverage(40, 0.37, 0.1, "rcp", "two", 60000, substream(8, "two"))
        assert abs(sim - 0.9) < 0.006

    def test_bernoulli_matrix_shape_and_mean(self):
        bits = bernoulli_matrix(substream(1, "b"), 500, 64, 0.25)
        assert bits.shape == (500, 64) and bits.dtype == np.uint8
        assert abs(bits.mean() - 0.25) < 0.01
