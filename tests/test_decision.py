"""Sequential decision engine: CS rules, SPRT, the staged baseline, and the sweep.

Halting times on degenerate streams have exact values (derived by hand
from the per-step closed forms) and are frozen here; distributional
claims run as seeded Monte Carlo with explicit slack.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anytime import decision, sampling, sequences
from anytime.certify import CertSpec, ClassOracle, certify_staged, width_target_run
from anytime.decision import (
    DEFAULT_STAGES,
    TrialRecord,
    Verdict,
    benchmark_sweep,
    decide_with_cs,
    gap_lower_bound_info,
    nonadaptive_hoeffding,
    run_trial,
    sprt_ideal,
    staged_adaptive,
)
from anytime.mc import union_ever_excluded
from anytime.sampling import ArraySource, BernoulliSource, substream
from anytime.sequences import Schedule
from oracles import union_decide_scan


def ones(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.int64)


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


class TestSprt:
    def test_all_ones_halts_at_twelve(self):
        # per-head increment ln(0.91/0.5); threshold ln(1000)
        verdict, samples = sprt_ideal(0.5, 0.91, 0.001, ones(50), cap=50)
        assert verdict is Verdict.LESS
        assert samples == math.ceil(math.log(1000.0) / math.log(0.91 / 0.5)) == 12

    def test_swap_and_flip_is_mirror(self, rng):
        bits = (rng.random(4000) < 0.6).astype(np.int64)
        v1, n1 = sprt_ideal(0.5, 0.65, 0.01, bits, cap=4000)
        v2, n2 = sprt_ideal(0.5, 0.35, 0.01, 1 - bits, cap=4000)
        assert n1 == n2
        mirror = {Verdict.LESS: Verdict.GREATER, Verdict.GREATER: Verdict.LESS}
        assert v2 is mirror.get(v1, v1)

    def test_rejects_equal_hypotheses(self):
        with pytest.raises(ValueError):
            sprt_ideal(0.5, 0.5, 0.05, ones(4), cap=4)

    def test_cap_returns_undecided(self):
        verdict, samples = sprt_ideal(0.5, 0.52, 0.001, ArraySource([1, 0] * 10), cap=20)
        assert verdict is Verdict.UNDECIDED and samples == 20

    def test_mean_samples_scale_inverse_square(self):
        # Wald: mean halting time ~ ln(1/alpha) / KL ~ 1/eps^2
        means = {}
        for eps in (0.02, 0.04, 0.08):
            totals = 0
            for trial in range(250):
                stream = BernoulliSource(substream(99, "sprt-scale", str(eps), trial), 0.5)
                _, n = sprt_ideal(0.5 - eps, 0.5, 0.05, stream, cap=200000)
                totals += n
            means[eps] = totals / 250
        assert 4.0 / 1.5 <= means[0.02] / means[0.04] <= 4.0 * 1.5
        assert 16.0 / 1.5 <= means[0.02] / means[0.08] <= 16.0 * 1.5


class TestDecideWithCs:
    def test_betting_all_ones_halts_at_seven(self):
        # first t with (alpha * Q(t,t))^(1/t) > 0.5
        verdict, samples = decide_with_cs("betting", 0.5, ones(32), 0.05, cap=32)
        assert verdict is Verdict.LESS and samples == 7

    def test_union_all_ones_halts_by_sixteen(self):
        # at t = 16 (stage 5) the exclusion w * 2^-16 <= budget/2 holds for
        # every draw w, so 16 bounds the halting time; earlier boundaries
        # fire only for lucky draws
        seen = set()
        for trial in range(24):
            verdict, samples = decide_with_cs(
                "union", 0.5, ones(32), 0.05, cap=32, rng=substream(5, "w", trial)
            )
            assert verdict is Verdict.LESS and samples <= 16
            assert samples in (1, 2, 4, 8, 16)
            seen.add(samples)
        assert 16 in seen

    def test_union_frozen_halting_time(self):
        # substream(0, "w") happens to draw a tiny early-boundary w, freezing
        # one of the randomized exits before the deterministic t = 16 one
        verdict, samples = decide_with_cs(
            "union", 0.5, ones(32), 0.05, cap=32, rng=substream(0, "w")
        )
        assert (verdict, samples) == (Verdict.LESS, 2)

    def test_degenerate_thresholds(self):
        verdict, samples = decide_with_cs("betting", 0.0, ArraySource([0, 0, 1, 0]), 0.05, cap=4)
        assert (verdict, samples) == (Verdict.LESS, 3)
        verdict, samples = decide_with_cs("betting", 1.0, ArraySource([1, 1, 0, 1]), 0.05, cap=4)
        assert (verdict, samples) == (Verdict.GREATER, 3)

    def test_cap_undecided(self):
        verdict, samples = decide_with_cs("betting", 0.5, zeros(5), 0.001, cap=5)
        assert (verdict, samples) == (Verdict.UNDECIDED, 5)

    def test_null_mostly_undecided(self):
        alpha, cap, trials = 0.05, 2000, 200
        undecided = 0
        for trial in range(trials):
            stream = BernoulliSource(substream(7, "null", trial), 0.5)
            verdict, _ = decide_with_cs("betting", 0.5, stream, alpha, cap=cap)
            undecided += verdict is Verdict.UNDECIDED
        slack = 3.0 * math.sqrt(alpha * (1 - alpha) / trials)
        assert undecided / trials >= 1.0 - alpha - slack

    def test_union_runs_the_doubling_schedule_at_alpha(self):
        # the verdict comes at the first stage boundary where the doubling
        # schedule at alpha excludes p: the ever-exclusion kernel, given
        # the same draws, flags the stream up to that boundary and not
        # before it
        alpha, cap, decided = 0.01, 2000, 0
        sched = Schedule.doubling(alpha)
        for seed in range(20):
            q = (0.35, 0.45, 0.55, 0.65)[seed % 4]
            bits = (substream(seed, "doubling").random(cap) < q).astype(np.uint8)
            verdict, used = decide_with_cs("union", 0.5, bits, alpha, cap, rng=substream(seed, "w"))
            excluded = [
                bool(union_ever_excluded(bits[None, :n], 0.5, sched, substream(seed, "w"))[0])
                for n in (used - 1, used)
            ]
            if verdict is Verdict.UNDECIDED:
                assert excluded == [False, False] and used == cap
            else:
                assert excluded == [False, True] and used in sched.boundaries(cap)
                assert verdict is (Verdict.LESS if q > 0.5 else Verdict.GREATER)
                decided += 1
        assert 5 <= decided < 20

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            decide_with_cs("mystery", 0.5, ones(4), 0.05, cap=4)


class TestBlockSizes:
    """Verdicts are first crossings or stage counts, so the block cap must not change them.

    The cap is ``sampling._BLOCK``, the largest block of
    :func:`~anytime.sampling.blocks`, which every reader draws through;
    it is patched here.  The first ``p`` of each decider test decides
    after 8,128 bits, where blocks growing from 64 have reached the 4,096
    cap; the first input of each staged and width-target test stops past
    the first 4,096 bits too.
    """

    BITS = (substream(17, "blocks").random(30_000) < 0.6).astype(np.int64)

    @staticmethod
    def outcomes(monkeypatch, decide):
        out = {}
        for block in (1, 7, 4096):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            out[block] = decide()
        return out

    @pytest.mark.parametrize("p", [0.58, 0.63, 0.3])
    def test_betting_verdict_independent_of_block(self, monkeypatch, p):
        outcomes = self.outcomes(
            monkeypatch,
            lambda: decide_with_cs("betting", p, ArraySource(self.BITS), 0.01, cap=30_000),
        )
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes[4096][0] is not Verdict.UNDECIDED

    @pytest.mark.parametrize("p", [0.585, 0.65, 0.3])
    def test_sprt_verdict_independent_of_block(self, monkeypatch, p):
        outcomes = self.outcomes(
            monkeypatch, lambda: sprt_ideal(p, 0.6, 0.001, ArraySource(self.BITS), cap=30_000)
        )
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes[4096][0] is not Verdict.UNDECIDED

    @pytest.mark.parametrize("p", [0.58, 0.62, 0.3])
    def test_union_verdict_independent_of_block(self, monkeypatch, p):
        outcomes = self.outcomes(
            monkeypatch,
            lambda: decide_with_cs(
                "union", p, ArraySource(self.BITS), 0.01, 30_000, rng=substream(17, "w")
            ),
        )
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes[4096][0] is not Verdict.UNDECIDED

    @pytest.mark.parametrize("p", [0.58, 0.3, 0.59])
    def test_staged_verdict_independent_of_block(self, monkeypatch, p):
        outcomes = self.outcomes(
            monkeypatch,
            lambda: staged_adaptive(p, BernoulliSource(substream(17, "staged"), 0.6), 0.01),
        )
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes[4096][1] in DEFAULT_STAGES

    @pytest.mark.parametrize("radius", [0.2, 0.1, 0.25])
    def test_certify_staged_verdict_independent_of_block(self, monkeypatch, radius):
        spec = CertSpec(1.0, radius, 0.01)
        outcomes = self.outcomes(
            monkeypatch,
            lambda: certify_staged(ClassOracle((0.6, 0.3, 0.1), substream(17, "oracle")), 0, spec),
        )
        assert len(set(outcomes.values())) == 1, outcomes

    @pytest.mark.parametrize(
        ("kind", "eps"), [("betting", 0.05), ("betting", 0.3), ("union", 0.05), ("union", 0.3)]
    )
    def test_width_target_independent_of_block(self, monkeypatch, kind, eps):
        outcomes = self.outcomes(
            monkeypatch,
            lambda: width_target_run(
                ArraySource(self.BITS), eps, 0.01, kind, cap=30_000, rng=substream(17, "w")
            ),
        )
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes[4096][1] < 30_000


class TestUnionCells:
    """The union decider's cached stage windows give the plain stage scan's answers."""

    @given(
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        alpha_exp=st.floats(0.05, 12.0),
        cap=st.integers(1, 5000),
        shift=st.floats(-0.2, 0.2),
        length=st.one_of(st.none(), st.floats(0.0, 1.0)),
        iterable=st.booleans(),
        fresh=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(0.0, 3.0, 1000, 0.05, None, False, True, 0)
    @example(1.0, 12.0, 1000, -0.05, None, False, True, 1)
    @example(0.5, 12.0, 1023, 0.2, None, False, True, 2)
    @example(0.3, 2.0, 3000, 0.01, 0.5, False, False, 3)
    @example(0.7, 1.0, 3000, 0.0, 0.3, True, False, 4)
    def test_matches_the_stage_scan(self, p, alpha_exp, cap, shift, length, iterable, fresh, seed):
        # bits of mean near p, sometimes fewer than the last boundary needs;
        # each call twice, on a fresh cell or one left by earlier examples
        # and then on the cell the first call filled
        alpha = 10.0**-alpha_exp
        q = min(max(p + shift, 0.0), 1.0)
        n = cap if length is None else max(1, int(length * cap))
        bits = (substream(seed, "bits").random(n) < q).astype(np.uint8)
        try:
            expected = union_decide_scan(p, bits, alpha, cap, substream(seed, "w"))
        except RuntimeError:
            expected = "exhausted"
        if fresh:
            sequences._doubling_cell.cache_clear()
        for _ in range(2):
            stream = bits.tolist() if iterable else ArraySource(bits)
            try:
                verdict, samples = decide_with_cs(
                    "union", p, stream, alpha, cap, rng=substream(seed, "w")
                )
                got = (verdict.value, samples)
            except RuntimeError:
                got = "exhausted"
            assert got == expected

    def test_an_iterable_is_read_to_each_boundary(self):
        # sixteen ones decide at t = 16 at the latest; a block of 64 would
        # run the iterable out first
        verdict, samples = decide_with_cs("union", 0.5, [1] * 16, 0.05, cap=32)
        assert (verdict, samples) == (Verdict.LESS, 16)

    def test_a_short_iterable_decides_betting_as_the_array_does(self):
        # the first block asked for 32 bits of sixteen, which raised
        verdict = decide_with_cs("betting", 0.5, [1] * 16, 0.05, cap=32)
        assert verdict == decide_with_cs("betting", 0.5, np.ones(16), 0.05, cap=32)
        assert verdict == (Verdict.LESS, 7)

    def test_a_short_iterable_decides_sprt_as_the_array_does(self):
        verdict = sprt_ideal(0.5, 0.91, 0.001, [1] * 20, cap=50)
        assert verdict == sprt_ideal(0.5, 0.91, 0.001, np.ones(20), cap=50)
        assert verdict == (Verdict.LESS, 12)


class TestStagedAdaptive:
    def test_far_gap_decides_at_first_stage(self):
        hits = 0
        for trial in range(200):
            stream = BernoulliSource(substream(13, "far", trial), 0.99)
            verdict, samples = staged_adaptive(0.5, stream, 0.001)
            hits += verdict is Verdict.LESS and samples == 100
        assert hits >= 198

    def test_null_abstains(self):
        verdict, samples = staged_adaptive(0.5, BernoulliSource(substream(2, "n"), 0.5), 0.001)
        assert verdict is Verdict.ABSTAIN and samples == DEFAULT_STAGES[-1]

    def test_tiny_gap_mostly_abstains(self):
        # 1.2e5 samples cannot separate a 0.001 gap at these budgets
        abstained = 0
        for trial in range(40):
            stream = BernoulliSource(substream(21, "tiny", trial), 0.501)
            verdict, _ = staged_adaptive(0.5, stream, 0.001)
            abstained += verdict is Verdict.ABSTAIN
        assert abstained >= 36

    def test_cs_rules_only_undecided_at_cap_on_tiny_gap(self):
        cap = 20000
        for trial in range(10):
            stream = BernoulliSource(substream(22, "tiny-cs", trial), 0.501)
            verdict, samples = decide_with_cs("betting", 0.5, stream, 0.001, cap=cap)
            assert (verdict, samples) == (Verdict.UNDECIDED, cap)

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            staged_adaptive(0.5, ones(4), 0.001, stages=(100, 100))
        with pytest.raises(ValueError):
            staged_adaptive(0.5, ones(4), 0.001, stages=())


class TestNonadaptiveHoeffding:
    def test_equal_at_true_hypothesis(self):
        equal = 0
        for trial in range(300):
            stream = BernoulliSource(substream(31, "eq", trial), 0.5)
            out = nonadaptive_hoeffding(0.5, 0.1, 0.05, stream)
            assert out.samples == 600
            equal += out.equal
        assert equal / 300 >= 0.95

    def test_separated_mean_rejects_equality(self):
        for trial in range(100):
            stream = BernoulliSource(substream(32, "sep", trial), 0.7)
            out = nonadaptive_hoeffding(0.5, 0.1, 0.05, stream)
            assert not out.equal and out.verdict is Verdict.LESS

    def test_degenerate_eps_always_equal(self):
        out = nonadaptive_hoeffding(0.5, 1.0, math.exp(-1.0), ArraySource([1, 1]))
        assert out.equal and out.samples == 2


class TestSweep:
    def test_trial_record_wrongness(self):
        rec = TrialRecord("sprt", p=0.4, q=0.5, alpha=0.01, trial=0, verdict=Verdict.LESS, samples=3, seed=1, wall_ns=0)
        assert not rec.is_wrong()  # p < q and Less is the correct call
        rec2 = TrialRecord("sprt", p=0.6, q=0.5, alpha=0.01, trial=0, verdict=Verdict.LESS, samples=3, seed=1, wall_ns=0)
        assert rec2.is_wrong()
        rec3 = TrialRecord("sprt", p=0.6, q=0.5, alpha=0.01, trial=0, verdict=Verdict.UNDECIDED, samples=3, seed=1, wall_ns=0)
        assert not rec3.is_wrong()

    def test_cap_one_all_undecided(self):
        records, _ = benchmark_sweep(q=0.91, alpha=0.001, grid=[0.25, 0.75], trials=1, cap=1, seed=3)
        assert len(records) == 8  # 4 methods x 2 grid points
        assert all(r.verdict is Verdict.UNDECIDED and r.samples == 1 for r in records)

    def test_deterministic_across_reruns(self):
        kwargs = dict(q=0.91, alpha=0.01, grid=[0.4, 0.96], trials=6, cap=3000, seed=11)
        base_records, base_summary = benchmark_sweep(**kwargs)
        again_records, again_summary = benchmark_sweep(**kwargs)
        strip = lambda rs: [(r.method, r.p, r.trial, r.verdict, r.samples, r.seed) for r in rs]
        assert strip(base_records) == strip(again_records)
        assert base_summary == again_summary

    def test_summary_ratio_and_lower_bound(self):
        records, summaries = benchmark_sweep(
            q=0.91, alpha=0.01, grid=[0.5], trials=4, cap=4000, seed=2
        )
        by_method = {s.method: s for s in summaries}
        sprt_mean = by_method["sprt"].mean_samples
        for s in summaries:
            np.testing.assert_allclose(s.ratio_vs_sprt, s.mean_samples / sprt_mean, rtol=1e-12)
            np.testing.assert_allclose(s.lower_bound_info, gap_lower_bound_info(0.41), rtol=1e-12)
        assert by_method["sprt"].ratio_vs_sprt == 1.0

    def test_methods_subset(self):
        records, summaries = benchmark_sweep(
            q=0.8, alpha=0.05, grid=[0.3], trials=2, cap=500, seed=5, methods=("betting",)
        )
        assert {r.method for r in records} == {"betting"}
        assert all(math.isnan(s.ratio_vs_sprt) for s in summaries)


class TestCounts:
    """Caps and trial counts below 1, or not integers, raise instead of reading as verdicts."""

    @pytest.mark.parametrize("trials", [0, -1, 2.5])
    def test_sweep_rejects_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            benchmark_sweep(q=0.91, alpha=0.01, grid=[0.5], trials=trials)

    @pytest.mark.parametrize("cap", [0, -1, 2.5])
    def test_sweep_rejects_bad_cap_before_any_trial(self, monkeypatch, cap):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(decision, "run_trial", no_trial)
        with pytest.raises(ValueError, match="cap"):
            benchmark_sweep(q=0.91, alpha=0.01, grid=[0.5], trials=1, cap=cap, methods=("adaptive",))

    @pytest.mark.parametrize("cap", [0, -1, 2.5])
    def test_deciders_reject_bad_cap(self, cap):
        with pytest.raises(ValueError, match="cap"):
            sprt_ideal(0.5, 0.6, 0.01, ones(8), cap=cap)
        for kind in ("betting", "union"):
            with pytest.raises(ValueError, match="cap"):
                decide_with_cs(kind, 0.5, ones(8), 0.01, cap=cap)
        for method in decision.METHODS:
            with pytest.raises(ValueError, match="cap"):
                run_trial(method, 0.5, 0.6, 0.01, cap, substream(0, "cap", method))


class TestLowerBoundInfo:
    def test_frozen_value(self):
        np.testing.assert_allclose(gap_lower_bound_info(0.05), 18.2865, atol=5e-4)

    def test_outside_unit_interval_is_nan(self):
        assert math.isnan(gap_lower_bound_info(0.0))
        assert math.isnan(gap_lower_bound_info(1.0))
        assert math.isnan(gap_lower_bound_info(1.7))


class TestRunTrial:
    def test_adaptive_cap_between_stages(self):
        verdict, samples = run_trial("adaptive", 0.5, 0.5, 0.001, cap=5000, rng=substream(41, "a"))
        assert (verdict, samples) == (Verdict.UNDECIDED, 5000)

    def test_adaptive_cap_below_first_stage(self):
        verdict, samples = run_trial("adaptive", 0.5, 0.99, 0.001, cap=50, rng=substream(41, "b"))
        assert (verdict, samples) == (Verdict.UNDECIDED, 50)

    def test_adaptive_truncated_ladder_keeps_stage_budgets(self):
        # a clear gap still decides at stage one under a mid-ladder cap
        verdict, samples = run_trial("adaptive", 0.5, 0.99, 0.001, cap=5000, rng=substream(41, "c"))
        assert (verdict, samples) == (Verdict.LESS, 100)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_trial("oracle", 0.5, 0.9, 0.01, cap=10, rng=substream(41, "d"))
