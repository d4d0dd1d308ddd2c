"""Smoothing-certification layer: radius geometry, drivers, and validity.

The unit tests pin the radius/threshold arithmetic against an erf-based
reference and freeze the driver behavior on scripted streams.  The
heavyweight class at the bottom replays the certification rules over
20,000 streams sitting exactly at the certification boundary and checks
the false-certification rate against the failure budget; the engine
itself is cross-checked on smaller runs (a subset argument for the
betting mode, an exact per-draw replay for the union mode).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import anytime.certify
import anytime.sequences

from anytime.binom import gauss_quantile
from anytime.certify import (
    DEFAULT_WARMUP,
    CertSpec,
    ClassOracle,
    binary_threshold,
    certify_binary,
    certify_multiclass,
    certify_staged,
    radius_gauss_l2,
    width_target_run,
)
from anytime.decision import Verdict
from anytime.intervals import rcp_upper_lo
from anytime.mc import bernoulli_matrix, betting_ever_excluded, union_ever_excluded
from anytime.sampling import substream
from anytime.sequences import Schedule, kt_log_wealth

from oracles import (
    gauss_cdf,
    gauss_quantile_by_bisection,
    multiclass_betting_scan,
    multiclass_union_scan,
)

PHI_ONE = 0.8413447460685429  # standard normal CDF at 1
# binary certification threshold for radius 1/2 at unit noise: Phi(1/2)
P_STAR_HALF = 0.6914624612740131


class _ScriptedOracle:
    """Class oracle replaying a fixed label array (for engine replays)."""

    n_classes = 2

    def __init__(self, labels):
        self._labels = np.asarray(labels, dtype=np.int64)
        self._pos = 0

    def sample(self, k: int) -> np.ndarray:
        out = self._labels[self._pos : self._pos + k]
        if out.size != k:
            raise RuntimeError("scripted oracle exhausted")
        self._pos += k
        return out


class TestRadiusGeometry:
    def test_zero_at_even_split(self):
        for sigma in (0.25, 1.0, 4.0):
            assert radius_gauss_l2(0.5, 0.5, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_unit_radius_at_one_sigma_quantiles(self):
        # Phi(1) against 1 - Phi(1) spans exactly two unit quantiles
        assert radius_gauss_l2(PHI_ONE, 1.0 - PHI_ONE, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_frozen_low_top_class_example(self):
        got = radius_gauss_l2(0.4, 0.2, 1.0)
        assert got == pytest.approx(0.2941370652185572, rel=1e-9)
        want = 0.5 * (gauss_quantile_by_bisection(0.4) - gauss_quantile_by_bisection(0.2))
        assert got == pytest.approx(want, abs=1e-8)

    def test_scales_linearly_with_sigma(self):
        base = radius_gauss_l2(0.8, 0.1, 1.0)
        assert radius_gauss_l2(0.8, 0.1, 2.5) == pytest.approx(2.5 * base, rel=1e-12)

    def test_negative_when_probabilities_reversed(self):
        assert radius_gauss_l2(0.2, 0.4, 1.0) < 0.0

    def test_monotone_in_both_probabilities(self):
        grid = np.linspace(0.05, 0.95, 10)
        r_a = [radius_gauss_l2(p, 0.3, 1.0) for p in grid]
        r_b = [radius_gauss_l2(0.7, p, 1.0) for p in grid]
        assert np.all(np.diff(r_a) > 0)
        assert np.all(np.diff(r_b) < 0)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            radius_gauss_l2(1.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            radius_gauss_l2(0.8, 0.0, 1.0)
        with pytest.raises(ValueError):
            radius_gauss_l2(0.8, 0.2, 0.0)
        with pytest.raises(ValueError):
            radius_gauss_l2(0.8, 0.2, math.nan)


class TestGuardedRadius:
    PROBS = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 1e-300, 1e-16, 1.0 - 1e-16, float("nan")]),
    )

    @given(PROBS, PROBS, st.sampled_from([0.25, 1.0, 3.0]))
    def test_float_path_equals_array_path(self, lo_a, up_b, sigma):
        got = anytime.certify._guarded_radius(lo_a, up_b, sigma)
        want = anytime.certify._guarded_radius(np.array([lo_a]), np.array([up_b]), sigma)
        assert np.array([got], dtype=float).tobytes() == want.tobytes()


class TestBinaryThreshold:
    def test_zero_radius_needs_majority_only(self):
        for sigma in (0.25, 1.0, 4.0):
            assert binary_threshold(0.0, sigma) == pytest.approx(0.5, abs=1e-10)

    def test_frozen_values(self):
        assert binary_threshold(1.0, 1.0) == pytest.approx(PHI_ONE, abs=1e-8)
        assert binary_threshold(0.5, 1.0) == pytest.approx(P_STAR_HALF, abs=1e-8)

    def test_matches_gauss_cdf(self):
        for radius, sigma in [(0.1, 1.0), (0.7, 0.5), (1.3, 2.0), (2.0, 1.0)]:
            assert binary_threshold(radius, sigma) == pytest.approx(
                gauss_cdf(radius / sigma), abs=1e-8
            )

    @given(
        radius=st.floats(min_value=0.01, max_value=2.0),
        sigma=st.floats(min_value=0.5, max_value=4.0),
    )
    def test_round_trips_through_radius(self, radius, sigma):
        p = binary_threshold(radius, sigma)
        assert radius_gauss_l2(p, 1.0 - p, sigma) == pytest.approx(radius, abs=1e-5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binary_threshold(-0.1, 1.0)
        with pytest.raises(ValueError):
            binary_threshold(0.5, 0.0)
        # NaN used to slip through every comparison (nan, 1.0 gave 3e-11)
        with pytest.raises(ValueError):
            binary_threshold(math.nan, 1.0)
        with pytest.raises(ValueError):
            binary_threshold(0.5, math.nan)


class TestClassOracle:
    def test_validates_probability_vector(self):
        rng = substream(0, "oracle-bad")
        with pytest.raises(ValueError):
            ClassOracle([], rng)
        with pytest.raises(ValueError):
            ClassOracle([[0.5, 0.5]], rng)
        with pytest.raises(ValueError):
            ClassOracle([1.2, -0.2], rng)
        with pytest.raises(ValueError):
            ClassOracle([0.5, 0.4], rng)

    def test_degenerate_class_always_wins(self):
        oracle = ClassOracle([0.0, 1.0], substream(0, "oracle-deg"))
        assert np.all(oracle.sample(500) == 1)

    def test_label_frequencies(self):
        probs = (0.5, 0.3, 0.2)
        oracle = ClassOracle(probs, substream(0, "oracle-freq"))
        freq = np.bincount(oracle.sample(1_000_000), minlength=3) / 1e6
        np.testing.assert_allclose(freq, probs, atol=2e-3)

    def test_sampling_is_a_deterministic_stream(self):
        a = ClassOracle((0.6, 0.4), substream(9, "oracle-det"))
        b = ClassOracle((0.6, 0.4), substream(9, "oracle-det"))
        np.testing.assert_array_equal(
            np.concatenate([a.sample(3), a.sample(7)]), b.sample(10)
        )

    def test_n_classes(self):
        assert ClassOracle((0.5, 0.25, 0.25), substream(0, "oracle-k")).n_classes == 3


class TestCertSpec:
    def test_defaults(self):
        spec = CertSpec(sigma=1.0, radius=0.5, alpha=0.01)
        assert spec.mode == "binary" and spec.lam == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            CertSpec(sigma=0.0, radius=0.5, alpha=0.01)
        with pytest.raises(ValueError):
            CertSpec(sigma=1.0, radius=-0.5, alpha=0.01)
        with pytest.raises(ValueError):
            CertSpec(sigma=math.nan, radius=0.5, alpha=0.01)
        with pytest.raises(ValueError):
            CertSpec(sigma=1.0, radius=math.nan, alpha=0.01, mode="multiclass")
        with pytest.raises(ValueError):
            CertSpec(sigma=1.0, radius=0.5, alpha=1.0)
        with pytest.raises(ValueError):
            CertSpec(sigma=1.0, radius=0.5, alpha=0.01, mode="smoothed")
        with pytest.raises(ValueError):
            CertSpec(sigma=1.0, radius=0.5, alpha=0.01, lam=1.0)


class TestCertifyBinary:
    SPEC = CertSpec(sigma=1.0, radius=0.5, alpha=0.01)

    def test_high_probability_certifies_fast(self):
        ok = 0
        for i in range(400):
            oracle = ClassOracle((0.99, 0.01), substream(25, "bin", i))
            verdict, used = certify_binary(oracle, 0, self.SPEC, cap=4096)
            ok += (verdict is Verdict.GREATER) and used <= 500
        assert ok >= 380

    def test_below_half_is_never_certifiable(self):
        # any positive radius needs a majority class, so p_a = 0.4 refutes
        spec = CertSpec(sigma=1.0, radius=0.25, alpha=0.01)
        less = 0
        for i in range(30):
            oracle = ClassOracle((0.4, 0.6), substream(26, "binlo", i))
            verdict, _ = certify_binary(oracle, 0, spec, cap=4096)
            less += verdict is Verdict.LESS
        assert less >= 28

    def test_zero_radius_reduces_to_majority_test(self):
        oracle = ClassOracle((0.99, 0.01), substream(25, "bin0"))
        verdict, used = certify_binary(oracle, 0, CertSpec(sigma=1.0, radius=0.0, alpha=0.01))
        assert verdict is Verdict.GREATER and used <= 100

    def test_undecided_at_tiny_cap(self):
        oracle = ClassOracle((0.99, 0.01), substream(28, "bincap"))
        assert certify_binary(oracle, 0, self.SPEC, cap=5) == (Verdict.UNDECIDED, 5)

    def test_union_kind_stops_on_stage_boundaries(self):
        oracle = ClassOracle((0.99, 0.01), substream(27, "binu"))
        verdict, used = certify_binary(
            oracle, 0, self.SPEC, cs_kind="union", cap=4096, rng=substream(27, "binuw")
        )
        assert verdict is Verdict.GREATER
        assert used in {int(b) for b in Schedule.doubling(0.01).boundaries(4096)}

    def test_validation(self):
        oracle = ClassOracle((0.5, 0.5), substream(0, "binv"))
        multi = CertSpec(sigma=1.0, radius=0.5, alpha=0.01, mode="multiclass")
        with pytest.raises(ValueError):
            certify_binary(oracle, 0, multi)
        with pytest.raises(ValueError):
            certify_binary(oracle, 2, self.SPEC)
        with pytest.raises(ValueError):
            certify_binary(oracle, 0, self.SPEC, cs_kind="mystery")


class TestCertifyStaged:
    SPEC = CertSpec(sigma=1.0, radius=0.5, alpha=0.01)

    def test_strong_class_certifies_at_first_stage(self):
        for i in range(10):
            oracle = ClassOracle((0.99, 0.01), substream(24, "st", i))
            assert certify_staged(oracle, 0, self.SPEC) == (Verdict.GREATER, 100)

    def test_weak_class_abstains_never_refutes(self):
        for i in range(5):
            oracle = ClassOracle((0.4, 0.6), substream(24, "st-low", i))
            verdict, used = certify_staged(oracle, 0, self.SPEC, stages=(50, 120))
            assert verdict is Verdict.ABSTAIN and used == 120

    def test_validation(self):
        oracle = ClassOracle((0.5, 0.5), substream(0, "stv"))
        with pytest.raises(ValueError):
            certify_staged(oracle, 0, self.SPEC, stages=())
        with pytest.raises(ValueError):
            certify_staged(oracle, 0, self.SPEC, stages=(100, 100))
        with pytest.raises(ValueError):
            certify_staged(oracle, 0, self.SPEC, stages=(0, 10))
        multi = CertSpec(sigma=1.0, radius=0.5, alpha=0.01, mode="multiclass")
        with pytest.raises(ValueError):
            certify_staged(oracle, 0, multi)


class TestCertifyMulticlass:
    # top class at 0.4 still certifies radius 0.2: the true radius is
    # (1/2)(q(0.4) - q(0.2)) ~ 0.294, while the binary reduction is stuck
    # below the p > 1/2 wall
    SPEC = CertSpec(sigma=1.0, radius=0.2, alpha=0.01, mode="multiclass")
    PROBS = (0.4, 0.2, 0.2, 0.2)

    def test_low_top_class_certifies_where_binary_cannot(self):
        for i in range(3):
            oracle = ClassOracle(self.PROBS, substream(21, "low-top", i))
            verdict, used = certify_multiclass(oracle, self.SPEC, cs_kind="betting", cap=30_000)
            assert verdict is Verdict.GREATER
            assert DEFAULT_WARMUP <= used < 30_000

            oracle = ClassOracle(self.PROBS, substream(21, "low-top-b", i))
            binary = CertSpec(sigma=1.0, radius=0.2, alpha=0.01)
            assert certify_binary(oracle, 0, binary, cap=30_000)[0] is Verdict.LESS

    def test_union_kind_certifies_on_a_boundary(self):
        oracle = ClassOracle(self.PROBS, substream(21, "low-top-u"))
        verdict, used = certify_multiclass(
            oracle, self.SPEC, cs_kind="union", cap=65_536, rng=substream(21, "low-top-uw")
        )
        assert verdict is Verdict.GREATER
        assert used in {int(b) for b in Schedule.doubling(0.01).boundaries(65_536)}
        assert used > DEFAULT_WARMUP

    def test_unreachable_radius_is_refuted_before_cap(self):
        # true radius ~ 0.126, far below the requested 0.5: the optimistic
        # branch falls short once both streams tighten a little
        spec = CertSpec(sigma=1.0, radius=0.5, alpha=0.01, mode="multiclass")
        for i in range(10):
            oracle = ClassOracle((0.55, 0.45), substream(22, "ref", i))
            verdict, used = certify_multiclass(oracle, spec, cs_kind="betting", cap=4096)
            assert verdict is Verdict.LESS
            assert DEFAULT_WARMUP <= used < 4096

    def test_undecided_when_cap_is_too_small(self):
        oracle = ClassOracle(self.PROBS, substream(23, "und"))
        assert certify_multiclass(oracle, self.SPEC, cs_kind="betting", cap=200) == (
            Verdict.UNDECIDED,
            200,
        )

    def test_cap_within_warmup_is_undecided(self):
        oracle = ClassOracle(self.PROBS, substream(23, "und-warm"))
        assert certify_multiclass(oracle, self.SPEC, cap=50) == (Verdict.UNDECIDED, 50)

    @pytest.mark.parametrize("seeded", [True, False])
    def test_union_stage_is_one_call_a_first(self, monkeypatch, seeded):
        # with the certified stopping forced open (every endpoint capped only
        # by 1, so every stage could certify) both streams' bounds come from
        # one rcp_upper_lo call per stage, with budgets (lam b, (1 - lam) b)
        # and class A's uniform drawn first
        calls = []
        real = anytime.sequences.rcp_upper_lo

        def recording(x, n, alpha, w):
            calls.append((n, np.asarray(alpha).tolist(), np.asarray(w).tolist()))
            return real(x, n, alpha, w)

        monkeypatch.setattr(anytime.sequences, "rcp_upper_lo", recording)
        monkeypatch.setattr(anytime.certify, "rcp_upper_lo_bound", lambda x, n, a, w: np.ones(2))
        spec = CertSpec(sigma=1.0, radius=5.0, alpha=0.01, mode="multiclass", lam=0.3)
        rng = substream(24, "stage-draws") if seeded else None
        oracle = ClassOracle(self.PROBS, substream(24, "stage-labels"))
        assert certify_multiclass(oracle, spec, "union", cap=4096, rng=rng)[0] is Verdict.UNDECIDED
        draws = substream(24, "stage-draws")
        sched = Schedule.doubling(0.01)
        stages = [
            (k, int(b)) for k, b in enumerate(sched.boundaries(4096), 1) if b > DEFAULT_WARMUP
        ]
        assert len(calls) == len(stages)
        for (n, alpha, w), (k, b) in zip(calls, stages):
            assert n == b
            assert alpha == [0.3 * sched.budget(k), (1.0 - 0.3) * sched.budget(k)]
            assert w == ([draws.random(), draws.random()] if seeded else 1.0)

    @pytest.mark.parametrize("seeded", [True, False])
    def test_union_solved_elements_keep_their_stage(self, monkeypatch, seeded):
        # with the certified stopping on, the stages that wait are solved
        # later, several to a call; each solved element must still carry its
        # own stage's t, budget share and draw
        calls = []
        real = anytime.sequences.rcp_upper_lo

        def recording(x, n, alpha, w):
            size = np.size(x)
            calls.append([np.broadcast_to(v, (size,)).tolist() for v in (n, alpha, w)])
            return real(x, n, alpha, w)

        monkeypatch.setattr(anytime.sequences, "rcp_upper_lo", recording)
        sched = Schedule.doubling(0.001)
        draws = substream(25, "stage-draws")
        boundaries = sched.boundaries(100_000)
        stage_draws = {int(b): (draws.random(), draws.random()) if seeded else (1.0, 1.0)
                       for b in boundaries if b > DEFAULT_WARMUP}
        stage_budgets = {int(b): sched.budget(k) for k, b in enumerate(boundaries, 1)}
        waited = 0
        for i, radius in enumerate((0.1, 0.2)):
            spec = CertSpec(sigma=1.0, radius=radius, alpha=0.001, mode="multiclass", lam=0.3)
            rng = substream(25, "stage-draws") if seeded else None
            oracle = ClassOracle(self.PROBS, substream(25, "stage-labels", i))
            verdict, used = certify_multiclass(oracle, spec, "union", cap=100_000, rng=rng)
            assert verdict is Verdict.GREATER
            solved = [e for call in calls for e in zip(*call)]
            waited += len({n for n, _, _ in solved}) > len(calls)
            for n, alpha, w in solved:
                b = stage_budgets[n]
                side = [0.3 * b, 0.7 * b].index(alpha)
                assert w == stage_draws[n][side]
            assert max(n for n, _, _ in solved) == used
            calls.clear()
        assert waited  # some call solved more than one stage

    @pytest.mark.parametrize("cap", [DEFAULT_WARMUP + 1, 6_000, 100_000])
    def test_union_matches_the_plain_scan(self, cap):
        # certified stopping gives the verdict and sample count of a scan
        # that solves every stage
        verdicts = set()
        for seed in range(50):
            probs, radius = self.SCAN_CASES[seed % len(self.SCAN_CASES)]
            lam = 0.5 if seed % 2 else 0.3
            sched = Schedule.doubling(0.01)
            spec = CertSpec(sigma=1.0, radius=radius, alpha=0.01, mode="multiclass", lam=lam)
            seeded = seed % 3 != 0
            oracle = ClassOracle(probs, substream(33, "scan", seed))
            rng = substream(33, "draws", seed) if seeded else None
            verdict, used = certify_multiclass(oracle, spec, "union", cap, rng=rng)
            oracle = ClassOracle(probs, substream(33, "scan", seed))
            rng = substream(33, "draws", seed) if seeded else None
            want = multiclass_union_scan(
                oracle.sample, len(probs), 1.0, radius, lam, cap, DEFAULT_WARMUP,
                sched.boundaries(cap), sched.budget, rng,
            )
            assert (verdict.value, used) == want, seed
            verdicts.add(want[0])
        assert verdicts == ({"undecided"} if cap < 4096 else {"greater", "undecided"})

    def test_union_waits_on_the_bounds_of_waiting_stages(self, monkeypatch):
        # with the tightest valid bound (each endpoint itself) A's best
        # bound and B's may come from different waiting stages; a stage may
        # wait only if the pair built from all of them cannot certify
        monkeypatch.setattr(anytime.certify, "rcp_upper_lo_bound", rcp_upper_lo)
        sched = Schedule.geometric(0.01)
        certified = 0
        for seed in range(40):
            probs = ((0.8, 0.2), (0.6, 0.15, 0.15, 0.1))[seed % 2]
            radius = (0.02, 0.1, 0.2, 0.3)[seed % 4]
            lam = (0.3, 0.7)[seed // 2 % 2]
            spec = CertSpec(sigma=1.0, radius=radius, alpha=0.01, mode="multiclass", lam=lam)
            oracle = ClassOracle(probs, substream(37, "tight", seed))
            verdict, used = certify_multiclass(
                oracle, spec, "union", 20_000, schedule=sched, rng=substream(38, seed), warmup=10
            )
            oracle = ClassOracle(probs, substream(37, "tight", seed))
            want = multiclass_union_scan(
                oracle.sample, len(probs), 1.0, radius, lam, 20_000, 10,
                sched.boundaries(20_000), sched.budget, substream(38, seed),
            )
            assert (verdict.value, used) == want, seed
            certified += want[0] == "greater"
        assert certified >= 30

    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.integers(0, 3),
        lam=st.sampled_from([0.5, 0.3]),
        cap=st.sampled_from([DEFAULT_WARMUP + 1, 700, 6_000]),
        claim=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20)
    def test_betting_verdict_ignores_a_false_certified_stop(self, seed, case, lam, cap, claim):
        # certified bounds that wrongly claim everything settled from some
        # step on only move where the exact bounds are solved first; the
        # verdict and sample count still come from the exact bounds
        probs, radius = self.SCAN_CASES[case]
        claim_t = DEFAULT_WARMUP + claim * (cap - DEFAULT_WARMUP)

        def claiming(heads, trials, alpha):
            settled = np.broadcast_to(trials >= claim_t, np.shape(heads))
            return np.where(settled, 1.0, -np.inf), np.where(settled, 0.0, np.inf)

        spec = CertSpec(sigma=1.0, radius=radius, alpha=0.01, mode="multiclass", lam=lam)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anytime.certify, "betting_certified", claiming)
            oracle = ClassOracle(probs, substream(34, "false-stop", seed))
            verdict, used = certify_multiclass(oracle, spec, cs_kind="betting", cap=cap)
        oracle = ClassOracle(probs, substream(34, "false-stop", seed))
        want = multiclass_betting_scan(
            oracle.sample, len(probs), 1.0, radius, 0.01, lam, cap, DEFAULT_WARMUP
        )
        assert (verdict.value, used) == want

    @pytest.mark.parametrize("hint", ["none", "late"])
    def test_betting_verdict_survives_a_poor_hint(self, hint):
        # valid but uninformative certified bounds (none at all, or only
        # from some step on) hint at the verdict late or never: the exact
        # bounds at the hinted column, or at the block's last, still pass,
        # and the search backs up to the first exact pass
        real = anytime.certify.betting_certified

        def poor(heads, trials, alpha):
            lo, up = real(heads, trials, alpha)
            late = np.broadcast_to(trials >= (np.inf if hint == "none" else 2_500), np.shape(lo))
            return np.where(late, lo, -np.inf), np.where(late, up, np.inf)

        verdicts = set()
        for seed in range(12):
            probs, radius = self.SCAN_CASES[seed % len(self.SCAN_CASES)]
            lam = 0.5 if seed % 2 else 0.3
            spec = CertSpec(sigma=1.0, radius=radius, alpha=0.01, mode="multiclass", lam=lam)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(anytime.certify, "betting_certified", poor)
                oracle = ClassOracle(probs, substream(39, "poor-hint", seed))
                verdict, used = certify_multiclass(oracle, spec, cs_kind="betting", cap=9_000)
            oracle = ClassOracle(probs, substream(39, "poor-hint", seed))
            want = multiclass_betting_scan(
                oracle.sample, len(probs), 1.0, radius, 0.01, lam, 9_000, DEFAULT_WARMUP
            )
            assert (verdict.value, used) == want, seed
            verdicts.add(want[0])
        assert {"greater", "less"} <= verdicts

    # (probs, radius, alpha, cap): a tiny alpha, and 50 near-tied classes
    EXTREME_CASES = (
        ((0.4, 0.2, 0.2, 0.2), 0.1, 1e-9, 20_000),
        ((0.4, 0.2, 0.2, 0.2), 0.6, 1e-9, 20_000),
        ((0.55, 0.45), 0.3, 1e-9, 20_000),
        ((0.02,) * 50, 0.02, 0.2, 6_000),
        ((0.02,) * 50, 0.5, 0.2, 6_000),
    )

    @pytest.mark.parametrize("cs_kind", ["betting", "union"])
    def test_extreme_alpha_and_many_near_ties_match_the_scans(self, cs_kind):
        verdicts = set()
        for seed in range(10):
            probs, radius, alpha, cap = self.EXTREME_CASES[seed % len(self.EXTREME_CASES)]
            lam = 0.5 if seed % 2 else 0.3
            spec = CertSpec(sigma=1.0, radius=radius, alpha=alpha, mode="multiclass", lam=lam)
            sched = Schedule.doubling(alpha)
            oracle = ClassOracle(probs, substream(40, "extreme", seed))
            verdict, used = certify_multiclass(
                oracle, spec, cs_kind, cap, rng=substream(41, seed) if seed % 3 else None
            )
            oracle = ClassOracle(probs, substream(40, "extreme", seed))
            if cs_kind == "betting":
                want = multiclass_betting_scan(
                    oracle.sample, len(probs), 1.0, radius, alpha, lam, cap, DEFAULT_WARMUP
                )
            else:
                want = multiclass_union_scan(
                    oracle.sample, len(probs), 1.0, radius, lam, cap, DEFAULT_WARMUP,
                    sched.boundaries(cap), sched.budget, substream(41, seed) if seed % 3 else None,
                )
            assert (verdict.value, used) == want, seed
            verdicts.add(want[0])
        assert len(verdicts) >= 2, verdicts

    # degenerate class probabilities, warmup 1: the runner-up never shows
    # up, or the two classes tie exactly
    @pytest.mark.parametrize("probs", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.5, 0.5)])
    @pytest.mark.parametrize("cs_kind", ["betting", "union"])
    def test_degenerate_probabilities_match_the_scans(self, probs, cs_kind):
        sched = Schedule.doubling(0.01)
        for i, radius in enumerate((0.0, 0.2, 1.0, 5.0)):
            spec = CertSpec(sigma=1.0, radius=radius, alpha=0.01, mode="multiclass")
            for cap in (2, 1_000, 20_000):
                oracle = ClassOracle(probs, substream(35, "degenerate", i, cap))
                with np.errstate(all="raise"):
                    verdict, used = certify_multiclass(
                        oracle, spec, cs_kind, cap, rng=substream(36, "draws"), warmup=1
                    )
                oracle = ClassOracle(probs, substream(35, "degenerate", i, cap))
                if cs_kind == "betting":
                    want = multiclass_betting_scan(
                        oracle.sample, len(probs), 1.0, radius, 0.01, 0.5, cap, 1
                    )
                else:
                    want = multiclass_union_scan(
                        oracle.sample, len(probs), 1.0, radius, 0.5, cap, 1,
                        sched.boundaries(cap), sched.budget, substream(36, "draws"),
                    )
                assert (verdict.value, used) == want, (radius, cap)

    # (probs, radius): certified, refuted, certified at the warmup step
    SCAN_CASES = (
        ((0.4, 0.2, 0.2, 0.2), 0.1),
        ((0.4, 0.2, 0.2, 0.2), 0.6),
        ((0.55, 0.45), 0.3),
        ((0.97, 0.01, 0.01, 0.01), 0.1),
    )

    @pytest.mark.parametrize("cap", [DEFAULT_WARMUP + 1, 6_000, 100_000])
    def test_betting_matches_the_plain_scan(self, cap):
        # the screened running bounds stop at the same step with the same
        # verdict as a scan that solves and accumulates every endpoint
        verdicts = set()
        for seed in range(50):
            probs, radius = self.SCAN_CASES[seed % len(self.SCAN_CASES)]
            lam = 0.5 if seed % 2 else 0.3
            spec = CertSpec(sigma=1.0, radius=radius, alpha=0.01, mode="multiclass", lam=lam)
            oracle = ClassOracle(probs, substream(31, "scan", seed))
            verdict, used = certify_multiclass(oracle, spec, cs_kind="betting", cap=cap)
            oracle = ClassOracle(probs, substream(31, "scan", seed))
            want = multiclass_betting_scan(
                oracle.sample, len(probs), 1.0, radius, 0.01, lam, cap, DEFAULT_WARMUP
            )
            assert (verdict.value, used) == want, seed
            verdicts.add(want[0])
        assert "undecided" in verdicts if cap < 4096 else {"greater", "less"} <= verdicts

    def test_validation(self):
        oracle = ClassOracle(self.PROBS, substream(0, "mcv"))
        binary = CertSpec(sigma=1.0, radius=0.2, alpha=0.01)
        with pytest.raises(ValueError):
            certify_multiclass(oracle, binary)
        with pytest.raises(ValueError):
            certify_multiclass(ClassOracle((1.0,), substream(0, "mcv1")), self.SPEC)
        with pytest.raises(ValueError):
            certify_multiclass(oracle, self.SPEC, cs_kind="mystery")
        with pytest.raises(ValueError):
            certify_multiclass(oracle, self.SPEC, warmup=0)
        with pytest.raises(ValueError):
            certify_multiclass(
                oracle, self.SPEC, cs_kind="union", schedule=Schedule.doubling(0.5)
            )


class TestWidthTarget:
    def test_alternating_stream_frozen_sample_count(self):
        bits = np.tile(np.array([1, 0], dtype=np.uint8), 500)
        iv, used = width_target_run(bits, 0.5, 0.05)
        assert used == 34
        assert iv.up - iv.lo < 0.5
        assert iv.lo < 0.5 < iv.up

    def test_trivial_target_stops_after_one_sample(self):
        bits = np.ones(10, dtype=np.uint8)
        _, used = width_target_run(bits, 1.0, 0.05)
        assert used == 1

    def test_width_beats_target_before_cap(self, rng):
        bits = (rng.random(4096) < 0.5).astype(np.uint8)
        iv, used = width_target_run(bits, 0.2, 0.05, cap=4096)
        assert used < 4096
        assert iv.up - iv.lo < 0.2

    def test_cap_hit_leaves_width_above_target(self, rng):
        bits = (rng.random(300) < 0.5).astype(np.uint8)
        iv, used = width_target_run(bits, 0.005, 0.05, cap=300)
        assert used == 300
        assert iv.up - iv.lo >= 0.005

    def test_union_variant_frozen(self):
        bits = np.tile(np.array([1, 0], dtype=np.uint8), 1024)
        iv, used = width_target_run(bits, 0.25, 0.05, cs_kind="union")
        assert used == 256  # deterministic-CP variant stops on this boundary
        assert iv.up - iv.lo < 0.25
        assert iv.lo == pytest.approx(1.0 - iv.up, abs=1e-12)

    def test_union_variant_randomized_is_reproducible(self):
        bits = np.tile(np.array([1, 0], dtype=np.uint8), 1024)
        runs = [
            width_target_run(bits, 0.25, 0.05, cs_kind="union", rng=substream(4, "wtu"))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_validation(self):
        bits = np.ones(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            width_target_run(bits, 0.0, 0.05)
        with pytest.raises(ValueError):  # NaN would run to the end of the stream
            width_target_run(bits, math.nan, 0.05)
        with pytest.raises(ValueError):
            width_target_run(bits, 0.5, 1.5)
        with pytest.raises(ValueError):
            width_target_run(bits, 0.5, 0.05, cap=0)
        with pytest.raises(ValueError):
            width_target_run(bits, 0.5, 0.05, cs_kind="mystery")
        with pytest.raises(ValueError):
            width_target_run(bits, 0.5, 0.05, cs_kind="union", schedule=Schedule.doubling(0.5))


class TestMulticlassNearTies:
    """Many uniform classes: the warmup's pick of class A is a coin toss.

    Class A is chosen from warmup samples that then count in its own
    confidence sequence, so its count starts high by selection.  With K
    equal classes the true radius is 0 and every certificate at a
    positive radius is wrong; the rate must stay within ``alpha``.
    """

    ALPHA = 0.2
    CAP = 2000
    TRIALS = 250

    @pytest.mark.parametrize("cs_kind", ["betting", "union"])
    @pytest.mark.parametrize("warmup", [20, 100])
    @pytest.mark.parametrize("k", [10, 50])
    def test_false_certification_rate(self, k, warmup, cs_kind):
        spec = CertSpec(sigma=1.0, radius=0.05, alpha=self.ALPHA, mode="multiclass")
        wrong = 0
        for trial in range(self.TRIALS):
            path = ("near-tie", k, warmup, cs_kind, trial)
            oracle = ClassOracle(np.full(k, 1.0 / k), substream(41, *path))
            verdict, _ = certify_multiclass(
                oracle, spec, cs_kind, self.CAP, rng=substream(42, *path), warmup=warmup
            )
            wrong += verdict is Verdict.GREATER
        assert wrong <= stats.binom.ppf(0.999, self.TRIALS, self.ALPHA), wrong


# ---------------------------------------------------------------------------
# Boundary validity: replay the certification rules over many streams.
#
# With two classes and an even budget split the engine's streams are
# complements of each other, which makes vectorized replays possible:
# the pessimistic radius is driven by the top-class counts alone.


def _top_class_counts(bits: np.ndarray, warmup: int = DEFAULT_WARMUP):
    """Cumulative count of the warmup-winning class per stream.

    Mirrors the engine's freeze of class A: argmax of the warmup counts,
    ties to class 0 (the bit value 1 encodes "class 0 observed").
    """
    heads = np.cumsum(bits, axis=1, dtype=np.int64)
    t_arr = np.arange(1, bits.shape[1] + 1, dtype=np.int64)
    flipped = heads[:, warmup - 1] * 2 < warmup
    return np.where(flipped[:, None], t_arr[None, :] - heads, heads), t_arr


def _pessimistic_radius(lo_a, up_b, sigma):
    # same endpoint conventions as the engine: an uninformative bound
    # (lo_a = 0 or up_b = 1) suppresses the radius even when the other
    # side is degenerate-strong
    lo_a = np.asarray(lo_a, dtype=float)
    up_b = np.asarray(up_b, dtype=float)
    tiny = 1e-15
    r = 0.5 * sigma * (
        gauss_quantile(np.clip(lo_a, tiny, 1.0 - tiny))
        - gauss_quantile(np.clip(up_b, tiny, 1.0 - tiny))
    )
    r = np.where((lo_a >= 1.0) | (up_b <= 0.0), np.inf, r)
    return np.where((lo_a <= 0.0) | (up_b >= 1.0), -np.inf, r)


def _betting_cert_ever(h_a, t_arr, p_star, alpha, warmup=DEFAULT_WARMUP):
    """Would the even-split two-class betting engine ever certify?

    At lam = 1/2 the runner-up stream is the exact complement of the A
    stream at the same budget, so the pessimistic radius reduces to
    sigma * q(lower bound on A) and certification at radius
    sigma * q(p_star) means the A-stream CS at budget alpha/2 excludes
    p_star from below at some t >= warmup.  The engine can only stop
    earlier via its refute branch, never certify more often, so this
    over-counts engine certifications.
    """
    sl = slice(warmup - 1, None)
    log_w = kt_log_wealth(h_a[:, sl].astype(float), t_arr[sl].astype(float), p_star)
    above = h_a[:, sl] > p_star * t_arr[sl]
    return ((log_w > math.log(2.0 / alpha)) & above).any(axis=1)


def _union_cert_ever(h_a, t_arr, sigma, radius, alpha, rng, warmup=DEFAULT_WARMUP):
    """Would the even-split two-class union engine ever certify?

    Replays the stage updates exactly: one-sided rcp bounds at the
    lam-split stage budgets, boundaries inside the warmup skipped with
    the budget index kept global, and with two classes the runner-up
    complement count is the A count again.  The uniforms arrive in a
    different order than the engine's per-trial draws, which leaves the
    certification rate unchanged.
    """
    sched = Schedule.doubling(alpha)
    n = h_a.shape[0]
    lo_a = np.zeros(n)
    up_b = np.ones(n)
    cert = np.zeros(n, dtype=bool)
    for k_idx, t_k in enumerate(sched.boundaries(t_arr[-1]), start=1):
        t_k = int(t_k)
        if t_k <= warmup:
            continue
        per_side = 0.5 * sched.budget(k_idx)
        x = h_a[:, t_k - 1]
        lo_a = np.maximum(lo_a, rcp_upper_lo(x, t_k, per_side, rng.random(n)))
        up_b = np.minimum(up_b, 1.0 - rcp_upper_lo(x, t_k, per_side, rng.random(n)))
        cert |= _pessimistic_radius(lo_a, up_b, sigma) >= radius
    return cert


def _replay_union_engine(labels, spec, cap, rng, warmup=DEFAULT_WARMUP):
    """Scalar re-implementation of the multiclass union driver (2 classes)."""
    heads = np.cumsum((np.asarray(labels) == 0).astype(np.int64))
    a_is_zero = heads[warmup - 1] * 2 >= warmup
    lo_a, up_b = 0.0, 1.0
    sched = Schedule.doubling(spec.alpha)
    for k_idx, t_k in enumerate(sched.boundaries(cap), start=1):
        t_k = int(t_k)
        if t_k <= warmup:
            continue
        budget = sched.budget(k_idx)
        x = int(heads[t_k - 1]) if a_is_zero else t_k - int(heads[t_k - 1])
        lo_a = max(lo_a, float(rcp_upper_lo(x, t_k, spec.lam * budget, float(rng.random()))))
        up_b = min(
            up_b,
            1.0 - float(rcp_upper_lo(x, t_k, (1.0 - spec.lam) * budget, float(rng.random()))),
        )
        if float(_pessimistic_radius(lo_a, up_b, spec.sigma)) >= spec.radius:
            return Verdict.GREATER, t_k
    return Verdict.UNDECIDED, cap


class TestCertificationValidity:
    SIGMA = 1.0
    RADIUS = 0.5
    ALPHA = 1e-3
    CAP = 4096
    TRIALS = 20_000
    CHUNK = 4_000

    def test_boundary_certification_rates(self):
        """False-certification rate at the threshold stays within budget.

        Streams sit exactly at p* = Phi(r/sigma), where certifying radius
        r requires the CS to exclude the true parameter.  The binary
        events counted here are the two-sided ever-exclusions (supersets
        of "certified"), the multiclass events the exact ever-certify
        replays; every config must stay below alpha + 3 binomial SEs.
        """
        p_star = binary_threshold(self.RADIUS, self.SIGMA)
        sched = Schedule.doubling(self.ALPHA)
        gen_rng = substream(20240817, "cert-validity", "bits")
        union_rng = substream(20240817, "cert-validity", "union-w")
        multi_rng = substream(20240817, "cert-validity", "multi-w")
        hits = dict.fromkeys(
            ("binary-betting", "binary-union", "multi-betting", "multi-union"), 0
        )
        done = 0
        while done < self.TRIALS:
            n = min(self.CHUNK, self.TRIALS - done)
            bits = bernoulli_matrix(gen_rng, n, self.CAP, p_star)
            hits["binary-betting"] += int(
                betting_ever_excluded(bits, p_star, self.ALPHA).sum()
            )
            hits["binary-union"] += int(
                union_ever_excluded(bits, p_star, sched, union_rng).sum()
            )
            h_a, t_arr = _top_class_counts(bits)
            hits["multi-betting"] += int(
                _betting_cert_ever(h_a, t_arr, p_star, self.ALPHA).sum()
            )
            hits["multi-union"] += int(
                _union_cert_ever(
                    h_a, t_arr, self.SIGMA, self.RADIUS, self.ALPHA, multi_rng
                ).sum()
            )
            done += n
        bound = self.ALPHA + 3.0 * math.sqrt(self.ALPHA * (1.0 - self.ALPHA) / self.TRIALS)
        for name, count in hits.items():
            assert count / self.TRIALS <= bound, (name, count)

    def test_reductions_fire_off_the_boundary(self):
        # anti-degeneracy: with p_a a step above the threshold every rule
        # should certify the bulk of the streams within the cap
        p_star = binary_threshold(self.RADIUS, self.SIGMA)
        bits = bernoulli_matrix(substream(5, "power"), 2000, self.CAP, p_star + 0.05)
        h_a, t_arr = _top_class_counts(bits)
        rates = [
            betting_ever_excluded(bits, p_star, self.ALPHA).mean(),
            union_ever_excluded(
                bits, p_star, Schedule.doubling(self.ALPHA), substream(5, "pw")
            ).mean(),
            _betting_cert_ever(h_a, t_arr, p_star, self.ALPHA).mean(),
            _union_cert_ever(
                h_a, t_arr, self.SIGMA, self.RADIUS, self.ALPHA, substream(5, "pmw")
            ).mean(),
        ]
        assert min(rates) >= 0.8, rates

    def test_betting_engine_certifies_within_the_replay(self):
        # engine certifications must be a subset of the ever-certified
        # rows on the same streams (the refute branch can only stop runs
        # early); off the boundary most streams certify
        p_star = binary_threshold(self.RADIUS, self.SIGMA)
        bits = bernoulli_matrix(substream(6, "subset"), 150, self.CAP, p_star + 0.05)
        h_a, t_arr = _top_class_counts(bits)
        replay = _betting_cert_ever(h_a, t_arr, p_star, self.ALPHA)
        spec = CertSpec(
            sigma=self.SIGMA, radius=self.RADIUS, alpha=self.ALPHA, mode="multiclass"
        )
        certified = 0
        for i in range(bits.shape[0]):
            verdict, used = certify_multiclass(
                _ScriptedOracle(1 - bits[i]), spec, cs_kind="betting", cap=self.CAP
            )
            if verdict is Verdict.GREATER:
                certified += 1
                assert replay[i]
                assert used >= DEFAULT_WARMUP
        assert certified >= 120

    def test_union_engine_matches_scalar_replay(self):
        # per-draw replay with the same uniforms and labels reproduces the
        # engine verdict and sample count exactly, on and off the boundary
        # and across budget splits
        p_star = binary_threshold(self.RADIUS, self.SIGMA)
        for trial in range(200):
            lam = 0.5 if trial % 3 else 0.3
            spec = CertSpec(
                sigma=self.SIGMA,
                radius=self.RADIUS,
                alpha=self.ALPHA,
                mode="multiclass",
                lam=lam,
            )
            p = (p_star + 0.05) if trial % 2 else p_star
            labels = (substream(3, "uw-labels", trial).random(self.CAP) >= p).astype(np.int64)
            engine = certify_multiclass(
                _ScriptedOracle(labels),
                spec,
                cs_kind="union",
                cap=self.CAP,
                rng=substream(3, "uw-draws", trial),
            )
            replay = _replay_union_engine(
                labels, spec, self.CAP, substream(3, "uw-draws", trial)
            )
            assert engine == replay, trial

    def test_budget_split_keeps_boundary_validity(self):
        # asymmetric splits spend lam*alpha and (1-lam)*alpha on the two
        # streams; either way a false certificate needs a true-parameter
        # exclusion, so the rate bound is split-free
        alpha, cap, trials = 1e-2, 1024, 600
        p_star = binary_threshold(self.RADIUS, self.SIGMA)
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
        for lam in (0.3, 0.5, 0.7):
            spec = CertSpec(
                sigma=self.SIGMA, radius=self.RADIUS, alpha=alpha, mode="multiclass", lam=lam
            )
            false_certs = 0
            for trial in range(trials):
                oracle = ClassOracle(
                    (p_star, 1.0 - p_star), substream(11, "lam", str(lam), trial)
                )
                verdict, _ = certify_multiclass(oracle, spec, cs_kind="betting", cap=cap)
                false_certs += verdict is Verdict.GREATER
            assert false_certs / trials <= bound, lam
