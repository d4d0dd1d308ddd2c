"""Argument rules: each is written once, and every entry point and CLI config uses it.

The rules live in :mod:`anytime.binom` (``_check_alpha``, ``_check_prob``,
``_check_count``).  The table below holds calls outside the paper's
domain (fractional or boolean counts, ``alpha`` outside (0, 1), NaN
probabilities, zero threads, empty lists); most of them used to return a
number that looked like a coverage, an interval or a verdict.  Each must
raise ``ValueError``.  The configs of the ``anytime`` commands must
reject what the library function they feed rejects, with its message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import anytime.decision as decision
from anytime.binom import _check_count, _check_prob, binom_cdf, binom_sf, gauss_quantile
from anytime.binom import log_binom_pmf
from anytime.certify import CertSpec, ClassOracle, binary_threshold, certify_multiclass
from anytime.certify import certify_staged, radius_gauss_l2
from anytime.config import CertifyConfig, CoverageConfig, DecideConfig, ThresholdsConfig, WidthConfig
from anytime.decision import benchmark_sweep, decide_with_cs, staged_adaptive
from anytime.intervals import enumeration_coverage, hoeffding_interval, hoeffding_sample_size
from anytime.intervals import rcp_two_sided, rcp_upper
from anytime.mc import bernoulli_matrix, betting_ever_excluded, mc_coverage
from anytime.mc import union_ever_excluded, union_trace
from anytime.sampling import BernoulliSource, run_jobs, substream, substream_id
from anytime.sequences import bet_cs_width_envelope, betting_endpoints, dp_thresholds
from anytime.sequences import Schedule, UnionCS, kt_log_mixture, kt_log_wealth
from anytime.sequences import ub_cs_width_envelope

SPEC = CertSpec(sigma=1.0, radius=0.1, alpha=0.05)


class _NoSampleOracle(ClassOracle):
    """An oracle whose first draw fails the test: the call must raise before sampling."""

    def sample(self, k):
        raise AssertionError("the oracle was sampled")


def _oracle(probs=(0.9, 0.1)):
    return _NoSampleOracle(probs, substream(0, "arguments"))


REJECTED = {
    "enumeration_coverage fractional n": lambda: enumeration_coverage(10.5, 0.5, 0.05),
    "mc_coverage fractional n": lambda: mc_coverage(
        10.5, 0.5, 0.05, "rcp", "upper", 100, substream(0, "mc")
    ),
    "mc_coverage fractional trials": lambda: mc_coverage(
        10, 0.5, 0.05, "rcp", "upper", 2.5, substream(0, "mc")
    ),
    "staged_adaptive fractional stage": lambda: staged_adaptive(
        0.5, np.ones(200), 0.05, stages=(50.5, 100)
    ),
    "certify_staged class 5": lambda: certify_staged(_oracle(), 5, SPEC),
    "certify_staged class -1": lambda: certify_staged(_oracle(), -1, SPEC),
    "rcp_upper fractional x": lambda: rcp_upper(3.5, 10, 0.05, 0.5),
    "rcp_upper fractional n": lambda: rcp_upper(3, 10.5, 0.05, 0.5),
    "rcp_two_sided fractional x": lambda: rcp_two_sided(1.5, 3, 0.05, 0.5, 0.5),
    "hoeffding_interval fractional heads": lambda: hoeffding_interval(3.5, 10, 0.05),
    "decide_with_cs boolean cap": lambda: decide_with_cs(
        "betting", 0.5, np.ones(10), 0.05, cap=True
    ),
    "dp_thresholds boolean n_max": lambda: dp_thresholds(True, 0.5, 0.05),
    "dp_thresholds fractional n_max": lambda: dp_thresholds(2.5, 0.5, 0.05),
    "ClassOracle NaN probability": lambda: ClassOracle([math.nan, 1.0], substream(0, "o")),
    "certify_multiclass fractional warmup": lambda: certify_multiclass(
        _oracle((0.5, 0.5)), SPEC, warmup=2.5
    ),
    "bet_cs_width_envelope alpha 2": lambda: bet_cs_width_envelope(10, 2.0),
    "ub_cs_width_envelope alpha 2": lambda: ub_cs_width_envelope(10, 2.0),
    "bet_cs_width_envelope alpha nan": lambda: bet_cs_width_envelope(10, math.nan),
    "ub_cs_width_envelope alpha nan": lambda: ub_cs_width_envelope(10, math.nan),
    "run_jobs zero threads": lambda: run_jobs([1], lambda job: job, 0),
    "BernoulliSource NaN p": lambda: BernoulliSource(substream(0, "b"), math.nan),
    "bernoulli_matrix p 1.5": lambda: bernoulli_matrix(substream(0, "m"), 2, 3, 1.5),
    "bernoulli_matrix NaN p": lambda: bernoulli_matrix(substream(0, "m"), 2, 3, math.nan),
    "binom_sf fractional x": lambda: binom_sf(2.5, 3, 0.5),
    "binom_cdf fractional x": lambda: binom_cdf(2.5, 3, 0.5),
    "binom_cdf fractional x array": lambda: binom_cdf(np.array([2.5]), 3, 0.5),
    "log_binom_pmf fractional x": lambda: log_binom_pmf(1.5, 3, 0.5),
    "betting_endpoints fractional heads": lambda: betting_endpoints(2.5, 3, 0.05),
    "betting_endpoints fractional trials array": lambda: betting_endpoints(
        np.array([1.0, 2.0]), np.array([2.0, 3.5]), 0.05
    ),
    "hoeffding_sample_size eps inf": lambda: hoeffding_sample_size(math.inf, 0.05),
    "UnionCS NaN draw": lambda: UnionCS(Schedule(0.05), draws=lambda: math.nan).update(1),
    "UnionCS draw -1": lambda: UnionCS(Schedule(0.05), draws=lambda: -1.0).update(1),
    "UnionCS upper draw 1.5": lambda: UnionCS(
        Schedule(0.05), draws=iter([0.5, 1.5]).__next__
    ).update(1),
    "Schedule growth inf": lambda: Schedule(0.05, growth=math.inf),
    "ub_cs_width_envelope NaN t": lambda: ub_cs_width_envelope(math.nan, 0.05),
    "ub_cs_width_envelope infinite t": lambda: ub_cs_width_envelope(math.inf, 0.05),
    "ub_cs_width_envelope infinite t in an array": lambda: ub_cs_width_envelope(
        np.array([10.0, math.inf]), 0.05
    ),
    "bet_cs_width_envelope NaN t": lambda: bet_cs_width_envelope(math.nan, 0.05),
    "bet_cs_width_envelope infinite t": lambda: bet_cs_width_envelope(math.inf, 0.05),
    "bet_cs_width_envelope NaN t in an array": lambda: bet_cs_width_envelope(
        np.array([10.0, math.nan]), 0.05
    ),
    "betting_ever_excluded 1-d bits": lambda: betting_ever_excluded(np.ones(5), 0.5, 0.05),
    "betting_ever_excluded 3-d bits": lambda: betting_ever_excluded(np.ones((2, 5, 5)), 0.5, 0.05),
    "union_ever_excluded 1-d bits": lambda: union_ever_excluded(
        np.ones(5), 0.5, Schedule(0.05), None
    ),
    "union_ever_excluded 3-d bits": lambda: union_ever_excluded(
        np.ones((2, 5, 5)), 0.5, Schedule(0.05), None
    ),
    "union_ever_excluded p 1.5, no bits": lambda: union_ever_excluded(
        np.ones((2, 0)), 1.5, Schedule(0.05), None
    ),
    "union_ever_excluded NaN p": lambda: union_ever_excluded(
        np.ones((2, 5)), math.nan, Schedule(0.05), None
    ),
    "union_trace 2-d bits": lambda: union_trace(np.ones((2, 5)), Schedule(0.05), None),
    "gauss_quantile NaN": lambda: gauss_quantile(math.nan),
    "gauss_quantile NaN in an array": lambda: gauss_quantile(np.array([0.5, math.nan])),
    "kt_log_wealth p 1.5": lambda: kt_log_wealth(1, 3, 1.5),
    "kt_log_wealth NaN p": lambda: kt_log_wealth(1, 3, math.nan),
    "kt_log_wealth integer p 2": lambda: kt_log_wealth(1, 3, 2),
    "kt_log_wealth p -0.5 in an array": lambda: kt_log_wealth(1, 3, np.array([0.5, -0.5])),
    "kt_log_wealth heads above trials": lambda: kt_log_wealth(5, 3, 0.5),
    "kt_log_wealth negative heads": lambda: kt_log_wealth(-1, 3, 0.5),
    "kt_log_wealth fractional heads": lambda: kt_log_wealth(1.5, 3, 0.5),
    "kt_log_wealth heads above trials at p 0": lambda: kt_log_wealth(5, 3, 0.0),
    "kt_log_wealth NaN trials": lambda: kt_log_wealth(1, math.nan, 0.5),
    "kt_log_wealth heads above trials in an integer array": lambda: kt_log_wealth(
        np.array([1, 4]), np.array([3, 3]), 0.5
    ),
    "kt_log_wealth heads above trials past the tables": lambda: kt_log_wealth(
        np.array([1, 2**20]), np.array([3, 2**18]), 0.5
    ),
    "kt_log_wealth int8 trials that wrap": lambda: kt_log_wealth(
        np.array([1], dtype=np.int8), np.array([-128], dtype=np.int8), 0.5
    ),
    "kt_log_wealth int64 trials that wrap": lambda: kt_log_wealth(
        np.array([1]), np.array([-(2**63)]), 0.5
    ),
    "kt_log_mixture heads above trials": lambda: kt_log_mixture(5, 3),
    "kt_log_mixture negative heads": lambda: kt_log_mixture(-1, 3),
    "kt_log_mixture fractional heads": lambda: kt_log_mixture(1.5, 3),
    "kt_log_mixture fractional trials": lambda: kt_log_mixture(1, 3.5),
    "kt_log_mixture NaN trials": lambda: kt_log_mixture(1, math.nan),
    "kt_log_mixture infinite trials": lambda: kt_log_mixture(1, math.inf),
    "kt_log_mixture heads above trials in an array": lambda: kt_log_mixture(
        np.array([1, 4]), np.array([3, 3])
    ),
    # eps * eps underflows: a division by 0, or a size of inf
    "hoeffding_sample_size eps 1e-300": lambda: hoeffding_sample_size(1e-300, 0.05),
    "hoeffding_sample_size eps 1e-160": lambda: hoeffding_sample_size(1e-160, 0.05),
    "hoeffding_sample_size subnormal gamma": lambda: hoeffding_sample_size(0.01, 5e-324),
    "nonadaptive_hoeffding eps 1e-300": lambda: decision.nonadaptive_hoeffding(
        0.5, 1e-300, 0.05, np.ones(0)
    ),
    "nonadaptive_hoeffding eps 1e-160": lambda: decision.nonadaptive_hoeffding(
        0.5, 1e-160, 0.05, np.ones(0)
    ),
    "Schedule budget of stage True": lambda: Schedule(0.05).budget(True),
    "Schedule budget of stage 2.5": lambda: Schedule(0.05).budget(2.5),
    "radius_gauss_l2 infinite sigma": lambda: radius_gauss_l2(0.5, 0.5, math.inf),
    "binary_threshold infinite radius and sigma": lambda: binary_threshold(math.inf, math.inf),
    "binary_threshold infinite sigma": lambda: binary_threshold(0.1, math.inf),
    "CertSpec infinite sigma": lambda: CertSpec(math.inf, 0.1, 0.05),
    # True would alias the path part 1
    "substream_id boolean path part": lambda: substream_id(0, True),
    "substream boolean path part": lambda: substream(0, "trial", False),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejects_input_outside_the_domain(call):
    with pytest.raises(ValueError):
        call()


def test_an_infinite_eps_is_named_before_any_draw():
    # it used to give a sample size of 0, and hoeffding_interval then
    # failed on an n that nonadaptive_hoeffding's caller never passed
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        decision.nonadaptive_hoeffding(0.5, math.inf, 0.05, np.ones(0))


def test_a_huge_finite_eps_still_draws_one_sample():
    # eps * eps overflows to inf; the sample size stays at least 1
    assert hoeffding_sample_size(1e200, 0.05) == 1
    assert hoeffding_sample_size(1.0, 0.05) == 6


def test_an_eps_near_the_underflow_keeps_the_size_of_the_expression():
    eps = 1e-150
    assert hoeffding_sample_size(eps, 0.05) == math.ceil(2.0 * math.log(1.0 / 0.05) / (eps * eps))


def test_a_stage_index_below_one_keeps_its_message():
    with pytest.raises(ValueError, match=r"^stage index must be >= 1, got 0$"):
        Schedule(0.05).budget(0)
    assert Schedule(0.05).budget(np.int64(1)) == 0.025


def test_an_infinite_radius_is_accepted_at_threshold_one():
    assert binary_threshold(math.inf, 1.0) == 1.0
    CertSpec(1.0, math.inf, 0.05)


class TestRules:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, np.float64(0.25)])
    def test_prob_accepts_the_closed_unit_interval(self, p):
        _check_prob("p", p)

    @pytest.mark.parametrize("p", [-1e-12, 1.0 + 1e-12, math.nan, math.inf])
    def test_prob_rejects(self, p):
        with pytest.raises(ValueError, match="q must be in"):
            _check_prob("q", p)

    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(1)])
    def test_count_accepts_integers(self, value):
        _check_count("n", value)

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, math.nan, "3", None])
    def test_count_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="cap must be an integer"):
            _check_count("cap", value)

    def test_count_minimum(self):
        _check_count("n_max", 0, minimum=0)
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            _check_count("n_max", -1, minimum=0)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            _check_count("n", 0)


class TestSweepChecksBeforeAnyTrial:
    """``benchmark_sweep`` rejects bad arguments before a trial runs, as ``DecideConfig`` does."""

    GOOD = dict(q=0.91, alpha=0.01, grid=(0.5,), trials=1, methods=("betting",), cap=10, seed=0)
    BAD = {
        "grid": (),
        "methods": (),
        "seed": -1,
        "q": math.nan,
        "alpha": 1.0,
        "trials": 2.5,
        "cap": True,
    }

    @pytest.mark.parametrize("name", BAD)
    def test_sweep_and_config_reject_alike(self, monkeypatch, name):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(decision, "run_trial", no_trial)
        args = dict(self.GOOD, **{name: self.BAD[name]})
        with pytest.raises(ValueError) as from_sweep:
            benchmark_sweep(**args)
        with pytest.raises(ValueError) as from_config:
            DecideConfig(
                args["q"], args["alpha"], args["grid"], args["trials"], args["methods"],
                args["cap"], args["seed"], 1,
            )
        assert str(from_sweep.value) == str(from_config.value)

    @pytest.mark.parametrize("grid", [(0.5, 1.5), (math.nan,)])
    def test_grid_entries_are_probabilities(self, grid):
        with pytest.raises(ValueError, match="p grid entry"):
            benchmark_sweep(**dict(self.GOOD, grid=grid))


class TestConfigsUseTheLibraryRules:
    def test_coverage_config_rejects_what_enumeration_rejects(self):
        with pytest.raises(ValueError) as from_library:
            enumeration_coverage(10, 1.5, 0.05, "cp", "upper")
        with pytest.raises(ValueError) as from_config:
            CoverageConfig(10, 0.05, (0.5, 1.5), 0, ("cp",), "upper", 0, 1)
        assert str(from_library.value) == str(from_config.value)

    def test_coverage_config_allows_zero_trials_only(self):
        CoverageConfig(10, 0.05, (0.5,), 0, ("cp",), "upper", 0, 1)
        with pytest.raises(ValueError, match="trials"):
            CoverageConfig(10, 0.05, (0.5,), 2.5, ("cp",), "upper", 0, 1)

    def test_certify_config_rejects_what_the_oracle_rejects(self):
        with pytest.raises(ValueError) as from_library:
            ClassOracle((math.nan, 1.0), substream(0, "o"))
        with pytest.raises(ValueError) as from_config:
            CertifyConfig(
                "binary", ("betting",), (math.nan, 1.0), 1.0, (0.1,), 0.05, 0.5, 1, 10, 0, 1, 0, 1
            )
        assert str(from_library.value) == str(from_config.value)

    def test_thresholds_config_rejects_what_dp_thresholds_rejects(self):
        with pytest.raises(ValueError) as from_library:
            dp_thresholds(10, 1.0, 0.05)
        with pytest.raises(ValueError) as from_config:
            ThresholdsConfig(1.0, 0.05, 10, 0, 1)
        assert str(from_library.value) == str(from_config.value)

    def test_every_config_rejects_zero_threads(self):
        # decide, certify, width and thresholds run in order and ignore
        # threads, but a zero still exits before any work, as for coverage
        configs = [
            lambda threads: CoverageConfig(10, 0.05, (0.5,), 0, ("cp",), "upper", 0, threads),
            lambda threads: WidthConfig(0.05, 0.5, 16, ("betting",), 0, threads),
            lambda threads: DecideConfig(0.91, 0.05, (0.5,), 1, ("betting",), 10, 0, threads),
            lambda threads: CertifyConfig(
                "binary", ("betting",), (0.9, 0.1), 1.0, (0.1,), 0.05, 0.5, 1, 10, 0, 1, 0, threads
            ),
            lambda threads: ThresholdsConfig(0.5, 0.05, 10, 0, threads),
        ]
        for build in configs:
            build(1)
            with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
                build(0)
