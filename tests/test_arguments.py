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
from anytime.binom import _check_count, _check_prob
from anytime.certify import CertSpec, ClassOracle, certify_multiclass, certify_staged
from anytime.config import CertifyConfig, CoverageConfig, DecideConfig, ThresholdsConfig
from anytime.decision import benchmark_sweep, decide_with_cs, staged_adaptive
from anytime.intervals import enumeration_coverage, hoeffding_interval, rcp_two_sided, rcp_upper
from anytime.mc import bernoulli_matrix, mc_coverage
from anytime.sampling import BernoulliSource, run_jobs, substream
from anytime.sequences import bet_cs_width_envelope, dp_thresholds, ub_cs_width_envelope

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
    "certify_staged fractional stage": lambda: certify_staged(_oracle(), 0, SPEC, (50.5, 100)),
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
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejects_input_outside_the_domain(call):
    with pytest.raises(ValueError):
        call()


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

    GOOD = dict(q=0.91, alpha=0.01, grid=(0.5,), trials=1, methods=("betting",), cap=10,
                seed=0, threads=1)
    BAD = {
        "threads": 0,
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
                args["cap"], args["seed"], args["threads"],
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
