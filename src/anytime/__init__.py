"""Anytime-valid estimation and decision making for Bernoulli streams.

The package provides, in dependency order:

* :mod:`anytime.binom` - numerically stable binomial tails, quantile
  helpers and the argument checks shared by everything else;
* :mod:`anytime.intervals` - fixed-n confidence intervals: randomized
  Clopper-Pearson (exact coverage), the deterministic variant, Hoeffding,
  and exact coverage enumeration;
* :mod:`anytime.sequences` - confidence sequences: the union-bound
  construction over geometric stage schedules and the Krichevsky-
  Trofimov betting construction, plus halting-count tables;
* :mod:`anytime.decision` - sequential threshold decisions built on the
  sequences, with SPRT / staged / fixed-sample baselines and a
  benchmark sweep;
* :mod:`anytime.certify` - randomized-smoothing certification drivers
  (binary and multiclass) and the width-target estimation task;
* :mod:`anytime.mc` - vectorized Monte Carlo harness used by the
  validity test-suite and CLI;
* :mod:`anytime.cli` - the ``anytime`` command.
"""

from .binom import (
    binom_cdf,
    binom_sf,
    gauss_quantile,
    log_binom_pmf,
)
from .certify import (
    CertSpec,
    ClassOracle,
    binary_threshold,
    certify_binary,
    certify_multiclass,
    certify_staged,
    radius_gauss_l2,
    width_target_run,
)
from .decision import (
    TrialRecord,
    Verdict,
    benchmark_sweep,
    decide_with_cs,
    nonadaptive_hoeffding,
    sprt_ideal,
    staged_adaptive,
)
from .intervals import (
    Interval,
    cp_lower,
    cp_upper,
    enumeration_coverage,
    hoeffding_interval,
    hoeffding_sample_size,
    rcp_lower,
    rcp_two_sided,
    rcp_upper,
)
from .sampling import BernoulliSource, substream, substream_id
from .sequences import (
    BettingCS,
    Schedule,
    UnionCS,
    bet_cs_width_envelope,
    betting_endpoints,
    dp_thresholds,
    kt_log_mixture,
    kt_log_wealth,
    ub_cs_width_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliSource",
    "BettingCS",
    "CertSpec",
    "ClassOracle",
    "Interval",
    "Schedule",
    "TrialRecord",
    "UnionCS",
    "Verdict",
    "benchmark_sweep",
    "bet_cs_width_envelope",
    "betting_endpoints",
    "binary_threshold",
    "binom_cdf",
    "binom_sf",
    "certify_binary",
    "certify_multiclass",
    "certify_staged",
    "cp_lower",
    "cp_upper",
    "decide_with_cs",
    "dp_thresholds",
    "enumeration_coverage",
    "gauss_quantile",
    "hoeffding_interval",
    "hoeffding_sample_size",
    "kt_log_mixture",
    "kt_log_wealth",
    "log_binom_pmf",
    "nonadaptive_hoeffding",
    "radius_gauss_l2",
    "rcp_lower",
    "rcp_two_sided",
    "rcp_upper",
    "sprt_ideal",
    "staged_adaptive",
    "substream",
    "substream_id",
    "ub_cs_width_envelope",
    "width_target_run",
]
