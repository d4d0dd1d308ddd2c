"""The benchmark's workloads.

Each workload builds its inputs from a seed (:meth:`configure`, timed as
set-up) and runs one *round* over them (:meth:`run`), returning the output
bytes whose digest is checked and one latency per op.  Rounds repeat the
same inputs, so every round of a run must give the same bytes.  Programs
are driven only through ``anytime.cli``'s ``run_*`` functions and the
public library API; every call goes through a module attribute so the
tracer's bindings see it.  ``exercises`` names the traced functions a
workload must reach; a traced run that misses one is not correct.

Why these four:

* ``decide`` - the ``anytime decide`` sweep on its default 51-point grid
  with all four methods and two threads.  Per-trial Python overhead
  (seed derivation, scalar binomial tails, KT-wealth blocks) and the
  thread pool dominate; no endpoint bisection runs at all.  An op is a
  trial.
* ``certify`` - multiclass certification with the betting and union
  sequences.  The endpoint solvers (``betting_endpoints`` on 4,096-bit
  blocks, ``rcp_upper_lo`` per union stage) dominate; one thread.  An op
  is a trial.
* ``online`` - the README quick start as a live monitor: one Bernoulli(0.3)
  stream fed bit by bit to ``BettingCS`` and ``UnionCS`` in lockstep.  The
  same solvers as ``certify``, one element per call.  An op is one bit
  given to both.
* ``tables`` - the one-shot table commands ``thresholds``, ``coverage`` and
  ``width``: the pure-Python ``dp_thresholds`` walk, CSV formatting of
  many rows, vectorised binomial tails and ``betting_endpoints`` on long
  vectors.  An op is one command.

Sizes are chosen so that a round takes about 1.5 s on a 2-core machine:
``decide`` runs 10 trials per cell, ``certify`` 10 per cell, ``online``
2,000 bits, and ``tables`` a 125,000-row threshold table, 5,000
coverage trials and a 2**17-bit width run.  Short rounds let the speed
calibration in ``run.py`` follow the machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from anytime import certify, cli, config, decision, sampling, sequences


@dataclass
class Round:
    """What one round produced.

    ``samples`` is the Bernoulli samples consumed (the CSV ``samples``
    column), ``None`` where the workload has no such column.  ``counts``
    holds the statistical sanity counters of the round.
    """

    outputs: list[bytes]
    latencies_ns: list[int]
    failed: int = 0
    samples: Optional[int] = None
    counts: dict[str, int] = field(default_factory=dict)


class Decide:
    name = "decide"
    threads = 2
    exercises = frozenset({
        "binom.binom_sf",
        "binom.binom_cdf",
        "intervals.upper_tail_mix",
        "intervals.lower_tail_mix",
        "sequences.kt_log_wealth",
        "decision.run_trial",
        "decision.decide_with_cs",
        "decision.sprt_ideal",
        "decision.staged_adaptive",
        "sampling.substream",
        "sampling.substream_id",
        "sampling.BernoulliSource.take",
        "cli.run_decide",
    })

    def __init__(self, trials: int = 10, grid_points: int = 51):
        self.trials = trials
        self.grid_points = grid_points

    def configure(self, seed: int) -> config.DecideConfig:
        # the same grid as ``anytime decide --grid-points``
        grid = tuple(np.linspace(0.0, 1.0, self.grid_points))
        return config.DecideConfig(
            0.91, 0.001, grid, self.trials, decision.METHODS, decision.DEFAULT_CAP, seed, self.threads
        )

    def ops(self, cfg) -> int:
        return len(cfg.p_grid) * len(cfg.methods) * cfg.trials

    def run(self, cfg) -> Round:
        # run_decide drops the per-trial records; keep them for wall_ns and verdicts
        sweep = cli.benchmark_sweep
        kept = []

        def keep(*args, **kwargs):
            records, summaries = sweep(*args, **kwargs)
            kept.append(records)
            return records, summaries

        cli.benchmark_sweep = keep
        try:
            text, summary = cli.run_decide(cfg)
        finally:
            cli.benchmark_sweep = sweep
        records = kept[0]
        stopped = (decision.Verdict.UNDECIDED, decision.Verdict.ABSTAIN)
        return Round(
            outputs=[text.encode(), summary.encode()],
            latencies_ns=[r.wall_ns for r in records],
            samples=sum(r.samples for r in records),
            counts={
                "decision.trials": len(records),
                "decision.undecided": sum(r.verdict in stopped for r in records),
                "decision.decided": sum(r.verdict not in stopped for r in records),
                "decision.wrong": sum(r.is_wrong() for r in records),
            },
        )


class Certify:
    name = "certify"
    threads = 1
    exercises = frozenset({
        "binom.binom_sf",
        "intervals.rcp_upper_lo",
        "intervals.upper_tail_mix",
        "sequences.betting_endpoints",
        "certify.certify_multiclass",
        "certify.ClassOracle.sample",
        "sampling.substream",
        "sampling.substream_id",
        "cli.run_certify",
    })
    probs = (0.4, 0.2, 0.2, 0.2)

    def __init__(self, trials: int = 10):
        self.trials = trials

    def configure(self, seed: int) -> config.CertifyConfig:
        # the ``anytime certify`` defaults for everything not named here
        return config.CertifyConfig(
            "multiclass",
            ("betting", "union"),
            self.probs,
            1.0,
            (0.1, 0.2),
            0.001,
            0.5,
            self.trials,
            100_000,
            0,
            100,
            seed,
            self.threads,
        )

    def ops(self, cfg) -> int:
        return len(cfg.cs) * len(cfg.radii) * cfg.trials

    def run(self, cfg) -> Round:
        certify_multiclass = cli.certify_multiclass
        latencies: list[int] = []
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            start = clock()
            try:
                return certify_multiclass(*args, **kwargs)
            finally:
                latencies.append(clock() - start)

        cli.certify_multiclass = timed
        try:
            text, summary = cli.run_certify(cfg)
        finally:
            cli.certify_multiclass = certify_multiclass
        top, second = sorted(cfg.probs, reverse=True)[:2]
        true_radius = certify.radius_gauss_l2(top, second, cfg.sigma)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        verdicts = [(row[6], float(row[3])) for row in rows]
        decided = [(v, r) for v, r in verdicts if v in ("greater", "less")]
        return Round(
            outputs=[text.encode(), summary.encode()],
            latencies_ns=latencies,
            samples=sum(int(row[7]) for row in rows),
            counts={
                "certify.trials": len(rows),
                "certify.undecided": len(verdicts) - len(decided),
                "certify.decided": len(decided),
                # refuting a radius the oracle supports, or certifying one it does not
                "certify.wrong": sum(
                    (v == "less" and r < true_radius) or (v == "greater" and r > true_radius)
                    for v, r in decided
                ),
            },
        )


@dataclass(frozen=True)
class OnlineConfig:
    seed: int
    alpha: float
    bits: tuple[int, ...]


class Online:
    name = "online"
    threads = 1
    exercises = frozenset({
        "binom.binom_sf",
        "intervals.rcp_upper_lo",
        "intervals.upper_tail_mix",
        "sequences.betting_endpoints",
        "sequences.BettingCS.update",
        "sequences.UnionCS.update",
    })

    def __init__(self, bits: int = 2000):
        self.bits = bits

    def configure(self, seed: int) -> OnlineConfig:
        rng = sampling.substream(seed, "online", "bits")
        return OnlineConfig(seed, 0.05, tuple((rng.random(self.bits) < 0.3).astype(int).tolist()))

    def ops(self, cfg) -> int:
        return len(cfg.bits)

    def run(self, cfg) -> Round:
        betting = sequences.BettingCS(cfg.alpha)
        draws = sampling.substream(cfg.seed, "online", "draws")
        union = sequences.UnionCS(sequences.Schedule.doubling(cfg.alpha), draws=draws.random)
        trace = np.full((len(cfg.bits), 4), np.nan)
        latencies: list[int] = []
        failed = 0
        clock = time.perf_counter_ns
        for i, bit in enumerate(cfg.bits):
            start = clock()
            try:
                b = betting.update(bit)
                u = union.update(bit)
            except (ValueError, ArithmeticError, RuntimeError):
                latencies.append(clock() - start)
                failed += 1
                continue
            latencies.append(clock() - start)
            trace[i] = (b.lo, b.up, u.lo, u.up)
        # the running intervals after every bit, as little-endian float64
        return Round(
            outputs=[trace.astype("<f8").tobytes()],
            latencies_ns=latencies,
            failed=failed,
            samples=len(cfg.bits),
        )


class Tables:
    name = "tables"
    threads = 1
    exercises = frozenset({
        "binom.binom_sf",
        "intervals.rcp_upper_lo",
        "intervals.upper_tail_mix",
        "intervals.enumeration_coverage",
        "sequences.betting_endpoints",
        "sequences.dp_thresholds",
        "mc.mc_coverage",
        "mc.betting_trace",
        "mc.union_trace",
        "cli.run_thresholds",
        "cli.run_coverage",
        "cli.run_width",
    })

    def __init__(self, n_max: int = 125_000, horizon: int = 131_072, trials: int = 5_000):
        self.n_max = n_max
        self.horizon = horizon
        self.trials = trials

    def configure(self, seed: int) -> tuple:
        # ``anytime thresholds --p 0.91``, ``anytime coverage --n 100`` (99 interior
        # points) and ``anytime width --p 0.5``, all at the CLI's default alpha 0.001
        grid = tuple(np.linspace(0.0, 1.0, 101)[1:-1])
        return (
            config.ThresholdsConfig(0.91, 0.001, self.n_max, seed, self.threads),
            config.CoverageConfig(
                100, 0.001, grid, self.trials, config.COVERAGE_KINDS, "upper", seed, self.threads
            ),
            config.WidthConfig(0.001, 0.5, self.horizon, config.CS_KINDS, seed, self.threads),
        )

    def ops(self, cfg) -> int:
        return len(cfg)

    def run(self, cfg) -> Round:
        thresholds, coverage, width = cfg
        outputs, latencies = [], []
        for command, command_cfg in (
            (cli.run_thresholds, thresholds),
            (cli.run_coverage, coverage),
            (cli.run_width, width),
        ):
            start = time.perf_counter_ns()
            outputs.append(command(command_cfg).encode())
            latencies.append(time.perf_counter_ns() - start)
        return Round(outputs=outputs, latencies_ns=latencies)


WORKLOADS = {w.name: w for w in (Decide, Certify, Online, Tables)}
