"""Benchmark command line: seeded, deterministic experiment drivers.

Five subcommands emit CSV to stdout or ``--out``:

* ``coverage``    exact and Monte Carlo coverage of the fixed-n intervals
* ``width``       running CS endpoints on one stream, logged at powers of 2
* ``decide``      threshold-decision benchmark sweep over a p grid
* ``certify``     certification trials on a synthetic class oracle
* ``thresholds``  betting-CS halting-count table H(t)

The CLI is one table, ``_COMMANDS``, of each command's config class and
runner, and every flag's ``dest`` names its config field; ``--p-grid`` and
``--grid-points``, the one flag pair that is no field, exclude each other.

Every command is a pure function of its flags: the same flags and seed
give byte-identical output, and no environment variable changes a byte.
``--seed`` is read by every run that draws (not ``thresholds`` or
``coverage --trials 0``).  ``--threads`` only schedules work: each trial
draws from its own counter-derived substream.  ``coverage`` runs its cells
on them through :func:`~anytime.sampling.run_jobs` (results in job order),
since they spend their time in vector tails that release the GIL; the
other commands run in order on the calling thread, since their trials
are mostly Python.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .binom import _check_count
from .certify import CertSpec, ClassOracle, certify_binary, certify_multiclass
from .config import (
    CERT_CS,
    CERT_MODE_FLAGS,
    CERT_MODES,
    COVERAGE_KINDS,
    CS_KINDS,
    DEFAULT_SEED,
    CertifyConfig,
    CoverageConfig,
    DecideConfig,
    ThresholdsConfig,
    WidthConfig,
)
from .decision import DEFAULT_CAP, DEFAULT_STAGES, METHODS, benchmark_sweep
from .intervals import enumeration_coverage
from .mc import betting_trace, mc_coverage, union_trace
from .sampling import keyed_trials, rekeyable_generator, run_jobs, substream, substream_id
from .sequences import Schedule, dp_thresholds

_CHUNK_ROWS = 8192  # rows of the thresholds table formatted at a time


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _interior_grid(points: int) -> tuple[float, ...]:
    """``points`` equally spaced values strictly inside (0, 1)."""
    _check_count("grid-points", points)
    return tuple(np.linspace(0.0, 1.0, points + 2)[1:-1])


def _closed_grid(points: int) -> tuple[float, ...]:
    """``points`` equally spaced values spanning [0, 1] inclusive."""
    _check_count("grid-points", points, minimum=2)
    return tuple(np.linspace(0.0, 1.0, points))


# ---------------------------------------------------------------------------
# Command runners


def run_coverage(cfg: CoverageConfig) -> str:
    def cell(job):
        kind, gi = job
        p = cfg.p_grid[gi]
        exact = enumeration_coverage(cfg.n, p, cfg.alpha, kind, cfg.side)
        mc = None
        if cfg.trials > 0:
            # a fresh generator per cell: cells may run on a thread pool
            rng = substream(cfg.seed, "coverage", kind, gi)
            mc = mc_coverage(cfg.n, p, cfg.alpha, kind, cfg.side, cfg.trials, rng)
        return (p, kind, mc, exact, cfg.trials)

    jobs = [(kind, gi) for kind in cfg.kinds for gi in range(len(cfg.p_grid))]
    return _csv("p,kind,coverage_mc,coverage_exact,trials", run_jobs(jobs, cell, cfg.threads))


def run_width(cfg: WidthConfig) -> str:
    bits = (substream(cfg.seed, "width", "bits").random(cfg.horizon) < cfg.p).astype(np.uint8)
    log_ts = 2 ** np.arange(0, int(np.log2(cfg.horizon)) + 1)
    log_ts = log_ts[log_ts <= cfg.horizon]
    rows = []
    for kind in cfg.kinds:
        if kind == "betting":
            lo, up = betting_trace(bits, cfg.alpha)
        else:
            rng = substream(cfg.seed, "width", "union-draws")
            lo, up = union_trace(bits, Schedule.doubling(cfg.alpha), rng)
        for t in log_ts:
            l, u = float(lo[t - 1]), float(up[t - 1])
            rows.append((int(t), kind, l, u, u - l))
    return _csv("t,kind,L,U,width", rows)


def run_decide(cfg: DecideConfig) -> tuple[str, str]:
    records, summaries = benchmark_sweep(
        cfg.q,
        cfg.alpha,
        cfg.p_grid,
        cfg.trials,
        methods=cfg.methods,
        cap=cfg.cap,
        seed=cfg.seed,
    )
    records.sort(key=lambda r: (r.method, r.p, r.trial))
    rows = [
        (r.method, r.p, r.q, r.alpha, r.trial, r.verdict.value, r.samples, r.seed)
        for r in records
    ]
    summaries.sort(key=lambda s: (s.method, s.p))
    summary_rows = [
        (s.method, s.p, s.mean_samples, s.ratio_vs_sprt, s.lower_bound_info) for s in summaries
    ]
    return (
        _csv("method,p,q,alpha,trial,verdict,samples,seed", rows),
        _csv("method,p,mean_samples,ratio_vs_sprt,lower_bound_info", summary_rows),
    )


def run_certify(cfg: CertifyConfig) -> tuple[str, str]:
    # one loop per sequence over its (radius, trial) pairs, on the calling
    # thread.  One generator per role, re-keyed for each trial to the paths
    # (..., 0) and (..., 1), the children spawn(2) gives the trial's path,
    # from keys keyed_trials mixes a chunk of trials at a time
    labels_rng, draws_rng = rekeyable_generator(), rekeyable_generator()
    specs = [CertSpec(cfg.sigma, radius, cfg.alpha, cfg.lam) for radius in cfg.radii]
    rows, summary_rows = [], []
    for cs in cfg.cs:
        pairs = keyed_trials(cfg.seed, ("certify", cs), len(cfg.radii), cfg.trials, children=True)
        for ri, trial in pairs:
            spec, columns = specs[ri], (cfg.mode, cs, cfg.sigma, cfg.radii[ri], cfg.alpha, cfg.lam)
            path = ("certify", cs, ri, trial)
            oracle_rng = substream(cfg.seed, *path, 0, into=labels_rng)
            w_rng = substream(cfg.seed, *path, 1, into=draws_rng)
            oracle = ClassOracle(cfg.probs, oracle_rng)
            if cfg.mode == "binary":
                verdict, used = certify_binary(
                    oracle, cfg.target_class, spec, cs, cfg.cap, rng=w_rng
                )
            else:
                verdict, used = certify_multiclass(
                    oracle, spec, cs, cfg.cap, rng=w_rng, warmup=cfg.warmup
                )
            rows.append((*columns, verdict.value, used, substream_id(cfg.seed, *path)))
            if trial == cfg.trials - 1:
                cell_rows = rows[-cfg.trials :]
                samples = np.array([row[7] for row in cell_rows], dtype=float)
                rate = sum(row[6] == "greater" for row in cell_rows) / cfg.trials
                summary_rows.append(
                    (*columns, cfg.trials, rate, float(samples.mean()), float(samples.std()))
                )
    return (
        _csv("mode,cs,sigma,radius,alpha,lambda,verdict,samples,seed", rows),
        _csv(
            "mode,cs,sigma,radius,alpha,lambda,trials,certified_rate,mean_samples,std_samples",
            summary_rows,
        ),
    )


def run_thresholds(cfg: ThresholdsConfig) -> str:
    table = dp_thresholds(cfg.n_max, cfg.p, cfg.alpha)
    # all-integer rows: one format string per chunk of rows, the same bytes
    # as _csv, with no Python string per row
    chunks = ["t,H_t\n"]
    for start in range(1, table.size, _CHUNK_ROWS):
        heads = table[start : start + _CHUNK_ROWS]
        rows = np.column_stack((np.arange(start, start + heads.size), heads))
        chunks.append(("%d,%d\n" * heads.size) % tuple(rows.ravel().tolist()))
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Argument parsing

_SEED_HELP = "root seed (default 42); read by runs that draw, not thresholds or coverage --trials 0"
_THREADS_HELP = "worker threads (default 1); coverage runs its cells on them, and no byte changes"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=0.001, help="error level (default 0.001)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help=_SEED_HELP)
    sub.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    sub.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _add_grid(sub: argparse.ArgumentParser, size_help: str) -> None:
    grid = sub.add_mutually_exclusive_group()
    grid.add_argument("--p-grid", type=_floats, default=None, help="explicit grid, e.g. 0.3,0.5")
    grid.add_argument("--grid-points", type=int, default=None, help=size_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anytime",
        description="Benchmarks for anytime-valid Bernoulli estimation and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage", help="interval coverage: exact enumeration + Monte Carlo")
    cov.add_argument("--n", type=int, default=100)
    _add_grid(cov, "interior grid size (default 99)")
    cov.add_argument("--trials", type=int, default=10000, help="MC trials per cell (0 = exact only)")
    cov.add_argument("--kind", dest="kinds", type=_names, default=COVERAGE_KINDS, help="cp,rcp")
    cov.add_argument("--side", choices=("upper", "lower", "two"), default="upper")
    _add_common(cov)

    wid = sub.add_parser("width", help="running CS widths on one stream at powers of 2")
    wid.add_argument("--p", type=float, default=0.1)
    wid.add_argument("--horizon", type=int, default=4096)
    wid.add_argument("--kinds", type=_names, default=CS_KINDS, help="betting,union")
    _add_common(wid)

    dec = sub.add_parser("decide", help="sequential decision benchmark sweep")
    dec.add_argument("--q", type=float, default=0.91)
    _add_grid(dec, "grid over [0, 1] inclusive (default 51)")
    dec.add_argument("--trials", type=int, default=1000)
    dec.add_argument("--methods", type=_names, default=METHODS)
    dec.add_argument("--cap", type=int, default=DEFAULT_CAP)
    dec.add_argument("--summary-out", default=None, help="also write per-(method, p) aggregates")
    _add_common(dec)

    cert = sub.add_parser("certify", help="randomized-smoothing certification trials")
    cert.add_argument("--mode", choices=CERT_MODES, default="binary")
    cert.add_argument("--cs", type=_names, default=CERT_CS, help="betting,union,adaptive")
    cert.add_argument("--probs", type=_floats, default=(0.99, 0.01))
    cert.add_argument("--sigma", type=float, default=1.0)
    cert.add_argument("--radii", type=_floats, default=(0.25, 0.5, 1.0))
    cert.add_argument("--lam", type=float, help="multiclass: class A's share of alpha")
    cert.add_argument("--trials", type=int, default=100)
    cert.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_STAGES[-1],
        help="samples per trial (default 120000, the staged baseline's last stage: the "
        "smallest cap at which every --cs kind runs its whole procedure)",
    )
    cert.add_argument("--target-class", type=int, help="binary: the class certified")
    cert.add_argument("--warmup", type=int, help="multiclass: samples to pick class A")
    cert.add_argument("--summary-out", default=None, help="also write per-(cs, radius) aggregates")
    # the defaults that a mode which does not read the flag must leave it at
    cert.set_defaults(**{name: default for name, (_, default) in CERT_MODE_FLAGS.items()})
    _add_common(cert)

    thr = sub.add_parser("thresholds", help="betting-CS halting-count table H(t)")
    thr.add_argument("--p", type=float, default=0.91)
    thr.add_argument("--n-max", type=int, default=10000)
    _add_common(thr)

    return parser


# each command's config and runner: every parser dest but command, out,
# summary_out and the grid flags is the name of a config field
_COMMANDS = {
    "coverage": (CoverageConfig, run_coverage),
    "width": (WidthConfig, run_width),
    "decide": (DecideConfig, run_decide),
    "certify": (CertifyConfig, run_certify),
    "thresholds": (ThresholdsConfig, run_thresholds),
}
# without --p-grid: each grid command's grid builder and default --grid-points
_GRIDS = {"coverage": (_interior_grid, 99), "decide": (_closed_grid, 51)}


def _build_config(args):
    config = _COMMANDS[args.command][0]
    values = {f.name: getattr(args, f.name) for f in fields(config)}
    if args.command in _GRIDS and args.p_grid is None:
        grid, points = _GRIDS[args.command]
        values["p_grid"] = grid(points if args.grid_points is None else args.grid_points)
    return config(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _COMMANDS[args.command][1](_build_config(args))
    except ValueError as exc:
        parser.error(str(exc))
    if isinstance(text, tuple):  # decide and certify: records and summary
        text, summary = text
        if args.summary_out is not None:
            _emit(summary, args.summary_out)
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
