"""Benchmark command line: seeded, deterministic experiment drivers.

Five subcommands emit CSV to stdout or ``--out``:

* ``coverage``    exact and Monte Carlo coverage of the fixed-n intervals
* ``width``       running CS endpoints on one stream, logged at powers of 2
* ``decide``      threshold-decision benchmark sweep over a p grid
* ``certify``     certification trials on a synthetic class oracle
* ``thresholds``  betting-CS halting-count table H(t)

Every command is a pure function of its flags: the same flags and seed
give byte-identical output, for any ``--threads`` value, and no
environment variable changes a byte.  Each
trial draws from its own counter-derived substream, so scheduling can
never leak into the results.  Threads apply to ``coverage`` only, whose
cells go through :func:`~anytime.sampling.run_jobs` (results in job
order) and spend their time in vector tails that release the GIL;
``decide``, ``certify``, ``width`` and ``thresholds`` run in order on the
calling thread, since their trials are mostly Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from .binom import _check_count
from .certify import (
    CertSpec,
    ClassOracle,
    certify_binary,
    certify_multiclass,
    certify_staged,
)
from .config import (
    CERT_CS,
    COVERAGE_KINDS,
    CS_KINDS,
    DEFAULT_SEED,
    CertifyConfig,
    CoverageConfig,
    DecideConfig,
    ThresholdsConfig,
    WidthConfig,
)
from .decision import DEFAULT_CAP, METHODS, benchmark_sweep
from .intervals import enumeration_coverage
from .mc import betting_trace, mc_coverage, union_trace
from .sampling import rekeyable_generator, run_jobs, substream, substream_id
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
    # one generator per role, re-keyed for each trial to the paths
    # (..., 0) and (..., 1): the children spawn(2) gives the trial's path
    labels_rng, draws_rng = rekeyable_generator(), rekeyable_generator()

    def cell(job):
        cs, ri = job
        radius = cfg.radii[ri]
        spec = CertSpec(cfg.sigma, radius, cfg.alpha, cfg.lam)
        out = []
        for trial in range(cfg.trials):
            path = ("certify", cs, ri, trial)
            sid = substream_id(cfg.seed, *path)
            oracle_rng = substream(cfg.seed, *path, 0, into=labels_rng)
            w_rng = substream(cfg.seed, *path, 1, into=draws_rng)
            oracle = ClassOracle(cfg.probs, oracle_rng)
            if cs == "adaptive":
                verdict, used = certify_staged(oracle, cfg.target_class, spec)
            elif cfg.mode == "binary":
                verdict, used = certify_binary(
                    oracle, cfg.target_class, spec, cs, cfg.cap, rng=w_rng
                )
            else:
                verdict, used = certify_multiclass(
                    oracle, spec, cs, cfg.cap, rng=w_rng, warmup=cfg.warmup
                )
            out.append(
                (cfg.mode, cs, cfg.sigma, radius, cfg.alpha, cfg.lam, verdict.value, used, sid)
            )
        return out

    jobs = [(cs, ri) for cs in cfg.cs for ri in range(len(cfg.radii))]
    chunks = [cell(job) for job in jobs]
    rows = [row for chunk in chunks for row in chunk]
    summary_rows = []
    for (cs, ri), chunk in zip(jobs, chunks):
        samples = np.array([row[7] for row in chunk], dtype=float)
        certified = sum(row[6] == "greater" for row in chunk)
        summary_rows.append(
            (
                cfg.mode,
                cs,
                cfg.sigma,
                cfg.radii[ri],
                cfg.alpha,
                cfg.lam,
                cfg.trials,
                certified / cfg.trials,
                float(samples.mean()),
                float(samples.std()),
            )
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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="root seed (default 42)")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for coverage (default 1); the other commands run in order",
    )
    sub.add_argument("--out", default=None, help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anytime",
        description="Benchmarks for anytime-valid Bernoulli estimation and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cov = sub.add_parser("coverage", help="interval coverage: exact enumeration + Monte Carlo")
    cov.add_argument("--n", type=int, default=100)
    cov.add_argument("--alpha", type=float, default=0.001)
    cov.add_argument("--p-grid", type=_floats, default=None, help="explicit grid, e.g. 0.3,0.5")
    cov.add_argument("--grid-points", type=int, default=99, help="interior grid size")
    cov.add_argument("--trials", type=int, default=10000, help="MC trials per cell (0 = exact only)")
    cov.add_argument("--kind", type=_names, default=COVERAGE_KINDS, help="cp,rcp")
    cov.add_argument("--side", choices=("upper", "lower", "two"), default="upper")
    _add_common(cov)

    wid = sub.add_parser("width", help="running CS widths on one stream at powers of 2")
    wid.add_argument("--alpha", type=float, default=0.001)
    wid.add_argument("--p", type=float, default=0.1)
    wid.add_argument("--horizon", type=int, default=4096)
    wid.add_argument("--kinds", type=_names, default=CS_KINDS, help="betting,union")
    _add_common(wid)

    dec = sub.add_parser("decide", help="sequential decision benchmark sweep")
    dec.add_argument("--q", type=float, default=0.91)
    dec.add_argument("--alpha", type=float, default=0.001)
    dec.add_argument("--p-grid", type=_floats, default=None)
    dec.add_argument("--grid-points", type=int, default=51, help="grid over [0, 1] inclusive")
    dec.add_argument("--trials", type=int, default=1000)
    dec.add_argument("--methods", type=_names, default=METHODS)
    dec.add_argument("--cap", type=int, default=DEFAULT_CAP)
    dec.add_argument("--summary-out", default=None, help="also write per-(method, p) aggregates")
    _add_common(dec)

    cert = sub.add_parser("certify", help="randomized-smoothing certification trials")
    cert.add_argument("--mode", choices=("binary", "multiclass"), default="binary")
    cert.add_argument("--cs", type=_names, default=CERT_CS, help="betting,union,adaptive")
    cert.add_argument("--probs", type=_floats, default=(0.99, 0.01))
    cert.add_argument("--sigma", type=float, default=1.0)
    cert.add_argument("--radii", type=_floats, default=(0.25, 0.5, 1.0))
    cert.add_argument("--alpha", type=float, default=0.001)
    cert.add_argument("--lam", type=float, default=0.5)
    cert.add_argument("--trials", type=int, default=100)
    cert.add_argument("--cap", type=int, default=100000)
    cert.add_argument("--target-class", type=int, default=0)
    cert.add_argument("--warmup", type=int, default=100)
    cert.add_argument("--summary-out", default=None, help="also write per-(cs, radius) aggregates")
    _add_common(cert)

    thr = sub.add_parser("thresholds", help="betting-CS halting-count table H(t)")
    thr.add_argument("--p", type=float, default=0.91)
    thr.add_argument("--alpha", type=float, default=0.001)
    thr.add_argument("--n-max", type=int, default=10000)
    _add_common(thr)

    return parser


def _build_config(args):
    if args.command == "coverage":
        grid = args.p_grid if args.p_grid is not None else _interior_grid(args.grid_points)
        return CoverageConfig(
            args.n, args.alpha, tuple(grid), args.trials, tuple(args.kind), args.side,
            args.seed, args.threads,
        )
    if args.command == "width":
        return WidthConfig(
            args.alpha, args.p, args.horizon, tuple(args.kinds), args.seed, args.threads
        )
    if args.command == "decide":
        grid = args.p_grid if args.p_grid is not None else _closed_grid(args.grid_points)
        return DecideConfig(
            args.q, args.alpha, tuple(grid), args.trials, tuple(args.methods), args.cap,
            args.seed, args.threads,
        )
    if args.command == "certify":
        return CertifyConfig(
            args.mode,
            tuple(args.cs),
            tuple(args.probs),
            args.sigma,
            tuple(args.radii),
            args.alpha,
            args.lam,
            args.trials,
            args.cap,
            args.target_class,
            args.warmup,
            args.seed,
            args.threads,
        )
    return ThresholdsConfig(args.p, args.alpha, args.n_max, args.seed, args.threads)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "coverage":
            text = run_coverage(cfg)
        elif args.command == "width":
            text = run_width(cfg)
        elif args.command == "decide":
            text, summary = run_decide(cfg)
            if args.summary_out is not None:
                _emit(summary, args.summary_out)
        elif args.command == "certify":
            text, summary = run_certify(cfg)
            if args.summary_out is not None:
                _emit(summary, args.summary_out)
        else:
            text = run_thresholds(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
