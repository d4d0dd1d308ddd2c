"""Run one benchmark workload against this checkout and print its metrics.

    python3 perfbench/run.py --workload decide --seed 42 --seconds 20 --trace 0

The package is imported from the checkout's ``src/`` (never an installed
copy); without it the command fails before printing a result.

A run first times set-up: several fresh interpreters each import
``anytime`` and build the workload's configuration, and the median is
``setup_s``.  It then repeats rounds of the workload on the same inputs
until ``--seconds`` have passed.  Every round's output bytes are hashed;
a round whose digests differ from the committed reference (for the
reference seed) or from the run's first round (for other seeds) counts
all of its ops as failed.

On a shared virtual machine the CPU speed can drift by a fifth over
minutes as neighbours load the host, which no run of under a minute
averages away.  So a fixed calibration job runs before and after every
round, and each round's times are scaled by ``CALIBRATION_REF_S`` over
the mean of the two calibration times around it: they read as on a
machine where the calibration takes ``CALIBRATION_REF_S``.  Rounds are
kept short (about 1.5 s on a 2-core machine) so the speed rarely changes
within one, and the median over rounds drops those where it did.  The
raw times are in the report line.  Set-up is not scaled: imports are
file and page-fault work, which the calibration does not track.

``--trace 0`` prints the end-to-end metrics: medians over rounds for the
times, percentiles over all ops for the latencies.  ``--trace 1`` spends
half the time untraced and half with the span tracer installed, and prints
the per-layer metrics: per-round call counts, element counts and self
time of each traced function, plus the ratios and counters listed in
``PER_LAYER_EXTRA``.  The traced rounds must reproduce the untraced bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, starting with ``report``, records the environment, digests and the
metrics that apply to only some workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference_digests.json"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = {
    "cli.cpu_util": "ratio",
    "sampling.bits_used_share": "ratio",
    "decision.undecided_share": "ratio",
    "decision.wrong_share": "ratio",
    "certify.undecided_share": "ratio",
    "certify.wrong_share": "ratio",
    "trace.overhead_s": "s",
    "setup.import_s": "s",
}
P99_MIN_OPS = 1000
CALIBRATION_REF_S = 0.1

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import anytime
imported = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]]().configure(int(sys.argv[4]))
built = time.perf_counter()
print(imported - start, built - start, anytime.__file__)
"""


def import_checkout():
    """Import ``anytime`` from this checkout's ``src/``, or exit."""
    init = SRC / "anytime" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import anytime

    if Path(anytime.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {anytime.__file__}, not {init}")
    return anytime


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import anytime
    import numpy
    import scipy

    return {
        "anytime_file": str(Path(anytime.__file__).resolve()),
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def time_setup(name: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median (import seconds, import + configure seconds) over fresh interpreters."""
    imports, totals = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH), name, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        ).stdout.split()
        if Path(out[2]).resolve() != (SRC / "anytime" / "__init__.py").resolve():
            raise RuntimeError(f"set-up imported {out[2]}")
        imports.append(float(out[0]))
        totals.append(float(out[1]))
    return statistics.median(imports), statistics.median(totals)


def calibrate() -> float:
    """Seconds taken by a fixed job mixing the program's kinds of work.

    About equal parts interpreter loop, scalar NumPy/SciPy calls (per-call
    overhead), vector special functions and float formatting.
    """
    import math

    import numpy as np
    from scipy import special

    x = np.arange(1.0, 2001.0)
    p = np.float64(0.3)
    start = time.perf_counter()
    total = 0.0
    for i in range(250_000):
        total += math.sqrt(i)
    for _ in range(5_400):
        special.xlogy(7.0, p)
        np.where(p > 0.5, p, 0.0)
    for _ in range(50):
        special.betainc(x, 2001.0 - x, p)
    ",".join(format(v, ".10g") for v in x.tolist() * 20)
    return time.perf_counter() - start


def part_digests(outputs: list[bytes]) -> list[str]:
    return [hashlib.sha256(part).hexdigest() for part in outputs]


def load_reference(name: str, seed: int) -> Optional[list[str]]:
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"].get(name) if seed == ref["seed"] else None


def run_rounds(workload, cfg, seconds: float, corrupt: Optional[Callable]) -> tuple[list, float, list]:
    """Repeat rounds until ``seconds`` pass.

    Returns ``[(round, wall_s, speed)]``, the CPU seconds of the rounds, and
    the calibration times taken before, between and after them.  ``speed``
    scales the round's times to the reference machine speed, from the
    calibrations on either side of it.
    """
    from workloads import Round

    rounds = []
    cpu_s = 0.0
    deadline = time.perf_counter() + seconds
    calibrations = [calibrate()]
    while not rounds or time.perf_counter() < deadline:
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            rnd = workload.run(cfg)
        except Exception:  # a round that raises fails all of its ops; the run goes on to report it
            traceback.print_exc(file=sys.stderr)
            rnd = Round(outputs=[], latencies_ns=[], failed=workload.ops(cfg))
        wall = time.perf_counter() - start
        cpu_s += time.process_time() - cpu_start
        if corrupt is not None:
            rnd.outputs = corrupt(rnd.outputs)
        calibrations.append(calibrate())
        speed = CALIBRATION_REF_S / (0.5 * (calibrations[-2] + calibrations[-1]))
        rounds.append((rnd, wall, speed))
        if rnd.failed == workload.ops(cfg):
            break
    return rounds, cpu_s, calibrations


def _percentiles(rounds, qs) -> list[float]:
    """Percentiles in ms of all ops' latencies, each scaled by its round's speed."""
    import numpy as np

    lat = np.concatenate([np.asarray(r.latencies_ns, dtype=float) * speed for r, _, speed in rounds])
    return [float(v) / 1e6 for v in np.percentile(lat, qs)] if lat.size else [float("nan")] * len(qs)


def _scaled_wall(rounds) -> float:
    return statistics.median(w * speed for _, w, speed in rounds)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Optional[list[str]] = None,
    corrupt: Optional[Callable] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Run ``workload`` for ``seconds`` and return the result and its report."""
    import_s, setup_s = time_setup(workload.name, seed, setup_repeats)
    cfg = workload.configure(seed)
    ops = workload.ops(cfg)
    budget = seconds / 2.0 if trace else seconds
    rounds, cpu_s, calibrations = run_rounds(workload, cfg, budget, corrupt)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced, tracer = [], None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            traced, _, _ = run_rounds(workload, cfg, budget, corrupt)

    expected = reference if reference is not None else part_digests(rounds[0][0].outputs)
    failed = 0
    for rnd, _, _ in rounds + traced:
        failed += ops if part_digests(rnd.outputs) != expected else rnd.failed
    attempted = ops * len(rounds + traced)

    wall_s = _scaled_wall(rounds)
    first = rounds[0][0]
    p50, p90, p99 = _percentiles(rounds, [50, 90, 99])
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": rss_mb,
    }
    cpu_util = cpu_s / (sum(w for _, w, _ in rounds) * workload.threads)
    extra = {"fail_rate": _share(failed, attempted), "cpu_util": cpu_util}
    if ops >= P99_MIN_OPS:
        extra["op_ms_p99"] = p99
    if first.samples is not None:
        extra["bits_per_s"] = first.samples / wall_s
    if first.counts:
        extra["mean_samples"] = first.samples / ops

    report = {
        "workload": workload.name,
        **environment(seed),
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "ops_per_round": ops,
        "digests": part_digests(first.outputs),
        "reference": "match" if failed == 0 else "mismatch",
        "raw_wall_s": statistics.median(w for _, w, _ in rounds),
        "round_wall_s": [w for _, w, _ in rounds],
        "calibration_s": calibrations,
        "extra": extra,
    }
    if reference is None:
        report["reference"] = "none for this seed"
    correct = failed == 0
    if not trace:
        metrics = end_to_end
        units = END_TO_END
    else:
        metrics, units, unexercised = layer_metrics(workload, tracer, rounds, traced, cpu_util)
        metrics["setup.import_s"] = import_s
        report["end_to_end_untraced"] = end_to_end
        report["spans"] = tracer.span_count
        report["unexercised"] = unexercised
        correct = correct and not unexercised
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "report": report,
    }


def layer_metrics(workload, tracer, rounds, traced, cpu_util):
    """Per-layer metrics per traced round, and the spans the workload should reach but did not."""
    n = len(traced)
    scale = statistics.median(speed for _, _, speed in traced) / n
    totals = tracer.layer_totals()
    metrics, units = {}, {}
    for target in tracer.targets:
        t = totals[target.label]
        metrics[f"{target.label}.calls"] = t["calls"] / n
        units[f"{target.label}.calls"] = "count"
        metrics[f"{target.label}.self_s"] = t["self_s"] * scale
        units[f"{target.label}.self_s"] = "s"
        if target.elems is not None:
            metrics[f"{target.label}.elems"] = t["elems"] / n
            units[f"{target.label}.elems"] = "count"
    first = rounds[0][0]
    drawn = (
        totals["sampling.BernoulliSource.take"]["elems"] + totals["certify.ClassOracle.sample"]["elems"]
    ) / n
    metrics["cli.cpu_util"] = cpu_util
    metrics["sampling.bits_used_share"] = _share(first.samples or 0, drawn)
    for layer in ("decision", "certify"):
        metrics[f"{layer}.undecided_share"] = _share(
            first.counts.get(f"{layer}.undecided", 0), first.counts.get(f"{layer}.trials", 0)
        )
        metrics[f"{layer}.wrong_share"] = _share(
            first.counts.get(f"{layer}.wrong", 0), first.counts.get(f"{layer}.decided", 0)
        )
    metrics["trace.overhead_s"] = _scaled_wall(traced) - _scaled_wall(rounds)
    units.update(PER_LAYER_EXTRA)
    unexercised = sorted(label for label in workload.exercises if totals[label]["calls"] == 0)
    return metrics, units, unexercised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    result = measure(
        workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        reference=load_reference(workload.name, args.seed),
    )
    report = result.pop("report")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in report["extra"].items():
        print(f"{name:40s} {value:.6g}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
