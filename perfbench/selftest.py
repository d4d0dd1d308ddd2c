"""Self-test of the benchmark, on tiny workloads (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, that the digest check passes on unmodified output and fails every
op when one output byte is flipped, that ``op_ms_p99`` is reported only for
workloads of at least 1,000 ops, that the tracer is bound in every module
that imports a traced name and reproduces the untraced bytes, and that the
``run_*`` output the benchmark hashes is the ``anytime`` command's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_checkout()

from tracer import Tracer, package_modules  # noqa: E402
from workloads import Certify, Decide, Online, Tables  # noqa: E402

from anytime import cli  # noqa: E402

SEED = 7
TINY = (
    Decide(trials=1, grid_points=5),
    Certify(trials=2),
    Online(bits=300),
    Tables(n_max=2000, horizon=4096, trials=200),
)
# Modules that import each name and so must see the traced wrapper.
BINDINGS = {
    "binom.binom_sf": ("binom", "intervals", "decision"),
    "binom.binom_cdf": ("binom", "intervals", "decision"),
    "intervals.rcp_upper_lo": ("intervals", "sequences", "certify", "mc"),
    "intervals.upper_tail_mix": ("intervals", "decision", "mc"),
    "intervals.lower_tail_mix": ("intervals", "decision", "mc"),
    "intervals.enumeration_coverage": ("cli",),
    "sequences.betting_endpoints": ("sequences", "certify", "mc"),
    "sequences.kt_log_wealth": ("sequences", "decision", "mc"),
    "sequences.dp_thresholds": ("cli",),
    "decision.decide_with_cs": ("certify",),
    "sampling.substream": ("decision", "cli"),
    "sampling.substream_id": ("decision", "cli"),
    "mc.mc_coverage": ("cli",),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def flip_first_byte(outputs: list[bytes]) -> list[bytes]:
    first = outputs[0]
    return [bytes([first[0] ^ 1]) + first[1:]] + outputs[1:]


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metrics(result: dict, units: dict[str, str], where: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{where}: metrics/units differ from BENCHMARK.json: {got} vs {units}")
    for name, m in result["metrics"].items():
        expect(math.isfinite(m["value"]), f"{where}: {name} is not finite")


def check_workload(workload) -> None:
    where = workload.name
    base = run.measure(workload, SEED, 0.01, trace=False, setup_repeats=1)
    expect(base["correct"] and base["failed"] == 0, f"{where}: untraced run failed")
    check_metrics(base, declared_units("end_to_end"), where)
    for name in ("setup_s", "wall_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"):
        expect(base["metrics"][name]["value"] > 0, f"{where}: {name} is not positive")
    expect("op_ms_p99" not in base["report"]["extra"], f"{where}: p99 reported below 1,000 ops")

    reference = base["report"]["digests"]
    same = run.measure(workload, SEED, 0.01, trace=False, reference=reference, setup_repeats=1)
    expect(same["correct"] and same["failed"] == 0, f"{where}: digest check failed on unmodified output")

    bad = run.measure(
        workload, SEED, 0.01, trace=False, reference=reference, corrupt=flip_first_byte, setup_repeats=1
    )
    expect(not bad["correct"], f"{where}: a flipped byte passed the digest check")
    expect(bad["report"]["extra"]["fail_rate"] == 1.0, f"{where}: a flipped byte did not fail every op")

    traced = run.measure(workload, SEED, 0.01, trace=True, reference=reference, setup_repeats=1)
    expect(traced["correct"], f"{where}: traced run failed: {traced['report'].get('unexercised')}")
    check_metrics(traced, declared_units("per_layer"), f"{where} traced")
    for label in workload.exercises:
        expect(traced["metrics"][f"{label}.calls"]["value"] > 0, f"{where}: {label} never called")
    print(f"ok {where}: {len(base['metrics'])} end-to-end and {len(traced['metrics'])} per-layer metrics")


def check_p99() -> None:
    result = run.measure(Online(bits=run.P99_MIN_OPS), SEED, 0.01, trace=False, setup_repeats=1)
    expect("op_ms_p99" in result["report"]["extra"], "p99 missing at 1,000 ops")
    print("ok op_ms_p99 reported at 1,000 ops")


def check_bindings() -> None:
    tracer = Tracer()
    with tracer:
        for label, original in tracer.originals.items():
            for mod in package_modules():
                for attr, value in vars(mod).items():
                    expect(value is not original, f"{mod.__name__}.{attr} still holds untraced {label}")
        for label, importers in BINDINGS.items():
            for name in importers:
                mod = sys.modules[f"anytime.{name}"]
                attr = label.split(".")[-1]
                expect(getattr(mod, attr) is tracer.wrappers[label], f"anytime.{name}.{attr} not traced")
    for label, original in tracer.originals.items():
        module, _, attr = label.partition(".")
        owner = sys.modules[f"anytime.{module}"]
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part)
        current = vars(owner)[attr.split(".")[-1]]
        expect(current is original, f"{label} not restored after uninstall")
    print("ok tracer bound in every importing module and removed after")


def cli_stdout(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        expect(cli.main(argv) == 0, f"anytime {' '.join(argv)} failed")
    return buf.getvalue().encode()


def check_cli_bytes() -> None:
    decide = TINY[0]
    seed = ["--seed", str(SEED)]
    got = decide.run(decide.configure(SEED)).outputs[0]
    want = cli_stdout(["decide", "--trials", "1", "--grid-points", "5", "--threads", "2", *seed])
    expect(got == want, "decide bytes differ from the anytime command's")
    certify = TINY[1]
    got = certify.run(certify.configure(SEED)).outputs[0]
    want = cli_stdout(
        ["certify", "--mode", "multiclass", "--probs", "0.4,0.2,0.2,0.2", "--radii", "0.1,0.2",
         "--cs", "betting,union", "--trials", "2", *seed]
    )
    expect(got == want, "certify bytes differ from the anytime command's")
    tables = TINY[3]
    got = tables.run(tables.configure(SEED)).outputs
    want = [
        cli_stdout(["thresholds", "--p", "0.91", "--alpha", "0.001", "--n-max", "2000", *seed]),
        cli_stdout(["coverage", "--n", "100", "--alpha", "0.001", "--trials", "200", *seed]),
        cli_stdout(["width", "--horizon", "4096", "--p", "0.5", *seed]),
    ]
    expect(got == want, "tables bytes differ from the anytime commands'")
    print("ok workload bytes equal the anytime command's stdout")


def main() -> int:
    check_bindings()
    check_cli_bytes()
    for workload in TINY:
        check_workload(workload)
    check_p99()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
