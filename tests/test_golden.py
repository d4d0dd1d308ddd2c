"""Golden digests: the CLI output bytes of small fixed configs, pinned.

Every other CLI test compares reruns within one version; these compare
against sha256 digests recorded once, so any drift between versions -
an endpoint that moves by one ulp, a changed draw order, a reformatted
number - fails here.  The configs are small but reach every command and
every path the benchmark skips: binary certification with all three
sequences, multiclass certification with both sequences (betting also
with both budget splits, at radii that certify, refute and reach the
cap), ``width`` with both sequence kinds (once at the tables workload's
horizon, through the betting interval's collapses), two-sided
``coverage`` and ``thresholds``.

The CSVs round endpoints to ten significant digits, so a last test pins
the raw float64 bytes of the endpoint solvers and running sequences as
well.  A digest may only change together with a deliberate, documented
change of the output; print ``_digests(...)`` or ``_raw_endpoint_bytes()``
to recompute one.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from anytime.cli import main
from anytime.intervals import rcp_upper_lo
from anytime.mc import betting_trace, union_trace
from anytime.sampling import substream
from anytime.sequences import BettingCS, Schedule, UnionCS, betting_endpoints

CASES = {
    "decide": (
        ["decide", "--q", "0.7", "--alpha", "0.01", "--grid-points", "6", "--trials", "3",
         "--cap", "20000", "--seed", "11"],
        True,
    ),
    "certify-binary": (
        ["certify", "--mode", "binary", "--probs", "0.9,0.1", "--radii", "0.25,0.5",
         "--cs", "betting,union,adaptive", "--alpha", "0.01", "--trials", "3", "--seed", "12"],
        True,
    ),
    "certify-multiclass": (
        ["certify", "--mode", "multiclass", "--probs", "0.5,0.3,0.2", "--radii", "0.1,0.2",
         "--cs", "betting,union", "--alpha", "0.01", "--trials", "3", "--cap", "20000",
         "--seed", "13"],
        True,
    ),
    "certify-multiclass-betting": (
        ["certify", "--mode", "multiclass", "--probs", "0.55,0.45", "--radii", "0.02,0.12,0.4",
         "--cs", "betting", "--alpha", "0.01", "--trials", "3", "--cap", "20000", "--seed", "17"],
        True,
    ),
    "certify-multiclass-betting-lam": (
        ["certify", "--mode", "multiclass", "--probs", "0.55,0.45", "--radii", "0.02,0.12,0.4",
         "--cs", "betting", "--alpha", "0.01", "--lam", "0.3", "--trials", "3", "--cap", "20000",
         "--seed", "17"],
        True,
    ),
    "width": (
        ["width", "--horizon", "4096", "--p", "0.3", "--alpha", "0.01",
         "--kinds", "betting,union", "--seed", "14"],
        False,
    ),
    # a fair stream at alpha 0.5: the betting bounds cross by step 128, and
    # 130,989 of the 131,072 steps are collapsed points
    "width-collapse": (
        ["width", "--horizon", "131072", "--p", "0.5", "--alpha", "0.5",
         "--kinds", "betting,union", "--seed", "2"],
        False,
    ),
    "coverage-two": (
        ["coverage", "--n", "30", "--grid-points", "5", "--trials", "300", "--side", "two",
         "--alpha", "0.05", "--seed", "15"],
        False,
    ),
    "coverage-lower": (
        ["coverage", "--n", "25", "--p-grid", "0.05,0.5,0.93", "--trials", "300",
         "--side", "lower", "--alpha", "0.01", "--seed", "16"],
        False,
    ),
    "thresholds": (
        ["thresholds", "--p", "0.7", "--alpha", "0.01", "--n-max", "3000"],
        False,
    ),
}

GOLDEN = {
    "decide": (
        "3a8515d2cfb22f66a61afd5cfeb556702c8a0214d3f297182613fa380560ab93",
        "4aae29f0468acd99c591362b33a93cbc808b6c77e76cfad0089d0a0f4da95ecd",
    ),
    "certify-binary": (
        "3f5337145f25fa73967c110b128a0f8e6c8bfdfc6486b3f27b1e297f923edb1f",
        "6d5381ceacfb0037261748d4cbe86aef33fce630e06e98bdd683ac9e0d43e5d9",
    ),
    "certify-multiclass": (
        "d40b5575a33ddfe845cfd200a66606aac243c95f576f7f0003c96c987fdeb807",
        "92cc1f9c182481e280b93982553794d8a778e6c79b181f0439863628fd8f6eb8",
    ),
    "certify-multiclass-betting": (
        "3b4a88aa17c9e6b8bfab93b2ab42356a972408190cf116de616385dc6a8bc858",
        "ba7b60bd66ad6cf9ef9810da50c1eee2de18f8990053f1585384fa7664189b22",
    ),
    "certify-multiclass-betting-lam": (
        "805e121596cbeb28a2cb752448534f4e413b245884aab37f2d1bd681f0eb9c0c",
        "dfc0fc952c67fa573e8cbb2035fb7780e6f56655c98237b7915be757d2738cee",
    ),
    "width": ("6e873d0180fd5ea3bbb87cfe0a2a8c36052628567c11430a67ff3fa6c2284bd4",),
    "width-collapse": ("728203e37729eb5f32066ba7ee13dcd0e066d4acfb4f96d905ec95e213d81d80",),
    "coverage-two": ("53b3cf836140a86d1a02bfef87eb87f7b071b9a114410ba3f1e2525a79e1c17a",),
    "coverage-lower": ("dbb1e4e04eb244eb5b2aa0e30e55f6730b7f2d75cfcca361bfd31d571d072143",),
    "thresholds": ("57346c57e5ffc4e1529f5e821c33a3fb1d0b4e208b3a93d3ca97c3160c64412a",),
}


def _digests(argv: list[str], summary: bool, tmp: Path) -> tuple[str, ...]:
    extra = ["--summary-out", str(tmp / "summary.csv")] if summary else []
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv + extra) == 0
    texts = [buf.getvalue()]
    if summary:
        texts.append((tmp / "summary.csv").read_text())
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


def test_cases_and_digests_match():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    argv, summary = CASES[name]
    assert _digests(argv, summary, tmp_path) == GOLDEN[name]


RAW_GOLDEN = "f54a8259ca7f596edbc6d2c738fd5f83b9fb5c6b993881eca7cc532c554a6ca6"


def _raw_endpoint_bytes() -> bytes:
    """Float64 bytes of the solvers and sequences on fixed seeded inputs."""
    rng = substream(21, "golden")
    means = np.array([[0.02], [0.5], [0.97]])
    bits = (rng.random((3, 3000)) < means).astype(np.uint8)
    parts = list(betting_trace(bits, 0.01))
    parts.extend(union_trace(bits[1], Schedule.doubling(0.01), substream(21, "golden", "w")))
    betting, union = BettingCS(0.05), UnionCS(Schedule.geometric(0.05), draws=rng.random)
    for bit in bits[0, :400]:
        b, u = betting.update(int(bit)), union.update(int(bit))
        parts.append(np.array([b.lo, b.up, u.lo, u.up]))
    x = np.arange(51)
    parts.append(rcp_upper_lo(x, 50, 1e-6, rng.random(51)))
    parts.append(rcp_upper_lo(x, 50, 0.3, 1.0))
    parts.extend(betting_endpoints(x, 50, 1e-9))
    return b"".join(np.ascontiguousarray(part, dtype=np.float64).tobytes() for part in parts)


def test_raw_endpoint_bytes():
    assert hashlib.sha256(_raw_endpoint_bytes()).hexdigest() == RAW_GOLDEN


COLLAPSE_GOLDEN = "9ccd6fea80222ff2d003cb2ede2598d5e0f2affa77f4a3cadb3557afa0cd4b0b"


def test_betting_trace_bytes_through_collapses():
    # the width-collapse stream: the running bounds, crossings collapsed to
    # the mean, at every step rather than the printed ten digits of 18 rows
    bits = (substream(2, "width", "bits").random(131072) < 0.5).astype(np.uint8)
    lo, up = betting_trace(bits, 0.5)
    assert np.count_nonzero(lo == up) == 130_989
    assert hashlib.sha256(lo.tobytes() + up.tobytes()).hexdigest() == COLLAPSE_GOLDEN
