"""End-to-end statistical acceptance suite.

Eleven numbered checks, one per guarantee the library is sold on: exact
finite-sample coverage, time-uniform validity, martingale structure,
order invariance and DP/brute-force agreement, width envelopes, decision
power orderings, width-target scaling, Hoeffding calibration, the
multiclass-vs-binary certification separation, and byte-level CLI
determinism.

Each check prints a single ``criterion NN: PASS|FAIL`` line to the real
stdout (so the verdicts survive pytest's capture) and then asserts.
Monte Carlo sizes, seeds, and tolerances are frozen: failures reproduce
exactly.  Envelope and slack constants were fitted once on the frozen
seeds and are hard-coded with headroom; they are never refitted at test
time.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math

import numpy as np
from scipy import optimize

from anytime.certify import (
    CertSpec,
    ClassOracle,
    certify_binary,
    certify_multiclass,
    width_target_run,
)
from anytime.cli import main as cli_main
from anytime.decision import benchmark_sweep
from anytime.intervals import cp_upper, enumeration_coverage, rcp_upper_lo
from anytime.mc import bernoulli_matrix, union_ever_excluded, union_trace
from anytime.sampling import substream
from anytime.sequences import (
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

MC_SEED = 20240817


def _report(num: int, failures: list[str], capfd) -> None:
    """Print the one-line verdict for a criterion, then assert on it.

    The line goes to the real terminal (capture suspended) so the verdict
    survives pytest's fd-level capture even for passing tests.
    """
    verdict = "PASS" if not failures else "FAIL"
    with capfd.disabled():
        # leading newline: pytest -v leaves its progress line open
        print(f"\ncriterion {num:02d}: {verdict}", flush=True)
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. Exact coverage of the one-sided interval at small alpha.


def test_criterion_01_exact_coverage_small_alpha(capfd):
    """CP coverage is 1 above alpha^(1/n) and >= 1-alpha below; rCP is exact.

    At n=100, alpha=0.001 the only sample that can exclude a large p is
    the all-heads one, whose deterministic lower bound is alpha^(1/n);
    above that point deterministic coverage is exactly 1, elsewhere it is
    >= 1-alpha, while the randomized interval sits at 1-alpha everywhere.
    """
    n, alpha = 100, 0.001
    cutoff = alpha ** (1.0 / n)
    grid = np.linspace(0.0, 1.0, 101)[1:-1]
    failures = []
    for p in grid:
        cov_cp = enumeration_coverage(n, float(p), alpha, kind="cp", side="upper")
        cov_rcp = enumeration_coverage(n, float(p), alpha, kind="rcp", side="upper")
        if p > cutoff:
            if abs(cov_cp - 1.0) > 1e-12:
                failures.append(f"cp coverage at p={p:.2f} is {cov_cp!r}, want 1")
        elif cov_cp < 1.0 - alpha - 1e-12:
            failures.append(f"cp coverage at p={p:.2f} is {cov_cp!r} < 0.999")
        if abs(cov_rcp - (1.0 - alpha)) > 1e-9:
            failures.append(f"rcp coverage at p={p:.2f} is {cov_rcp!r}, want 0.999")
    _report(1, failures, capfd)


# ---------------------------------------------------------------------------
# 2. Closed-form n=2 endpoints and the randomized exclusion probability.


def test_criterion_02_two_flip_endpoints_and_exclusion(capfd):
    """n=2, alpha=0.05: known lower endpoints; exclusion of 1/2 happens w.p. alpha.

    The deterministic lower bounds are 0, 1-sqrt(0.95), sqrt(0.05).  Under
    the randomized interval only X=2 can exclude p=1/2, and it does so
    exactly when w * (1/2)^2 < alpha, i.e. with conditional probability
    alpha/p^2 = 0.2 - so the marginal exclusion probability is alpha.
    """
    failures = []
    for x, want in ((0, 0.0), (1, 0.0253), (2, 0.2236)):
        got = cp_upper(x, 2, 0.05).lo
        if abs(got - want) > 1e-3:
            failures.append(f"cp lower endpoint at x={x} is {got:.6f}, want {want}")

    cov = enumeration_coverage(2, 0.5, 0.05, kind="rcp", side="upper")
    if abs(cov - 0.95) > 1e-10:
        failures.append(f"rcp enumeration coverage {cov!r}, want 0.95")

    # Conditional route: the lower bound given X=2 decreases in w, so the
    # exclusion region {w : lo(w) > 1/2} is an interval [0, w0) with w0 = 0.2.
    w0 = optimize.brentq(
        lambda w: rcp_upper_lo(2, 2, 0.05, w) - 0.5, 1e-9, 1.0 - 1e-9
    )
    if abs(w0 - 0.2) > 1e-6:
        failures.append(f"conditional exclusion probability {w0!r}, want 0.2")
    _report(2, failures, capfd)


# ---------------------------------------------------------------------------
# 3. Time-uniform validity of both confidence sequences.


def test_criterion_03_time_uniform_validity(capfd):
    """Ever-miscoverage over 20k streams x 4096 steps stays within alpha + 3 SE.

    Betting: the wealth trace against the true p is a nonnegative
    martingale, so its running peak exceeds 1/alpha with probability at
    most alpha; the peak is computed once per stream and compared against
    both alpha thresholds.  Union: each stage's randomized CP pair gets
    budget alpha/(k(k+1)); the union over stages is at most alpha.
    """
    streams, horizon, chunk = 20_000, 4096, 4000
    p_vals, alphas = (0.1, 0.5, 0.91), (0.05, 0.01)
    t_arr = np.arange(1, horizon + 1, dtype=np.float64)
    failures = []
    for p in p_vals:
        gen = substream(MC_SEED, "c3-bits", str(p))
        union_rngs = {a: substream(MC_SEED, "c3-w", str(p), str(a)) for a in alphas}
        bet_hits = dict.fromkeys(alphas, 0)
        union_hits = dict.fromkeys(alphas, 0)
        for _ in range(streams // chunk):
            bits = bernoulli_matrix(gen, chunk, horizon, p)
            heads = np.cumsum(bits, axis=1, dtype=np.float64)
            peak = kt_log_wealth(heads, t_arr, p).max(axis=1)
            for a in alphas:
                bet_hits[a] += int((peak > math.log(1.0 / a)).sum())
                union_hits[a] += int(
                    union_ever_excluded(bits, p, Schedule(a), union_rngs[a]).sum()
                )
        for a in alphas:
            bound = a + 3.0 * math.sqrt(a / streams)
            for kind, hits in (("betting", bet_hits), ("union", union_hits)):
                rate = hits[a] / streams
                if rate > bound:
                    failures.append(
                        f"{kind} p={p} alpha={a}: ever-miscoverage "
                        f"{rate:.5f} > {bound:.5f}"
                    )
    _report(3, failures, capfd)


# ---------------------------------------------------------------------------
# 4. Nesting and the supermartingale property.


def test_criterion_04_nesting_and_supermartingale(capfd):
    """Running intervals only shrink; mean wealth at fixed t stays near 1.

    Nesting is checked update-by-update on 1000 streams for both
    constructions, with no tolerance, up to the first crossing: once the
    running one-sided pieces contradict each other the underlying set is
    empty and the classes report the sample-mean point, which moves.
    Crossings only happen inside miscovering streams, so their frequency
    is itself bounded and asserted.  The supermartingale check compares
    the empirical mean of exp(logW) at fixed times against 1 + 5 standard
    errors, per E[W_t] = W_0 = 1.
    """
    alpha, n_streams = 0.05, 1000
    failures = []
    crossed = {"betting": 0, "union": 0}
    rng = substream(MC_SEED, "c4-nesting")
    for s in range(n_streams):
        p = float(rng.uniform(0.05, 0.95))
        bits = (rng.random(24) < p).astype(np.int64)
        wrng = rng.spawn(1)[0]
        pairs = (
            ("betting", BettingCS(alpha)),
            ("union", UnionCS(Schedule(alpha), draws=lambda: float(wrng.random()))),
        )
        prev = {name: (0.0, 1.0) for name, _ in pairs}
        live = {name: True for name, _ in pairs}
        for b in bits:
            for name, cs in pairs:
                iv = cs.update(int(b))
                if not live[name]:
                    continue
                if iv.lo == iv.up:  # collapse point: the running set crossed
                    crossed[name] += 1
                    live[name] = False
                    continue
                lo0, up0 = prev[name]
                if iv.lo < lo0 or iv.up > up0:
                    failures.append(
                        f"{name} interval grew on stream {s}: "
                        f"[{lo0}, {up0}] -> [{iv.lo}, {iv.up}]"
                    )
                    live[name] = False
                prev[name] = (iv.lo, iv.up)
        if len(failures) > 3:
            break
    cross_bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / n_streams)
    for name, count in crossed.items():
        if count / n_streams > cross_bound:
            failures.append(
                f"{name} crossed on {count}/{n_streams} streams > {cross_bound:.4f}"
            )

    for p in (0.3, 0.5, 0.91):
        bits = bernoulli_matrix(substream(MC_SEED, "c4-mart", str(p)), 1000, 1024, p)
        heads = np.cumsum(bits, axis=1, dtype=np.float64)
        for t in (8, 64, 512, 1024):
            wealth = np.exp(kt_log_wealth(heads[:, t - 1], float(t), p))
            mean = float(wealth.mean())
            se = float(wealth.std(ddof=1)) / math.sqrt(len(wealth))
            if mean > 1.0 + 5.0 * se:
                failures.append(
                    f"mean wealth at p={p}, t={t} is {mean:.4f} > 1 + 5*{se:.4f}"
                )
    _report(4, failures, capfd)


# ---------------------------------------------------------------------------
# 5. Order invariance and DP thresholds vs. brute force.


def _incremental_log_mixture(bits: np.ndarray) -> float:
    """Accumulate logQ bit by bit via the (H+1/2)/(t+1) predictive rule."""
    logq, heads = 0.0, 0
    for i, b in enumerate(bits):
        if b:
            logq += math.log((heads + 0.5) / (i + 1.0))
            heads += 1
        else:
            logq += math.log((i - heads + 0.5) / (i + 1.0))
    return logq


def test_criterion_05_order_invariance_and_dp_brute(capfd):
    """Incremental logQ is permutation-invariant and matches the closed form;
    the threshold DP agrees with a brute-force wealth scan up to n=2000."""
    failures = []
    rng = substream(MC_SEED, "c5-perm")
    for s in range(1000):
        t = int(rng.integers(1, 129))
        bits = (rng.random(t) < rng.uniform(0.05, 0.95)).astype(np.int64)
        heads = int(bits.sum())
        straight = _incremental_log_mixture(bits)
        shuffled = _incremental_log_mixture(bits[rng.permutation(t)])
        closed = float(kt_log_mixture(heads, t))
        p_test = float(rng.uniform(0.01, 0.99))
        lw_inc = straight - heads * math.log(p_test) - (t - heads) * math.log1p(-p_test)
        lw_closed = float(kt_log_wealth(heads, t, p_test))
        if abs(straight - shuffled) > 1e-9:
            failures.append(f"pair {s}: permuted logQ differs by {straight - shuffled}")
        if abs(straight - closed) > 1e-9:
            failures.append(f"pair {s}: closed-form logQ differs by {straight - closed}")
        if abs(lw_inc - lw_closed) > 1e-9:
            failures.append(f"pair {s}: wealth differs by {lw_inc - lw_closed}")
        if len(failures) > 3:
            break

    for p, alpha in itertools.product((0.91, 0.5), (0.001, 0.05)):
        table = dp_thresholds(2000, p, alpha)
        threshold = math.log(1.0 / alpha)
        for t in range(2001):
            hmin = math.floor(p * t) + 1
            if hmin > t:
                brute = t + 1
            else:
                hs = np.arange(hmin, t + 1, dtype=np.float64)
                hot = np.flatnonzero(kt_log_wealth(hs, float(t), p) >= threshold)
                brute = int(hs[hot[0]]) if hot.size else t + 1
            if int(table[t]) != brute:
                failures.append(
                    f"dp({p}, {alpha}) at t={t}: {int(table[t])} != brute {brute}"
                )
                break
    _report(5, failures, capfd)


# ---------------------------------------------------------------------------
# 6. Width envelopes with frozen constants.

# Fitted once at MC_SEED over 200 streams (max observed ratios 1.238 and
# 1.526) and frozen with headroom; refitting at test time would make the
# check vacuous.
_C_BETTING = 1.45
_C_UNION = 1.80


def test_criterion_06_width_envelopes(capfd):
    """Measured widths at t = 2^6..2^16 stay under the frozen envelopes.

    Betting widths are evaluated instantaneously at each checkpoint -
    the running interval is never wider, so the bound covers it too.
    Union widths come from the actual running trace, whose update points
    (powers of two) coincide with the checkpoints.
    """
    alpha, n_streams = 0.001, 200
    ts = 2 ** np.arange(6, 17)
    bits = bernoulli_matrix(substream(MC_SEED, "c6-bits"), n_streams, int(ts[-1]), 0.5)
    failures = []

    heads = np.cumsum(bits, axis=1, dtype=np.int64)[:, ts - 1].astype(np.float64)
    t_mat = np.broadcast_to(ts.astype(np.float64), heads.shape)
    lo, up = betting_endpoints(heads, t_mat, alpha)
    bet_bound = _C_BETTING * bet_cs_width_envelope(ts, alpha)
    worst = ((up - lo) - bet_bound[None, :]).max(axis=0)
    for j, t in enumerate(ts):
        if worst[j] > 0.0:
            failures.append(f"betting width at t={t} exceeds envelope by {worst[j]:.4g}")

    union_bound = _C_UNION * ub_cs_width_envelope(ts, alpha)
    wrng = substream(MC_SEED, "c6-w")
    excess = np.full(ts.shape, -np.inf)
    for i in range(n_streams):
        lo_tr, up_tr = union_trace(bits[i], Schedule(alpha), wrng)
        excess = np.maximum(excess, (up_tr - lo_tr)[ts - 1] - union_bound)
    for j, t in enumerate(ts):
        if excess[j] > 0.0:
            failures.append(f"union width at t={t} exceeds envelope by {excess[j]:.4g}")
    _report(6, failures, capfd)


# ---------------------------------------------------------------------------
# 7. Decision sweep: error control and power orderings.


def test_criterion_07_decision_sweep_orderings(capfd):
    """Sweep at q=0.91, alpha=0.001, 51 thresholds, 200 trials per cell.

    Asserted: wrong-verdict rate <= alpha + slack at every cell (slack =
    3 SE at the nominal rate plus a one-trial continuity allowance); the
    oracle SPRT uses no more samples than either confidence sequence at
    interior thresholds (10% slack); each confidence sequence uses no
    more than the staged baseline wherever |p - q| >= 0.05 (10% slack).
    Absolute sample counts are deliberately not asserted - only the
    orderings are stable across environments.  Degenerate thresholds 0
    and 1 are excluded from the SPRT comparison: there the sequences stop
    on the first contradicting bit, which beats any likelihood-ratio walk.
    """
    q, alpha, trials = 0.91, 0.001, 200
    grid = np.linspace(0.0, 1.0, 51)
    records, summaries = benchmark_sweep(
        q=q, alpha=alpha, grid=grid, trials=trials, cap=200_000, seed=42
    )
    failures = []

    wrong = {}
    for rec in records:
        key = (rec.method, round(rec.p, 10))
        wrong[key] = wrong.get(key, 0) + rec.is_wrong()
    slack = 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials) + 1.0 / trials
    for (method, p), count in sorted(wrong.items()):
        if count / trials > alpha + slack:
            failures.append(
                f"{method} at p={p}: wrong rate {count}/{trials} > {alpha + slack:.4f}"
            )

    mean = {(s.method, round(s.p, 10)): s.mean_samples for s in summaries}
    ps = sorted({round(s.p, 10) for s in summaries})
    for p in ps:
        if not 0.0 < p < 1.0:
            continue
        for cs in ("betting", "union"):
            if mean[("sprt", p)] > 1.10 * mean[(cs, p)]:
                failures.append(
                    f"sprt mean {mean[('sprt', p)]:.1f} > 1.1x {cs} "
                    f"{mean[(cs, p)]:.1f} at p={p}"
                )
    for p in ps:
        if abs(p - q) < 0.05:
            continue
        for cs in ("betting", "union"):
            if mean[(cs, p)] > 1.10 * mean[("adaptive", p)]:
                failures.append(
                    f"{cs} mean {mean[(cs, p)]:.1f} > 1.1x staged "
                    f"{mean[('adaptive', p)]:.1f} at p={p}"
                )
    _report(7, failures, capfd)


# ---------------------------------------------------------------------------
# 8. Width-target sample counts scale like 1/eps^2.


def test_criterion_08_width_target_scaling(capfd):
    """Samples to reach width eps at p=1/2 follow the 1/eps^2 law within 1.7x."""
    alpha, cap = 0.001, 400_000
    eps_values = (0.01, 0.02, 0.03)
    failures = []
    used = {}
    for eps in eps_values:
        runs = []
        for rep in range(3):
            bits = (substream(MC_SEED, "c8", str(eps), rep).random(cap) < 0.5).astype(
                np.uint8
            )
            _, n = width_target_run(bits, eps, alpha, cap=cap)
            if n >= cap:
                failures.append(f"eps={eps} rep={rep} hit the cap")
            runs.append(n)
        used[eps] = float(np.mean(runs))
    for hi, lo in itertools.combinations(eps_values, 2):
        ideal = (lo / hi) ** 2
        got = used[hi] / used[lo]
        if not ideal / 1.7 <= got <= ideal * 1.7:
            failures.append(
                f"samples({hi})/samples({lo}) = {got:.2f}, want within 1.7x of {ideal:.2f}"
            )
    _report(8, failures, capfd)


# ---------------------------------------------------------------------------
# 9. Hoeffding calibration: analytic value and zero observed errors.


def test_criterion_09_hoeffding_calibration(capfd):
    """exp(-2 n eps^2) at n=1000, eps=0.1 is ~2.06e-9; 10^7 draws show no error."""
    failures = []
    bound = math.exp(-2.0 * 1000 * 0.1**2)
    if abs(bound - 2.06e-9) > 1e-11:
        failures.append(f"analytic bound {bound!r} not within 1e-11 of 2.06e-9")

    rng = substream(MC_SEED, "c9")
    errors = 0
    for _ in range(10):
        x = rng.binomial(1000, 0.5, size=1_000_000)
        errors += int(((x <= 400) | (x >= 600)).sum())
    if errors:
        failures.append(f"{errors} empirical errors in 1e7 trials, expected 0")
    _report(9, failures, capfd)


# ---------------------------------------------------------------------------
# 10. Multiclass certification succeeds where the binary reduction cannot.


def test_criterion_10_multiclass_vs_binary_separation(capfd):
    """probs (0.4, 0.2, 0.2, 0.2), sigma=1, r=0.2: binary never certifies
    (p_A < Phi(r)), multiclass certifies at least 90% of 1000 trials."""
    probs = (0.4, 0.2, 0.2, 0.2)
    cap, trials = 60_000, 1000
    spec = CertSpec(1.0, 0.2, 0.001)
    failures = []

    binary_hits = 0
    for trial in range(trials):
        oracle_rng, w_rng = substream(MC_SEED, "c10-binary", trial).spawn(2)
        verdict, _ = certify_binary(
            ClassOracle(probs, oracle_rng), 0, spec, "betting", cap=cap, rng=w_rng
        )
        binary_hits += verdict.value == "greater"
    if binary_hits:
        failures.append(f"binary certified {binary_hits}/{trials} times, want 0")

    multi_hits = 0
    for trial in range(trials):
        oracle_rng, w_rng = substream(MC_SEED, "c10-multi", trial).spawn(2)
        verdict, _ = certify_multiclass(
            ClassOracle(probs, oracle_rng), spec, "betting", cap=cap, rng=w_rng
        )
        multi_hits += verdict.value == "greater"
    if multi_hits < 0.9 * trials:
        failures.append(f"multiclass certified {multi_hits}/{trials}, want >= 900")
    _report(10, failures, capfd)


# ---------------------------------------------------------------------------
# 11. CLI determinism, including across thread counts.


def _run_cli(*argv: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(list(argv))
    assert rc == 0
    return buf.getvalue().encode()


def test_criterion_11_cli_determinism(capfd):
    """Every subcommand is byte-identical across reruns and thread counts."""
    variants = {
        "coverage": [
            ("coverage", "--n", "20", "--grid-points", "5", "--trials", "100",
             "--alpha", "0.05", "--seed", "42"),
            ("coverage", "--n", "20", "--grid-points", "5", "--trials", "100",
             "--alpha", "0.05", "--seed", "42", "--threads", "3"),
        ],
        "width": [
            ("width", "--horizon", "512", "--p", "0.3", "--alpha", "0.01",
             "--seed", "42"),
        ],
        "decide": [
            ("decide", "--q", "0.6", "--alpha", "0.05", "--p-grid", "0.2,0.8",
             "--trials", "3", "--cap", "2000", "--methods", "sprt,betting",
             "--seed", "42"),
            ("decide", "--q", "0.6", "--alpha", "0.05", "--p-grid", "0.2,0.8",
             "--trials", "3", "--cap", "2000", "--methods", "sprt,betting",
             "--seed", "42", "--threads", "2"),
        ],
        "certify": [
            ("certify", "--probs", "0.9,0.1", "--radii", "0.25", "--cs",
             "betting,adaptive", "--trials", "3", "--alpha", "0.01",
             "--cap", "20000", "--seed", "42"),
            ("certify", "--probs", "0.9,0.1", "--radii", "0.25", "--cs",
             "betting,adaptive", "--trials", "3", "--alpha", "0.01",
             "--cap", "20000", "--seed", "42", "--threads", "4"),
        ],
        "thresholds": [
            ("thresholds", "--p", "0.5", "--alpha", "0.05", "--n-max", "512",
             "--seed", "42"),
        ],
    }
    failures = []
    for name, argv_list in variants.items():
        outputs = [_run_cli(*argv) for argv in argv_list for _ in range(2)]
        if any(out != outputs[0] for out in outputs[1:]):
            failures.append(f"{name} output varies across reruns/threads")
        if not outputs[0]:
            failures.append(f"{name} produced no output")
    _report(11, failures, capfd)
