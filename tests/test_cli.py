"""Command-line drivers: output schemas, determinism, and small runs.

Every command is checked three ways: its CSV parses under the shared
schema table, rerunning the exact invocation (including with different
thread counts) is byte-identical, and the numbers in a deliberately
small run agree with what the library says they should be.  Config
errors must exit with status 2 before any sampling starts.
"""

from __future__ import annotations

import io
import threading
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from anytime import cli, decision
from anytime.cli import _CHUNK_ROWS, main, run_thresholds
from anytime.config import CERT_CS, CERT_MODES, CertifyConfig, DecideConfig, ThresholdsConfig
from anytime.decision import METHODS
from anytime.sequences import dp_thresholds

from csv_schemas import validate


def run_cli(*argv: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _cells(rows, **match):
    return [r for r in rows if all(r[k] == v for k, v in match.items())]


class TestCoverage:
    ARGS = (
        "coverage", "--n", "20", "--grid-points", "5", "--trials", "200",
        "--alpha", "0.05", "--seed", "7",
    )

    def test_schema_and_exact_values(self):
        rows = validate("coverage", run_cli(*self.ARGS))
        assert len(rows) == 10  # two kinds x five grid points
        for row in rows:
            assert row["trials"] == 200
            if row["kind"] == "rcp":
                assert row["coverage_exact"] == pytest.approx(0.95, abs=1e-9)
            else:
                assert row["coverage_exact"] >= 0.95 - 1e-12
            assert row["coverage_mc"] == pytest.approx(row["coverage_exact"], abs=0.08)

    def test_exact_only_run_leaves_mc_blank(self):
        rows = validate("coverage", run_cli(*self.ARGS[:-4], "--trials", "0"))
        assert all(row["coverage_mc"] is None and row["trials"] == 0 for row in rows)

    def test_explicit_grid_and_kind_filter(self):
        text = run_cli(
            "coverage", "--n", "10", "--p-grid", "0.3,0.5", "--kind", "rcp",
            "--trials", "0", "--alpha", "0.1",
        )
        rows = validate("coverage", text)
        assert [(r["p"], r["kind"]) for r in rows] == [(0.3, "rcp"), (0.5, "rcp")]

    def test_byte_identical_across_threads(self):
        base = run_cli(*self.ARGS)
        assert run_cli(*self.ARGS) == base
        assert run_cli(*self.ARGS, "--threads", "3") == base


class TestWidth:
    ARGS = ("width", "--horizon", "256", "--p", "0.3", "--alpha", "0.01", "--seed", "9")

    def test_schema_and_running_widths(self):
        rows = validate("width", run_cli(*self.ARGS))
        log_ts = [2**j for j in range(9)]
        for kind in ("betting", "union"):
            cells = _cells(rows, kind=kind)
            assert [r["t"] for r in cells] == log_ts
            for r in cells:
                assert r["L"] <= r["U"]
                # all three columns round independently to 10 significant digits
                assert r["width"] == pytest.approx(r["U"] - r["L"], abs=1e-9)
            widths = [r["width"] for r in cells]
            assert all(a >= b for a, b in zip(widths, widths[1:]))  # running intervals

    def test_kind_filter_and_determinism(self):
        args = self.ARGS + ("--kinds", "betting")
        text = run_cli(*args)
        assert {r["kind"] for r in validate("width", text)} == {"betting"}
        assert run_cli(*args) == text


class TestDecide:
    ARGS = (
        "decide", "--q", "0.6", "--alpha", "0.05", "--p-grid", "0.2,0.9",
        "--trials", "5", "--cap", "2000", "--methods", "sprt,betting", "--seed", "3",
    )

    @pytest.fixture()
    def outputs(self, tmp_path):
        summary_path = tmp_path / "summary.csv"
        text = run_cli(*self.ARGS, "--summary-out", str(summary_path))
        return validate("decide", text), validate("decide_summary", summary_path.read_text())

    def test_schema_and_sorting(self, outputs):
        rows, summary = outputs
        assert len(rows) == 20 and len(summary) == 4
        keys = [(r["method"], r["p"], r["trial"]) for r in rows]
        assert keys == sorted(keys)
        skeys = [(s["method"], s["p"]) for s in summary]
        assert skeys == sorted(skeys)

    def test_verdicts_track_the_gap(self, outputs):
        # column p is the tested threshold, q the true stream mean: a
        # threshold below the mean should come back "less" and vice versa
        rows, _ = outputs
        for method in ("sprt", "betting"):
            for p, want in ((0.2, "less"), (0.9, "greater")):
                verdicts = [r["verdict"] for r in _cells(rows, method=method, p=p)]
                assert sum(v == want for v in verdicts) >= 3, (method, p, verdicts)

    def test_summary_matches_rows(self, outputs):
        rows, summary = outputs
        by_cell = {(s["method"], s["p"]): s for s in summary}
        for (method, p), s in by_cell.items():
            samples = [r["samples"] for r in _cells(rows, method=method, p=p)]
            assert s["mean_samples"] == pytest.approx(np.mean(samples), rel=1e-9)
        for p in (0.2, 0.9):
            assert by_cell[("sprt", p)]["ratio_vs_sprt"] == pytest.approx(1.0)
            want = by_cell[("betting", p)]["mean_samples"] / by_cell[("sprt", p)]["mean_samples"]
            assert by_cell[("betting", p)]["ratio_vs_sprt"] == pytest.approx(want, rel=1e-9)
            # the information lower bound depends on the gap only
            assert by_cell[("betting", p)]["lower_bound_info"] == pytest.approx(
                by_cell[("sprt", p)]["lower_bound_info"], rel=1e-12
            )

    def test_byte_identical_across_threads(self, tmp_path):
        texts, summaries = [], []
        for threads in ("1", "2", "1"):
            path = tmp_path / f"s{len(texts)}.csv"
            texts.append(
                run_cli(*self.ARGS, "--threads", threads, "--summary-out", str(path))
            )
            summaries.append(path.read_text())
        assert texts[0] == texts[1] == texts[2]
        assert summaries[0] == summaries[1] == summaries[2]


class TestCertify:
    def test_binary_schema_and_summary(self, tmp_path):
        summary_path = tmp_path / "summary.csv"
        text = run_cli(
            "certify", "--probs", "0.97,0.03", "--radii", "0.25,0.5",
            "--cs", "betting,adaptive", "--trials", "6", "--alpha", "0.01",
            "--cap", "20000", "--seed", "11", "--summary-out", str(summary_path),
        )
        rows = validate("certify", text)
        summary = validate("certify_summary", summary_path.read_text())
        assert len(rows) == 24 and len(summary) == 4
        assert all(r["verdict"] == "greater" for r in rows)  # 0.97 clears both radii
        assert all(r["samples"] == 100 for r in rows if r["cs"] == "adaptive")
        assert all(r["samples"] <= 500 for r in rows if r["cs"] == "betting")
        for s in summary:
            cell = _cells(rows, cs=s["cs"], radius=s["radius"])
            assert s["trials"] == 6
            assert s["certified_rate"] == pytest.approx(
                np.mean([r["verdict"] == "greater" for r in cell]), abs=1e-12
            )
            assert s["mean_samples"] == pytest.approx(
                np.mean([r["samples"] for r in cell]), rel=1e-9
            )
            assert s["std_samples"] == pytest.approx(
                np.std([r["samples"] for r in cell]), rel=1e-6
            )

    def test_multiclass_run(self):
        # top class 0.5 vs runner-up 0.3 supports radius ~0.26, so most
        # trials certify 0.2; a rare warmup misidentification may refute
        # (betting) or stall (union), never falsely certify more
        text = run_cli(
            "certify", "--mode", "multiclass", "--probs", "0.5,0.3,0.2",
            "--cs", "betting,union", "--radii", "0.2", "--alpha", "0.01",
            "--trials", "4", "--cap", "30000", "--seed", "11",
        )
        rows = validate("certify", text)
        assert len(rows) == 8
        assert all(r["mode"] == "multiclass" for r in rows)
        for cs in ("betting", "union"):
            verdicts = [r["verdict"] for r in _cells(rows, cs=cs)]
            assert sum(v == "greater" for v in verdicts) >= 3, (cs, verdicts)

    def test_degenerate_oracle(self):
        # an always-class-0 oracle certifies deterministically: the
        # betting run is the all-ones halting time, the staged baseline
        # its first stage
        text = run_cli(
            "certify", "--probs", "1,0", "--radii", "0.5", "--cs", "betting,adaptive",
            "--trials", "3", "--alpha", "0.001", "--seed", "2",
        )
        rows = validate("certify", text)
        assert all(r["verdict"] == "greater" for r in rows)
        assert [r["samples"] for r in _cells(rows, cs="betting")] == [25, 25, 25]
        assert [r["samples"] for r in _cells(rows, cs="adaptive")] == [100, 100, 100]

    def test_default_cap_runs_the_whole_staged_ladder(self):
        # a cap below the last stage (120,000) would drop it, and a class
        # that never clears the radius could not abstain
        text = run_cli(
            "certify", "--cs", "adaptive", "--probs", "0.4,0.2,0.2,0.2", "--radii", "0.1",
            "--trials", "2",
        )
        rows = validate("certify", text)
        assert [(r["verdict"], r["samples"]) for r in rows] == [("abstain", 120000)] * 2

    def test_byte_identical_across_threads(self):
        args = (
            "certify", "--probs", "0.9,0.1", "--radii", "0.25,0.5", "--cs",
            "betting,union", "--trials", "5", "--alpha", "0.01", "--seed", "4",
        )
        base = run_cli(*args)
        assert run_cli(*args) == base
        assert run_cli(*args, "--threads", "4") == base


CHANGES, SAME, REFUSED = "changes", "same bytes", "exits 2"
CERTIFY = (
    "certify", "--probs", "0.6,0.3,0.1", "--radii", "0.2", "--trials", "2", "--alpha", "0.01",
    "--cap", "20000", "--seed", "5", "--cs", "betting,union",
)
# certify flags that one mode reads: (value, the modes that read it, its echo column or None)
CERT_MODE_ROWS = {
    "--cap": ("50", ("binary", "multiclass"), None),
    "--warmup": ("600", ("multiclass",), None),
    "--lam": ("0.02", ("multiclass",), "lambda"),
    "--target-class": ("1", ("binary",), None),
}


def cert_mode_rows():
    """Rows for the flags one mode reads, per mode x method, on the base ``certify-<mode>-<cs>``."""
    for mode in CERT_MODES:
        for flag, (value, read_by, echo) in CERT_MODE_ROWS.items():
            for cs in CERT_CS:
                runs = mode in read_by and (cs != "adaptive" or mode == "binary")
                yield f"certify-{mode}-{cs}", flag, value, CHANGES if runs else REFUSED, echo


class TestFlagsAreReadOrRefused:
    """Every flag either changes an output byte outside its own echo column, or exits 2.

    One row per command x flag, each against a small base run of the
    command without the flag; every parser dest but ``command``, ``out``
    and ``summary_out`` needs a row.  ``--p-grid`` and ``--grid-points``
    exclude each other.  The certify rows that one mode reads run per
    mode x method: a flag the chosen mode does not read is refused with a
    message naming the mode that reads it, as is the adaptive method
    outside binary mode; ``--cap`` reaches every method, the staged
    baseline included.  The common flags keep one rule: ``--threads`` only
    schedules work, so it gives the same bytes on every command, and
    ``--seed`` is read by every run that draws, so it gives the same bytes
    on ``thresholds`` and ``coverage --trials 0``.
    """

    BASES = {
        "coverage": (
            "coverage", "--n", "12", "--p-grid", "0.3,0.6", "--trials", "50", "--alpha", "0.1",
        ),
        "coverage-exact": ("coverage", "--n", "12", "--trials", "0", "--alpha", "0.1"),
        "width": ("width", "--horizon", "64", "--p", "0.3", "--alpha", "0.05"),
        "decide": (
            "decide", "--q", "0.6", "--alpha", "0.05", "--p-grid", "0.2,0.9", "--trials", "2",
            "--cap", "2000", "--methods", "sprt,betting", "--seed", "3",
        ),
        "decide-grid": (
            "decide", "--alpha", "0.05", "--trials", "1", "--cap", "2000", "--methods", "betting",
        ),
        "certify": CERTIFY,
        **{
            f"certify-{mode}-{cs}": (*CERTIFY, "--mode", mode, "--cs", cs)
            for mode in CERT_MODES
            for cs in CERT_CS
        },
        "thresholds": ("thresholds", "--n-max", "64", "--alpha", "0.05", "--p", "0.5"),
    }
    # (base, flag, value, outcome, echo column of a change)
    ROWS = [
        ("coverage", "--n", "13", CHANGES, None),
        ("coverage", "--alpha", "0.2", CHANGES, None),
        ("coverage", "--p-grid", "0.4", CHANGES, "p"),
        ("coverage", "--grid-points", "3", REFUSED, None),
        ("coverage-exact", "--grid-points", "3", CHANGES, "p"),
        ("coverage", "--trials", "60", CHANGES, "trials"),
        ("coverage", "--kind", "rcp", CHANGES, "kind"),
        ("coverage", "--side", "two", CHANGES, None),
        ("coverage", "--seed", "7", CHANGES, None),
        ("coverage-exact", "--seed", "7", SAME, None),
        ("coverage", "--threads", "2", SAME, None),
        ("width", "--alpha", "0.1", CHANGES, None),
        ("width", "--p", "0.4", CHANGES, None),
        ("width", "--horizon", "128", CHANGES, None),
        ("width", "--kinds", "betting", CHANGES, "kind"),
        ("width", "--seed", "7", CHANGES, None),
        ("width", "--threads", "2", SAME, None),
        ("decide", "--q", "0.7", CHANGES, "q"),
        ("decide", "--alpha", "0.1", CHANGES, "alpha"),
        ("decide", "--p-grid", "0.3,0.9", CHANGES, "p"),
        ("decide", "--grid-points", "3", REFUSED, None),
        ("decide-grid", "--grid-points", "3", CHANGES, "p"),
        ("decide", "--trials", "3", CHANGES, "trial"),
        ("decide", "--methods", "sprt", CHANGES, "method"),
        ("decide", "--cap", "10", CHANGES, None),
        ("decide", "--seed", "4", CHANGES, "seed"),
        ("decide", "--threads", "2", SAME, None),
        ("certify", "--mode", "multiclass", CHANGES, "mode"),
        ("certify", "--cs", "union", CHANGES, "cs"),
        ("certify", "--probs", "0.5,0.3,0.2", CHANGES, None),
        ("certify", "--sigma", "0.5", CHANGES, "sigma"),
        ("certify", "--radii", "0.1", CHANGES, "radius"),
        ("certify", "--alpha", "0.05", CHANGES, "alpha"),
        ("certify", "--trials", "3", CHANGES, None),
        ("certify", "--seed", "6", CHANGES, "seed"),
        ("certify", "--threads", "2", SAME, None),
        *cert_mode_rows(),
        ("thresholds", "--p", "0.6", CHANGES, None),
        ("thresholds", "--alpha", "0.1", CHANGES, None),
        ("thresholds", "--n-max", "65", CHANGES, None),
        ("thresholds", "--seed", "7", SAME, None),
        ("thresholds", "--threads", "2", SAME, None),
    ]

    @staticmethod
    def _dest(command: str, flag: str, value: str) -> str:
        parser = cli.build_parser()
        plain, flagged = (vars(parser.parse_args([command, *extra])) for extra in ((), (flag, value)))
        (dest,) = [name for name in plain if plain[name] != flagged[name]]
        return dest

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_dest_has_a_row(self, command):
        # a new flag fails here until it gets a row above
        dests = set(vars(cli.build_parser().parse_args([command])))
        rows = {
            self._dest(command, flag, value)
            for base, flag, value, _, _ in self.ROWS
            if self.BASES[base][0] == command
        }
        assert rows == dests - {"command", "out", "summary_out"}

    @staticmethod
    def _without(text: str, column) -> list[list[str]]:
        rows = [line.split(",") for line in text.splitlines()]
        if column is None:
            return rows
        i = rows[0].index(column)
        return [row[:i] + row[i + 1 :] for row in rows]

    @pytest.mark.parametrize(
        ("base", "flag", "value", "outcome", "echo"),
        ROWS,
        ids=[f"{base} {flag} {value}" for base, flag, value, _, _ in ROWS],
    )
    def test_flag_changes_bytes_or_exits_2(self, base, flag, value, outcome, echo):
        argv = self.BASES[base]
        if outcome == REFUSED:
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, flag, value)
            assert exc.value.code == 2
            return
        plain, flagged = run_cli(*argv), run_cli(*argv, flag, value)
        if outcome == SAME:
            assert flagged == plain
        else:
            assert self._without(flagged, echo) != self._without(plain, echo)

    @pytest.mark.parametrize(
        ("mode", "flag", "value", "reader"),
        [
            ("binary", "--warmup", "50", "multiclass"),
            ("binary", "--lam", "0.3", "multiclass"),
            ("multiclass", "--target-class", "1", "binary"),
        ],
    )
    def test_refusal_names_the_mode_that_reads_the_flag(self, mode, flag, value, reader):
        args = cli.build_parser().parse_args(["certify", "--mode", mode, flag, value])
        with pytest.raises(ValueError, match=f"read in {reader} mode only"):
            cli._build_config(args)


class TestThresholds:
    def test_schema_and_frozen_values(self):
        rows = validate(
            "thresholds", run_cli("thresholds", "--p", "0.5", "--alpha", "0.05", "--n-max", "64")
        )
        assert [r["t"] for r in rows] == list(range(1, 65))
        h = [r["H_t"] for r in rows]
        assert h[0] == 2  # t = 1 cannot decide: sentinel t+1
        assert h[6] == 7  # first decidable all-ones prefix
        assert all(a <= b for a, b in zip(h, h[1:]))
        assert all(ht > 0.5 * t or ht == t + 1 for t, ht in zip(range(1, 65), h))

    @pytest.mark.parametrize("n_max", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, 3 * _CHUNK_ROWS + 5])
    def test_chunks_give_the_bytes_of_one_string_per_row(self, n_max):
        table = dp_thresholds(n_max, 0.91, 0.001)
        want = "t,H_t\n" + "".join(f"{t},{h}\n" for t, h in enumerate(table[1:].tolist(), start=1))
        assert run_thresholds(ThresholdsConfig(0.91, 0.001, n_max, 42, 1)) == want

    def test_million_row_table_within_budget(self, tmp_path):
        out = tmp_path / "table.csv"
        start = time.perf_counter()
        run_cli("thresholds", "--n-max", "1000000", "--out", str(out))
        assert time.perf_counter() - start < 5.0
        lines = out.read_text().splitlines()
        assert len(lines) == 1_000_001
        assert lines[0] == "t,H_t" and lines[1] == "1,2"
        assert lines[-1].startswith("1000000,")
        h = np.array([int(lines[t].split(",")[1]) for t in range(1, len(lines), 10_000)])
        assert np.all(np.diff(h) >= 0)


class TestCommonKnobs:
    ARGS = ("coverage", "--n", "12", "--grid-points", "3", "--trials", "50", "--alpha", "0.1")

    def test_the_environment_sets_no_knob(self, monkeypatch):
        # --seed and --threads are the only way to set them
        monkeypatch.delenv("ANYTIME_SEED", raising=False)
        monkeypatch.delenv("ANYTIME_THREADS", raising=False)
        want = run_cli(*self.ARGS)
        monkeypatch.setenv("ANYTIME_SEED", "7")
        monkeypatch.setenv("ANYTIME_THREADS", "2")
        assert run_cli(*self.ARGS) == want
        assert run_cli(*self.ARGS, "--seed", "7") != want

    def test_decide_and_certify_trials_run_on_the_calling_thread(self, monkeypatch):
        # their trials are mostly Python: a pool would only add GIL hand-offs
        # to each trial's wall_ns, so threads is checked and then ignored
        ran_on = []

        def recorded(fn):
            def wrapper(*args, **kwargs):
                ran_on.append(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(decision, "run_trial", recorded(decision.run_trial))
        monkeypatch.setattr(cli, "certify_multiclass", recorded(cli.certify_multiclass))
        cli.run_decide(DecideConfig(0.91, 0.01, (0.25, 0.5, 0.75), 2, METHODS, 2000, 3, 4))
        decided = len(ran_on)
        cli.run_certify(
            CertifyConfig(
                "multiclass", ("betting", "union"), (0.4, 0.2, 0.2, 0.2), 1.0, (0.1, 0.2),
                0.05, 0.5, 2, 2000, 0, 100, 3, 4,
            )
        )
        assert decided == 3 * len(METHODS) * 2 and len(ran_on) - decided == 2 * 2 * 2
        assert set(ran_on) == {threading.get_ident()}

    def test_out_matches_stdout(self, tmp_path):
        path = tmp_path / "cov.csv"
        text = run_cli(*self.ARGS, "--seed", "7")
        run_cli(*self.ARGS, "--seed", "7", "--out", str(path))
        data = path.read_bytes().decode()
        assert data == text and "\r" not in data


class TestConfigErrors:
    BAD = [
        ("coverage", "--kind", "bogus"),
        ("coverage", "--trials", "-1"),
        ("coverage", "--grid-points", "0"),
        ("width", "--alpha", "2"),
        ("width", "--kinds", "adaptive"),
        ("decide", "--q", "0.5", "--p-grid", "0.5"),  # sprt needs p != q
        ("decide", "--trials", "0"),
        ("certify", "--mode", "multiclass", "--cs", "adaptive", "--probs", "0.6,0.4"),
        ("certify", "--probs", "0.5,0.4"),
        ("certify", "--lam", "1.0"),
        ("certify", "--target-class", "5"),
        ("certify", "--sigma", "nan"),
        ("certify", "--sigma", "inf"),
        ("certify", "--mode", "multiclass", "--cs", "betting", "--probs", "0.5,0.5",
         "--radii", "nan"),
        ("thresholds", "--p", "1.5"),
        ("thresholds", "--n-max", "0"),
    ]

    @pytest.mark.parametrize("argv", BAD, ids=lambda a: " ".join(a))
    def test_exits_with_status_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
