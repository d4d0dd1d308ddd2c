"""Running widths of both confidence sequences against their rate envelopes.

Streams are fair coins - the worst case for interval width.  Widths are
taken from the actual running traces at power-of-two checkpoints and
compared to C * sqrt((log(1/alpha) + log t)/t) for the betting sequence
and C * sqrt((log(1/alpha) + log log t)/t) for the union-bound one.
Writes width_envelopes.csv into ``--out-dir`` (default ``results``) and
prints the worst width/envelope ratios (the fitted constants frozen in
the test suite came from a run of this protocol).
"""

from __future__ import annotations

import argparse
import csv
import pathlib

import numpy as np

from anytime.mc import bernoulli_matrix, betting_trace, union_trace
from anytime.sampling import substream
from anytime.sequences import Schedule, bet_cs_width_envelope, ub_cs_width_envelope

ALPHA = 0.001
N_STREAMS = 20
HORIZON = 2**16
CHECKPOINTS = 2 ** np.arange(6, 17)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()
    out = args.out_dir / "width_envelopes.csv"

    bits = bernoulli_matrix(substream(42, "width-script"), N_STREAMS, HORIZON, 0.5)
    bet_lo, bet_up = betting_trace(bits, ALPHA)
    bet_w = (bet_up - bet_lo)[:, CHECKPOINTS - 1]

    wrng = substream(42, "width-script", "w")
    uni_w = np.empty_like(bet_w)
    for i in range(N_STREAMS):
        lo, up = union_trace(bits[i], Schedule(ALPHA), wrng)
        uni_w[i] = (up - lo)[CHECKPOINTS - 1]

    bet_env = bet_cs_width_envelope(CHECKPOINTS, ALPHA)
    uni_env = ub_cs_width_envelope(CHECKPOINTS, ALPHA)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "betting_median", "betting_max", "betting_envelope",
             "union_median", "union_max", "union_envelope"]
        )
        for j, t in enumerate(CHECKPOINTS):
            writer.writerow(
                [int(t),
                 f"{np.median(bet_w[:, j]):.6g}", f"{bet_w[:, j].max():.6g}",
                 f"{bet_env[j]:.6g}",
                 f"{np.median(uni_w[:, j]):.6g}", f"{uni_w[:, j].max():.6g}",
                 f"{uni_env[j]:.6g}"]
            )
    print(f"wrote {out}")
    print(f"betting: max width/envelope ratio {(bet_w / bet_env).max():.3f}")
    print(f"union:   max width/envelope ratio {(uni_w / uni_env).max():.3f}")


if __name__ == "__main__":
    main()
