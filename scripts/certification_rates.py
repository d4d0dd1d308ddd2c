"""Certification rate and sample cost across radii, one oracle, three engines.

The default class distribution (0.4, 0.2, 0.2, 0.2) has a top-class
probability below 1/2, so the binary engines (sequential and staged) can
never certify any positive radius, while the two-sided multiclass bound
supports radii up to about 0.294.  Pass e.g. --probs 0.97,0.03 to see the
regime where the binary reduction works too.
"""

from __future__ import annotations

import argparse

from anytime.certify import (
    CertSpec,
    ClassOracle,
    certify_binary,
    certify_multiclass,
    certify_staged,
)
from anytime.sampling import substream

RADII = (0.1, 0.2, 0.25, 0.29)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probs", default="0.4,0.2,0.2,0.2")
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--alpha", type=float, default=0.001)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--cap", type=int, default=60_000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    probs = tuple(float(v) for v in args.probs.split(","))

    print("radius   binary   staged    multi   multi mean n")
    for radius in RADII:
        spec = CertSpec(args.sigma, radius, args.alpha)
        hits = {"binary": 0, "staged": 0, "multi": 0}
        multi_samples = 0
        for trial in range(args.trials):
            rng = substream(args.seed, "cert-script", f"{radius}", trial)
            o_rng, w_rng = rng.spawn(2)

            oracle = ClassOracle(probs, o_rng.spawn(1)[0])
            verdict, _ = certify_binary(oracle, 0, spec, "betting", cap=args.cap, rng=w_rng)
            hits["binary"] += verdict.value == "greater"

            oracle = ClassOracle(probs, o_rng.spawn(1)[0])
            verdict, _ = certify_staged(oracle, 0, spec)
            hits["staged"] += verdict.value == "greater"

            oracle = ClassOracle(probs, o_rng.spawn(1)[0])
            verdict, used = certify_multiclass(oracle, spec, "betting", cap=args.cap, rng=w_rng)
            hits["multi"] += verdict.value == "greater"
            multi_samples += used
        print(
            f"{radius:6.2f}"
            f"{hits['binary'] / args.trials:9.2f}"
            f"{hits['staged'] / args.trials:9.2f}"
            f"{hits['multi'] / args.trials:9.2f}"
            f"{multi_samples / args.trials:15.0f}"
        )


if __name__ == "__main__":
    main()
