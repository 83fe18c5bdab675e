#!/usr/bin/env python3
"""Convergence ladders for the explicit schemes on the spatial heavy top.

Writes one <out>/<method>.orders.csv per method and prints the fitted
slopes.  Base steps are per-method: the fast precession limits how
large the top rung can be before the exponential leaves its injective
branch.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from geomint.harness import RunConfig, converge, read_csv

BASE_STEPS = {
    "lie-euler": 0.02,
    "heun": 0.1,
    "rkmk3": 0.1,
    "rkmk4": 0.15,
    "rkmk4-2c": 0.15,
    "cf4": 0.05,
    "cf32a": 0.1,
    "cf32b": 0.1,
    "cf43": 0.05,
    "rkmk54": 0.1,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/heavytop", help="output directory")
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--methods", nargs="*", default=sorted(BASE_STEPS))
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for method in args.methods:
        cfg = RunConfig(
            system="heavytop-spatial",
            method=method,
            mode="converge",
            t_end=args.t_end,
            h=BASE_STEPS[method],
            out=str(outdir / method),
        )
        (path,) = converge(cfg)
        slope = read_csv(path)[0]["fitted_slope"]
        print(f"{method:10s} slope {float(slope):6.3f}  -> {path}")


if __name__ == "__main__":
    main()
