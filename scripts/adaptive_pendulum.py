#!/usr/bin/env python3
"""Adaptive step-size trace on the double spherical pendulum.

The chain passes through a near-vertical configuration around t = 2.2
where the dynamics stiffen; the controller should shrink the step there
and re-expand afterwards."""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from geomint.harness import RunConfig, read_csv, run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--method", default="rkmk54")
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--t-end", type=float, default=3.0)
    ap.add_argument("--out", default="results/pendulum-adaptive")
    args = ap.parse_args()

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(
        system="pendulum",
        method=args.method,
        mode="adaptive",
        t_end=args.t_end,
        h=0.05,
        tol=args.tol,
        out=args.out,
    )
    paths = run(cfg)
    t, h, _, accepted = read_csv(paths[-1])[2].T
    t, h = t[accepted == 1], h[accepted == 1]
    i = np.argmin(h)  # the first of equal minima
    print(f"{len(h)} accepted steps, {len(accepted) - len(h)} rejected")
    print(f"smallest accepted step h = {h[i]:.3e} at t = {t[i]:.3f}")
    for p in paths:
        print(p)


if __name__ == "__main__":
    main()
