#!/usr/bin/env python3
"""Long-time energy behaviour of the one-parameter implicit family on the
extended heavy top.  theta = 1/2 shows bounded oscillation with no drift;
the endpoints theta = 0 and 1 drift linearly.  Each line also gives the
largest drift of the conserved Gamma0.pi, which the implicit solve's
error alone moves."""

from __future__ import annotations

import argparse
import tempfile

import numpy as np

from geomint.harness import RunConfig, read_csv, run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, default=0.01)
    ap.add_argument("--steps", type=int, default=6000)
    ap.add_argument("--thetas", type=float, nargs="*", default=[0.0, 0.5, 1.0])
    args = ap.parse_args()

    for theta in args.thetas:
        with tempfile.TemporaryDirectory() as out:
            cfg = RunConfig(system="heavytop-ext", method="symplectic", t_end=args.h * args.steps,
                            h=args.h, theta=theta, out=f"{out}/run")
            _, header, rows = read_csv(run(cfg)[1])
        inv = dict(zip(header, rows.T))
        err = np.abs(inv["energy"] - inv["energy"][0])
        half = len(err) // 2
        pg = inv["gamma0_dot_pi"]
        print(
            f"theta = {theta:4.2f}: max |dE| first half {err[:half].max():.3e}, "
            f"second half {err[half:].max():.3e}, "
            f"final |p|-30 = {abs(inv['p_norm'][-1] - 30.0):.3e}, "
            f"max |d Gamma0.pi| {np.abs(pg - pg[0]).max():.3e}"
        )


if __name__ == "__main__":
    main()
