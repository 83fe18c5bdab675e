"""Output checks on the CSVs one ``harness.run`` call writes.

A case passes only if its files parse, its trajectory ends at t_end,
every constraint invariant the acceptance gate bounds stays within the
gate's threshold, and, for an adaptive run, every accepted error
estimate is below tol.  ``check_case`` raises ``CaseFailure`` with the
reason otherwise.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Invariant columns that are zero on the manifold: bounded in absolute value.
ZERO_GATES = {
    "orthogonality": 1e-12,
    "max_q_norm_error": 1e-12,
    "max_tangency_error": 1e-12,
    "max_orthogonality_error": 1e-12,
}
# Conserved quantities: bounded in drift from the first row.
DRIFT_GATES = {"gamma_norm": 1e-12, "p_norm": 1e-12, "pi_dot_gamma": 1e-10}
# Gamma0.pi is conserved by the implicit family only (acceptance criterion
# 4); the explicit actions on (Q, pi) do not preserve it.
IMPLICIT_DRIFT_GATES = {"gamma0_dot_pi": 1e-10}

EPS = np.finfo(float).eps


class CaseFailure(Exception):
    pass


def read_csv(path):
    """Header names and float rows of a geomint CSV ('#' lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    if len(lines) < 2:
        raise CaseFailure(f"{Path(path).name}: no data rows")
    header = lines[0].split(",")
    try:
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise CaseFailure(f"{Path(path).name}: {exc}") from None
    if rows.shape[1] != len(header):
        raise CaseFailure(f"{Path(path).name}: ragged rows")
    if not np.all(np.isfinite(rows)):
        raise CaseFailure(f"{Path(path).name}: non-finite values")
    return header, rows


def check_case(cfg, paths):
    """Validate one run's files; returns (accepted steps, final state,
    relative energy error)."""
    files = {Path(p).name.split(".")[-2]: p for p in paths}
    _, traj = read_csv(files["trajectory"])
    names, inv = read_csv(files["invariants"])
    if len(inv) != len(traj):
        raise CaseFailure("invariant and trajectory row counts differ")
    t_last = traj[-1, 0]
    if abs(t_last - cfg.t_end) > 1e-12 * max(1.0, abs(cfg.t_end)):
        raise CaseFailure(f"run ends at t = {t_last!r}, not t_end = {cfg.t_end!r}")

    gates = dict(DRIFT_GATES, **(IMPLICIT_DRIFT_GATES if cfg.method == "symplectic" else {}))
    for j, name in enumerate(names[1:], start=1):
        col = inv[:, j]
        if name in ZERO_GATES:
            worst, bound = float(np.max(np.abs(col))), ZERO_GATES[name]
        elif name in gates:
            worst, bound = float(np.max(np.abs(col - col[0]))), gates[name]
        else:
            continue
        if worst > bound:
            raise CaseFailure(f"{name} {worst:.2e} above {bound:.0e}")

    if cfg.mode == "adaptive":
        _, log = read_csv(files["steps"])
        accepted = log[log[:, 3] == 1.0]
        if len(accepted) != len(traj) - 1:
            raise CaseFailure("step log and trajectory disagree on accepted steps")
        if np.any(accepted[:, 2] >= cfg.tol):
            raise CaseFailure("an accepted error estimate is not below tol")

    energy = inv[:, names.index("energy")]
    rel = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    # below one ulp the drift is not resolved; the floor keeps the
    # geometric mean finite
    return len(traj) - 1, traj[-1, 2:], max(rel, EPS)


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
