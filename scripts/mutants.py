#!/usr/bin/env python3
"""Seeded defects: does the Tier-1 suite catch each one?

    python scripts/mutants.py

Each defect in ``DEFECTS`` is one text replacement in one file.  For each,
the script copies the checkout's files (tracked, and untracked but not
ignored) to a temporary directory, applies the one replacement there,
runs the Tier-1 suite on the copy with ``-x`` and prints "caught" with
the first failing test, or "missed".  The exit status is 0 only when
every defect is caught.  A defect takes about
half a minute, so this script is not part of Tier-1; a Tier-1 test
checks that each defect's old text occurs exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
# the test that checks the old texts fails on every defect; leave it out
_SELF_TEST = "tests/test_harness.py::test_mutants_old_text_occurs_once_per_defect"


class Defect(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    why: str


DEFECTS = (
    Defect("M3", "src/geomint/integrators.py",
           "1.0 / (1.0 + min(self.p, self.p_hat))", "1.0 / (1.0 + max(self.p, self.p_hat))",
           "controller exponent from the higher order: alpha 1/6 for rkmk54"),
    Defect("M5", "src/geomint/actions.py",
           "abs(qq - 1.0) <= 2.0 * _TS2_TOL", "abs(qq - 1.0) <= 2000.0 * _TS2_TOL",
           "TS^2 check on |q| loosened 1000x"),
    Defect("M9", "src/geomint/actions.py",
           "abs(qw) <= _TS2_TOL *", "abs(qw) <= 1000.0 * _TS2_TOL *",
           "TS^2 check on q.w loosened 1000x"),
    Defect("M10", "src/geomint/integrators.py",
           "r_norm > 100.0 * bound", "r_norm > 1e6 * bound",
           "implicit solve accepts a stalled update with a large residual"),
    Defect("M16", "src/geomint/integrators.py",
           "    ts[-1] = T\n", "",
           "fixed_integrate's last time left at t0 + n h instead of T"),
    Defect("M17", "src/geomint/lie.py",
           "_SERIES_CUTOFF = 0.5", "_SERIES_CUTOFF = 0.05",
           "closed forms used down to 0.05, where they lose up to 4e-9 to cancellation"),
    Defect("M18", "src/geomint/actions.py",
           "_TS2_TOL = 1e-9", "_TS2_TOL = 1e-6",
           "TS^2 tolerance raised 1000x"),
    Defect("safety", "src/geomint/integrators.py",
           "theta: float = 0.9\n", "theta: float = 0.99\n",
           "controller safety factor raised from 0.9 to 0.99"),
    Defect("t-move", "src/geomint/integrators.py",
           "if h < _H_MIN or t + h == t:", "if h < _H_MIN:",
           "an adaptive step too short to move t is no longer refused"),
    Defect("singular", "src/geomint/integrators.py",
           "except (BranchError, SingularMatrixError):", "except BranchError:",
           "a trial whose field raises SingularMatrixError ends the run, not rejected"),
    Defect("end-check", "src/geomint/integrators.py",
           "    if bad.size:\n", "    if False:\n",
           "fixed_integrate returns a non-finite state"),
    Defect("cond", "src/geomint/kernels.py",
           "if not cond < 1e12:", "if not cond < 1e16:",
           "solve_dense accepts matrices 1e4x worse conditioned"),
    Defect("rejects", "src/geomint/integrators.py",
           "_MAX_REJECTS = 30", "_MAX_REJECTS = 300",
           "the controller gives up after 300 consecutive rejects, not 30"),
    Defect("halve", "src/geomint/integrators.py",
           "return 0.5 * h", "return 0.9 * h",
           "a non-finite estimate cuts h by 0.9, not 0.5"),
    Defect("fsal", "src/geomint/integrators.py",
           "fsal = tableau.b_hat is not None and tableau.a[-1] + (0.0,) == tableau.b",
           "fsal = False",
           "rkmk54 evaluates its first-same-as-last stage inside the step"),
    Defect("memo", "src/geomint/integrators.py",
           "        if m is y:\n            base = last\n", "",
           "a trial after a reject evaluates f(y) again"),
    Defect("h-min", "src/geomint/integrators.py",
           "_H_MIN = 1e-12", "_H_MIN = 1e-14",
           "step size floor lowered 100x"),
    Defect("pivot", "src/geomint/systems/pendulum.py",
           "if not pivot > 0.0:", "if not pivot < 0.0:",
           "the pendulum's Thomas sweep refuses every positive pivot"),
    Defect("quad-finite", "src/geomint/systems/quadrotor.py",
           "if not np.isfinite(state).all():", "if False:",
           "quadrotor_f reads a non-finite state"),
    Defect("pend-finite", "src/geomint/systems/pendulum.py",
           "if not all(map(isfinite, s)):", "if False:",
           "pendulum_f reads a non-finite state"),
    Defect("zero-estimate", "src/geomint/integrators.py",
           "    if e == 0.0:\n        return math.inf\n", "",
           "an estimate of 0 divides by zero instead of taking the rest of the interval"),
    Defect("solve-tol", "src/geomint/integrators.py",
           "_SOLVE_TOL = 1e-13", "_SOLVE_TOL = 1e-10",
           "implicit solve stopping bound raised 1000x"),
    Defect("predictor", "src/geomint/integrators.py",
           "if not np.isfinite(x).all():", "if False:",
           "implicit solve runs on from a non-finite predictor"),
    Defect("iterate", "src/geomint/integrators.py",
           "if not np.isfinite(dx).all():", "if False:",
           "implicit solve runs on from a non-finite update"),
    Defect("mgl", "src/geomint/systems/heavytop.py",
           "if not np.isfinite(self.mgl):", "if False:",
           "a heavy top accepts a weight Mgl that overflows to inf"),
    Defect("mode-conflict", "src/geomint/cli.py",
           'if mode != flags["mode"]:', "if False:",
           "a config file's mode loses silently to the subcommand's"),
    Defect("reads-tol", "src/geomint/harness.py",
           '"tol": lambda cfg: cfg.mode == "adaptive",', '"tol": lambda cfg: False,',
           "an adaptive run neither needs nor echoes tol"),
    Defect("errstate", "src/geomint/cli.py",
           'with np.errstate(all="ignore"):', "with np.errstate():",
           "numpy's overflow warnings print before the CLI's error line"),
)


def _copy_checkout(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():  # a deleted file stays listed until staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_defect(defect: Defect) -> tuple[bool, str]:
    """(caught, detail) for one defect, run on a fresh copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy_checkout(copy)
        path = copy / defect.path
        text = path.read_text()
        if text.count(defect.old) != 1:
            return False, f"old text occurs {text.count(defect.old)} times in {defect.path}"
        path.write_text(text.replace(defect.old, defect.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        where = subprocess.run([sys.executable, "-c", "import geomint; print(geomint.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(copy)):
            return False, f"geomint imported from {where.strip() or 'nowhere'}, not the copy"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--deselect", _SELF_TEST],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return False, "every test passed"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode != 1 or not failed:
        return False, f"pytest exited {proc.returncode} without a failing test"
    return True, failed[0].split(" - ")[0]


def main() -> int:
    caught = 0
    for defect in DEFECTS:
        ok, detail = run_defect(defect)
        caught += ok
        print(f"{defect.name:13s} {'caught' if ok else 'missed'}  {detail}  ({defect.why})",
              flush=True)
    print(f"{caught}/{len(DEFECTS)} caught")
    return 0 if caught == len(DEFECTS) else 1


if __name__ == "__main__":
    sys.exit(main())
