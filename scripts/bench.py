#!/usr/bin/env python3
"""Field, step and implicit-solve timings, written as one JSON file.

    python scripts/bench.py --out BENCH.json [--repeats 15] [--number 100]
    python scripts/bench.py --compare A.json B.json

Each record times one call: a frozen-field evaluation at the system's
initial state (layer "field"), one trial step from it (layer "step";
for an embedded pair the trial includes its error estimate), or one
part of the implicit step at theta = 1/2 from it (layer "implicit"): the
residual map G at the step's predictor, the exact dG/dx there, the
inverse of J = I - dG/dx, and the whole simplified-Newton solve.  G is
the map the step solves, the group's closed form where it carries one.  A
record holds the median and the interquartile range, in microseconds
per call, of ``repeats`` samples of ``number`` calls each.  Its
``accuracy`` is the worst invariant drift of a short run of the
record's system: max |I(y_k) - I(y_0)| / max(1, |I(y_0)|) over the
invariants I and ``DRIFT_STEPS`` fixed steps k of the record's method
(rkmk4 for a field record, the implicit step for an implicit one);
``invariant`` names the I where it occurs.

Every sample is normalised by the calibration loop of
``perfbench/calibrate.py``, timed right after it: a sample of t us per
call whose loop took L seconds is stored as t * REFERENCE_S / L, which
reads as on a machine where the loop takes REFERENCE_S.  A drift of the
machine's speed between records then moves the loop with the sample.

The file also holds ``meta``: ``src_lines`` (the line count of the
tracked files under ``src/``, as ``git ls-files src | xargs wc -l``),
``revision`` (the short commit, and where the tracked files differ from
it, ``+`` and the first 8 hex digits of the SHA-1 of ``git diff HEAD``,
so that the file names the tree it measured), the Python and numpy
versions, ``reference_s``, and ``speed_factor``, REFERENCE_S over the
median of all the loop times.  The kernel, action, integration-loop and
end-to-end layers are not timed here.

``--compare A.json B.json`` prints, for each record of either file, the
two medians, their ratio B/A, and "moved" when the medians differ by
more than both records' IQRs ("-" otherwise); a record in one file only
is named as such.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from geomint.integrators import (  # noqa: E402
    METHODS, _residual_map, _simplified_newton, fixed_integrate, symplectic_step)
from geomint.kernels import inverse  # noqa: E402
from geomint.systems import get_system, symplectic_integrate  # noqa: E402

TOPS = ("heavytop-body", "heavytop-spatial", "heavytop-lp", "heavytop-ext")
TOP_H = 0.005
PENDULUM_LINKS = (3, 10, 40, 160)
MULTIBODY_H = 0.01
DRIFT_STEPS = 20
IMPLICIT_PARTS = ("G", "dG/dx", "J^-1", "newton")


def _calibrate():
    """perfbench/calibrate.py, loaded from its file without putting
    perfbench/ on the import path."""
    spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(*args):
    """git's output in the checkout, or None outside a git checkout."""
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def _revision():
    """The short commit, with ``+`` and a short hash of ``git diff HEAD``
    when the tracked files differ from it; "unknown" outside a checkout."""
    head = _git("rev-parse", "--short", "HEAD")
    if head is None:
        return "unknown"
    diff = _git("diff", "HEAD")
    if not diff:
        return head.strip()
    return f"{head.strip()}+{hashlib.sha1(diff.encode()).hexdigest()[:8]}"


def _time_us(call, repeats: int, number: int, calibrate, loops: list):
    """(median, IQR) of the normalised time per call in microseconds; each
    sample's calibration loop time is appended to ``loops``."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            call()
        seconds = perf_counter() - t0
        loops.append(calibrate.loop_seconds())
        samples.append(seconds / number * 1e6 * calibrate.REFERENCE_S / loops[-1])
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return float(median), float(q3 - q1)


def _drift(system, ys):
    """(worst relative drift, the invariant where it occurs) along ys."""
    drifts = {}
    for name, invariant in system.invariants.items():
        values = invariant(ys)
        drifts[name] = float(np.max(np.abs(values - values[0])) / max(1.0, abs(values[0])))
    name = max(drifts, key=drifts.get)
    return drifts[name], name


def _cases():
    """(layer, name, system, method, h) for every record; method None is a
    field record, "symplectic" the implicit step at theta = 1/2, and an
    implicit record's method names the part of that step it times."""
    systems = [(sid, get_system(sid), TOP_H) for sid in TOPS]
    systems += [(f"pendulum-{n}", get_system("pendulum", n=n), MULTIBODY_H)
                for n in PENDULUM_LINKS]
    systems.append(("quadrotor", get_system("quadrotor"), MULTIBODY_H))
    cases = [("field", name, system, None, h) for name, system, h in systems]
    for name, system, h in systems[: len(TOPS)]:
        methods = sorted(METHODS) + (["symplectic"] if system.cotangent else [])
        cases += [("step", f"{name} {m}", system, m, h) for m in methods]
    for name, system, h in systems[len(TOPS):]:
        if name in ("pendulum-3", "quadrotor"):
            cases += [("step", f"{name} {m}", system, m, h) for m in ("rkmk4", "rkmk54")]
    for name, system, h in systems[: len(TOPS)]:
        if system.cotangent:
            cases += [("implicit", f"{name} {part}", system, part, h) for part in IMPLICIT_PARTS]
    return cases


def _implicit_call(system, part, h):
    """The call that times one part of the implicit step from the system's
    initial state at theta = 1/2."""
    ct = system.cotangent
    g, mu = ct.unpack(system.initial)
    G = _residual_map(ct.group, ct.f, g, mu, h, 0.5)
    dG = lambda x: ct.group.jacobian(g, mu, h, 0.5, x)  # noqa: E731
    n = 2 * ct.group.algebra_dim
    x0 = G(np.zeros(n))
    J = np.eye(n) - dG(x0)
    return {"G": lambda: G(x0), "dG/dx": lambda: dG(x0), "J^-1": lambda: inverse(J),
            "newton": lambda: _simplified_newton(G, n, dG)}[part]


def _record(layer, name, system, method, h, repeats, number, calibrate, loops):
    y = system.initial
    if method is None:
        call = lambda: system.field(y)  # noqa: E731
    elif layer == "implicit":
        call = _implicit_call(system, method, h)
    elif method == "symplectic":
        ct = system.cotangent
        g, mu = ct.unpack(y)
        call = lambda: symplectic_step(ct.group, ct.f, g, mu, h, 0.5)  # noqa: E731
    else:
        stepper = METHODS[method].stepper

        def call():
            _, estimate = stepper(system.action, system.field, y, h)
            return estimate and estimate()
    median, iqr = _time_us(call, repeats, number, calibrate, loops)
    if method == "symplectic" or layer == "implicit":
        _, ys = symplectic_integrate(system, 0.5, h, DRIFT_STEPS)
    else:
        stepper = METHODS[method or "rkmk4"].stepper
        _, ys = fixed_integrate(system.action, system.field, stepper, y, 0.0, DRIFT_STEPS * h,
                                DRIFT_STEPS)
    accuracy, invariant = _drift(system, ys)
    return {"layer": layer, "name": name, "median_us": median, "iqr_us": iqr,
            "accuracy": accuracy, "invariant": invariant}


def bench(repeats: int, number: int) -> dict:
    calibrate = _calibrate()
    records, loops = [], []
    for case in _cases():
        records.append(_record(*case, repeats, number, calibrate, loops))
    # outside a git checkout: every file under src/ and no revision
    listed = _git("ls-files", "src")
    src = listed.split() if listed is not None else [
        p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    meta = {
        "src_lines": sum((ROOT / path).read_bytes().count(b"\n") for path in src),
        "revision": _revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reference_s": calibrate.REFERENCE_S,
        "speed_factor": calibrate.factor(loops),
        "repeats": repeats,
        "number": number,
        "drift_steps": DRIFT_STEPS,
    }
    return {"meta": meta, "records": records}


def compare(a: dict, b: dict) -> list:
    """The lines of ``--compare``: one per record of ``a`` or ``b``, by
    (layer, name), in ``a``'s order and then ``b``'s."""
    old = {(r["layer"], r["name"]): r for r in a["records"]}
    new = {(r["layer"], r["name"]): r for r in b["records"]}
    lines = [f"A {a['meta']['revision']}  B {b['meta']['revision']}"]
    for key in [*old, *(k for k in new if k not in old)]:
        label = f"{key[0]:8s} {key[1]:26s}"
        if key not in new or key not in old:
            lines.append(f"{label} only in {'A' if key in old else 'B'}")
            continue
        ra, rb = old[key], new[key]
        moved = abs(rb["median_us"] - ra["median_us"]) > max(ra["iqr_us"], rb["iqr_us"])
        lines.append(f"{label} {ra['median_us']:10.2f} {rb['median_us']:10.2f} us  "
                     f"B/A {rb['median_us'] / ra['median_us']:6.3f}  {'moved' if moved else '-'}")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="JSON file to write")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="two files this script wrote, to compare record by record")
    ap.add_argument("--repeats", type=int, default=15, help="samples per record")
    ap.add_argument("--number", type=int, default=100, help="calls per sample")
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        print("\n".join(compare(a, b)))
        return
    result = bench(args.repeats, args.number)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for r in result["records"]:
        print(f"{r['layer']:8s} {r['name']:26s} {r['median_us']:10.2f} us  "
              f"IQR {r['iqr_us']:8.2f}  drift {r['accuracy']:.2e} ({r['invariant']})")
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
