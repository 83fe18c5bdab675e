#!/usr/bin/env python3
"""Compare the harness CSVs of two source trees over a fixed list of 80 cases.

    python scripts/csv_compare.py OLD_TREE NEW_TREE

A tree is a checkout root (holding ``src/geomint``) or a ``src``
directory.  Each tree runs every case of :func:`cases` (the case list
of the checkout this script sits in) in its own subprocess, into a
temporary directory.  For each case the script prints
"byte-identical", or the largest |new - old| / max(1, |old|) over all
numeric cells and metadata values with the file and column where it
occurs (``invariants:energy``, or ``steps:# tol`` for a metadata
value), whether the row counts match and,
for adaptive runs, whether the accept flags match.  A converge case
also prints both fitted slopes.  The line ends with the kinds of file
that differ (trajectory, invariants, steps or orders), and the output
with a count, per kind, of the files that are byte-identical.  The exit
status is 0 when every case is byte-identical and 1 otherwise, so a
refactor's byte-identity check is this one command.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent

_CHILD = """
import json, sys
from dataclasses import replace
import geomint
from csv_compare import cases
from geomint.harness import run
src, out = sys.argv[1], sys.argv[2]
if not geomint.__file__.startswith(src):
    sys.exit(f"geomint imported from {geomint.__file__}, not {src}")
for i, cfg in enumerate(cases()):
    paths = run(replace(cfg, out=f"{out}/case{i}"))
    print(json.dumps({"label": f"{cfg.system} {cfg.method} {cfg.mode}", "paths": paths}))
"""


# Named here, not read from the registry, so that the two trees run the
# same cases even where their registries differ.
METHOD_IDS = ("cf32a", "cf32b", "cf4", "cf43", "heun", "lie-euler", "rkmk3", "rkmk4",
              "rkmk4-2c", "rkmk54")


def cases():
    """The 80 RunConfigs, in order: every system with every explicit
    method at a short t_end, adaptive rkmk54 and cf43 runs, symplectic
    runs (heavytop-ext and heavytop-spatial, each at theta 0, 1/2 and 1),
    one converge ladder, a seven-step run whose h is 0.05 / 7, runs that
    set system overrides, t0 and seed, and pendulum chains of one, six
    and forty links.  It imports geomint from the tree it runs under."""
    from geomint.harness import RunConfig
    from geomint.systems import SYSTEM_IDS

    for system in SYSTEM_IDS:
        for method in METHOD_IDS:
            yield RunConfig(system=system, method=method, t_end=0.05, h=0.005)
    # heavytop-body runs the right-action dexpinv under the controller
    adaptive = (
        ("heavytop-spatial", 0.1, 0.005),
        ("heavytop-body", 0.1, 0.005),
        ("pendulum", 0.5, 0.05),
    )
    for system, t_end, h in adaptive:
        for method in ("rkmk54", "cf43"):
            yield RunConfig(system=system, method=method, mode="adaptive",
                            t_end=t_end, h=h, tol=1e-6)
    yield RunConfig(system="heavytop-ext", method="symplectic", t_end=0.7, h=0.01)
    yield RunConfig(system="heavytop-spatial", method="symplectic", t_end=0.7, h=0.01)
    for system in ("heavytop-ext", "heavytop-spatial"):
        for theta in (0.0, 1.0):
            yield RunConfig(system=system, method="symplectic", t_end=0.7, h=0.01,
                            theta=theta)
    yield RunConfig(system="heavytop-spatial", method="heun", mode="converge",
                    t_end=0.2, h=0.2)
    yield RunConfig(system="heavytop-body", method="rkmk4", t_end=0.05, h=0.05 / 7)
    yield RunConfig(system="heavytop-lp", method="cf4", t0=0.5, t_end=0.6, h=0.01, seed=5,
                    overrides={"mass": 12.0, "gravity": 0.5, "length": 1.5})
    yield RunConfig(system="pendulum", method="rkmk4", t_end=0.05, h=0.005,
                    overrides={"n": 3, "length": 0.8, "gravity": 9.0})
    for n in (1, 6, 40):
        yield RunConfig(system="pendulum", method="rkmk4", t_end=0.05, h=0.005,
                        overrides={"n": n})
    yield RunConfig(system="quadrotor", method="rkmk4", t_end=0.05, h=0.005,
                    overrides={"payload_mass": 1.5, "gravity": 9.0})


def _src(tree: str) -> str:
    root = Path(tree).resolve()
    return str(root / "src" if (root / "src" / "geomint").is_dir() else root)


def run_cases(tree: str, out: str):
    """[(label, [csv paths])] for every case, run under ``tree``."""
    src = _src(tree)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(SCRIPTS)])}
    proc = subprocess.run([sys.executable, "-c", _CHILD, src, out], env=env, cwd=out,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the cases failed under {tree}:\n{proc.stderr}")
    cases = [json.loads(line) for line in proc.stdout.splitlines()]
    return [(case["label"], case["paths"]) for case in cases]


def _parse(path):
    """(metadata dict, header, data rows as strings) of one CSV."""
    meta, rows, header = {}, [], None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _rel(old: str, new: str) -> float:
    """|new - old| / max(1, |old|) for two cells; 0 for equal text and
    for non-numeric text that matches, inf for any other mismatch."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    d = abs(b - a) / max(1.0, abs(a))
    return d if math.isfinite(d) else math.inf


def _kind(path) -> str:
    return Path(path).stem.rsplit(".", 1)[-1]  # case0.invariants -> invariants


def identical_files(old_paths, new_paths):
    """[(kind, whether the two files are byte-identical)] for a case's files."""
    return [(_kind(a), Path(a).read_bytes() == Path(b).read_bytes())
            for a, b in zip(old_paths, new_paths)]


def compare_case(old_paths, new_paths):
    """One summary line for a case's files."""
    if [Path(p).suffixes for p in old_paths] != [Path(p).suffixes for p in new_paths]:
        return "different files written"
    differ = [kind for kind, same in identical_files(old_paths, new_paths) if not same]
    if not differ:
        return "byte-identical"
    worst, where, rows_match, flags_match, slopes = 0.0, None, True, True, None
    for old_path, new_path in zip(old_paths, new_paths):
        om, oh, orows = _parse(old_path)
        nm, nh, nrows = _parse(new_path)
        rows_match &= len(orows) == len(nrows) and oh == nh and om.keys() == nm.keys()
        cells = [(f"# {key}", om[key], nm[key]) for key in om.keys() & nm.keys()]
        for orow, nrow in zip(orows, nrows):
            rows_match &= len(orow) == len(nrow)
            cells += zip(oh, orow, nrow)
        kind = _kind(old_path)
        for column, a, b in cells:
            d = _rel(a, b)
            if d > worst:
                worst, where = d, f"{kind}:{column}"
        if oh == nh and "accepted" in oh:
            col = oh.index("accepted")
            flags_match &= [r[col] for r in orows] == [r[col] for r in nrows]
        if "fitted_slope" in om and "fitted_slope" in nm:
            slopes = (float(om["fitted_slope"]), float(nm["fitted_slope"]))
    line = (f"max rel diff {worst:.1e}{f' at {where}' if where else ''}, "
            f"rows {'match' if rows_match else 'DIFFER'}, "
            f"accept flags {'match' if flags_match else 'DIFFER'}")
    if slopes is not None:
        line += f", fitted slope {slopes[0]:.6g} -> {slopes[1]:.6g}"
    return f"{line}; differ: {' '.join(differ)}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as old_out, tempfile.TemporaryDirectory() as new_out:
        old_cases = run_cases(args[0], old_out)
        new_cases = run_cases(args[1], new_out)
        if [c[0] for c in old_cases] != [c[0] for c in new_cases]:
            sys.exit("the two trees ran different case lists")
        identical, files, same = True, Counter(), Counter()
        for i, ((label, old_paths), (_, new_paths)) in enumerate(zip(old_cases, new_cases)):
            line = compare_case(old_paths, new_paths)
            identical &= line == "byte-identical"
            print(f"{i:3d} {label:40s} {line}")
            for kind, equal in identical_files(old_paths, new_paths):
                files[kind] += 1
                same[kind] += equal
        counts = ", ".join(f"{kind} {same[kind]}/{n}" for kind, n in files.items())
        print(f"byte-identical files: {counts}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
