"""One benchmark run: the checked sweep, then the timed sweeps
(``--trace 0``) or the traced passes and replays (``--trace 1``).

``--trace 0`` sets up the case list several times in child processes
(``setup_s``), runs one checked sweep, then sweeps the list through
``harness.run`` until ``--seconds`` have passed; its times are
normalised by the speed probe of ``calibrate.py``.  ``--trace 1`` times
``harness.run`` against its bare driver for ``--seconds``, makes two
traced passes whose counts must agree exactly, and replays kernels at
states sampled from the second pass.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import tracing
from cases import build_cases
from checks import CaseFailure, check_case, geometric_mean
from geomint.harness import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
BUILD_REPEATS = 3

PROBE = """\
import sys
from time import perf_counter
t0 = perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import cases
systems = [c.build_system() for c in cases.build_cases({workload!r}, {seed})]
setup = perf_counter() - t0
import calibrate
print(setup, *(calibrate.loop_seconds() for _ in range(5)))
"""


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def setup_seconds(workload, seed):
    """Median over child processes of importing geomint plus building
    every case's RunConfig and System; returns (setup seconds, speed
    probe times taken in the same children)."""
    code = PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    times, loops = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=PROBE_TIMEOUT_S, check=True)
        setup, *probe = map(float, out.stdout.split())
        times.append(setup)
        loops += probe
    return statistics.median(times), loops


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


class Sweeper:
    """Runs the case list through ``harness.run``, checks the first
    sweep's files, and compares later sweeps with it byte for byte.
    Every attempt and failure is counted; nothing is retried."""

    def __init__(self, cases, outdir):
        self.cases = cases
        self.configs = [replace(c, out=str(outdir / f"case{i:03d}")) for i, c in enumerate(cases)]
        self.attempted = 0
        self.failed = 0
        self.log = [dict(c.echo_items()) for c in cases]
        self.digests = [None] * len(cases)
        self.loops = []  # speed probe times, one before each case

    def fail(self, i, reason):
        self.failed += 1
        self.log[i].setdefault("failures", []).append(reason)

    def sweep(self):
        """One pass; returns per-case (seconds, paths or exception)."""
        out = []
        for cfg in self.configs:
            self.loops.append(calibrate.loop_seconds())
            t0 = perf_counter()
            try:
                res = run(cfg)
            except Exception as exc:  # a failing case is an outcome, not a crash
                res = exc
            out.append((perf_counter() - t0, res))
        return out

    def check(self, results):
        """Check the first sweep's files; returns per-case (steps, final
        state, energy error, bytes written), None for a failed case."""
        outcomes = []
        for i, (cfg, res) in enumerate(zip(self.cases, results)):
            self.attempted += 1
            outcome = None
            if isinstance(res, Exception):
                self.fail(i, f"raised {res!r}")
            else:
                try:
                    steps, final, energy = check_case(cfg, res)
                except CaseFailure as exc:
                    self.fail(i, str(exc))
                else:
                    self.digests[i] = _digest(res)
                    outcome = (steps, final, energy, sum(Path(p).stat().st_size for p in res))
                    self.log[i].update(steps=steps, energy_err=energy)
            outcomes.append(outcome)
        return outcomes

    def compare(self, results):
        """Failed case ids of a later sweep: raised, or files differ from
        the checked sweep."""
        bad = set()
        for i, res in enumerate(results):
            self.attempted += 1
            if isinstance(res, Exception):
                self.fail(i, f"raised {res!r}")
            elif self.digests[i] is None:
                self.fail(i, "failed the output checks")
            elif _digest(res) != self.digests[i]:
                self.fail(i, "output differs from the checked sweep")
            else:
                continue
            bad.add(i)
        return bad


def end_to_end(args, sweeper, outcomes, meta):
    """Times are medians over the run, normalised by the speed probe
    (see calibrate.py); the raw medians go into the metadata."""
    setup, setup_loops = setup_seconds(args.workload, args.seed)
    times, rates, bad = [], [], set()
    started = perf_counter()
    while perf_counter() - started < args.seconds:
        results = sweeper.sweep()
        bad |= sweeper.compare([res for _, res in results])
        seconds = sum(t for t, _ in results)
        steps = sum(o[0] for i, o in enumerate(outcomes) if o is not None and i not in bad)
        times.append(seconds)
        rates.append(steps / seconds)
    passed = [o[2] for o in outcomes if o is not None]
    k_setup, k_solve = calibrate.factor(setup_loops), calibrate.factor(sweeper.loops)
    meta.update(sweep_seconds=times, raw_setup_s=setup, raw_solve_s=statistics.median(times),
                speed_factor_setup=k_setup, speed_factor_solve=k_solve)
    return {
        "setup_s": metric(setup * k_setup, "s"),
        "solve_s": metric(statistics.median(times) * k_solve, "s"),
        "steps_per_s": metric(statistics.median(rates) / k_solve, "1/s"),
        "energy_err": metric(geometric_mean(passed) if passed else 1.0, "rel"),
        "pass_ratio": metric(1.0 - sweeper.failed / sweeper.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_pass(sweeper, outcomes):
    """One traced pass over the passing cases; returns (tracer, states
    per case).  A case whose traced end state differs from its CSV
    counts as failed."""
    tracer = tracing.Tracer()
    drive = tracer.wrap(tracing.DRIVER, tracing.drive)
    states = {}
    for i, cfg in enumerate(sweeper.cases):
        if outcomes[i] is None:
            continue
        tracer.start_case(i)
        sweeper.attempted += 1
        try:
            ys, steps = drive(cfg, cfg.build_system(), tracer)
        except Exception as exc:  # counted like a harness failure
            sweeper.fail(i, f"traced driver raised {exc!r}")
            continue
        ref_steps, ref_final = outcomes[i][:2]
        if steps != ref_steps or not np.array_equal(ys[-1], ref_final):
            sweeper.fail(i, "traced driver disagrees with the harness CSV")
        states[i] = ys
    return tracer, states


def _counts(tracer):
    return {name: row["count"] for name, row in tracer.table().items()}


def per_layer(args, sweeper, outcomes, meta):
    cases = sweeper.cases
    ok = [i for i, o in enumerate(outcomes) if o is not None]
    steps = sum(outcomes[i][0] for i in ok)
    bytes_written = sum(outcomes[i][3] for i in ok)

    # harness.run, its bare driver and the traced driver, interleaved
    # case by case so drifts in machine speed hit all three alike
    timed = {key: {i: [] for i in ok} for key in ("run", "drive", "traced")}
    started = perf_counter()
    while perf_counter() - started < args.seconds:
        for i in ok:
            t0 = perf_counter()
            run(sweeper.configs[i])
            timed["run"][i].append(perf_counter() - t0)
            for key, tracer in (("drive", None), ("traced", tracing.Tracer())):
                system = cases[i].build_system()
                if tracer:
                    tracer.start_case(i)
                t0 = perf_counter()
                tracing.drive(cases[i], system, tracer)
                timed[key][i].append(perf_counter() - t0)
    run_s, drive_s, traced_s = (sum(statistics.median(t[i]) for i in ok) for t in timed.values())

    first, _ = traced_pass(sweeper, outcomes)
    tracer, states = traced_pass(sweeper, outcomes)
    counts = _counts(tracer)
    meta["traced_counts"] = counts
    meta["counts_repeat"] = repeat = _counts(first) == counts
    del first

    table = tracer.table()
    empty = {"count": 0, "total": 0.0, "self": 0.0, "durations": np.zeros(1)}

    def row(name):
        return table.get(name, empty)

    step, field = row(tracing.STEP), row(tracing.FIELD)
    names, case_ids = np.array(tracer.names), np.array(tracer.cases)
    durations = np.array(tracer.ends) - np.array(tracer.starts)
    for i in ok:
        sel = (names == tracing.STEP) & (case_ids == i)
        sweeper.log[i]["step_us_p50"] = 1e6 * float(np.median(durations[sel]))
    implicit = [i for i in ok if cases[i].method == "symplectic"]
    solve_evals = int(np.sum((names == tracing.FIELD) & np.isin(case_ids, implicit)))

    m = {
        "harness.self_share": metric(1.0 - drive_s / run_s, "ratio"),
        "harness.bytes_per_step": metric(bytes_written / steps, "B/step"),
        "integrators.step.us_p50": metric(1e6 * np.median(step["durations"]), "us"),
        "integrators.step.us_p99": metric(1e6 * np.percentile(step["durations"], 99), "us"),
        "integrators.step.samples": metric(step["count"], "count"),
        "integrators.self_share": metric(step["self"] / step["total"], "ratio"),
        "integrators.attempts_per_step": metric(step["count"] / steps, "calls/step"),
        "integrators.solve_evals_per_step": metric(solve_evals / steps, "calls/step"),
        "systems.field.calls_per_step": metric(field["count"] / steps, "calls/step"),
        "systems.field.us_p50": metric(1e6 * np.median(field["durations"]), "us"),
        "systems.field.share": metric(field["total"] / step["total"], "ratio"),
    }
    action_s = sum(row(f"actions.{op}")["total"] for op in tracing.ACTION_OPS)
    m["actions.share"] = metric(action_s / step["total"], "ratio")
    for op in tracing.ACTION_OPS:
        m[f"actions.{op}.calls_per_step"] = metric(row(f"actions.{op}")["count"] / steps,
                                                   "calls/step")
    for op in tracing.GROUP_OPS:
        name = f"integrators.group.{op}"
        m[f"{name}.calls_per_step"] = metric(row(name)["count"] / steps, "calls/step")

    systems = {i: cases[i].build_system() for i in ok}
    for name, calls in tracing.replay_args(cases, systems, tracer.samples).items():
        m[f"{name}.us_p50"] = metric(tracing.replay_us(calls), "us")
    kernel_cases, kernel_states = cases, tracer.samples
    if args.workload != "multibody":  # no chain or quadrotor states of its own
        kernel_cases = build_cases("multibody", args.seed)
        kernel_states = {i: [c.build_system().initial] for i, c in enumerate(kernel_cases)}
    for name, calls in tracing.kernel_args(kernel_cases, kernel_states).items():
        m[f"{name}.us_p50"] = metric(tracing.replay_us(calls), "us")

    build_ms, inv_s, rows = [], 0.0, 0
    for i in ok:
        for _ in range(BUILD_REPEATS):
            t0 = perf_counter()
            cases[i].build_system()
            build_ms.append(1e3 * (perf_counter() - t0))
        invariants = list(systems[i].invariants.values())
        t0 = perf_counter()
        for y in states[i]:
            for fn in invariants:
                fn(y)
        inv_s += perf_counter() - t0
        rows += len(states[i])
    m["systems.build.ms"] = metric(statistics.median(build_ms), "ms")
    m["systems.invariants.us_per_row"] = metric(1e6 * inv_s / rows, "us")

    m["trace.overhead"] = metric(traced_s / drive_s - 1.0, "ratio")
    meta.update(untraced_driver_s=drive_s, traced_driver_s=traced_s)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return dict(sorted(m.items())), repeat


def main(args) -> int:
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"csv-{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir()
    cases = build_cases(args.workload, args.seed)
    sweeper = Sweeper(cases, outdir)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment()}
    try:
        # warm-up, and the sweep whose files are checked
        outcomes = sweeper.check([res for _, res in sweeper.sweep()])
        if not any(outcomes):  # nothing to time
            metrics, correct = {}, False
        elif args.trace:
            metrics, correct = per_layer(args, sweeper, outcomes, meta)
        else:
            metrics, correct = end_to_end(args, sweeper, outcomes, meta), True
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    meta["cases"] = sweeper.log
    result = {"correct": correct and sweeper.failed == 0, "attempted": sweeper.attempted,
              "failed": sweeper.failed, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0
