"""The traced run: spans around the public callables the integrators
consume, and replays of the kernels at states sampled from it.

Nothing in ``geomint`` is edited or patched.  The traced pass rebuilds
each case's ``System`` and swaps its callables for timing wrappers with
``dataclasses.replace``: the ``HomogeneousAction`` record (exp, act,
dexpinv, bracket), ``System.field``, the ``CotangentForm`` field and
``CotangentGroup`` (exp, coad, dexp_star, compose), and the stepper
handed to ``fixed_integrate`` / ``adaptive_integrate``.  The implicit
family has no stepper argument, so its traced pass runs the loop of
``symplectic_integrate`` itself around the public ``symplectic_step``;
``run.py`` checks that every traced end state equals the harness CSV.

A span records its name, start, end, parent span and case id.  Spans
stay in memory until ``Tracer.save`` writes them out.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

import numpy as np

from geomint.integrators import (
    METHODS,
    ControllerConfig,
    SolveConfig,
    adaptive_integrate,
    fixed_integrate,
    so3_cotangent_group,
    symplectic_step,
)
from geomint.kernels import solve_dense
from geomint.lie import dexp_star_so3, dexpinv_se3, dexpinv_so3, exp_se3, exp_so3
from geomint.systems import symplectic_integrate
from geomint.systems.pendulum import PendulumParams, pendulum_mass_matrix, pendulum_rhs
from geomint.systems.quadrotor import QuadrotorParams, quadrotor_assemble, zero_controls

ACTION_OPS = ("exp", "act", "dexpinv", "bracket")
GROUP_OPS = ("exp", "coad", "dexp_star", "compose")
LIE_KERNELS = {
    "exp_so3": exp_so3,
    "exp_se3": exp_se3,
    "dexpinv_so3": dexpinv_so3,
    "dexpinv_se3": dexpinv_se3,
    "dexp_star_so3": dexp_star_so3,
}
STEP, FIELD, DRIVER = "integrators.step", "systems.field", "integrators.driver"

SAMPLE_EVERY = 16  # field calls between sampled states
SAMPLE_MAX = 8  # sampled states per case
REPLAY_CALLS = 20  # timed calls per replayed argument set
REPLAY_MAX_ARGS = 96  # argument sets per replayed callable


class Tracer:
    """In-memory span recorder; ``wrap`` returns a timing wrapper."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.cases = [], [], [], [], []
        self.samples = {}  # case id -> flat states sampled at field calls
        self._stack = [-1]
        self._case = -1
        self._field_calls = 0

    def start_case(self, case: int) -> None:
        self._case = case
        self._field_calls = 0
        self.samples[case] = []

    def wrap(self, name, fn, sample=None):
        def traced(*args):
            if sample is not None:
                if self._field_calls % SAMPLE_EVERY == 0 and len(self.samples[self._case]) < SAMPLE_MAX:
                    self.samples[self._case].append(np.array(sample(*args), dtype=float))
                self._field_calls += 1
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.cases.append(self._case)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                self.ends[i] = perf_counter()
                self.starts[i] = t0
                self._stack.pop()

        return traced

    def table(self):
        """Per span name: count, total, self time (total minus the time
        child spans cover) and all durations, in seconds."""
        names = np.array(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        out = {}
        for name in np.unique(names):
            sel = names == name
            out[str(name)] = {"count": int(sel.sum()), "total": float(dur[sel].sum()),
                              "self": float(own[sel].sum()), "durations": dur[sel]}
        return out

    def save(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            case=np.array(self.cases, dtype=np.int32),
        )


def _no_trace(name, fn, sample=None):
    return fn


def drive(cfg, system, tracer=None):
    """Re-execute ``cfg`` through the public driver ``harness.run`` uses
    for its mode, with the same arguments; returns (states, accepted
    steps).  With a tracer, the consumed callables are wrapped."""
    wrap = tracer.wrap if tracer else _no_trace
    span = cfg.t_end - cfg.t0
    if cfg.method == "symplectic":
        n = max(1, round(span / cfg.h))
        h = span / n
        solve = SolveConfig(method="newton")
        if tracer is None:
            _, ys = symplectic_integrate(system, cfg.theta, h, n, t0=cfg.t0, solve=solve)
            return ys, n
        ct = system.cotangent
        group = replace(ct.group, **{op: wrap(f"integrators.group.{op}", getattr(ct.group, op))
                                     for op in GROUP_OPS})
        f = wrap(FIELD, ct.f, sample=ct.pack)
        step = wrap(STEP, symplectic_step)
        g, mu = ct.unpack(np.asarray(system.initial, dtype=float))
        ys = [ct.pack(g, mu)]
        for _ in range(n):
            g, mu = step(group, f, g, mu, h, cfg.theta, solve)
            ys.append(ct.pack(g, mu))
        return np.array(ys), n

    action = system.action
    if tracer is not None:
        ops = {op: wrap(f"actions.{op}", getattr(action, op))
               for op in ACTION_OPS if getattr(action, op) is not None}
        action = replace(action, **ops)
    field = wrap(FIELD, system.field, sample=lambda m: m)
    info = METHODS[cfg.method]
    stepper = wrap(STEP, info.stepper)
    if cfg.mode == "fixed":
        n = max(1, round(span / cfg.h))
        _, ys = fixed_integrate(action, field, stepper, system.initial, cfg.t0, cfg.t_end, n)
        return ys, n
    ctrl = ControllerConfig(tol=cfg.tol, alpha=1.0 / (1.0 + min(info.p, info.p_hat)),
                            theta=cfg.safety)
    res = adaptive_integrate(action, field, stepper, system.initial, cfg.t0, cfg.t_end,
                             cfg.h, ctrl)
    return res.ys, len(res.ts) - 1


# ---------------------------------------------------------------------------
# Replays


def _blocks(system_id, xi):
    """so(3) and se(3) blocks of a flat algebra element of the system."""
    if system_id == "heavytop-body":
        so3, se3 = [xi[0:3]], []
    elif system_id == "pendulum":
        so3, se3 = [], [xi[i:i + 6] for i in range(0, len(xi), 6)]
    elif system_id == "quadrotor":
        so3, se3 = [xi[6:9], xi[12:15]], [xi[18:24], xi[24:30]]
    else:  # heavytop-spatial, -lp, -ext: se(3) leads
        so3, se3 = [], [xi[0:6]]
    return so3 + [x[:3] for x in se3], se3


def replay_args(cases, systems, samples):
    """Argument sets for every replayed callable, built with the
    public callables of each case's own system at its sampled states:
    the algebra element is h f(y), as in a step's first stage."""
    calls = {}

    def add(key, fn, *args):
        calls.setdefault(key, []).append((fn, args))

    for case, cfg in enumerate(cases):
        system = systems[case]
        action, ct = system.action, system.cotangent
        for m in samples.get(case, ()):
            v = np.asarray(system.field(m), dtype=float)
            xi = cfg.h * v
            add("actions.exp", action.exp, xi)
            add("actions.act", action.act, action.exp(xi), m)
            if action.dexpinv is not None:
                add("actions.dexpinv", action.dexpinv, xi, v)
            add("actions.bracket", action.bracket, xi, v)

            so3_u, se3_u = _blocks(cfg.system, xi)
            so3_v, se3_v = _blocks(cfg.system, v)
            for u, w in zip(so3_u, so3_v):
                add("lie.exp_so3", exp_so3, u)
                add("lie.dexpinv_so3", dexpinv_so3, u, w)
                add("lie.dexp_star_so3", dexp_star_so3, u, w)
            for u, w in zip(se3_u, se3_v):
                add("lie.exp_se3", exp_se3, u)
                add("lie.dexpinv_se3", dexpinv_se3, u, w)

            if ct is not None:
                group = ct.group
                g, mu = ct.unpack(m)
                u = cfg.h * np.asarray(ct.f(g, mu)[0], dtype=float)
            else:  # no cotangent form: the SO(3) group on the leading so(3) block
                group = so3_cotangent_group()
                g, u, mu = exp_so3(so3_v[0]), so3_u[0], so3_v[0]
            e = group.exp(u)
            add("integrators.group.exp", group.exp, u)
            add("integrators.group.coad", group.coad, e, mu)
            add("integrators.group.dexp_star", group.dexp_star, u, mu)
            add("integrators.group.compose", group.compose, e, g)
    return calls


def _pendulum_assemble(params, q, w):
    return pendulum_mass_matrix(params, q), pendulum_rhs(params, q, w)


def kernel_args(cases, states):
    """Assembly and dense-solve argument sets at pendulum and quadrotor
    states; ``states`` maps case id -> flat states."""
    calls = {"systems.assemble": [], "kernels.solve_dense": []}
    for case, cfg in enumerate(cases):
        for m in states.get(case, ()):
            if cfg.system == "pendulum":
                p = PendulumParams.uniform(int(cfg.overrides["n"]), length=cfg.overrides["length"])
                blocks = m.reshape(p.n, 6)
                fn, args = _pendulum_assemble, (p, blocks[:, :3], blocks[:, 3:])
            elif cfg.system == "quadrotor":
                p = QuadrotorParams(payload_mass=cfg.overrides["payload_mass"])
                fn, args = quadrotor_assemble, (p, zero_controls, 0.0, m)
            else:
                continue
            calls["systems.assemble"].append((fn, args))
            calls["kernels.solve_dense"].append((solve_dense, fn(*args)))
    return calls


def replay_us(calls):
    """Median microseconds per call over the argument sets, each timed
    over REPLAY_CALLS back-to-back calls."""
    stride = max(1, len(calls) // REPLAY_MAX_ARGS)
    per_call = []
    for fn, args in calls[::stride]:
        fn(*args)
        t0 = perf_counter()
        for _ in range(REPLAY_CALLS):
            fn(*args)
        per_call.append((perf_counter() - t0) / REPLAY_CALLS)
    return 1e6 * float(np.median(per_call))
