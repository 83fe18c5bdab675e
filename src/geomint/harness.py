"""Run configuration, experiment drivers, and CSV emission.

Configs are flat ``key = value`` text files (or equivalent flag
dictionaries); unknown keys are rejected with the offending line.  All
output is CSV with '#'-prefixed metadata lines echoing the config,
a header row, and 17-significant-digit scientific notation, so runs
are reproducible and plottable without a bundled renderer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .integrators import (
    METHODS,
    ControllerConfig,
    SolveConfig,
    adaptive_integrate,
    fixed_integrate,
)
from .systems import System, get_system, symplectic_integrate

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config_file",
    "parse_config",
    "run",
    "converge",
    "LADDER_EXPONENTS",
]

# Convergence ladders use h = h0 * 2^-k for these k.
LADDER_EXPONENTS = tuple(range(4, 10))

_OVERRIDE_KEYS = ("mass", "gravity", "length", "n", "payload_mass")
_KNOWN_KEYS = {
    "system",
    "method",
    "mode",
    "t0",
    "t-end",
    "h",
    "steps",
    "tol",
    "theta",
    "out",
    "seed",
    "preset",
    *_OVERRIDE_KEYS,
}

_MODES = ("fixed", "adaptive", "converge")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    system: str
    method: str
    mode: str = "fixed"
    t0: float = 0.0
    t_end: float = 1.0
    h: Optional[float] = None
    steps: Optional[int] = None
    tol: Optional[float] = None
    theta: float = 0.5  # symplectic family parameter
    safety: float = 0.9  # controller safety factor
    preset: Optional[str] = None
    out: Optional[str] = None
    seed: int = 0
    overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (expected one of {_MODES})")
        if self.t_end <= self.t0:
            raise ConfigError(f"t-end ({self.t_end}) must exceed t0 ({self.t0})")
        if self.method != "symplectic" and self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r} "
                f"(expected 'symplectic' or one of {sorted(METHODS)})"
            )
        if self.mode == "fixed":
            if (self.h is None) == (self.steps is None):
                raise ConfigError("fixed mode needs exactly one of h / steps")
        elif self.mode == "adaptive":
            if self.h is None:
                raise ConfigError("adaptive mode needs an initial h")
            if self.tol is None:
                raise ConfigError("adaptive mode needs tol")
            if self.method == "symplectic" or not METHODS[self.method].embedded:
                raise ConfigError(
                    f"method {self.method!r} has no embedded error estimate"
                )
        elif self.mode == "converge":
            if self.h is None:
                raise ConfigError("converge mode needs h (the ladder base step)")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must lie in [0, 1]")

    def build_system(self) -> System:
        return get_system(self.system, preset=self.preset, **self.overrides)

    def echo_items(self) -> List[Tuple[str, str]]:
        items = [
            ("system", self.system),
            ("method", self.method),
            ("mode", self.mode),
            ("t0", repr(self.t0)),
            ("t-end", repr(self.t_end)),
            ("seed", str(self.seed)),
        ]
        if self.h is not None:
            items.append(("h", repr(self.h)))
        if self.steps is not None:
            items.append(("steps", str(self.steps)))
        if self.tol is not None:
            items.append(("tol", repr(self.tol)))
        if self.method == "symplectic":
            items.append(("theta", repr(self.theta)))
        if self.preset:
            items.append(("preset", self.preset))
        items.extend((k, repr(v)) for k, v in sorted(self.overrides.items()))
        return items


def _parse_value(key: str, raw: str, where: str):
    try:
        if key in ("steps", "seed", "n"):
            return int(raw)
        if key in ("t0", "t-end", "h", "tol", "theta", "mass", "gravity", "length", "payload_mass"):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from None
    return raw


def parse_config_file(path) -> Dict[str, object]:
    """Flat ``key = value`` lines; '#' starts a comment; unknown keys error."""
    values: Dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("_", "-") if key == "t_end" else key
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return values


def parse_config(
    flags: Optional[Dict[str, object]] = None, config_file=None
) -> RunConfig:
    """Merge a config file with flag overrides (flags win) into a RunConfig."""
    values: Dict[str, object] = {}
    if config_file is not None:
        values.update(parse_config_file(config_file))
    for key, val in (flags or {}).items():
        if val is None:
            continue
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown flag {key!r}")
        values[key] = val
    if "system" not in values or "method" not in values:
        raise ConfigError("both a system and a method are required")
    overrides = {k: values.pop(k) for k in list(values) if k in _OVERRIDE_KEYS}
    return RunConfig(
        system=str(values["system"]),
        method=str(values["method"]),
        mode=str(values.get("mode", "fixed")),
        t0=float(values.get("t0", 0.0)),
        t_end=float(values.get("t-end", 1.0)),
        h=None if values.get("h") is None else float(values["h"]),
        steps=None if values.get("steps") is None else int(values["steps"]),
        tol=None if values.get("tol") is None else float(values["tol"]),
        theta=float(values.get("theta", 0.5)),
        preset=values.get("preset"),
        out=values.get("out"),
        seed=int(values.get("seed", 0)),
        overrides=overrides,
    )


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path, cfg: RunConfig, header: Sequence[str], rows) -> None:
    lines = [f"# {k} = {v}" for k, v in cfg.echo_items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _state_header(dim: int) -> List[str]:
    return [f"x{i}" for i in range(dim)]


def _emit_trajectory(cfg, system, ts, ys, hs, out_base) -> List[str]:
    paths = []
    dim = ys.shape[1]
    traj = out_base + ".trajectory.csv"
    rows = [
        [float(t), float(h)] + [float(x) for x in y] for t, h, y in zip(ts, hs, ys)
    ]
    _write_csv(traj, cfg, ["t", "h"] + _state_header(dim), rows)
    paths.append(traj)

    inv = out_base + ".invariants.csv"
    names = list(system.invariants)
    rows = [
        [float(t)] + [float(system.invariants[n](y)) for n in names]
        for t, y in zip(ts, ys)
    ]
    _write_csv(inv, cfg, ["t"] + names, rows)
    paths.append(inv)
    return paths


# ---------------------------------------------------------------------------
# Drivers


def _integrate_fixed(cfg: RunConfig, system: System):
    if cfg.steps is not None:
        n = cfg.steps
    else:
        n = max(1, round((cfg.t_end - cfg.t0) / cfg.h))
    if cfg.method == "symplectic":
        if system.cotangent is None:
            raise ConfigError(
                f"system {cfg.system!r} has no cotangent formulation for 'symplectic'"
            )
        h = (cfg.t_end - cfg.t0) / n
        # the fixed-point iteration stops contracting for fast tops at
        # moderate steps; the root solve handles those
        solve = SolveConfig(method="newton")
        return symplectic_integrate(system, cfg.theta, h, n, t0=cfg.t0, solve=solve)
    return fixed_integrate(
        system.action,
        system.field,
        METHODS[cfg.method].stepper,
        system.initial,
        cfg.t0,
        cfg.t_end,
        n,
    )


def reference_state(system: System, t0: float, t_end: float, tol: float = 1e-12):
    """Tight-tolerance end state used as the self-reference solution."""
    cfg = ControllerConfig(tol=tol, alpha=0.2)
    res = adaptive_integrate(
        system.action,
        system.field,
        METHODS["rkmk54"].stepper,
        system.initial,
        t0,
        t_end,
        min(1e-3, (t_end - t0) / 10),
        cfg,
    )
    return res.ys[-1]


def run(cfg: RunConfig) -> List[str]:
    """Execute a fixed or adaptive run; returns the list of files written."""
    if cfg.out is None:
        raise ConfigError("an output path is required")
    system = cfg.build_system()
    out_base = str(cfg.out)

    if cfg.mode == "fixed":
        ts, ys = _integrate_fixed(cfg, system)
        ts[-1] = cfg.t_end  # the symplectic driver's t0 + n*h may round past it
        hs = np.full(len(ts), (cfg.t_end - cfg.t0) / max(1, len(ts) - 1))
        return _emit_trajectory(cfg, system, ts, ys, hs, out_base)

    if cfg.mode == "adaptive":
        info = METHODS[cfg.method]
        ctrl = ControllerConfig(
            tol=cfg.tol,
            alpha=1.0 / (1.0 + min(info.p, info.p_hat)),
            theta=cfg.safety,
        )
        res = adaptive_integrate(
            system.action,
            system.field,
            info.stepper,
            system.initial,
            cfg.t0,
            cfg.t_end,
            cfg.h,
            ctrl,
        )
        hs = np.concatenate([[cfg.h], np.diff(res.ts)])
        paths = _emit_trajectory(cfg, system, res.ts, res.ys, hs, out_base)
        steps = out_base + ".steps.csv"
        rows = [
            [a.t, a.h, a.error_estimate, int(a.accepted)] for a in res.step_log
        ]
        _write_csv(steps, cfg, ["t", "h", "error_estimate", "accepted"], rows)
        paths.append(steps)
        return paths

    if cfg.mode == "converge":
        return converge(cfg)

    raise ConfigError(f"unknown mode {cfg.mode!r}")


def converge(cfg: RunConfig) -> List[str]:
    """Global-error ladder at T against the tight-tolerance reference,
    with the fitted least-squares slope echoed in the metadata."""
    if cfg.out is None:
        raise ConfigError("an output path is required")
    system = cfg.build_system()
    ref = reference_state(system, cfg.t0, cfg.t_end)
    span = cfg.t_end - cfg.t0
    rows = []
    hs, errs = [], []
    for k in LADDER_EXPONENTS:
        h = cfg.h * 2.0**-k
        n = max(1, round(span / h))
        ts, ys = _integrate_fixed(replace(cfg, mode="fixed", h=None, steps=n), system)
        err = float(np.linalg.norm(ys[-1] - ref))
        hs.append(span / n)
        errs.append(err)
        rows.append([span / n, err])
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    out = str(cfg.out) + ".orders.csv"
    lines = [f"# {k} = {v}" for k, v in cfg.echo_items()]
    lines.append(f"# fitted_slope = {_fmt(slope)}")
    lines.append("h,global_error")
    lines.extend(f"{_fmt(h)},{_fmt(e)}" for h, e in rows)
    Path(out).write_text("\n".join(lines) + "\n")
    return [out]
