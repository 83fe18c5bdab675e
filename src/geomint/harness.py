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
from .systems import OVERRIDES, System, get_system, symplectic_integrate

__all__ = [
    "RunConfig",
    "RUN_KEYS",
    "ConfigError",
    "parse_config_file",
    "parse_config",
    "run",
    "converge",
    "LADDER_EXPONENTS",
]

# Convergence ladders use h = h0 * 2^-k for these k.
LADDER_EXPONENTS = tuple(range(4, 10))

# Run keys in CSV echo order, each with the type its value parses to; the
# RunConfig field of a key is its name with '-' read as '_'.  A key is
# echoed when its value is set, theta only for the symplectic family and
# out never.  System overrides follow, sorted by name.
RUN_KEYS: Dict[str, type] = {
    "system": str,
    "method": str,
    "mode": str,
    "t0": float,
    "t-end": float,
    "seed": int,
    "h": float,
    "steps": int,
    "tol": float,
    "theta": float,
    "preset": str,
    "out": str,
}
_KEY_TYPES = {**RUN_KEYS, **OVERRIDES}

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
        for name in ("h", "steps", "tol"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
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
        items = []
        for key, kind in RUN_KEYS.items():
            value = getattr(self, _field(key))
            if value is None or key == "out" or (key == "theta" and self.method != "symplectic"):
                continue
            items.append((key, repr(value) if kind is float else str(value)))
        items.extend((k, repr(v)) for k, v in sorted(self.overrides.items()))
        return items


def _field(key: str) -> str:
    return key.replace("-", "_")


def _parse_value(key: str, raw, where: str):
    try:
        return _KEY_TYPES[key](raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from None


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
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return values


def parse_config(
    flags: Optional[Dict[str, object]] = None, config_file=None
) -> RunConfig:
    """Merge a config file with flag overrides (flags win) into a RunConfig;
    keys given neither way keep the RunConfig defaults."""
    values = {} if config_file is None else parse_config_file(config_file)
    for key, val in (flags or {}).items():
        if val is None:
            continue
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown flag {key!r}")
        values[key] = _parse_value(key, val, "flags")
    if "system" not in values or "method" not in values:
        raise ConfigError("both a system and a method are required")
    overrides = {k: values.pop(k) for k in list(values) if k in OVERRIDES}
    return RunConfig(**{_field(k): v for k, v in values.items()}, overrides=overrides)


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path, cfg: RunConfig, header: Sequence[str], rows, meta=()) -> None:
    """Echoes the config, then the extra ``(key, value)`` metadata."""
    lines = [f"# {k} = {v}" for k, v in [*cfg.echo_items(), *meta]]
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


def _integrate_adaptive(cfg: RunConfig, system: System):
    info = METHODS[cfg.method]
    ctrl = ControllerConfig(
        tol=cfg.tol,
        alpha=1.0 / (1.0 + min(info.p, info.p_hat)),
        theta=cfg.safety,
    )
    return adaptive_integrate(
        system.action,
        system.field,
        info.stepper,
        system.initial,
        cfg.t0,
        cfg.t_end,
        cfg.h,
        ctrl,
    )


def reference_state(system: System, t0: float, t_end: float, tol: float = 1e-12):
    """Tight-tolerance end state used as the self-reference solution."""
    cfg = RunConfig(
        system=system.name,
        method="rkmk54",
        mode="adaptive",
        t0=t0,
        t_end=t_end,
        h=min(1e-3, (t_end - t0) / 10),
        tol=tol,
    )
    return _integrate_adaptive(cfg, system).ys[-1]


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
        res = _integrate_adaptive(cfg, system)
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
    hs, errs = [], []
    for k in LADDER_EXPONENTS:
        h = cfg.h * 2.0**-k
        n = max(1, round(span / h))
        ts, ys = _integrate_fixed(replace(cfg, mode="fixed", h=None, steps=n), system)
        err = float(np.linalg.norm(ys[-1] - ref))
        hs.append(span / n)
        errs.append(err)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    out = str(cfg.out) + ".orders.csv"
    meta = [("fitted_slope", _fmt(slope))]
    _write_csv(out, cfg, ["h", "global_error"], zip(hs, errs), meta=meta)
    return [out]
