"""Run configuration, experiment drivers, and CSV emission and reading.

Configs are flat ``key = value`` text files (or equivalent flag
dictionaries); unknown keys are rejected with the offending line.  All
output is CSV with '#'-prefixed metadata lines echoing the config,
a header row, and 17-significant-digit scientific notation, so runs
are reproducible and plottable without a bundled renderer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .integrators import (
    METHODS,
    ControllerConfig,
    adaptive_integrate,
    fixed_integrate,
)
from .systems import OVERRIDES, System, as_int, get_system, symplectic_integrate

__all__ = [
    "RunConfig",
    "RUN_KEYS",
    "ConfigError",
    "parse_config_file",
    "parse_config",
    "run",
    "converge",
    "read_csv",
    "LADDER_EXPONENTS",
]

# Convergence ladders use h = h0 * 2^-k for these k.
LADDER_EXPONENTS = tuple(range(4, 10))

# Run keys in CSV echo order, each with the type its value parses to; the
# RunConfig field of a key is its name with '-' read as '_'.  A key is
# echoed when the run reads it (_READS), so it is set.  System overrides
# follow, sorted by name.  _KEY_TYPES is the one list of keys,
# which the config file, the flags dict and the command line all read.
RUN_KEYS: Dict[str, type] = {
    "system": str,
    "method": str,
    "mode": str,
    "t0": float,
    "t-end": float,
    "seed": int,
    "h": float,
    "tol": float,
    "theta": float,
    "out": str,
}
_KEY_TYPES = {**RUN_KEYS, **OVERRIDES}

# The runs that read a key, for the keys not every run reads (a converge
# ladder's reference solve sets its own tol); out names the files, not the
# run, and is never echoed.  A run needs every key it reads.
_READS = {
    "tol": lambda cfg: cfg.mode == "adaptive",
    "theta": lambda cfg: cfg.method == "symplectic",
    "out": lambda cfg: False,
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
    tol: Optional[float] = None
    theta: float = 0.5  # symplectic family parameter
    safety: ClassVar[float] = ControllerConfig.theta  # controller safety factor
    out: Optional[str] = None
    seed: int = 0
    overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (expected one of {_MODES})")
        if self.t_end <= self.t0:
            raise ConfigError(f"t-end ({self.t_end}) must exceed t0 ({self.t0})")
        for name in ("h", "tol"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        for key in ("t0", "t-end", "h", "tol"):
            value = getattr(self, _field(key))
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.method != "symplectic" and self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r} "
                f"(expected 'symplectic' or one of {sorted(METHODS)})"
            )
        for key in RUN_KEYS:
            if getattr(self, _field(key)) is None and self._reads(key):
                raise ConfigError(f"{self.mode} mode needs {key}")
        if self.mode == "adaptive" and (self.method == "symplectic"
                                        or METHODS[self.method].p_hat is None):
            raise ConfigError(f"method {self.method!r} has no embedded error estimate")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must lie in [0, 1]")

    def build_system(self) -> System:
        return get_system(self.system, **self.overrides)

    def _reads(self, key: str) -> bool:
        return key not in _READS or _READS[key](self)

    def echo_items(self) -> List[Tuple[str, str]]:
        values = {key: getattr(self, _field(key)) for key in RUN_KEYS if self._reads(key)}
        values.update(sorted(self.overrides.items()))
        return [(key, str(_typed(key, v))) for key, v in values.items()]


def _field(key: str) -> str:
    return key.replace("-", "_")


def _typed(key: str, value):
    """``value`` as ``key``'s type; an int key reads it by ``as_int``."""
    kind = _KEY_TYPES[key]
    return as_int(key, value) if kind is int else kind(value)


def _parse_value(key: str, raw, where: str):
    try:
        return _typed(key, raw)
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
# CSV emission and reading


def _write_csv(path, cfg: RunConfig, header: Sequence[str], rows, meta=(), fmt=None) -> None:
    """Echoes the config, then the extra ``(key, value)`` metadata; each
    row is written with the one ``%`` format ``fmt``, ``%.16e`` per
    column by default."""
    fmt = fmt or ",".join(["%.16e"] * len(header))
    lines = [f"# {k} = {v}" for k, v in [*cfg.echo_items(), *meta]]
    lines.append(",".join(header))
    lines += [fmt % tuple(r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> Tuple[Dict[str, str], List[str], np.ndarray]:
    """The inverse of ``_write_csv``: the ``# key = value`` metadata as
    text, the header, and the rows as one float array, in which ``inf``
    and ``nan`` parse and the step log's accepted flag reads 0.0 or 1.0."""
    lines = Path(path).read_text().splitlines()
    meta = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("#"))
    header, *rows = (line for line in lines if not line.startswith("#"))
    return meta, header.split(","), np.array([row.split(",") for row in rows], dtype=float)


def _emit_trajectory(cfg, system, ts, ys, hs, out_base) -> List[str]:
    traj, inv = out_base + ".trajectory.csv", out_base + ".invariants.csv"
    rows = np.column_stack([ts, hs, ys]).tolist()
    _write_csv(traj, cfg, ["t", "h"] + [f"x{i}" for i in range(ys.shape[1])], rows)
    names = list(system.invariants)
    table = np.column_stack([ts] + [system.invariants[n](ys) for n in names])
    _write_csv(inv, cfg, ["t"] + names, table.tolist())
    return [traj, inv]


# ---------------------------------------------------------------------------
# Drivers


def _steps(cfg: RunConfig, h: float) -> int:
    """The step count of a fixed run of step about h over [t0, t-end]; a
    step that underflowed to 0 gives an infinite count."""
    n = (cfg.t_end - cfg.t0) / h if h else math.inf
    if not math.isfinite(n):
        raise ConfigError(f"the step count (t-end - t0) / h = {n} is not finite")
    return max(1, round(n))


def _integrate_fixed(cfg: RunConfig, system: System, n: int):
    if cfg.method == "symplectic":
        return symplectic_integrate(system, cfg.theta, (cfg.t_end - cfg.t0) / n, n, t0=cfg.t0)
    return fixed_integrate(
        system.action,
        system.field,
        METHODS[cfg.method].stepper,
        system.initial,
        cfg.t0,
        cfg.t_end,
        n,
    )


def _integrate_adaptive(
    system: System, method: str, t0: float, t_end: float, h: float, tol: float
):
    info = METHODS[method]
    ctrl = ControllerConfig(tol=tol, alpha=info.alpha)
    return adaptive_integrate(
        system.action,
        system.field,
        info.stepper,
        system.initial,
        t0,
        t_end,
        h,
        ctrl,
    )


def reference_state(system: System, t0: float, t_end: float):
    """Tight-tolerance end state used as the self-reference solution:
    adaptive rkmk54 at tol 1e-12."""
    h = min(1e-3, (t_end - t0) / 10)
    return _integrate_adaptive(system, "rkmk54", t0, t_end, h, 1e-12).ys[-1]


def _build(cfg: RunConfig) -> System:
    """The run's system, once the output directory exists and the method
    fits the system, so no work is done for a run that cannot finish."""
    if cfg.out is None:
        raise ConfigError("an output path is required")
    directory = Path(f"{cfg.out}.csv").parent  # every file written starts with out
    if not directory.is_dir():
        raise ConfigError(f"output directory '{directory}' does not exist")
    system = cfg.build_system()
    if cfg.method == "symplectic" and system.cotangent is None:
        raise ConfigError(f"system {cfg.system!r} has no cotangent formulation for 'symplectic'")
    return system


def run(cfg: RunConfig) -> List[str]:
    """Execute a run in the config's mode; returns the list of files written."""
    if cfg.mode == "converge":
        return converge(cfg)
    system = _build(cfg)
    out_base = str(cfg.out)

    if cfg.mode == "fixed":
        n = _steps(cfg, cfg.h)
        ts, ys = _integrate_fixed(cfg, system, n)
        ts[-1] = cfg.t_end  # the symplectic driver's t0 + n*h may round past it
        hs = np.full(n + 1, (cfg.t_end - cfg.t0) / n)
        return _emit_trajectory(cfg, system, ts, ys, hs, out_base)

    res = _integrate_adaptive(system, cfg.method, cfg.t0, cfg.t_end, cfg.h, cfg.tol)
    hs = np.concatenate([[cfg.h], np.diff(res.ts)])
    paths = _emit_trajectory(cfg, system, res.ts, res.ys, hs, out_base)
    steps = out_base + ".steps.csv"
    rows = [(a.t, a.h, a.error_estimate, a.accepted) for a in res.step_log]
    _write_csv(steps, cfg, ["t", "h", "error_estimate", "accepted"], rows,
               fmt="%.16e,%.16e,%.16e,%d")
    paths.append(steps)
    return paths


def converge(cfg: RunConfig) -> List[str]:
    """Global-error ladder at T against the tight-tolerance reference,
    with the fitted least-squares slope echoed in the metadata."""
    system = _build(cfg)
    ns = [_steps(cfg, cfg.h * 2.0**-k) for k in LADDER_EXPONENTS]
    if any(n >= m for n, m in zip(ns, ns[1:])):
        raise ConfigError(f"the ladder's step counts {ns} are not strictly increasing")
    ref = reference_state(system, cfg.t0, cfg.t_end)
    hs = [(cfg.t_end - cfg.t0) / n for n in ns]
    errs = [float(np.linalg.norm(_integrate_fixed(cfg, system, n)[1][-1] - ref)) for n in ns]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    out = str(cfg.out) + ".orders.csv"
    meta = [("fitted_slope", "%.16e" % slope)]
    _write_csv(out, cfg, ["h", "global_error"], zip(hs, errs), meta=meta)
    return [out]
