from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import math
import os
import pkgutil
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import geomint
from geomint import harness
from geomint.cli import main as cli_main
from geomint.harness import (
    ConfigError,
    LADDER_EXPONENTS,
    RunConfig,
    converge,
    parse_config,
    parse_config_file,
    read_csv,
    run,
)
from geomint.integrators import METHODS, fixed_integrate
from geomint.systems import OVERRIDES, SYSTEM_IDS, get_system


# -- config files ------------------------------------------------------------------


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_parse_config_file_basic(tmp_path):
    p = _write(
        tmp_path,
        """
        # heavy top fixed run
        system = heavytop-lp
        method = rkmk4
        h = 0.01           # trailing comment
        t-end = 2.0
        seed = 7
        """,
    )
    values = parse_config_file(p)
    assert values == {
        "system": "heavytop-lp",
        "method": "rkmk4",
        "h": 0.01,
        "t-end": 2.0,
        "seed": 7,
    }


def test_parse_config_file_unknown_key_reports_line(tmp_path):
    # steps is no key: h alone gives a fixed run's step
    for key in ("stepsize", "steps"):
        p = _write(tmp_path, f"system = pendulum\nmethod = rkmk4\n{key} = 3\n")
        with pytest.raises(ConfigError, match=f":3: unknown key '{key}'$"):
            parse_config_file(p)


def test_parse_config_file_rejects_duplicates_and_garbage(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(_write(tmp_path, "h = 0.1\nh = 0.2\n"))
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(_write(tmp_path, "just some words\n"))
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_file(_write(tmp_path, "h = fast\n"))


def test_flags_override_file(tmp_path):
    p = _write(tmp_path, "system = pendulum\nmethod = rkmk4\nh = 0.1\nt-end = 1.0\n")
    cfg = parse_config({"h": 0.25}, config_file=p)
    assert cfg.h == 0.25 and cfg.system == "pendulum"


def test_parse_config_requires_system_and_method():
    with pytest.raises(ConfigError, match="system and a method"):
        parse_config({"h": 0.1})


def test_overrides_are_forwarded():
    cfg = parse_config(
        {"system": "pendulum", "method": "rkmk4", "h": 0.1, "n": 4, "gravity": 1.0}
    )
    assert cfg.overrides == {"n": 4, "gravity": 1.0}
    system = cfg.build_system()
    assert system.initial.shape == (24,)


# -- RunConfig validation -------------------------------------------------------------


def test_every_mode_needs_h():
    for mode, method, tol in (("fixed", "rkmk4", None), ("adaptive", "rkmk54", 1e-6),
                              ("converge", "rkmk4", None)):
        with pytest.raises(ConfigError, match=f"^{mode} mode needs h$"):
            RunConfig(system="pendulum", method=method, mode=mode, tol=tol)
    with pytest.raises(TypeError, match="steps"):
        RunConfig(system="pendulum", method="rkmk4", h=0.1, steps=10)
    RunConfig(system="pendulum", method="rkmk4", h=0.1)  # ok


def test_adaptive_mode_validation():
    with pytest.raises(ConfigError, match="^adaptive mode needs tol$"):
        RunConfig(system="pendulum", method="rkmk54", mode="adaptive", h=0.1)
    with pytest.raises(ConfigError, match="embedded"):
        RunConfig(system="pendulum", method="rkmk4", mode="adaptive", h=0.1, tol=1e-6)


def test_misc_validation():
    with pytest.raises(ConfigError, match="unknown method"):
        RunConfig(system="pendulum", method="rk4", h=0.1)
    with pytest.raises(ConfigError, match="t-end"):
        RunConfig(system="pendulum", method="rkmk4", h=0.1, t_end=0.0)
    with pytest.raises(ConfigError, match="theta"):
        RunConfig(system="heavytop-ext", method="symplectic", h=0.1, theta=2.0)
    with pytest.raises(ConfigError, match="mode"):
        RunConfig(system="pendulum", method="rkmk4", h=0.1, mode="magic")


def test_nonpositive_h_and_tol_are_rejected():
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="heavytop-body", method="rkmk4", h=-0.1)
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="heavytop-body", method="rkmk4", h=0.0)
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=-0.01, tol=1e-6)
    with pytest.raises(ConfigError, match="tol must be positive"):
        RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=0.01, tol=0.0)
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="pendulum", method="heun", mode="converge", h=float("nan"))


def test_non_finite_times_are_rejected():
    for kwargs in (
        {"t_end": float("nan")},
        {"t_end": float("inf")},
        {"t0": float("-inf")},
        {"h": float("inf")},
    ):
        with pytest.raises(ConfigError, match="must be finite"):
            RunConfig(**{"system": "heavytop-lp", "method": "rkmk4", "h": 0.01, **kwargs})
    with pytest.raises(ConfigError, match="tol must be finite"):
        RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=0.01,
                  tol=float("inf"))


def test_echo_skips_keys_the_run_ignores():
    def keys(**kwargs):
        return [k for k, _ in RunConfig(system="heavytop-lp", **kwargs).echo_items()]

    common = ["system", "method", "mode", "t0", "t-end", "seed", "h"]
    assert keys(method="rkmk4", h=0.01, tol=1e-3, theta=0.3) == common
    adaptive = keys(method="rkmk54", mode="adaptive", h=0.01, tol=1e-3, theta=0.3)
    assert adaptive == common + ["tol"]
    assert keys(method="rkmk4", mode="converge", h=0.1, tol=1e-3) == common
    assert keys(method="symplectic", h=0.01, tol=1e-3, theta=0.3) == common + ["theta"]


def test_echo_follows_key_order_and_defaults(tmp_path):
    p = _write(
        tmp_path,
        "mass = 12\nout = o\nseed = 5\nt-end = 0.6\nh = 0.01\n"
        "t0 = 0.5\nmethod = cf4\nsystem = heavytop-lp\ngravity = 0.5\n",
    )
    cfg = parse_config(config_file=p)
    assert cfg.echo_items() == [
        ("system", "heavytop-lp"),
        ("method", "cf4"),
        ("mode", "fixed"),
        ("t0", "0.5"),
        ("t-end", "0.6"),
        ("seed", "5"),
        ("h", "0.01"),
        ("gravity", "0.5"),
        ("mass", "12.0"),
    ]
    assert (cfg.theta, cfg.safety, cfg.tol) == (0.5, 0.9, None)


# -- system registry -------------------------------------------------------------------


def test_registry_covers_all_ids():
    for sid in SYSTEM_IDS:
        system = get_system(sid)
        assert system.initial.ndim == 1
        assert system.action.point_dim == system.initial.shape[0]


def test_registry_rejects_unknowns():
    with pytest.raises(ValueError):
        get_system("heavytop")
    with pytest.raises(ValueError):
        get_system("pendulum", preset="bruls-top")
    with pytest.raises(ValueError):
        get_system("pendulum", payload_mass=2.0)
    with pytest.raises(ValueError):
        get_system("heavytop-lp", preset="fast-top")


def test_integer_override_must_be_integral():
    with pytest.raises(ValueError, match="override 'n' must be an integer, got 2.5"):
        get_system("pendulum", n=2.5)
    cfg = RunConfig(system="pendulum", method="rkmk4", h=0.1, overrides={"n": 3.7})
    with pytest.raises(ValueError, match="override 'n' must be an integer, got 3.7"):
        cfg.build_system()
    assert get_system("pendulum", n=3.0).initial.shape == (18,)


def test_run_config_reads_seed_as_an_integer():
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        RunConfig(system="heavytop-lp", method="rkmk4", h=0.1, seed=1.5)
    assert RunConfig(system="heavytop-lp", method="rkmk4", h=0.1, seed="7.0").seed == 7


# -- one integer rule on every route ----------------------------------------------------
#
# Each route takes a pendulum run with n or seed set to a value and returns
# the value the run echoes (get_system, which echoes nothing, returns its
# link count); a value the route refuses raises ConfigError or ValueError.


def _keys(key, value):
    return {"system": "pendulum", "method": "rkmk4", "t-end": "0.01", "h": "0.005", key: value}


def _by_cli(tmp_path, capsys, key, value):
    argv = [arg for k, v in _keys(key, value).items() for arg in (f"--{k}", str(v))]
    rc = cli_main(["simulate", *argv, "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    if rc == 1 and err.startswith("geomint: error: "):
        raise ConfigError(err)
    assert rc == 0
    return read_csv(tmp_path / "r.trajectory.csv")[0][key]


def _by_file(tmp_path, capsys, key, value):
    text = "".join(f"{k} = {v}\n" for k, v in _keys(key, value).items())
    return dict(parse_config(config_file=_write(tmp_path, text)).echo_items())[key]


def _by_flags(tmp_path, capsys, key, value):
    return dict(parse_config(_keys(key, value)).echo_items())[key]


def _by_run_config(tmp_path, capsys, key, value):
    kwargs = {"overrides": {"n": value}} if key == "n" else {key: value}
    cfg = RunConfig(system="pendulum", method="rkmk4", t_end=0.01, h=0.005, **kwargs)
    return dict(cfg.echo_items())[key]


def _by_get_system(tmp_path, capsys, key, value):
    return str(get_system("pendulum", n=value).initial.size // 6)


_ROUTES = [(route, key) for route in (_by_cli, _by_file, _by_flags, _by_run_config)
           for key in ("n", "seed")] + [(_by_get_system, "n")]


@pytest.mark.parametrize("route,key", _ROUTES,
                         ids=[f"{route.__name__[4:]}-{key}" for route, key in _ROUTES])
@pytest.mark.parametrize("value", [3, 3.0, "3.0", 2.7, "2.7"], ids=repr)
def test_every_route_reads_an_integer_key_alike(tmp_path, capsys, route, key, value):
    if float(value) == 3:
        assert route(tmp_path, capsys, key, value) == "3"
    else:
        with pytest.raises(ValueError):  # ConfigError is a ValueError
            route(tmp_path, capsys, key, value)


# -- CSV output -------------------------------------------------------------------------


def test_fixed_run_outputs(tmp_path):
    cfg = RunConfig(
        system="heavytop-lp", method="rkmk4", h=0.01, t_end=0.5, out=str(tmp_path / "r")
    )
    paths = run(cfg)
    assert [p.split(".", 1)[1] for p in paths] == ["trajectory.csv", "invariants.csv"]
    meta, header, data = read_csv(tmp_path / "r.trajectory.csv")
    assert meta["system"] == "heavytop-lp"
    assert header == ["t", "h"] + [f"x{i}" for i in range(6)]
    assert data.shape == (51, 8)
    assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(0.5)

    _, inv_header, inv = read_csv(tmp_path / "r.invariants.csv")
    assert inv_header == ["t", "energy", "gamma_norm", "pi_dot_gamma"]
    assert inv.shape == (51, 4)
    # the Casimir columns barely move
    assert np.ptp(inv[:, 2]) < 1e-12


def test_symplectic_run_ends_exactly_at_t_end(tmp_path):
    # 70 * 0.01 rounds to 0.7000000000000001; the last row must read t-end
    cfg = RunConfig(
        system="heavytop-ext", method="symplectic", h=0.01, t_end=0.7, out=str(tmp_path / "r")
    )
    run(cfg)
    _, _, data = read_csv(tmp_path / "r.trajectory.csv")
    _, _, inv = read_csv(tmp_path / "r.invariants.csv")
    assert data.shape[0] == 71
    assert data[-1, 0] == 0.7 and inv[-1, 0] == 0.7


def test_adaptive_run_ends_exactly_at_t_end(tmp_path):
    # the first step stops 5e-15 short of t-end; a second step of the
    # remainder lands on it
    cfg = RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=0.001 - 5e-15,
                    tol=1e-6, t_end=0.001, out=str(tmp_path / "r"))
    run(cfg)
    for kind in ("trajectory", "invariants"):
        last = (tmp_path / f"r.{kind}.csv").read_text().splitlines()[-1]
        assert last.split(",")[0] == "1.0000000000000000e-03"
    _, _, log = read_csv(tmp_path / "r.steps.csv")
    assert log[:, 3].tolist() == [1.0, 1.0]
    assert log[1, 1] == pytest.approx(5e-15, rel=0.01)


def test_csv_has_17_significant_digits(tmp_path):
    cfg = RunConfig(
        system="heavytop-lp", method="rkmk4", h=0.01, t_end=0.02, out=str(tmp_path / "r")
    )
    run(cfg)
    line = (tmp_path / "r.trajectory.csv").read_text().splitlines()[-1]
    for tok in line.split(","):
        mantissa = tok.split("e")[0].replace("-", "")
        assert len(mantissa.replace(".", "")) == 17


def test_csv_values_roundtrip_exactly(tmp_path):
    cfg = RunConfig(
        system="pendulum", method="rkmk4", h=0.05, t_end=0.5, out=str(tmp_path / "r")
    )
    run(cfg)
    _, _, data = read_csv(tmp_path / "r.trajectory.csv")
    system = get_system("pendulum")
    ts, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk4"].stepper, system.initial, 0.0, 0.5, 10
    )
    # 17 significant digits reproduce the float64 values bit for bit
    np.testing.assert_array_equal(data[:, 2:], ys)
    np.testing.assert_array_equal(data[:, 0], ts)


def test_read_csv_inverts_write_csv_on_every_kind_of_file(tmp_path):
    fixed = RunConfig(system="heavytop-lp", method="cf4", h=0.01, t_end=0.1,
                      out=str(tmp_path / "f"))
    system = fixed.build_system()
    ts, ys = fixed_integrate(system.action, system.field, METHODS["cf4"].stepper,
                             system.initial, 0.0, 0.1, 10)
    (meta, _, traj), (inv_meta, inv_header, inv) = map(read_csv, run(fixed))
    assert meta == inv_meta == dict(fixed.echo_items())
    assert inv_header[1:] == list(system.invariants)
    np.testing.assert_array_equal(traj[:, [0, *range(2, 8)]], np.column_stack([ts, ys]))
    columns = [ts, *(invariant(ys) for invariant in system.invariants.values())]
    np.testing.assert_array_equal(inv, np.column_stack(columns))
    # the first trial leaves the exp branch: estimate inf, accepted written %d as 0
    adaptive = RunConfig(system="heavytop-spatial", method="rkmk54", mode="adaptive", h=0.5,
                         tol=1e-6, t_end=0.2, out=str(tmp_path / "a"))
    meta, _, log = read_csv(run(adaptive)[-1])
    assert meta == dict(adaptive.echo_items()) and log[0, 2:].tolist() == [np.inf, 0.0]
    ladder = RunConfig(system="heavytop-lp", method="heun", mode="converge", h=0.1, t_end=0.1,
                       out=str(tmp_path / "c"))
    meta, _, orders = read_csv(converge(ladder)[0])
    slope = np.polyfit(*np.log(orders).T, 1)[0]
    assert meta == {**dict(ladder.echo_items()), "fitted_slope": "%.16e" % slope}
    # a value may hold " = ", and nan and -inf cells parse
    harness._write_csv(tmp_path / "x.csv", fixed, ["a", "b"], [(np.nan, -np.inf)],
                       meta=[("note", "a = b")])
    meta, _, rows = read_csv(tmp_path / "x.csv")
    assert meta["note"] == "a = b" and np.isnan(rows[0, 0]) and rows[0, 1] == -np.inf


def test_output_is_deterministic(tmp_path):
    cfg = RunConfig(
        system="quadrotor", method="cf43", h=0.05, t_end=0.3, out=str(tmp_path / "a"), seed=3
    )
    run(cfg)
    cfg2 = RunConfig(
        system="quadrotor", method="cf43", h=0.05, t_end=0.3, out=str(tmp_path / "b"), seed=3
    )
    run(cfg2)
    a = (tmp_path / "a.trajectory.csv").read_text().replace("/a.", "/b.")
    b = (tmp_path / "b.trajectory.csv").read_text()
    assert a == b


@pytest.mark.parametrize("system,key,a,b", [("pendulum", "n", 3, 3.0),
                                            ("heavytop-lp", "mass", 15, 15.0)])
def test_equal_overrides_write_identical_files(tmp_path, system, key, a, b):
    # each override is echoed as the system reads it, so 3 and 3.0 echo alike
    for name, value in (("a", a), ("b", b)):
        run(RunConfig(system=system, method="rkmk4", h=0.01, t_end=0.02,
                      overrides={key: value}, out=str(tmp_path / name)))
    for kind in ("trajectory", "invariants"):
        first, second = ((tmp_path / f"{name}.{kind}.csv").read_bytes() for name in "ab")
        assert first == second


def test_adaptive_run_writes_step_log(tmp_path):
    cfg = RunConfig(
        system="pendulum",
        method="rkmk54",
        mode="adaptive",
        h=0.05,
        tol=1e-6,
        t_end=1.0,
        out=str(tmp_path / "r"),
    )
    paths = run(cfg)
    assert paths[-1].endswith(".steps.csv")
    meta, header, data = read_csv(tmp_path / "r.steps.csv")
    assert header == ["t", "h", "error_estimate", "accepted"]
    accepted = data[data[:, 3] == 1.0]
    assert np.all(accepted[:, 2] < 1e-6)
    _, _, traj = read_csv(tmp_path / "r.trajectory.csv")
    assert len(accepted) == len(traj) - 1


def test_adaptive_run_takes_the_controller_exponent_from_the_lower_order(tmp_path):
    # rkmk54 is a 5(4) pair, so the second trial is 0.9 (tol / e1)^(1/5) h1
    cfg = RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=0.01,
                    tol=1e-6, t_end=1.0, out=str(tmp_path / "r"))
    run(cfg)
    _, _, log = read_csv(tmp_path / "r.steps.csv")
    (_, h1, e1, _), (_, h2, _, _) = log[:2]
    assert abs(np.log10(e1 / cfg.tol)) > 1  # far enough from tol to tell 1/5 from 1/6
    assert h2 == pytest.approx(0.9 * (cfg.tol / e1) ** (1 / 5) * h1, rel=1e-14)


def test_step_log_writes_a_rejected_trial_as_inf_and_0(tmp_path):
    # the first trial, cut to h = 0.2 by t-end, leaves the exp branch: estimate inf
    cfg = RunConfig(system="heavytop-spatial", method="rkmk54", mode="adaptive", h=0.5,
                    tol=1e-6, t_end=0.2, out=str(tmp_path / "r"))
    run(cfg)
    rows = [line for line in (tmp_path / "r.steps.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[:2] == ["t,h,error_estimate,accepted",
                        "0.0000000000000000e+00,2.0000000000000001e-01,inf,0"]


@pytest.mark.parametrize("mode", ["fixed", "converge"])
def test_symplectic_without_cotangent_form_fails_before_any_work(tmp_path, monkeypatch, mode):
    # the converge ladder's reference solve is its first piece of work
    calls = []
    monkeypatch.setattr(harness, "reference_state", lambda *args: calls.append(args))
    cfg = RunConfig(system="pendulum", method="symplectic", mode=mode, h=0.1, t_end=2.0,
                    out=str(tmp_path / "r"))
    with pytest.raises(ConfigError, match="no cotangent formulation"):
        run(cfg)
    assert calls == []


@pytest.mark.parametrize("out", ["missing/cf4", "missing/"])
def test_missing_output_directory_fails_before_any_work(tmp_path, monkeypatch, out):
    calls = []
    monkeypatch.setattr(harness, "reference_state", lambda *args: calls.append(args))
    cfg = RunConfig(system="heavytop-spatial", method="cf4", mode="converge", h=0.05,
                    t_end=1.0, out=f"{tmp_path}/{out}")
    with pytest.raises(ConfigError, match="output directory .*missing' does not exist"):
        run(cfg)
    assert calls == []


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_cli_step_count_with_no_finite_value_fails_before_any_work(tmp_path, monkeypatch,
                                                                  capsys, command):
    # (1e300 - 0) / 1e-300 overflows to inf, which has no whole number of
    # steps; so does 0.05 / 5e-324, and the ladder's first rung 5e-324 / 16
    # underflows to 0
    calls = []
    monkeypatch.setattr(harness, "reference_state", lambda *args: calls.append(args))
    monkeypatch.setattr(harness, "fixed_integrate", lambda *args: calls.append(args))
    for h, t_end in (("1e-300", "1e300"), ("5e-324", "0.05")):
        rc = cli_main([command, "--system", "heavytop-lp", "--method", "rkmk4", "--h", h,
                       "--t-end", t_end, "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "geomint: error: the step count (t-end - t0) / h = inf is not finite\n"
        )
    assert calls == []


def test_cli_step_count_beyond_memory_exits_nonzero(tmp_path, capsys):
    # 10**15 steps of 6 floats need 48 PB, more than any 64-bit address
    # space, so the allocation fails at once
    rc = cli_main(["simulate", "--system", "heavytop-lp", "--method", "rkmk4", "--h", "1e-15",
                   "--t-end", "1", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("geomint: error: Unable to allocate ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method, flags, ns", [
    # every rung is one step of h = t-end, so log h is the same on every row
    ("lie-euler", ["--t-end", "1", "--h", "2000", "--gravity", "0.001"], [1] * 6),
    ("heun", ["--t-end", "0.01", "--h", "1e10"], [1] * 6),
    # rungs that do not halve h
    ("lie-euler", ["--t-end", "1", "--h", "100", "--gravity", "0.001"], [1, 1, 1, 1, 3, 5]),
])
def test_cli_converge_ladder_whose_rungs_collapse_exits_nonzero(tmp_path, monkeypatch, capfd,
                                                              method, flags, ns):
    # LAPACK writes its DLASCL lines at C level, so capfd, not capsys
    calls, reference_state = [], harness.reference_state
    monkeypatch.setattr(harness, "reference_state",
                        lambda *args: calls.append(args) or reference_state(*args))
    rc = cli_main(["converge", "--system", "pendulum", "--method", method, *flags,
                   "--out", str(tmp_path / "c")])
    out, err = capfd.readouterr()
    assert rc == 1
    assert out == ""
    assert err == f"geomint: error: the ladder's step counts {ns} are not strictly increasing\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_converge_writes_slope(tmp_path):
    cfg = RunConfig(
        system="pendulum",
        method="heun",
        mode="converge",
        h=0.5,
        t_end=2.0,
        out=str(tmp_path / "c"),
    )
    (path,) = converge(cfg)
    meta, header, data = read_csv(path)
    assert 1.75 < float(meta["fitted_slope"]) < 2.25
    assert header == ["h", "global_error"]
    assert data.shape == (len(LADDER_EXPONENTS), 2)


# -- CLI ----------------------------------------------------------------------------------


def test_cli_simulate_exit_zero(tmp_path, capsys):
    rc = cli_main(
        [
            "simulate",
            "--system",
            "heavytop-lp",
            "--method",
            "rkmk4",
            "--h",
            "0.01",
            "--t-end",
            "0.2",
            "--out",
            str(tmp_path / "cli"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [str(tmp_path / "cli.trajectory.csv"), str(tmp_path / "cli.invariants.csv")]


def test_cli_sets_t0_and_system_overrides(tmp_path, capsys):
    rc = cli_main(["simulate", "--system", "pendulum", "--method", "rkmk4", "--n", "3",
                   "--t0", "0.5", "--t-end", "0.6", "--h", "0.01", "--out", str(tmp_path / "r")])
    assert rc == 0
    meta, header, data = read_csv(tmp_path / "r.trajectory.csv")
    assert header[2:] == [f"x{i}" for i in range(18)]
    assert meta["t0"] == "0.5" and meta["n"] == "3"
    assert data[0, 0] == 0.5


def test_cli_bad_flag_value_exits_1_as_a_bad_file_line_does(tmp_path, capsys):
    rc = cli_main(["simulate", "--system", "heavytop-lp", "--method", "rkmk4", "--h", "fast",
                   "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "geomint: error: flags: cannot parse value 'fast' for key 'h'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--system", "pendulum", "--method", "rkmk4", "--steps", "3", "--out", "r"],
     ["simulate", "--system", "pendulum", "--method", "rkmk4", "--out", "r", "--h"],
     [], ["frobnicate"]],
    ids=["unknown-flag", "flag-without-value", "no-command", "unknown-command"],
)
def test_cli_bad_command_line_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("geomint: error: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_adaptive_step_that_cannot_move_t_exits_1(tmp_path, capsys):
    # at t = 1e5, t + 1e-12 == t: the first trial would move the state, not t
    rc = cli_main(["adapt", "--system", "heavytop-lp", "--method", "rkmk54", "--t0", "1e5",
                   "--t-end", "100000.001", "--h", "1e-12", "--tol", "1e-6",
                   "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == "geomint: error: step size underflow at t = 100000\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "system = pendulum\nmethod = rkmk54\nh = 0.05\ntol = 1e-6\nt-end = 0.5\n"
        f"out = {tmp_path / 'x'}\n"
    )
    assert cli_main(["adapt", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "x.steps.csv").exists()


def test_cli_config_file_mode_must_match_the_subcommand(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("system = pendulum\nmethod = rkmk54\nmode = adaptive\nh = 0.05\n"
                       f"tol = 1e-6\nt-end = 0.1\nout = {tmp_path / 'x'}\n")
    assert cli_main(["simulate", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err == (
        f"geomint: error: {cfgfile} sets mode = adaptive, but 'simulate' runs mode fixed\n"
    )
    assert list(tmp_path.iterdir()) == [cfgfile]
    assert cli_main(["adapt", "--config", str(cfgfile)]) == 0
    assert read_csv(tmp_path / "x.trajectory.csv")[0]["mode"] == "adaptive"


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    rc = cli_main(
        ["simulate", "--system", "pendulum", "--method", "rkmk4", "--t-end", "1.0",
         "--out", str(tmp_path / "y")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_negative_step_exits_nonzero(tmp_path, capsys):
    rc = cli_main(
        ["simulate", "--system", "heavytop-body", "--method", "rkmk4", "--h", "-0.1",
         "--t-end", "1", "--out", str(tmp_path / "neg")]
    )
    assert rc == 1
    assert "h must be positive" in capsys.readouterr().err
    assert not (tmp_path / "neg.trajectory.csv").exists()


def test_cli_non_finite_t_end_exits_nonzero(tmp_path, capsys):
    rc = cli_main(
        ["simulate", "--system", "heavytop-lp", "--method", "rkmk4", "--h", "0.01",
         "--t-end", "inf", "--out", str(tmp_path / "inf")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("geomint: error: t-end must be finite")


def test_cli_non_finite_system_parameter_exits_nonzero(tmp_path, capsys):
    # a NaN mass; and a mass and length whose weight Mgl overflows, which
    # would start the extended top from p(0) = -Mgl X = inf
    for run_keys, error in (
        ("system = heavytop-spatial\nmethod = rkmk4\nmass = nan\n",
         "heavy top parameters must be finite"),
        ("system = heavytop-ext\nmethod = symplectic\nmass = 1e308\nlength = 1e308\n",
         "heavy top weight mass * gravity * length must be finite, got inf\n"),
    ):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{run_keys}h = 0.01\nt-end = 0.05\nout = {tmp_path / 'bad'}\n")
        assert cli_main(["simulate", "--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err.startswith(f"geomint: error: {error}")
        assert list(tmp_path.iterdir()) == [cfgfile]


def test_cli_empty_pendulum_chain_exits_nonzero(tmp_path, capsys):
    cfgfile = tmp_path / "empty.cfg"
    cfgfile.write_text(
        "system = pendulum\nmethod = rkmk4\nh = 0.01\nt-end = 0.05\nn = 0\n"
        f"out = {tmp_path / 'empty'}\n"
    )
    assert cli_main(["simulate", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err == "geomint: error: a pendulum needs at least one link\n"
    assert list(tmp_path.iterdir()) == [cfgfile]


@pytest.mark.parametrize("command", ["simulate", "adapt"])
@pytest.mark.parametrize("params", [["--n", "3", "--length", "1e-200"],
                                    ["--n", "2", "--mass", "5e-324", "--length", "0.5"]],
                         ids=["length", "mass"])
def test_cli_pendulum_without_a_finite_inverse_coupling_exits_nonzero(tmp_path, capsys,
                                                                       command, params):
    # L_i^2, or m_i L_i L_{i+1}, underflows to 0: a divisor of the closed-form K
    rc = cli_main([command, "--system", "pendulum", "--method", "rkmk54", "--h", "0.01",
                   "--tol", "1e-6", "--t-end", "0.05", *params, "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("geomint: error: pendulum masses and lengths give no finite")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_reports_integrator_failure(tmp_path, capsys):
    # no step meets tol = 1e-300, so the controller gives up
    rc = cli_main(
        ["adapt", "--system", "heavytop-lp", "--method", "rkmk54", "--h", "0.01",
         "--tol", "1e-300", "--t-end", "0.1", "--out", str(tmp_path / "r")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("geomint: error: ")


@pytest.mark.parametrize("system", ["quadrotor", "pendulum"])
def test_cli_non_finite_multibody_state_exits_nonzero(tmp_path, system, capsys):
    # gravity at the top of the float range overflows the first field
    # evaluation; the next one sees a non-finite state and must raise
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(
        f"system = {system}\nmethod = rkmk4\nh = 0.01\nt-end = 0.05\ngravity = 1e308\n"
        f"out = {tmp_path / 'huge'}\n"
    )
    assert cli_main(["simulate", "--config", str(cfgfile)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "huge.trajectory.csv").exists()


def test_cli_error_line_has_no_numpy_warning_before_it(tmp_path, capsys):
    # gravity = 1e308 overflows numpy products in the first field
    # evaluation; only the finiteness check's error may reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["simulate", "--system", "pendulum", "--method", "rkmk4", "--h", "0.01",
                       "--t-end", "0.05", "--gravity", "1e308", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == "geomint: error: pendulum state is not finite\n"


@pytest.mark.parametrize("system", ["quadrotor", "pendulum"])
def test_cli_non_finite_last_step_exits_nonzero(tmp_path, system, capsys):
    # one lie-euler step makes the state non-finite, and no later stage
    # reads it, so only the end-state check of the driver can catch it
    cfgfile = tmp_path / "last.cfg"
    cfgfile.write_text(
        f"system = {system}\nmethod = lie-euler\nh = 0.01\nt-end = 0.01\ngravity = 1e308\n"
        f"out = {tmp_path / 'last'}\n"
    )
    assert cli_main(["simulate", "--config", str(cfgfile)]) == 1
    assert "state not finite after step 1" in capsys.readouterr().err
    assert not (tmp_path / "last.trajectory.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_cli_symplectic_without_cotangent_form_exits_nonzero(tmp_path, capsys, command):
    rc = cli_main(
        [command, "--system", "pendulum", "--method", "symplectic", "--h", "0.1",
         "--t-end", "2", "--out", str(tmp_path / "p")]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        "geomint: error: system 'pendulum' has no cotangent formulation for 'symplectic'\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_output_directory_exits_nonzero(tmp_path, capsys):
    missing = tmp_path / "missing"
    rc = cli_main(["converge", "--system", "heavytop-spatial", "--method", "cf4", "--h", "0.05",
                   "--t-end", "1", "--out", str(missing / "cf4")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"geomint: error: output directory '{missing}' does not exist\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_output_path_fails(capsys):
    rc = cli_main(["simulate", "--system", "pendulum", "--method", "rkmk4", "--h", "0.1"])
    assert rc == 1


_NO_SCIPY_RUN = """
import sys
import geomint.cli, geomint.harness
from geomint.integrators import symplectic_step
from geomint.systems import SYSTEM_IDS, get_system
systems = {name: get_system(name) for name in SYSTEM_IDS}
top = systems["heavytop-ext"]
symplectic_step(top.cotangent.group, top.cotangent.f, *top.cotangent.unpack(top.initial),
                0.01, 0.5)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_the_harness_cli_systems_and_implicit_step_load_no_scipy():
    # a fresh interpreter: other tests import scipy modules into this one
    src = str(Path(geomint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_exactly_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower()
        for dep in project["dependencies"]
    }
    imported = set()
    for path in (root / "src" / "geomint").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"geomint"}
    assert third_party == declared


def test_perfbench_imports_resolve():
    # the benchmark and the scripts import these names from the package,
    # and the tests that run them take only a few of their paths; a
    # deletion that removes a name, or leaves it in a module's __all__,
    # could otherwise break one without a failing test
    root = Path(__file__).resolve().parents[1]
    scripts = sorted(root.glob("perfbench/*.py")) + sorted(root.glob("scripts/*.py"))
    assert scripts
    missing = []
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("geomint"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{script.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("geomint"):
                        importlib.import_module(alias.name)
    for info in pkgutil.walk_packages(geomint.__path__, prefix="geomint."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def test_perfbench_replays_run(monkeypatch, tmp_path):
    # a name can resolve while what the benchmark passes it no longer fits:
    # run the traced driver on one shortened case per (system, method) of
    # each workload, check that it ends where a harness run of the case
    # ends (the traced driver loops over symplectic_step itself, so solver
    # state carried across steps would part them), then call every
    # replayed callable on its arguments
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    cases, tracing = importlib.import_module("cases"), importlib.import_module("tracing")
    checks = importlib.import_module("checks")
    short = {}
    for workload in cases.WORKLOADS:
        for cfg in cases.build_cases(workload, seed=1):
            short.setdefault((cfg.system, cfg.method), replace(cfg, t_end=cfg.t0 + 3 * cfg.h))
    short = list(short.values())
    tracer, systems = tracing.Tracer(), {}
    for i, cfg in enumerate(short):
        systems[i] = cfg.build_system()
        tracer.start_case(i)
        ys, steps = tracing.drive(cfg, systems[i], tracer)
        assert steps >= 1 and np.isfinite(ys).all()
        ref_steps, ref_final, _ = checks.check_case(
            cfg, harness.run(replace(cfg, out=str(tmp_path / f"case{i}"))))
        assert steps == ref_steps and np.array_equal(ys[-1], ref_final), (cfg.system, cfg.method)
    calls = tracing.replay_args(short, systems, tracer.samples)
    calls.update(tracing.kernel_args(short, tracer.samples))
    assert all(calls.values())
    for arg_sets in calls.values():
        for fn, args in arg_sets:
            fn(*args)


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _readme_table(header):
    """The first two cells of each row of the README table under ``header``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    return [row.split("|")[1:3] for row in rows]


def test_readme_tables_and_cli_flags_follow_the_one_key_table(capsys):
    run_keys = [cells[0].strip().strip("`") for cells in _readme_table(
        "| key | type | default | meaning |")]
    assert run_keys == list(harness.RUN_KEYS)
    overrides = {name for _, cell in _readme_table("| systems | override: default |")
                 for name in re.findall(r"`(\w+)`:", cell)}
    assert overrides == set(OVERRIDES)
    with pytest.raises(SystemExit):
        cli_main(["simulate", "--help"])
    flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, flags=re.M)
    assert flags == [f"--{key}" for key in harness._KEY_TYPES if key != "mode"] + ["--config"]


def test_convergence_script_has_a_base_step_per_method():
    assert sorted(_load_script("heavytop_convergence").BASE_STEPS) == sorted(METHODS)


def test_csv_compare_runs_every_method():
    script = _load_script("csv_compare")
    assert script.METHOD_IDS == tuple(sorted(METHODS))
    assert len(list(script.cases())) == 80


def test_csv_compare_names_the_file_and_column_of_the_largest_difference(tmp_path):
    compare_case = _load_script("csv_compare").compare_case
    files = {
        "trajectory": "# system = pendulum\nt,h,x0\n0.0,0.5,1.0\n0.5,0.5,2.0\n",
        "invariants": "# system = pendulum\nt,energy,max_q_norm_error\n0.0,3.0,0.0\n0.5,3.0,0.0\n",
    }
    paths = {}
    for tree in ("old", "new"):
        (tmp_path / tree).mkdir()
        paths[tree] = [tmp_path / tree / f"case0.{kind}.csv" for kind in files]
        for path, text in zip(paths[tree], files.values()):
            if tree == "new" and "invariants" in path.name:
                text = text.replace("0.5,3.0,0.0", "0.5,3.0,2.0e-16")
            path.write_text(text)
    line = compare_case(paths["old"], paths["new"])
    assert line.startswith("max rel diff 2.0e-16 at invariants:max_q_norm_error, rows match")
    assert line.endswith("; differ: invariants")
    identical = _load_script("csv_compare").identical_files(paths["old"], paths["new"])
    assert identical == [("trajectory", True), ("invariants", False)]


def test_bench_script_writes_every_record_with_its_schema(tmp_path, monkeypatch):
    script = _load_script("bench")
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench", "--out", str(out), "--repeats", "2",
                                      "--number", "1"])
    script.main()
    result = json.loads(out.read_text())
    meta = result["meta"]
    assert meta["src_lines"] > 0 and isinstance(meta["src_lines"], int)
    assert meta["revision"] and meta["numpy"] == np.__version__
    assert meta["python"] == platform.python_version() and meta["speed_factor"] > 0
    assert meta["reference_s"] > 0
    names = [(r["layer"], r["name"]) for r in result["records"]]
    assert len(set(names)) == len(names)
    tops = ["heavytop-body", "heavytop-spatial", "heavytop-lp", "heavytop-ext"]
    fields = tops + [f"pendulum-{n}" for n in (3, 10, 40, 160)] + ["quadrotor"]
    steps = [f"{top} {m}" for top in tops for m in METHODS]
    steps += ["heavytop-spatial symplectic", "heavytop-ext symplectic"]
    steps += [f"{s} {m}" for s in ("pendulum-3", "quadrotor") for m in ("rkmk4", "rkmk54")]
    implicit = [f"{top} {part}" for top in ("heavytop-spatial", "heavytop-ext")
                for part in ("G", "dG/dx", "J^-1", "newton")]
    assert sorted(names) == sorted([("field", n) for n in fields] + [("step", n) for n in steps]
                                   + [("implicit", n) for n in implicit])
    for record in result["records"]:
        assert set(record) == {"layer", "name", "median_us", "iqr_us", "accuracy", "invariant"}
        assert record["median_us"] > 0 and record["iqr_us"] >= 0
        assert 0 <= record["accuracy"] < math.inf


def test_bench_script_compares_two_files_record_by_record(tmp_path, monkeypatch, capsys):
    def record(layer, name, median, iqr):
        return {"layer": layer, "name": name, "median_us": median, "iqr_us": iqr,
                "accuracy": 0.0, "invariant": "energy"}

    files = {
        "a.json": {"meta": {"revision": "aaaaaaa"}, "records": [
            record("implicit", "top G", 10.0, 0.5), record("field", "top", 4.0, 0.5),
            record("step", "top rkmk4", 20.0, 1.0)]},
        "b.json": {"meta": {"revision": "aaaaaaa+0123abcd"}, "records": [
            # G drops by more than both IQRs, the field moves less than A's
            record("implicit", "top G", 6.0, 1.0), record("field", "top", 4.4, 0.1),
            record("step", "quadrotor rkmk4", 30.0, 1.0)]},
    }
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    monkeypatch.setattr(sys, "argv", ["bench", "--compare", str(tmp_path / "a.json"),
                                      str(tmp_path / "b.json")])
    _load_script("bench").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "A aaaaaaa  B aaaaaaa+0123abcd"
    assert [line.split() for line in lines[1:]] == [
        ["implicit", "top", "G", "10.00", "6.00", "us", "B/A", "0.600", "moved"],
        ["field", "top", "4.00", "4.40", "us", "B/A", "1.100", "-"],
        ["step", "top", "rkmk4", "only", "in", "A"],
        ["step", "quadrotor", "rkmk4", "only", "in", "B"],
    ]


def test_mutants_old_text_occurs_once_per_defect():
    script = _load_script("mutants")
    assert len({d.name for d in script.DEFECTS}) == len(script.DEFECTS)
    for defect in script.DEFECTS:
        assert defect.old != defect.new, defect.name
        assert (script.ROOT / defect.path).read_text().count(defect.old) == 1, defect.name


def test_mutants_copy_the_files_outside_a_git_checkout(monkeypatch, tmp_path):
    # in a `git archive` copy, git ls-files exits 128; the copy then takes
    # every file under the root but git's, the caches and the benchmark's
    script = _load_script("mutants")
    monkeypatch.setattr(script.subprocess, "run",
                        lambda args, **kw: subprocess.CompletedProcess(args, 128, "", "fatal"))
    script._copy_checkout(tmp_path)
    assert (tmp_path / "src" / "geomint" / "__init__.py").is_file()
    assert (tmp_path / "tests" / "test_harness.py").is_file()
    assert not any(part in script._UNCOPIED for p in tmp_path.rglob("*")
                   for part in p.relative_to(tmp_path).parts)


_FLOAT = r"[-+]?\d+\.\d+(?:e[-+]\d+)?"


@pytest.mark.parametrize(
    "name,argv,patterns",
    [
        ("adaptive_pendulum", ["--t-end", "0.3", "--out", "{tmp}/p"],
         [r"(\d+) accepted steps, (\d+) rejected",
          rf"smallest accepted step h = ({_FLOAT}) at t = ({_FLOAT})",
          r"(.+\.trajectory\.csv)", r"(.+\.invariants\.csv)", r"(.+\.steps\.csv)"]),
        ("heavytop_convergence", ["--methods", "heun", "--t-end", "0.05", "--out", "{tmp}/h"],
         [rf"heun +slope +({_FLOAT})  -> (.+\.orders\.csv)"]),
        ("symplectic_energy", ["--steps", "40", "--thetas", "0.5"],
         [rf"theta = 0\.50: max \|dE\| first half ({_FLOAT}), second half ({_FLOAT}), "
          rf"final \|p\|-30 = ({_FLOAT}), max \|d Gamma0\.pi\| ({_FLOAT})"]),
    ],
)
def test_paper_scripts_print_lines_that_parse(tmp_path, monkeypatch, capsys, name, argv,
                                               patterns):
    # each script reads the harness CSVs through read_csv; run its main() on a short case
    script = _load_script(name)
    monkeypatch.setattr(sys, "argv", [name] + [a.format(tmp=tmp_path) for a in argv])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        match = re.fullmatch(pattern, line)
        assert match, line
        for value in match.groups():
            assert Path(value).is_file() if value.endswith(".csv") else np.isfinite(float(value))
