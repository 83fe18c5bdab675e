from __future__ import annotations

import numpy as np
import pytest

from geomint.cli import main as cli_main
from geomint.harness import (
    ConfigError,
    LADDER_EXPONENTS,
    RunConfig,
    converge,
    parse_config,
    parse_config_file,
    run,
)
from geomint.systems import SYSTEM_IDS, get_system


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
    p = _write(tmp_path, "system = pendulum\nmethod = rkmk4\nstepsize = 0.1\n")
    with pytest.raises(ConfigError, match=r":3.*stepsize"):
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


def test_fixed_mode_needs_exactly_one_of_h_steps():
    with pytest.raises(ConfigError):
        RunConfig(system="pendulum", method="rkmk4")
    with pytest.raises(ConfigError):
        RunConfig(system="pendulum", method="rkmk4", h=0.1, steps=10)
    RunConfig(system="pendulum", method="rkmk4", h=0.1)  # ok


def test_adaptive_mode_validation():
    with pytest.raises(ConfigError, match="tol"):
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


def test_nonpositive_h_steps_tol_are_rejected():
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="heavytop-body", method="rkmk4", h=-0.1)
    with pytest.raises(ConfigError, match="steps must be positive"):
        RunConfig(system="heavytop-body", method="rkmk4", steps=0)
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=-0.01, tol=1e-6)
    with pytest.raises(ConfigError, match="tol must be positive"):
        RunConfig(system="heavytop-lp", method="rkmk54", mode="adaptive", h=0.01, tol=0.0)
    with pytest.raises(ConfigError, match="h must be positive"):
        RunConfig(system="pendulum", method="heun", mode="converge", h=float("nan"))


def test_echo_follows_key_order_and_defaults(tmp_path):
    p = _write(
        tmp_path,
        "mass = 12\nout = o\npreset = bruls-top\nseed = 5\nt-end = 0.6\nh = 0.01\n"
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
        ("preset", "bruls-top"),
        ("gravity", "0.5"),
        ("mass", "12.0"),
    ]
    assert (cfg.theta, cfg.safety, cfg.steps, cfg.tol) == (0.5, 0.9, None, None)


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


def test_bruls_preset_is_default():
    a = get_system("heavytop-lp")
    b = get_system("heavytop-lp", preset="bruls-top")
    np.testing.assert_array_equal(a.initial, b.initial)


# -- CSV output -------------------------------------------------------------------------


def _read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, np.array(rows, dtype=float)


def test_fixed_run_outputs(tmp_path):
    cfg = RunConfig(
        system="heavytop-lp", method="rkmk4", h=0.01, t_end=0.5, out=str(tmp_path / "r")
    )
    paths = run(cfg)
    assert [p.split(".", 1)[1] for p in paths] == ["trajectory.csv", "invariants.csv"]
    meta, header, data = _read_csv(tmp_path / "r.trajectory.csv")
    assert any("system = heavytop-lp" in m for m in meta)
    assert header == ["t", "h"] + [f"x{i}" for i in range(6)]
    assert data.shape == (51, 8)
    assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(0.5)

    _, inv_header, inv = _read_csv(tmp_path / "r.invariants.csv")
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
    _, _, data = _read_csv(tmp_path / "r.trajectory.csv")
    _, _, inv = _read_csv(tmp_path / "r.invariants.csv")
    assert data.shape[0] == 71
    assert data[-1, 0] == 0.7 and inv[-1, 0] == 0.7


def test_csv_has_17_significant_digits(tmp_path):
    cfg = RunConfig(
        system="heavytop-lp", method="rkmk4", steps=2, t_end=0.02, out=str(tmp_path / "r")
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
    _, _, data = _read_csv(tmp_path / "r.trajectory.csv")
    system = get_system("pendulum")
    from geomint.integrators import METHODS, fixed_integrate

    ts, ys = fixed_integrate(
        system.action, system.field, METHODS["rkmk4"].stepper, system.initial, 0.0, 0.5, 10
    )
    # 17 significant digits reproduce the float64 values bit for bit
    np.testing.assert_array_equal(data[:, 2:], ys)
    np.testing.assert_array_equal(data[:, 0], ts)


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
    meta, header, data = _read_csv(tmp_path / "r.steps.csv")
    assert header == ["t", "h", "error_estimate", "accepted"]
    accepted = data[data[:, 3] == 1.0]
    assert np.all(accepted[:, 2] < 1e-6)
    _, _, traj = _read_csv(tmp_path / "r.trajectory.csv")
    assert len(accepted) == len(traj) - 1


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
    text = (tmp_path / "c.orders.csv").read_text()
    slope_line = next(l for l in text.splitlines() if l.startswith("# fitted_slope"))
    slope = float(slope_line.split("=")[1])
    assert 1.75 < slope < 2.25
    _, header, data = _read_csv(tmp_path / "c.orders.csv")
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


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "system = pendulum\nmethod = rkmk54\nh = 0.05\ntol = 1e-6\nt-end = 0.5\n"
        f"out = {tmp_path / 'x'}\n"
    )
    assert cli_main(["adapt", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "x.steps.csv").exists()


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


def test_cli_reports_integrator_failure(tmp_path, capsys):
    # no step meets tol = 1e-300, so the controller gives up
    rc = cli_main(
        ["adapt", "--system", "heavytop-lp", "--method", "rkmk54", "--h", "0.01",
         "--tol", "1e-300", "--t-end", "0.1", "--out", str(tmp_path / "r")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("geomint: error: ")


def test_cli_missing_output_path_fails(capsys):
    rc = cli_main(["simulate", "--system", "pendulum", "--method", "rkmk4", "--h", "0.1"])
    assert rc == 1
