"""Command-line front end: outputs, determinism, caching, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import zenodecay
from zenodecay.cli import main
from zenodecay.config import validate_mapping
from zenodecay.errors import ToleranceError
from zenodecay.zeno import TransitionReport

TAU_STAR = 0.5037246419993476  # shared anchor with test_zeno

BASE = """\
[model]
family = lorentzian
coupling = 0.1
bandwidth = 1.0
omega_a = {omega_a}
"""


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


# -- survival -------------------------------------------------------------

def test_survival_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=10.0) + (
        "[task]\nt_min = 0.0\nt_max = 10.0\nt_points = 5\n"))
    assert main(["survival", "--config", cfg, "--out", str(tmp_path)]) == 0
    out_path = capsys.readouterr().out.strip()
    assert out_path.endswith("survival.csv")
    header, rows = read_rows(out_path)
    assert header == ["t", "re_x_closed_form", "im_x_closed_form", "p_closed_form"]
    assert rows.shape == (5, 4)
    assert rows[0, 0] == 0.0 and rows[0, 3] == 1.0
    assert np.all(rows[:, 3] <= 1.0) and np.all(rows[:, 3] > 0.0)


def test_survival_methods_agree_across_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=10.0) + (
        "[task]\nt_min = 0.0\nt_max = 6.0\nt_points = 4\n"
        "methods = closed_form, spectral_integral\n"))
    assert main(["survival", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_rows(capsys.readouterr().out.strip())
    assert rows.shape == (4, 7)
    # Independent routes to the same survival: exact pole algebra vs
    # the spectral panels' Fourier sum of the spectral density.
    assert np.allclose(rows[:, 3], rows[:, 6], rtol=0.0, atol=1e-7)


# -- rate -----------------------------------------------------------------

def test_rate_curve_crosses_natural_rate_once(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=10.0) + (
        "[task]\ntau_min = 1e-4\ntau_max = 50.0\ntau_points = 200\n"))
    assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(capsys.readouterr().out.strip())
    assert header == ["tau", "gamma", "gamma0"]
    gamma0 = rows[0, 2]
    assert np.all(rows[:, 2] == gamma0)
    sign = np.sign(rows[:, 1] - gamma0)
    crossings = np.nonzero(np.diff(sign))[0]
    assert crossings.size == 1
    tau_cross = rows[crossings[0], 0]
    jump_time = gamma0 * 100.0  # gamma0 * zeno_time^2 with tz = 10
    assert tau_cross == pytest.approx(jump_time, rel=0.5)


# -- transition -----------------------------------------------------------

def test_transition_json_finds_frozen_root(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0))
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(open(capsys.readouterr().out.strip(), encoding="utf-8").read())
    assert payload["tau_star"] == pytest.approx(TAU_STAR, rel=1e-9)
    assert payload["criterion_z_less_1"] is True
    # The config echo must re-validate through the schema unchanged.
    again = validate_mapping(payload["config"])
    assert again.echo() == payload["config"]


def test_transition_json_holds_the_report_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0))
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(open(capsys.readouterr().out.strip(), encoding="utf-8").read())
    assert set(payload) - {"config"} == {f.name for f in dataclasses.fields(TransitionReport)}


def test_transition_json_null_for_symmetric_level(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=0.0))
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(open(capsys.readouterr().out.strip(), encoding="utf-8").read())
    assert payload["tau_star"] is None
    assert payload["all_roots"] == []
    assert payload["criterion_z_less_1"] is False


@pytest.mark.parametrize("sub", ["survival", "transition"])
def test_strong_coupling_symmetric_level_exits_0(tmp_path, capsys, sub):
    # lambda = Lambda at omega_a = 0: the golden-rule seed of the pole
    # search would sit on the second-sheet singularity of Sigma.
    body = BASE.replace("coupling = 0.1", "coupling = 1.0").format(omega_a=0.0)
    cfg = write_config(tmp_path, body)
    assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_transition_json_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0))
    assert main(["transition", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["transition", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "transition.json").read_bytes()
    b = (tmp_path / "b" / "transition.json").read_bytes()
    assert a == b


# -- sweep ----------------------------------------------------------------

def test_sweep_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + (
        "[task]\nomega_a_values = 2, 10\ntau_min = 1e-3\ntau_max = 30.0\ntau_points = 64\n"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
    assert [e["omega_a"] for e in summary["entries"]] == [2.0, 10.0]
    names = [e["csv"] for e in summary["entries"]]
    assert all(re.fullmatch(r"rate_[0-9a-f]{16}\.csv", n) for n in names)
    assert summary["entries"][0]["tau_star"] == pytest.approx(TAU_STAR, rel=1e-9)

    first = {n: (out / n).read_bytes() for n in names}

    # A rerun recomputes every entry and must reproduce the exact same bytes.
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert {n: (out / n).read_bytes() for n in names} == first


def test_sweep_requires_values(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "omega_a_values" in capsys.readouterr().err


# -- failure modes --------------------------------------------------------

ERROR_LINE = r"zenodecay: error code=(\d) kind=(\w+) msg=\S.*"


def test_zero_coupling_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0).replace(
        "coupling = 0.1", "coupling = 0.0"))
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.strip()
    m = re.fullmatch(ERROR_LINE, err)
    assert m and m.group(1) == "4" and m.group(2) == "NoDecayError"


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[model]\n")  # duplicate section
    assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    m = re.fullmatch(ERROR_LINE, err)
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"


def test_malformed_table_exits_2(tmp_path, capsys):
    (tmp_path / "header.csv").write_text("omega,g2\n0,0\n1,1\n2,0\n", encoding="utf-8")
    cfg = write_config(tmp_path, "[model]\nfamily = tabulated\ntable_path = header.csv\n"
                                 "omega_a = 1.0\n")
    assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 2
    m = re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[task]\nbogus = 1\n")
    assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())


def test_tolerance_key_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[task]\ntolerance = 1e-6\n")
    assert main(["survival", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    m = re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"
    assert "unknown key(s) in [task]: tolerance" in m.group(0)
    assert not (tmp_path / "out").exists()


def test_tolerance_flag_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0))
    with pytest.raises(SystemExit) as exc:
        main(["survival", "--config", cfg, "--out", str(tmp_path), "--tolerance", "1e-6"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_tolerance_error_exits_3(tmp_path, capsys, monkeypatch):
    import zenodecay.model

    def fail(*args, **kwargs):
        raise ToleranceError("spectral panels missed their budget")

    monkeypatch.setattr(zenodecay.model, "survival_spectral_integral", fail)
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + (
        "[task]\nt_max = 5.0\nt_points = 3\nmethods = closed_form, spectral_integral\n"))
    assert main(["survival", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    m = re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())
    assert m and m.group(1) == "3" and m.group(2) == "ToleranceError"
    assert not (tmp_path / "out").exists()


def test_untenable_transition_window_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=10.0) + "[task]\ntau_max = 1e-3\n")
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.strip()
    m = re.fullmatch(ERROR_LINE, err)
    assert m and m.group(1) == "3" and m.group(2) == "GridError"


@pytest.mark.parametrize("sub, task, fragment", [
    ("rate", "tau_min = 2.0\ntau_max = 1.0\n", "tau_min < tau_max"),
    ("rate", "tau_min = 1.0\ntau_max = 1.0\n", "tau_min < tau_max"),
    ("sweep", "omega_a_values = 2\ntau_points = 1\n", "tau_points must be at least 2"),
    ("survival", "t_min = 3.0\nt_max = 3.0\n", "t_min < t_max"),
    ("survival", "t_points = 1\n", "t_points must be at least 2"),
    # Counts are checked when the config is parsed, whichever subcommand
    # reads them: transition ignores tau_points, rate ignores grid_points.
    ("transition", "tau_points = 1\n", "tau_points must be at least 2"),
    ("rate", "grid_points = 8\n", "grid_points must be at least 64"),
])
def test_degenerate_grids_exit_2(tmp_path, capsys, sub, task, fragment):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[task]\n" + task)
    assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 2
    m = re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"
    assert fragment in m.group(0)


def test_repeated_survival_method_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + (
        "[task]\nmethods = closed_form, closed_form\n"))
    assert main(["survival", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    m = re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"
    assert "twice" in m.group(0)
    assert not (tmp_path / "out").exists()


def test_out_flag_overrides_output_section(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[output]\nout_dir = sect\n")
    override = tmp_path / "flagged"
    assert main(["transition", "--config", cfg, "--out", str(override)]) == 0
    capsys.readouterr()
    assert (override / "transition.json").exists()
    assert not (tmp_path / "sect").exists()


# -- numpy-only runtime ---------------------------------------------------

# Refuses every scipy import, then runs the package end to end.
_WITHOUT_SCIPY = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import zenodecay
from zenodecay.cli import main

codes = [main([cmd, "--config", sys.argv[1], "--out", sys.argv[2]])
         for cmd in ("survival", "rate", "transition")]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_runs_without_scipy(tmp_path):
    cfg = write_config(tmp_path, (
        "[model]\nfamily = threshold_power_law\ncoupling = 0.1\nbandwidth = 1.0\n"
        "omega_a = 2.4\nthreshold = 0.0\nshape_params = 0.5, 4\n"
        "[task]\nmethods = spectral_integral\nt_points = 11\ntau_points = 16\n"
        "grid_points = 64\n"))
    src = os.path.dirname(os.path.dirname(zenodecay.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, cfg, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"
    for name in ("survival.csv", "rate.csv", "transition.json"):
        assert (tmp_path / name).exists()


# -- module entry points --------------------------------------------------


@pytest.mark.parametrize("module", ["zenodecay", "zenodecay.cli"])
def test_module_entry_point_exits_with_main_code(tmp_path, module):
    # python -m zenodecay runs __main__.py, python -m zenodecay.cli the
    # module's own guard; the process exits with main's return code.
    src = os.path.dirname(os.path.dirname(zenodecay.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(cfg):
        return subprocess.run([sys.executable, "-m", module, "transition", "--config", cfg,
                               "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run(write_config(tmp_path, BASE.format(omega_a=2.0)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(tmp_path / "transition.json")
    payload = json.loads((tmp_path / "transition.json").read_text(encoding="utf-8"))
    assert payload["tau_star"] == pytest.approx(TAU_STAR, rel=1e-9)
    done = run(write_config(tmp_path, BASE.format(omega_a=2.0) + "[task]\nbogus = 1\n", "bad.ini"))
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    m = re.fullmatch(ERROR_LINE, lines[0])
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"
