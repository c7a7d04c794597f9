"""Command-line front end: outputs, determinism, caching, exit codes."""

import json
import re

import numpy as np
import pytest

from zenodecay.cli import main
from zenodecay.config import validate_mapping

TAU_STAR = 0.5037246420094716  # shared anchor with test_zeno

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
    # oscillatory quadrature of the spectral density.
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


def test_transition_json_null_for_symmetric_level(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=0.0))
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads(open(capsys.readouterr().out.strip(), encoding="utf-8").read())
    assert payload["tau_star"] is None
    assert payload["all_roots"] == []
    assert payload["criterion_z_less_1"] is False


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


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[task]\nbogus = 1\n")
    assert main(["rate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert re.fullmatch(ERROR_LINE, capsys.readouterr().err.strip())


def test_bad_tolerance_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0))
    code = main(["survival", "--config", cfg, "--out", str(tmp_path), "--tolerance", "-1"])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["rate", "transition", "sweep"])
def test_tolerance_rejected_outside_survival(tmp_path, capsys, sub):
    # Only the spectral survival route has a tolerance to honour; the
    # other subcommands must refuse it rather than silently ignore it.
    task = "[task]\nomega_a_values = 2.0, 5.0\n"
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + task)
    code = main([sub, "--config", cfg, "--out", str(tmp_path / "flag"), "--tolerance", "1e-6"])
    assert code == 2
    err = capsys.readouterr().err.strip()
    m = re.fullmatch(ERROR_LINE, err)
    assert m and m.group(1) == "2" and m.group(2) == "ConfigError"
    assert f"'{sub}'" in err and "tolerance" in err

    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + task + "tolerance = 1e-6\n", "tol.ini")
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "key")]) == 2
    assert f"'{sub}'" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "key").exists()


def test_untenable_transition_window_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=10.0) + "[task]\ntau_max = 1e-3\n")
    assert main(["transition", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.strip()
    m = re.fullmatch(ERROR_LINE, err)
    assert m and m.group(1) == "3" and m.group(2) == "GridError"


def test_out_flag_overrides_output_section(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(omega_a=2.0) + "[output]\nout_dir = sect\n")
    override = tmp_path / "flagged"
    assert main(["transition", "--config", cfg, "--out", str(override)]) == 0
    capsys.readouterr()
    assert (override / "transition.json").exists()
    assert not (tmp_path / "sect").exists()
