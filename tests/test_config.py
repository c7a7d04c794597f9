"""Config parsing: schema acceptance, loud rejection, and echo round-trip."""

import textwrap

import numpy as np
import pytest

from zenodecay.config import parse_config, validate_mapping
from zenodecay.errors import ConfigError
from zenodecay.formfactor import (
    LorentzianCoupling,
    TabulatedCoupling,
    ThresholdPowerLawCoupling,
)

LORENTZIAN_INI = """\
[model]
family = lorentzian
coupling = 0.1
bandwidth = 1.0
omega_a = 10.0
"""


def write(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


def test_minimal_lorentzian_roundtrip(tmp_path):
    cfg = parse_config(write(tmp_path, LORENTZIAN_INI))
    assert cfg.model == {
        "family": "lorentzian", "coupling": 0.1, "bandwidth": 1.0, "omega_a": 10.0,
    }
    assert cfg.task == {} and cfg.output == {}
    assert cfg.out_dir == "."
    ff = cfg.build_form_factor()
    assert ff == LorentzianCoupling(coupling=0.1, bandwidth=1.0)


def test_power_law_family(tmp_path):
    cfg = parse_config(write(tmp_path, """\
        [model]
        family = threshold_power_law
        coupling = 0.1
        bandwidth = 1.0
        threshold = 0.0
        shape_params = 0.5, 4
        omega_a = 0.7

        [task]
        t_min = 0.0
        t_max = 20.0
        t_points = 11
        methods = spectral_integral, pole_approx

        [output]
        out_dir = results
        """))
    ff = cfg.build_form_factor()
    assert ff == ThresholdPowerLawCoupling(
        coupling=0.1, bandwidth=1.0, threshold=0.0, rise_exponent=0.5, cutoff_exponent=4.0
    )
    assert cfg.task["t_points"] == 11
    assert cfg.task["methods"] == ["spectral_integral", "pole_approx"]
    assert cfg.out_dir == "results"


def test_tabulated_family_resolves_relative_path(tmp_path):
    om = np.linspace(-5.0, 5.0, 101)
    g2 = 0.01 / np.pi / (om**2 + 1.0)
    np.savetxt(tmp_path / "coupling.csv", np.column_stack([om, g2]), delimiter=",")
    cfg = parse_config(write(tmp_path, """\
        [model]
        family = tabulated
        table_path = coupling.csv
        omega_a = 2.0
        """))
    ff = cfg.build_form_factor()
    assert isinstance(ff, TabulatedCoupling)
    assert ff.omegas.shape == (101,)


def test_tabulated_family_bandwidth_override(tmp_path):
    om = np.linspace(-5.0, 5.0, 101)
    g2 = 0.01 / np.pi / (om**2 + 1.0)
    np.savetxt(tmp_path / "coupling.csv", np.column_stack([om, g2]), delimiter=",")
    cfg = parse_config(write(tmp_path, """\
        [model]
        family = tabulated
        table_path = coupling.csv
        bandwidth = 2.5
        omega_a = 2.0
        """))
    assert cfg.build_form_factor().bandwidth == 2.5


# -- loud rejection -------------------------------------------------------


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("[model]\nfamily = lorentzian\ncoupling = 0.1\nbandwidth = 1.0\n"
         "omega_a = 10.0\n[extra]\nx = 1\n", "unknown section"),
        ("[model]\nfamily = lorentzian\ncouplng = 0.1\nbandwidth = 1.0\n"
         "omega_a = 10.0\n", "unknown key"),
        ("[task]\nt_max = 1\n", "missing [model]"),
        ("[model]\nfamily = gaussian\nomega_a = 1.0\n", "family"),
        ("[model]\nfamily = lorentzian\ncoupling = 0.1\nomega_a = 10.0\n", "missing key"),
        ("[model]\nfamily = lorentzian\ncoupling = abc\nbandwidth = 1.0\n"
         "omega_a = 10.0\n", "not a number"),
        ("[model]\nfamily = lorentzian\ncoupling = 0.1\nbandwidth = inf\n"
         "omega_a = 10.0\n", "finite"),
        ("[model]\nfamily = lorentzian\ncoupling = 0.1\nbandwidth = 1.0\n"
         "omega_a = nan\n", "finite"),
        (LORENTZIAN_INI + "[task]\nt_points = 2.5\n", "integer"),
        (LORENTZIAN_INI + "[task]\nmethods = closed_form, bogus\n", "methods"),
        (LORENTZIAN_INI + "[task]\nomega_a_values =\n", "empty"),
        # An empty entry is a typo, never a silently dropped value.
        (LORENTZIAN_INI + "[task]\nomega_a_values = 2,,10\n",
         "[task] omega_a_values = '2,,10' has an empty entry"),
        (LORENTZIAN_INI + "[task]\nmethods = closed_form,\n",
         "methods = 'closed_form,' has an empty entry"),
        ("[model]\nfamily = threshold_power_law\ncoupling = 0.1\nbandwidth = 1.0\n"
         "threshold = 0.0\nshape_params = 1,\nomega_a = 0.7\n",
         "shape_params = '1,' has an empty entry"),
        ("[model]\nfamily = threshold_power_law\ncoupling = 0.1\nbandwidth = 1.0\n"
         "threshold = 0.0\nshape_params = 1\nomega_a = 0.7\n", "exactly two"),
        ("[model]\nfamily = threshold_power_law\ncoupling = 0.1\nbandwidth = 1.0\n"
         "threshold = 0.0\nshape_params = 1, 2, 3\nomega_a = 0.7\n", "exactly two"),
        ("[DEFAULT]\nx = 1\n" + LORENTZIAN_INI, "DEFAULT"),
    ],
)
def test_bad_configs_are_rejected(tmp_path, body, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("[", r"\[")):
        parse_config(write(tmp_path, body))


def test_case_sensitive_keys(tmp_path):
    body = LORENTZIAN_INI.replace("omega_a", "Omega_a")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write(tmp_path, body))


def test_missing_file_and_malformed_ini(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "nope.ini"))
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(write(tmp_path, "family = lorentzian\n"))  # no section header


def test_missing_table_file(tmp_path):
    # Absent, or not a numeric CSV: a header row, a ragged row.
    (tmp_path / "header.csv").write_text("omega,g2\n0,0\n1,1\n2,0\n", encoding="utf-8")
    (tmp_path / "ragged.csv").write_text("0,0\n1,1,5\n2,0\n", encoding="utf-8")
    for name in ("absent.csv", "header.csv", "ragged.csv"):
        cfg = parse_config(write(tmp_path, f"""\
            [model]
            family = tabulated
            table_path = {name}
            omega_a = 2.0
            """))
        with pytest.raises(ConfigError, match="cannot read table_path"):
            cfg.build_form_factor()


def test_wrong_table_shape(tmp_path):
    np.savetxt(tmp_path / "bad.csv", np.ones((4, 3)), delimiter=",")
    cfg = parse_config(write(tmp_path, """\
        [model]
        family = tabulated
        table_path = bad.csv
        omega_a = 2.0
        """))
    with pytest.raises(ConfigError, match="two columns"):
        cfg.build_form_factor()


def test_invalid_table_values(tmp_path):
    om = np.linspace(0.0, 1.0, 5)
    g2 = np.array([0.0, 1.0, -1.0, 1.0, 0.0])  # negative density
    np.savetxt(tmp_path / "neg.csv", np.column_stack([om, g2]), delimiter=",")
    cfg = parse_config(write(tmp_path, """\
        [model]
        family = tabulated
        table_path = neg.csv
        omega_a = 2.0
        """))
    with pytest.raises(ConfigError, match="invalid coupling table"):
        cfg.build_form_factor()


# -- mapping validation / echo round-trip ---------------------------------


def test_validate_mapping_accepts_typed_values():
    cfg = validate_mapping({
        "model": {"family": "lorentzian", "coupling": 0.1, "bandwidth": 1.0, "omega_a": 10.0},
        "task": {"tau_min": 1e-3, "tau_max": 10.0, "tau_points": 41},
    })
    assert cfg.task == {"tau_min": 1e-3, "tau_max": 10.0, "tau_points": 41}


def test_validate_mapping_rejects_empty_methods():
    # An INI value always names at least one (possibly blank) entry; a
    # mapping can hold an empty list.
    with pytest.raises(ConfigError, match="must not be empty"):
        validate_mapping({
            "model": {"family": "lorentzian", "coupling": 0.1, "bandwidth": 1.0,
                      "omega_a": 10.0},
            "task": {"methods": []},
        })


def test_validate_mapping_rejects_a_repeated_method():
    with pytest.raises(ConfigError, match="names 'closed_form' twice"):
        validate_mapping({
            "model": {"family": "lorentzian", "coupling": 0.1, "bandwidth": 1.0,
                      "omega_a": 10.0},
            "task": {"methods": ["closed_form", "pole_approx", "closed_form"]},
        })


def test_validate_mapping_rejects_non_mapping():
    with pytest.raises(ConfigError):
        validate_mapping(["model"])
    with pytest.raises(ConfigError, match=r"\[model\] must be a mapping"):
        validate_mapping({"model": 5})
    with pytest.raises(ConfigError, match=r"\[task\] must be a mapping"):
        validate_mapping({"model": {"family": "lorentzian", "coupling": 0.1, "bandwidth": 1.0,
                                    "omega_a": 10.0}, "task": None})


POWER_LAW_MAPPING = {"family": "threshold_power_law", "coupling": 0.1, "bandwidth": 1.0,
                     "threshold": 0.0, "omega_a": 2.4}


@pytest.mark.parametrize("kind", [list, tuple])
def test_validate_mapping_takes_typed_lists(kind):
    cfg = validate_mapping({
        "model": dict(POWER_LAW_MAPPING, shape_params=kind((0.5, 4))),
        "task": {"omega_a_values": kind((0.7, 2.4))},
    })
    assert cfg.model["shape_params"] == [0.5, 4.0]
    assert cfg.task["omega_a_values"] == [0.7, 2.4]


@pytest.mark.parametrize("value", [5, None])
@pytest.mark.parametrize("section, key", [("model", "shape_params"), ("task", "omega_a_values"),
                                          ("task", "methods")])
def test_validate_mapping_rejects_a_scalar_list(section, key, value):
    mapping = {"model": dict(POWER_LAW_MAPPING, shape_params=[0.5, 4.0]), "task": {}}
    mapping[section][key] = value
    with pytest.raises(ConfigError, match=f"{key} must be a comma-separated list"):
        validate_mapping(mapping)


@pytest.mark.parametrize("family, extra, named", [
    ("lorentzian", "threshold = 5.0\n", "threshold"),
    ("lorentzian", "shape_params = 9, 1\ntable_path = nowhere.csv\n", "shape_params, table_path"),
    ("threshold_power_law", "table_path = nowhere.csv\n", "table_path"),
    ("tabulated", "coupling = 0.1\n", "coupling"),
])
def test_a_model_key_the_family_does_not_read_is_refused(tmp_path, family, extra, named):
    # A key valid for another family would be silently ignored by this one.
    params = {"lorentzian": "coupling = 0.1\nbandwidth = 1.0\n",
              "threshold_power_law": "coupling = 0.1\nbandwidth = 1.0\nthreshold = 0.0\n"
                                     "shape_params = 0.5, 4\n",
              "tabulated": "table_path = g2.csv\n"}[family]
    body = f"[model]\nfamily = {family}\nomega_a = 1.0\n{params}{extra}"
    with pytest.raises(ConfigError) as info:
        parse_config(write(tmp_path, body))
    assert str(info.value) == f"[model] key(s) not read by family={family}: {named}"
    # Without the foreign keys the same model is accepted.
    parse_config(write(tmp_path, body.replace(extra, "")))


def test_echo_round_trips_through_the_same_schema(tmp_path):
    cfg = parse_config(write(tmp_path, LORENTZIAN_INI + "[task]\ntau_points = 41\n"))
    again = validate_mapping(cfg.echo(), base_dir=cfg.base_dir)
    assert again.model == cfg.model
    assert again.task == cfg.task
    assert again.output == cfg.output
