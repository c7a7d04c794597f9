"""Run-configuration files: flat ``key = value`` INI with three sections.

::

    [model]
    family = lorentzian            # or threshold_power_law, tabulated
    coupling = 0.1
    bandwidth = 1.0
    omega_a = 10.0
    # threshold_power_law only:
    threshold = 0.0
    shape_params = 1, 4            # rise exponent p, cutoff exponent q
    # tabulated only:
    table_path = coupling.csv      # two columns: omega, g2

    [task]
    # survival:    t_min, t_max, t_points, methods, tolerance
    # rate/sweep:  tau_min, tau_max, tau_points
    # transition:  tau_max, grid_points
    # sweep:       omega_a_values (comma list)

    [output]
    out_dir = results

Unknown sections or keys are rejected outright — a typo must never turn
into a silently ignored setting.  All numbers must parse as finite
decimals.  :func:`validate_mapping` applies the same schema to an
already-parsed mapping, which is how emitted JSON summaries are checked
to round-trip.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .formfactor import (
    FormFactor,
    LorentzianCoupling,
    TabulatedCoupling,
    ThresholdPowerLawCoupling,
)

__all__ = ["RunConfig", "parse_config", "validate_mapping"]

_FAMILIES = ("lorentzian", "threshold_power_law", "tabulated")

_MODEL_KEYS = {
    "family", "coupling", "bandwidth", "omega_a", "threshold", "shape_params", "table_path",
}
_TASK_KEYS = {
    "t_min", "t_max", "t_points", "methods",
    "tau_min", "tau_max", "tau_points",
    "grid_points", "omega_a_values", "tolerance",
}
_OUTPUT_KEYS = {"out_dir"}

_MODEL_FLOAT_KEYS = ("coupling", "bandwidth", "omega_a", "threshold")
_TASK_FLOAT_KEYS = ("t_min", "t_max", "tau_min", "tau_max", "tolerance")
_TASK_INT_KEYS = ("t_points", "tau_points", "grid_points")
_METHOD_NAMES = ("closed_form", "spectral_integral", "pole_approx")


def _as_float(section: str, key: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key} = {value!r} is not a number") from None
    if not math.isfinite(out):
        raise ConfigError(f"[{section}] {key} = {value!r} must be finite")
    return out


def _as_int(section: str, key: str, value) -> int:
    f = _as_float(section, key, value)
    if f != int(f):
        raise ConfigError(f"[{section}] {key} = {value!r} must be an integer")
    return int(f)


def _as_float_list(section: str, key: str, value) -> list[float]:
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"[{section}] {key} must be a comma-separated list")
    if not parts:
        raise ConfigError(f"[{section}] {key} must not be empty")
    return [_as_float(section, key, p) for p in parts]


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: canonical model/task/output mappings."""

    model: dict
    task: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    base_dir: str = "."

    @property
    def out_dir(self) -> str:
        return self.output.get("out_dir", ".")

    def build_form_factor(self) -> FormFactor:
        m = self.model
        family = m["family"]
        if family == "lorentzian":
            return LorentzianCoupling(coupling=m["coupling"], bandwidth=m["bandwidth"])
        if family == "threshold_power_law":
            p, q = m["shape_params"]
            return ThresholdPowerLawCoupling(
                coupling=m["coupling"],
                bandwidth=m["bandwidth"],
                threshold=m["threshold"],
                rise_exponent=p,
                cutoff_exponent=q,
            )
        path = m["table_path"]
        if not os.path.isabs(path):
            path = os.path.join(self.base_dir, path)
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:  # missing, or not a numeric CSV
            raise ConfigError(f"cannot read table_path {path!r}: {exc}") from None
        if table.shape[1] != 2:
            raise ConfigError(f"table_path {path!r} must have two columns (omega, g2)")
        kwargs = {}
        if "bandwidth" in m:
            kwargs["bandwidth"] = m["bandwidth"]
        try:
            return TabulatedCoupling(table[:, 0], table[:, 1], **kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid coupling table {path!r}: {exc}") from None

    def echo(self) -> dict:
        """JSON-ready canonical form (what sweep summaries embed)."""
        return {"model": dict(self.model), "task": dict(self.task), "output": dict(self.output)}


def validate_mapping(mapping: dict, base_dir: str = ".") -> RunConfig:
    """Apply the schema to a nested mapping; returns the canonical config.

    Accepts both freshly parsed strings and already-typed values, so the
    JSON echo of a run re-validates with the same code path.
    """
    if not isinstance(mapping, dict):
        raise ConfigError("configuration must be a mapping of sections")
    unknown = set(mapping) - {"model", "task", "output"}
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    if "model" not in mapping:
        raise ConfigError("missing [model] section")

    raw_model = dict(mapping.get("model", {}))
    raw_task = dict(mapping.get("task", {}))
    raw_output = dict(mapping.get("output", {}))

    for section, raw, allowed in (
        ("model", raw_model, _MODEL_KEYS),
        ("task", raw_task, _TASK_KEYS),
        ("output", raw_output, _OUTPUT_KEYS),
    ):
        bad = set(raw) - allowed
        if bad:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(bad))}")

    family = raw_model.get("family")
    if family not in _FAMILIES:
        raise ConfigError(
            f"[model] family must be one of {', '.join(_FAMILIES)}, got {family!r}"
        )
    model: dict = {"family": family}
    for key in _MODEL_FLOAT_KEYS:
        if key in raw_model:
            model[key] = _as_float("model", key, raw_model[key])
    if "shape_params" in raw_model:
        params = _as_float_list("model", "shape_params", raw_model["shape_params"])
        if len(params) != 2:
            raise ConfigError("[model] shape_params must hold exactly two values: p, q")
        model["shape_params"] = params
    if "table_path" in raw_model:
        model["table_path"] = str(raw_model["table_path"])

    required = {"omega_a"}
    if family == "lorentzian":
        required |= {"coupling", "bandwidth"}
    elif family == "threshold_power_law":
        required |= {"coupling", "bandwidth", "threshold", "shape_params"}
    else:
        required |= {"table_path"}
    missing = required - set(model)
    if missing:
        raise ConfigError(f"[model] missing key(s) for family={family}: "
                          f"{', '.join(sorted(missing))}")

    task: dict = {}
    for key in _TASK_FLOAT_KEYS:
        if key in raw_task:
            task[key] = _as_float("task", key, raw_task[key])
    for key in _TASK_INT_KEYS:
        if key in raw_task:
            task[key] = _as_int("task", key, raw_task[key])
    if "omega_a_values" in raw_task:
        task["omega_a_values"] = _as_float_list("task", "omega_a_values", raw_task["omega_a_values"])
    if "methods" in raw_task:
        value = raw_task["methods"]
        names = [p.strip() for p in value.split(",")] if isinstance(value, str) else list(value)
        for name in names:
            if name not in _METHOD_NAMES:
                raise ConfigError(
                    f"[task] methods entry {name!r} not in {', '.join(_METHOD_NAMES)}"
                )
        if not names:
            raise ConfigError("[task] methods must not be empty")
        task["methods"] = names

    output: dict = {}
    if "out_dir" in raw_output:
        output["out_dir"] = str(raw_output["out_dir"])

    return RunConfig(model=model, task=task, output=output, base_dir=base_dir)


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file.

    Raises
    ------
    ConfigError
        Missing file, malformed INI, unknown section/key, or a value
        failing the finite-decimal rule.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported")
    mapping = {name: dict(parser.items(name)) for name in parser.sections()}
    return validate_mapping(mapping, base_dir=os.path.dirname(os.path.abspath(path)))
