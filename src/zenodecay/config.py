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
    # survival:    t_min, t_max, t_points (>= 2), methods
    # rate/sweep:  tau_min, tau_max, tau_points (>= 2)
    # transition:  tau_max, grid_points (>= 64); searches from 1e-4/bandwidth
    # sweep:       omega_a_values (comma list)

    [output]
    out_dir = results

One schema, ``_SCHEMA``, names every key of every section with the
reader that checks its value; :func:`validate_mapping` applies it once,
whichever subcommand then reads the config.  The ``[task]`` keys are
shared: one file can serve every subcommand, each reading only its own
keys, and every value present is checked all the same.  Unknown sections
or keys are rejected outright — a typo must never turn into a silently
ignored setting.  All numbers must parse as finite decimals, and counts
must reach their lower bounds.  The same schema applies to an
already-parsed mapping, which is how emitted JSON summaries are checked
to round-trip.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .amplitude import SurvivalMethod
from .errors import ConfigError
from .formfactor import (
    FormFactor,
    LorentzianCoupling,
    TabulatedCoupling,
    ThresholdPowerLawCoupling,
)
from .zeno import MIN_GRID_POINTS

__all__ = ["RunConfig", "parse_config", "validate_mapping"]


def _as_float(section: str, key: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key} = {value!r} is not a number") from None
    if not math.isfinite(out):
        raise ConfigError(f"[{section}] {key} = {value!r} must be finite")
    return out


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


def _as_text(section: str, key: str, value) -> str:
    return str(value)


def _as_pair(section: str, key: str, value) -> list[float]:
    params = _as_float_list(section, key, value)
    if len(params) != 2:
        raise ConfigError(f"[{section}] {key} must hold exactly two values: p, q")
    return params


_METHODS = tuple(m.value for m in SurvivalMethod)


def _as_methods(section: str, key: str, value) -> list[str]:
    names = [p.strip() for p in value.split(",")] if isinstance(value, str) else list(value)
    if not names:
        raise ConfigError(f"[{section}] {key} must not be empty")
    for i, name in enumerate(names):
        if name not in _METHODS:
            raise ConfigError(f"[{section}] {key} entry {name!r} not in {', '.join(_METHODS)}")
        if name in names[:i]:
            raise ConfigError(f"[{section}] {key} names {name!r} twice")
    return names


def _count(least: int):
    """Reader of an integer count that must be at least ``least``."""
    def read(section: str, key: str, value) -> int:
        f = _as_float(section, key, value)
        if f != int(f):
            raise ConfigError(f"[{section}] {key} = {value!r} must be an integer")
        if f < least:
            raise ConfigError(f"[{section}] {key} must be at least {least}, got {int(f)}")
        return int(f)
    return read


#: Every key a run config may hold, with the reader that checks its value.
#: The ``[task]`` keys are shared by the subcommands; each reads its own.
_SCHEMA = {
    "model": {
        "family": _as_text,
        "coupling": _as_float,
        "bandwidth": _as_float,
        "omega_a": _as_float,
        "threshold": _as_float,
        "shape_params": _as_pair,
        "table_path": _as_text,
    },
    "task": {
        "t_min": _as_float,
        "t_max": _as_float,
        "t_points": _count(2),
        "methods": _as_methods,
        "tau_min": _as_float,
        "tau_max": _as_float,
        "tau_points": _count(2),
        "grid_points": _count(MIN_GRID_POINTS),
        "omega_a_values": _as_float_list,
    },
    "output": {"out_dir": _as_text},
}

#: The [model] keys each family needs, by the family's ``family`` name.
_REQUIRED = {
    LorentzianCoupling.family: {"omega_a", "coupling", "bandwidth"},
    ThresholdPowerLawCoupling.family: {"omega_a", "coupling", "bandwidth", "threshold",
                                       "shape_params"},
    TabulatedCoupling.family: {"omega_a", "table_path"},
}


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
    unknown = mapping.keys() - _SCHEMA.keys()
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    if "model" not in mapping:
        raise ConfigError("missing [model] section")

    sections = {}
    for section, readers in _SCHEMA.items():
        raw = mapping.get(section, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"[{section}] must be a mapping of keys, got {raw!r}")
        bad = raw.keys() - readers.keys()
        if bad:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(bad))}")
        sections[section] = {key: readers[key](section, key, v) for key, v in raw.items()}

    model = sections["model"]
    family = model.get("family")
    if family not in _REQUIRED:
        raise ConfigError(
            f"[model] family must be one of {', '.join(_REQUIRED)}, got {family!r}"
        )
    missing = _REQUIRED[family] - set(model)
    if missing:
        raise ConfigError(f"[model] missing key(s) for family={family}: "
                          f"{', '.join(sorted(missing))}")
    return RunConfig(base_dir=base_dir, **sections)


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file.

    Raises
    ------
    ConfigError
        Missing file, malformed INI, unknown section/key, a value
        failing the finite-decimal rule, or a count below its bound.
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
