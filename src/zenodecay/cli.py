"""Command-line front end.

Subcommands (all take ``--config PATH`` and ``--out DIR``):

``survival``
    Time series of the survival amplitude/probability for the chosen
    methods -> ``survival.csv`` with columns t, Re x, Im x, P per method.
``rate``
    Effective-rate curve gamma(tau) on a log grid -> ``rate.csv`` with
    columns tau, gamma, gamma0.
``transition``
    Transition-time search from min(1e-4/bandwidth, jump time/100) up to
    ``tau_max`` -> ``transition.json`` (the report's fields + config echo).
``sweep``
    Rate curve + transition report per omega_a value; one CSV per entry
    under a content-addressed name, plus ``sweep_summary.json``.  The
    coupling is built once for all entries; every run recomputes and
    rewrites each entry.

Every ``[task]`` value was checked when the config was parsed
(:mod:`zenodecay.config`), whichever subcommand runs; what is left here
is the model-dependent defaults and the two range checks they take part
in, 0 < tau_min < tau_max and 0 <= t_min < t_max.

Exit codes: 0 success, 2 configuration/domain error, 3 numerical
tolerance failure, 4 no-decay input.  Errors are printed to stderr as a
single ``zenodecay: error code=.. kind=.. msg=..`` line.

Outputs are deterministic: floats are written as shortest round-trip
decimals, JSON keys are sorted, grids and sweep entries are evaluated in
order, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from .amplitude import SurvivalMethod
from .config import RunConfig, parse_config
from .errors import (
    ConfigError,
    ContinuationUnsupportedError,
    ConvergenceError,
    DomainError,
    GridError,
    NoDecayError,
    ToleranceError,
)
from .model import DecayModel
from .zeno import effective_rate_curve, find_transition_time

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_NO_DECAY = 4

_CONFIG_ERRORS = (ConfigError, DomainError, ContinuationUnsupportedError)
_TOLERANCE_ERRORS = (ToleranceError, ConvergenceError, GridError)


def _write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _csv(header: list[str], columns) -> str:
    """CSV text of equal-length float columns, each float as its shortest
    round-trip decimal (``repr`` of the Python float); a scalar column
    holds one value on every row, and takes one ``repr``."""
    cells = [itertools.repeat(repr(float(c))) if np.ndim(c) == 0
             else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _build_model(cfg: RunConfig) -> DecayModel:
    return DecayModel(cfg.build_form_factor(), cfg.model["omega_a"])


def _tau_grid(cfg: RunConfig, model: DecayModel):
    tau_min = cfg.task.get("tau_min", 1e-4 / model.bandwidth)
    tau_max = cfg.task.get("tau_max", 100.0 / model.gamma0)
    if not (0.0 < tau_min < tau_max):
        raise ConfigError(f"need 0 < tau_min < tau_max, got {tau_min}, {tau_max}")
    return np.geomspace(tau_min, tau_max, cfg.task.get("tau_points", 256))


def _run_survival(cfg: RunConfig, out_dir: str) -> str:
    model = _build_model(cfg)
    t_min = cfg.task.get("t_min", 0.0)
    t_max = cfg.task.get("t_max", 50.0 / model.bandwidth)
    if not (0.0 <= t_min < t_max):
        raise ConfigError(f"need 0 <= t_min < t_max, got {t_min}, {t_max}")
    times = np.linspace(t_min, t_max, cfg.task.get("t_points", 201))
    columns = [times]
    header = ["t"]
    for name in cfg.task.get("methods", [model.default_method().value]):
        series = model.survival_series(times, SurvivalMethod(name))
        columns += [series.amplitudes.real, series.amplitudes.imag, series.probabilities]
        header += [f"re_x_{name}", f"im_x_{name}", f"p_{name}"]
    return _write_text(os.path.join(out_dir, "survival.csv"), _csv(header, columns))


def _write_rate(cfg: RunConfig, model: DecayModel, path: str) -> str:
    curve = effective_rate_curve(model, _tau_grid(cfg, model))
    return _write_text(path, _csv(["tau", "gamma", "gamma0"],
                                  (curve.taus, curve.gammas, curve.gamma0)))


def _transition_payload(cfg: RunConfig, model: DecayModel) -> dict:
    """The transition report's own fields; the window starts at min(1e-4/Λ, jump time/100)."""
    search = {key: cfg.task[key] for key in ("tau_max", "grid_points") if key in cfg.task}
    return dataclasses.asdict(find_transition_time(model, **search))


def _run_rate(cfg: RunConfig, out_dir: str) -> str:
    return _write_rate(cfg, _build_model(cfg), os.path.join(out_dir, "rate.csv"))


def _run_transition(cfg: RunConfig, out_dir: str) -> str:
    payload = {**_transition_payload(cfg, _build_model(cfg)), "config": cfg.echo()}
    return _write_text(os.path.join(out_dir, "transition.json"), _json_text(payload))


def _run_sweep(cfg: RunConfig, out_dir: str) -> str:
    values = cfg.task.get("omega_a_values")
    if not values:
        raise ConfigError("[task] omega_a_values is required for sweep")
    task = {k: v for k, v in cfg.task.items() if k != "omega_a_values"}
    # The coupling does not depend on omega_a: one build serves every entry.
    ff = cfg.build_form_factor()
    entries = []
    for omega_a in values:
        key = _json_text({"model": {**cfg.model, "omega_a": omega_a}, "task": task}).encode()
        csv_name = f"rate_{hashlib.sha256(key).hexdigest()[:16]}.csv"
        model = DecayModel(ff, omega_a)
        _write_rate(cfg, model, os.path.join(out_dir, csv_name))
        entries.append({"omega_a": omega_a, "csv": csv_name, **_transition_payload(cfg, model)})
    payload = {"entries": entries, "config": cfg.echo()}
    return _write_text(os.path.join(out_dir, "sweep_summary.json"), _json_text(payload))


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="zenodecay",
        description="Survival probability and measurement-modified decay rates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fn in (
        ("survival", _run_survival),
        ("rate", _run_rate),
        ("transition", _run_transition),
        ("sweep", _run_sweep),
    ):
        sp = sub.add_parser(name, help=f"run the {name} task")
        sp.add_argument("--config", required=True, help="path to the run config file")
        sp.add_argument("--out", default=None, help="output directory (overrides [output])")
        sp.set_defaults(runner=fn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        # Each runner writes its artifacts and returns the path to print.
        print(args.runner(cfg, args.out if args.out is not None else cfg.out_dir))
        return EXIT_OK
    except _CONFIG_ERRORS as exc:
        return _fail(EXIT_CONFIG, exc)
    except _TOLERANCE_ERRORS as exc:
        return _fail(EXIT_TOLERANCE, exc)
    except NoDecayError as exc:
        return _fail(EXIT_NO_DECAY, exc)


def _fail(code: int, exc: Exception) -> int:
    msg = " ".join(str(exc).split())
    print(f"zenodecay: error code={code} kind={type(exc).__name__} msg={msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
