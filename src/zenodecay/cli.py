"""Command-line front end.

Subcommands (all take ``--config PATH``):

``survival``
    Time series of the survival amplitude/probability for the chosen
    methods -> ``survival.csv`` with columns t, Re x, Im x, P per method.
    The only subcommand that takes ``--tolerance`` / ``[task] tolerance``
    (the spectral route's accuracy target), and only when one of its
    methods is ``spectral_integral``; every other case rejects it.
``rate``
    Effective-rate curve gamma(tau) on a log grid -> ``rate.csv`` with
    columns tau, gamma, gamma0.
``transition``
    Transition-time search -> ``transition.json`` (report + config echo).
``sweep``
    Rate curve + transition report per omega_a value; one CSV per entry
    under a content-addressed name, plus ``sweep_summary.json``.  Every
    run recomputes and rewrites each entry.

Exit codes: 0 success, 2 configuration/domain error, 3 numerical
tolerance failure, 4 no-decay input.  Errors are printed to stderr as a
single ``zenodecay: error code=.. kind=.. msg=..`` line.

Outputs are deterministic: floats are written as shortest round-trip
decimals, JSON keys are sorted, grids and sweep entries are evaluated in
order, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from .amplitude import SurvivalMethod, survival_spectral_integral
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


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv(header: list[str], columns) -> str:
    """CSV text of equal-length float columns, each float as its shortest
    round-trip decimal (``repr`` of the Python float)."""
    cells = [np.asarray(c, dtype=float).tolist() for c in columns]
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _build_model(cfg: RunConfig) -> DecayModel:
    return DecayModel(cfg.build_form_factor(), cfg.model["omega_a"])


def _tau_grid(cfg: RunConfig, model: DecayModel):
    task = cfg.task
    tau_min = task.get("tau_min", 1e-4 / model.bandwidth)
    tau_max = task.get("tau_max", 100.0 / model.gamma0)
    points = task.get("tau_points", 256)
    if not (0.0 < tau_min < tau_max):
        raise ConfigError(f"need 0 < tau_min < tau_max, got {tau_min}, {tau_max}")
    if points < 2:
        raise ConfigError(f"tau_points must be at least 2, got {points}")
    return np.geomspace(tau_min, tau_max, points)


def _run_survival(cfg: RunConfig, out_dir: str, tol) -> int:
    model = _build_model(cfg)
    task = cfg.task
    t_min = task.get("t_min", 0.0)
    t_max = task.get("t_max", 50.0 / model.bandwidth)
    points = task.get("t_points", 201)
    if not (0.0 <= t_min < t_max):
        raise ConfigError(f"need 0 <= t_min < t_max, got {t_min}, {t_max}")
    if points < 2:
        raise ConfigError(f"t_points must be at least 2, got {points}")
    times = np.linspace(t_min, t_max, points)
    names = task.get("methods", [model.default_method().value])
    if tol is not None and SurvivalMethod.SPECTRAL_INTEGRAL.value not in names:
        raise ConfigError(
            f"tolerance applies to the spectral_integral method only; methods "
            f"{', '.join(names)} do not use it (drop --tolerance / [task] tolerance)"
        )

    columns = [times]
    header = ["t"]
    for name in names:
        method = SurvivalMethod(name)
        if method is SurvivalMethod.SPECTRAL_INTEGRAL and tol is not None:
            series = survival_spectral_integral(
                model.form_factor, model.omega_a, times, tol=tol
            )
        else:
            series = model.survival_series(times, method)
        columns += [series.amplitudes.real, series.amplitudes.imag, series.probabilities]
        header += [f"re_x_{name}", f"im_x_{name}", f"p_{name}"]
    path = os.path.join(out_dir, "survival.csv")
    _write_text(path, _csv(header, columns))
    print(path)
    return EXIT_OK


def _write_rate(cfg: RunConfig, model: DecayModel, path: str) -> None:
    curve = effective_rate_curve(model, _tau_grid(cfg, model))
    gamma0 = np.full(curve.taus.shape, curve.gamma0)
    _write_text(path, _csv(["tau", "gamma", "gamma0"], (curve.taus, curve.gammas, gamma0)))


def _transition_payload(cfg: RunConfig, model: DecayModel) -> dict:
    report = find_transition_time(
        model,
        tau_max=cfg.task.get("tau_max"),
        grid_points=cfg.task.get("grid_points", 2048),
    )
    return {
        "tau_star": report.tau_star,
        "all_roots": list(report.all_roots),
        "z_renorm": report.z_renorm,
        "criterion_z_less_1": report.criterion_z_less_1,
        "lorentzian_asymmetry_holds": report.lorentzian_asymmetry_holds,
        "tau_max_searched": report.tau_max_searched,
        "jump_time": report.jump_time,
        "zeno_time": report.zeno_time,
    }


def _run_rate(cfg: RunConfig, out_dir: str, tol) -> int:
    path = os.path.join(out_dir, "rate.csv")
    _write_rate(cfg, _build_model(cfg), path)
    print(path)
    return EXIT_OK


def _run_transition(cfg: RunConfig, out_dir: str, tol) -> int:
    payload = _transition_payload(cfg, _build_model(cfg))
    payload["config"] = cfg.echo()
    path = os.path.join(out_dir, "transition.json")
    _write_text(path, _json_text(payload))
    print(path)
    return EXIT_OK


def _run_sweep(cfg: RunConfig, out_dir: str, tol) -> int:
    values = cfg.task.get("omega_a_values")
    if not values:
        raise ConfigError("[task] omega_a_values is required for sweep")
    entries = []
    for omega_a in values:
        entry_cfg = RunConfig(
            model={**cfg.model, "omega_a": omega_a},
            task=cfg.task,
            output=cfg.output,
            base_dir=cfg.base_dir,
        )
        digest = hashlib.sha256(
            _json_text({"model": entry_cfg.model,
                        "task": {k: v for k, v in cfg.task.items() if k != "omega_a_values"}}
                       ).encode()
        ).hexdigest()[:16]
        csv_name = f"rate_{digest}.csv"

        model = _build_model(entry_cfg)
        _write_rate(entry_cfg, model, os.path.join(out_dir, csv_name))
        entries.append({"omega_a": omega_a, "csv": csv_name, **_transition_payload(entry_cfg, model)})

    payload = {"entries": entries, "config": cfg.echo()}
    path = os.path.join(out_dir, "sweep_summary.json")
    _write_text(path, _json_text(payload))
    print(path)
    return EXIT_OK


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
        sp.add_argument(
            "--tolerance", type=float, default=None,
            help="override the spectral quadrature tolerance (survival only)",
        )
        sp.set_defaults(runner=fn, name=name)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        tol = args.tolerance
        if tol is None and "tolerance" in cfg.task:
            tol = cfg.task["tolerance"]
        if tol is not None and not (tol > 0 and math.isfinite(tol)):
            raise ConfigError(f"tolerance must be positive and finite, got {tol}")
        if tol is not None and args.name != "survival":
            raise ConfigError(
                f"tolerance applies to the spectral survival route only; "
                f"'{args.name}' does not use it (drop --tolerance / [task] tolerance)"
            )
        return args.runner(cfg, out_dir, tol)
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
