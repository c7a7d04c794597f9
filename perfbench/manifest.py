"""What the benchmark measures: workloads, metrics, units, bounds.

This module is the one source for ``BENCHMARK.json`` at the repository
root; regenerate that file after editing it with

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json
import os

RUN_SECONDS = 30

WORKLOADS = [
    {"name": "lorentzian_cli",
     "why": "closed-form route with no quadrature: CLI survival/rate/transition per model plus "
            "a sweep run twice; its cost is the scalar gamma(tau) loop in zeno/model and cli/config"},
    {"name": "powerlaw_api",
     "why": "general route on the weak threshold power law, Z>1 and Z<1 per round: PV quadrature "
            "in selfenergy (kernel build), oscillatory quadrature in amplitude, pole and tau* search"},
    {"name": "lorentz_spectral",
     "why": "one amplitude layer two ways, both with an exact reference: adaptive quadrature with "
            "closed-form shift (analytic Lorentzian) and knot-aligned panels (20001-knot table)"},
]

#: The three times are host-normalised (hostspeed.py).  Bounds: a third of
#: each is above the spread over ten seeds (BASELINE.md); set-up, the least
#: steady, shares the largest.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "task_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_SPANS_SELF = ("selfenergy.real_shift", "selfenergy.self_energy",
               "amplitude.survival_spectral_integral", "model.survival_series",
               "zeno.effective_rate")
_SPANS_TOTAL = ("resolvent.find_pole", "resolvent.find_bound_states",
                "zeno.find_transition_time", "config.parse_config")
_CLI = ("survival", "rate", "transition", "sweep")
#: Layers whose scipy.quad calls are reported on their own; the rest are "other".
QUAD_LAYERS = ("selfenergy", "resolvent", "amplitude")
_ACC_WITNESSES = ("acc.p0_dev", "acc.x_dev_analytic", "acc.x_dev_table", "acc.rate_rel_dev",
        "acc.gamma0_rel_dev", "acc.tau_star_rel_dev", "acc.z_rel_dev",
        "acc.pl_p0_dev", "acc.pl_norm_excess", "acc.pl_pole_residual")


def _per_layer_names() -> list[str]:
    names = ["formfactor.g2.calls", "formfactor.g2.points"]
    for fn in _SPANS_SELF:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    for fn in _SPANS_TOTAL:
        names += [f"{fn}.calls", f"{fn}.total_s"]
    names += ["resolvent.find_pole.sigma_evals", "amplitude.survival_spectral_integral.points",
              "amplitude.spectral.first_calls", "amplitude.spectral.first_call_s",
              "amplitude.spectral.warm_points", "amplitude.spectral.warm_point_s",
              "amplitude.budget_warnings", "amplitude.kernel_cache.hits",
              "amplitude.kernel_cache.misses", "amplitude.kernel_cache.hit_ratio",
              "model.log_survival_probability.calls", "zeno.brentq.calls"]
    for sub in _CLI:
        names += [f"cli.main.{sub}.calls", f"cli.main.{sub}.self_s"]
    names += ["cli.sweep.entries", "cli.sweep.cache_hits", "cli.sweep.cache_hit_ratio",
              "scipy.quad.calls", "scipy.quad.total_s"]
    for layer in QUAD_LAYERS + ("other",):
        names += [f"scipy.quad.{layer}.calls", f"scipy.quad.{layer}.total_s"]
    names += ["scipy.brentq.calls", "trace.spans", "trace.overhead_frac"]
    return names + list(_ACC_WITNESSES)


def _unit(name: str) -> str:
    if name.startswith("acc."):
        return "1"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


PER_LAYER = [
    {"name": n, "unit": _unit(n), "better": "higher" if n.endswith("hit_ratio") else "lower"}
    for n in _per_layer_names()
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(manifest(), indent=2, ensure_ascii=False) + "\n"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(render())
