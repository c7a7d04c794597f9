"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion checks the library against an oracle that does not share
code with the implementation under test: the quadratic pole algebra of
the Lorentzian model (solved inline with numpy's polynomial roots), the
closed renormalization formula, elementary rate identities, or byte
comparison of emitted artifacts.  Verdict lines are printed immediately
(visible with ``pytest -s`` and on failure) and collected in
``VERDICTS``, which the conftest terminal-summary hook echoes after a
captured run.
"""

import json
import math
import sys

import numpy as np
import pytest

from zenodecay.amplitude import (
    survival_closed_form_lorentzian,
    survival_spectral_integral,
)
from zenodecay.cli import main as cli_main
from zenodecay.formfactor import LorentzianCoupling
from zenodecay.model import DecayModel
from zenodecay.resolvent import find_pole
from zenodecay.zeno import (
    effective_rate,
    find_transition_time,
    interpolated_survival,
    repeated_survival,
)

LAM, BW = 0.1, 1.0
OMEGA_GRID = (0.0, 2.0, 10.0)
FF = LorentzianCoupling(LAM, BW)

VERDICTS: list[str] = []


def verdict(num: int, ok: bool, name: str, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def oracle_pole(omega_a: float):
    """Decaying root of (E - omega_a)(E + i*BW) = LAM^2, with gamma0 and Z.

    Independent route: numpy polynomial roots on the quadratic, picking
    the resonance branch (smaller |Im|); Z from the explicit derivative
    of the second-sheet self-energy LAM^2/(E + i*BW).
    """
    roots = np.roots([1.0, 1j * BW - omega_a, -(1j * BW * omega_a + LAM**2)])
    E = min(roots, key=lambda r: abs(r.imag))
    z = abs(1.0 + LAM**2 / (E + 1j * BW) ** 2) ** (-2)
    return complex(E), float(-2.0 * E.imag), float(z)


def closed_renormalization(omega_a: float) -> float:
    """Z from the explicit radicals of the Lorentzian pole position."""
    if omega_a == 0.0:
        om2 = 4.0 * LAM**2 - BW**2
        delta = 0.0
        gamma0 = BW - math.sqrt((abs(om2) - om2) / 2.0)
    else:
        om2 = omega_a**2 + 4.0 * LAM**2 - BW**2
        root = math.sqrt(om2 * om2 + 4.0 * omega_a**2 * BW**2)
        delta = -omega_a / 2.0 + (omega_a / 2.0) * math.sqrt(
            (root + om2) / (2.0 * omega_a**2)
        )
        gamma0 = BW - math.sqrt((root - om2) / 2.0)
    num = (omega_a + delta) ** 2 + (BW - gamma0 / 2.0) ** 2
    den = (omega_a + 2.0 * delta) ** 2 + (BW - gamma0) ** 2
    return num / den


def test_c01_unit_norm():
    worst = 0.0
    for omega_a in OMEGA_GRID:
        p_closed = survival_closed_form_lorentzian(LAM, BW, omega_a, [0.0]).probabilities[0]
        p_spectral = survival_spectral_integral(FF, omega_a, [0.0]).probabilities[0]
        worst = max(worst, abs(p_closed - 1.0), abs(p_spectral - 1.0))
    verdict(1, worst < 1e-12, "unit norm at t=0",
            f"max |P(0)-1| = {worst:.2e} (tolerance 1e-12)")


def test_c02_closed_form_vs_spectral_inversion():
    times = np.linspace(0.0, 50.0, 101)
    worst = 0.0
    for omega_a in OMEGA_GRID:
        xs = survival_spectral_integral(FF, omega_a, times).amplitudes
        xc = survival_closed_form_lorentzian(LAM, BW, omega_a, times).amplitudes
        worst = max(worst, float(np.max(np.abs(xs - xc))))
    verdict(2, worst < 1e-6, "spectral vs closed-form amplitude",
            f"max |x_spectral - x_closed| = {worst:.2e} on t in [0, 50] (tolerance 1e-6)")


def test_c03_pole_against_quadratic_oracle():
    worst_rel = 0.0
    worst_resid = 0.0
    for omega_a in OMEGA_GRID:
        e_or, gamma_or, z_or = oracle_pole(omega_a)
        pole = find_pole(FF, omega_a)
        delta_or = e_or.real - omega_a
        worst_rel = max(
            worst_rel,
            abs((pole.e_pole.real - omega_a) - delta_or) / max(abs(delta_or), abs(e_or)),
            abs(pole.gamma0 - gamma_or) / gamma_or,
            abs(pole.z_renorm - z_or) / z_or,
        )
        resid = abs((pole.e_pole - omega_a) * (pole.e_pole + 1j * BW) - LAM**2)
        worst_resid = max(worst_resid, resid)
    ok = worst_rel < 1e-10 and worst_resid < 1e-10
    verdict(3, ok, "pole search vs quadratic-root oracle",
            f"max rel dev (Delta, gamma0, Z) = {worst_rel:.2e}, "
            f"max |pole equation residual| = {worst_resid:.2e} (tolerances 1e-10)")


def test_c04_renormalization_dual_formula():
    worst = 0.0
    for omega_a in OMEGA_GRID:
        z_derivative = find_pole(FF, omega_a).z_renorm  # |1 - Sigma'(E_pole)|^-2
        z_closed = closed_renormalization(omega_a)
        worst = max(worst, abs(z_derivative - z_closed) / z_closed)
    verdict(4, worst < 1e-10, "Z dual-formula consistency",
            f"max rel dev = {worst:.2e} (tolerance 1e-10)")


def test_c05_linear_zeno_regime():
    taus = np.geomspace(1e-4, 0.05, 21)
    worst = 0.0
    for omega_a in OMEGA_GRID:
        model = DecayModel(FF, omega_a)
        for tau in taus:
            worst = max(worst, abs(effective_rate(model, tau) / (LAM**2 * tau) - 1.0))
    verdict(5, worst < 0.05, "linear small-interval regime",
            f"max |gamma/(lambda^2 tau) - 1| = {worst:.4f} for tau <= 0.05 (tolerance 5%)")


def test_c06_asymptotic_rate_recovery():
    _, gamma_or, z_or = oracle_pole(0.0)
    model = DecayModel(FF, 0.0)
    worst = max(
        abs(effective_rate(model, tau) - (gamma_or - math.log(z_or) / tau))
        for tau in np.linspace(30.0, 100.0, 15)
    )
    verdict(6, worst < 1e-4, "asymptotic rate recovery",
            f"max |gamma(tau) - (gamma0 - ln(Z)/tau)| = {worst:.2e} "
            f"on tau in [30, 100] (tolerance 1e-4)")


def test_c07_transition_existence_map():
    found, absent = [], []
    for ratio in (1.5, 2.0, 5.0, 10.0):
        found.append(find_transition_time(DecayModel(FF, ratio * BW)).tau_star)
    for ratio in (0.0, 0.5, 0.8):
        absent.append(find_transition_time(DecayModel(FF, ratio * BW)).tau_star)
    ok = all(t is not None and t > 0 for t in found) and all(t is None for t in absent)
    verdict(7, ok, "transition existence map",
            f"tau* found for omega_a/bw in (1.5, 2, 5, 10): "
            f"{['%.3g' % t for t in found]}; none for (0, 0.5, 0.8): {absent}")


def test_c08_jump_time_estimate():
    model = DecayModel(FF, 10.0)
    report = find_transition_time(model)
    jump = report.jump_time
    rel = abs(report.tau_star - jump) / jump
    ok = rel < 0.25 and jump <= report.tau_star
    verdict(8, ok, "jump-time estimate",
            f"tau* = {report.tau_star:.6g}, gamma0*tz^2 = {jump:.6g}, "
            f"rel dev = {rel:.4f} (tolerance 25%, lower bound holds: {jump <= report.tau_star})")


def test_c09_sufficiency_theorem_property():
    rng = np.random.default_rng(20260825)
    tested = 0
    for _ in range(200):
        lam = rng.uniform(0.01, 0.3)
        omega_a = rng.uniform(0.0, 20.0) * BW
        model = DecayModel(LorentzianCoupling(lam, BW), omega_a)
        if model.z_renorm < 1.0 - 1e-3:
            tested += 1
            report = find_transition_time(model)
            if report.tau_star is None:
                verdict(9, False, "Z<1 sufficiency theorem",
                        f"no root for lambda={lam}, omega_a={omega_a}")
    verdict(9, tested > 0, "Z<1 sufficiency theorem",
            f"root found for all {tested}/200 random models with Z < 1 - 1e-3")


def test_c10_repeated_measurement_identity():
    rng = np.random.default_rng(917)
    worst = 0.0
    for _ in range(200):
        p = rng.uniform(0.0, 1.0)
        n = int(rng.integers(0, 1_000_001))
        power = repeated_survival(p, n)
        via_exp = math.exp(n * math.log(p)) if p > 0.0 else (1.0 if n == 0 else 0.0)
        if power > 1e-290 and via_exp > 1e-290:
            worst = max(worst, abs(power / via_exp - 1.0))
        else:
            assert power <= 1e-290 and via_exp <= 1e-290
        # Stroboscopic identity with tau = 1: gamma = -ln p, t = n*tau, and
        # the interpolating exponential reproduces exp(n ln p) bitwise.
        gamma = -math.log(p) if p > 0.0 else math.inf
        if p > 0.0:
            assert interpolated_survival(gamma, n * 1.0) == via_exp
    verdict(10, worst < 1e-12, "repeated-measurement identity",
            f"max rel dev of P^n vs exp(n ln P) = {worst:.2e} over 200 draws, "
            f"n up to 1e6 (tolerance 1e-12); stroboscopic equality exact")


def test_c11_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[model]\n"
        "family = lorentzian\n"
        "coupling = 0.1\n"
        "bandwidth = 1.0\n"
        "omega_a = 2.0\n"
        "[task]\n"
        "omega_a_values = 2, 10\n"
        "tau_min = 1e-3\n"
        "tau_max = 30.0\n"
        "tau_points = 128\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"

    def run():
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
        names = ["sweep_summary.json"] + [e["csv"] for e in summary["entries"]]
        return {name: (out / name).read_bytes() for name in names}

    first = run()
    rerun = run()
    ok = first == rerun
    verdict(11, ok, "sweep determinism",
            f"{len(first)} artifacts byte-identical across two full runs")
