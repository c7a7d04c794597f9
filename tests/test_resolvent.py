"""Pole location, closed forms, golden rule, bound states."""

import cmath
import math
import warnings

import numpy as np
import pytest

from zenodecay.errors import (
    BelowThresholdWarning,
    ContinuationUnsupportedError,
    DomainError,
    NoDecayError,
)
from zenodecay.formfactor import LorentzianCoupling, ThresholdPowerLawCoupling
from zenodecay.resolvent import (
    BoundState,
    PoleData,
    find_bound_states,
    find_pole,
    golden_rule_rate,
    lorentzian_pole_closed_form,
)
from zenodecay.amplitude import survival_spectral_integral
from zenodecay.selfenergy import Sheet, self_energy

from test_selfenergy import SHIFT_CASES, _mp_g2, _mp_transform, _Semicircle

# Frozen oracles for lambda = 0.1, Lambda = 1: roots of the quadratic
# level equation (E - omega_a)(E + i*Lambda) = lambda^2, solved
# independently (numpy.roots on the expanded coefficients) before this
# suite was written; Z from |1 - Sigma'(E)|^(-2) with the rational
# closed-form derivative.
LORENTZIAN_ORACLES = {
    0.0: dict(
        e_pole=-0.010102051443364402j,
        delta=0.0,
        gamma0=0.020204102886728803,
        z=1.0207270297464954,
    ),
    2.0: dict(
        e_pole=2.003998375857403 - 0.0019912262577060913j,
        delta=0.003998375857403147,
        gamma0=0.003982452515412183,
        z=0.9975974000716052,
    ),
    10.0: dict(
        e_pole=10.000990004879789 - 9.898088966514562e-05j,
        delta=0.0009900048797888417,
        gamma0=0.00019796177933029124,
        z=0.9998059653684913,
    ),
}

# Threshold power law (0.1, 1, 0, 1/2, 4) at omega_a = 0.7: pole found
# by an independent two-dimensional Newton run on the continued level
# equation, cross-checked against the golden-rule seed.
TPL_POLE = 0.7012012610939448 - 0.026041954629706772j
TPL_Z = 1.095321006389441
TPL_GOLDEN_RULE = 0.049865209204753326

# Strong coupling (lambda = 1) splits off a real level below threshold;
# energy from a bracketed root of E - omega_a - Sigma(E) on the real
# axis below 0, weight from 1/(1 - Sigma'(E)).
STRONG_BOUND_ENERGY = -0.3182564806300048
STRONG_BOUND_WEIGHT = 0.43259714963255735


# -- closed form -------------------------------------------------------


@pytest.mark.parametrize("omega_a", sorted(LORENTZIAN_ORACLES))
def test_closed_form_matches_frozen_oracle(omega_a):
    want = LORENTZIAN_ORACLES[omega_a]
    pole = lorentzian_pole_closed_form(0.1, 1.0, omega_a)
    assert pole.e_pole == pytest.approx(want["e_pole"], rel=1e-13, abs=1e-16)
    assert pole.shift_delta == pytest.approx(want["delta"], abs=1e-15)
    assert pole.gamma0 == pytest.approx(want["gamma0"], rel=1e-13)
    assert pole.z_renorm == pytest.approx(want["z"], rel=1e-13)


def test_closed_form_decomposition_is_exact():
    pole = lorentzian_pole_closed_form(0.1, 1.0, 2.0)
    assert pole.e_pole == complex(pole.omega_a + pole.shift_delta, -pole.gamma0 / 2.0)


def test_closed_form_continuity_to_zero_coupling():
    # gamma0 ~ 2*pi*g2(2) ~ 0.4*lam^2 must stay above the double-precision
    # floor eps*|E| of the quadratic-root arithmetic, so lam = 1e-6 is the
    # smallest clean probe here (find_pole digs deeper; see below).
    pole = lorentzian_pole_closed_form(1e-6, 1.0, 2.0)
    assert pole.e_pole.real == pytest.approx(2.0, abs=1e-10)
    assert pole.gamma0 == pytest.approx(0.0, abs=1e-11)
    assert pole.z_renorm == pytest.approx(1.0, abs=1e-10)


def test_closed_form_symmetric_strong_coupling_branch():
    # lambda > Lambda/2 at omega_a = 0: the quadratic roots split
    # symmetrically about Re E = 0; the closed form must stay on the
    # quadratic-root ground truth rather than the weak-coupling branch.
    lam, bw = 0.8, 1.0
    pole = lorentzian_pole_closed_form(lam, bw, 0.0)
    roots = np.roots([1.0, 1j * bw, -(lam**2)])
    assert min(abs(pole.e_pole - r) for r in roots) < 1e-12


# -- Newton search -----------------------------------------------------


@pytest.mark.parametrize("lam", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("omega_ratio", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_find_pole_agrees_with_closed_form(lam, omega_ratio):
    bw = 1.0
    ff = LorentzianCoupling(lam, bw)
    found = find_pole(ff, omega_ratio * bw)
    closed = lorentzian_pole_closed_form(lam, bw, omega_ratio * bw)
    assert found.shift_delta == pytest.approx(closed.shift_delta, rel=1e-10, abs=1e-13)
    assert found.gamma0 == pytest.approx(closed.gamma0, rel=1e-10)
    assert found.z_renorm == pytest.approx(closed.z_renorm, rel=1e-10)
    assert found.residual < 1e-10 * max(1.0, abs(found.e_pole))


def test_find_pole_near_zero_coupling_limit():
    pole = find_pole(LorentzianCoupling(1e-10, 1.0), 2.0)
    assert pole.e_pole.real == pytest.approx(2.0, abs=1e-12)
    assert pole.gamma0 == pytest.approx(0.0, abs=1e-12)
    assert pole.z_renorm == pytest.approx(1.0, abs=1e-10)


def test_find_pole_threshold_family(tpl):
    pole = find_pole(tpl, 0.7)
    assert pole.e_pole == pytest.approx(TPL_POLE, rel=1e-10)
    assert pole.z_renorm == pytest.approx(TPL_Z, rel=1e-9)
    assert pole.residual < 1e-10 * max(1.0, abs(pole.e_pole))
    assert pole.bound_states == ()


def test_find_pole_input_validation(tpl, tab_lorentzian):
    with pytest.raises(NoDecayError):
        find_pole(LorentzianCoupling(0.0, 1.0), 2.0)
    with pytest.raises(ContinuationUnsupportedError):
        find_pole(tab_lorentzian, 2.0)
    with pytest.raises(DomainError):
        find_pole(tpl, -0.3)  # below the continuum threshold
    with pytest.raises(DomainError):
        find_pole(tpl, 0.0)  # exactly at it


def test_z_dual_formula_consistency():
    # |1 - Sigma'(E_pole)|^(-2) recomputed through the self-energy module
    # must match the closed-form Z.
    for omega_a in (0.0, 2.0, 10.0):
        ff = LorentzianCoupling(0.1, 1.0)
        pole = find_pole(ff, omega_a)
        sv = self_energy(ff, pole.e_pole, Sheet.SECOND)
        assert abs(1.0 - sv.derivative) ** -2 == pytest.approx(
            lorentzian_pole_closed_form(0.1, 1.0, omega_a).z_renorm, rel=1e-10
        )


def test_sign_of_z_minus_one_follows_asymmetry():
    # Outside the O(lambda^2) band around |omega_a| = Lambda the sign of
    # Z - 1 is the sign of Lambda^2 - omega_a^2.
    lam, bw = 0.1, 1.0
    for omega_a in (0.0, 0.3, 0.7, 1.5, 2.0, 4.0, 12.0):
        if abs(omega_a**2 - bw**2) <= 10.0 * lam**2:
            continue
        z = lorentzian_pole_closed_form(lam, bw, omega_a).z_renorm
        assert math.copysign(1.0, z - 1.0) == math.copysign(1.0, bw**2 - omega_a**2)


def test_gamma0_deviation_from_golden_rule_scales_as_lambda_4():
    bw, omega_a = 1.0, 2.0
    devs = []
    for lam in (0.1, 0.05, 0.025):
        pole = lorentzian_pole_closed_form(lam, bw, omega_a)
        devs.append(abs(pole.gamma0 - golden_rule_rate(LorentzianCoupling(lam, bw), omega_a)))
    assert devs[0] / devs[1] == pytest.approx(16.0, rel=0.25)
    assert devs[1] / devs[2] == pytest.approx(16.0, rel=0.25)


# -- golden rule -------------------------------------------------------


def test_golden_rule_lorentzian_rational_point(lor):
    # 2*pi*(0.01/pi)/(4+1) is exactly 0.004.
    assert golden_rule_rate(lor, 2.0) == pytest.approx(0.004, rel=1e-14)


def test_golden_rule_zero_coupling():
    assert golden_rule_rate(LorentzianCoupling(0.0, 1.0), 2.0) == 0.0


def test_golden_rule_at_threshold(tpl):
    assert golden_rule_rate(tpl, 0.0) == 0.0


def test_golden_rule_below_threshold_flags(tpl):
    with pytest.warns(BelowThresholdWarning):
        assert golden_rule_rate(tpl, -1.0) == 0.0


def test_golden_rule_threshold_family_value(tpl):
    assert golden_rule_rate(tpl, 0.7) == pytest.approx(TPL_GOLDEN_RULE, rel=1e-10)


# -- bound states ------------------------------------------------------


def test_weak_coupling_has_no_bound_state(tpl):
    assert find_bound_states(tpl, 0.7) == ()


def test_strong_coupling_bound_state(tpl_strong):
    states = find_bound_states(tpl_strong, 0.7)
    assert len(states) == 1
    (bs,) = states
    assert bs.energy == pytest.approx(STRONG_BOUND_ENERGY, rel=1e-10)
    assert bs.weight == pytest.approx(STRONG_BOUND_WEIGHT, rel=1e-8)
    assert 0.0 < bs.weight < 1.0
    assert bs.energy < tpl_strong.threshold


def test_find_pole_reports_bound_states(tpl_strong):
    pole = find_pole(tpl_strong, 0.7)
    assert len(pole.bound_states) == 1
    assert pole.bound_states[0].energy == pytest.approx(STRONG_BOUND_ENERGY, rel=1e-8)


# -- PoleData validation ----------------------------------------------


def test_pole_data_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        PoleData(
            e_pole=1.0 + 0.5j,  # upper half plane
            omega_a=1.0,
            shift_delta=0.0,
            gamma0=1.0,
            z_renorm=1.0,
            residual=0.0,
        )
    with pytest.raises(ValueError):
        PoleData(
            e_pole=1.0 - 0.5j,
            omega_a=1.0,
            shift_delta=0.0,
            gamma0=-1.0,
            z_renorm=1.0,
            residual=0.0,
        )


# -- pole oracle and bound states past either band edge -----------------


@pytest.mark.parametrize("omega_a", [0.7, 1.1, 2.4])
def test_pole_and_z_match_mpmath(omega_a):
    mp = pytest.importorskip("mpmath")
    case = SHIFT_CASES[0]
    pole = find_pole(ThresholdPowerLawCoupling(*case), omega_a)
    with mp.workdps(20):
        g = _mp_g2(mp, case)

        def level(E):  # E - omega_a - Sigma_II(E): Sigma_I continued through the cut
            return E - omega_a - _mp_transform(mp, case, E, 1) + 2j * mp.pi * g(E)

        E = mp.findroot(level, mp.mpc(omega_a, -mp.pi * g(mp.mpf(omega_a))))
        dsigma = -_mp_transform(mp, case, E, 2) - 2j * mp.pi * mp.diff(g, E)
        z = abs(1 - dsigma) ** -2
    assert pole.e_pole == pytest.approx(complex(E), rel=1e-13)
    assert pole.z_renorm == pytest.approx(float(z), rel=1e-12)


# Semicircle custom family (lambda = 0.3, band [-1, 1]) at omega_a = 0.9:
# above the band the level equation is E - omega_a - 2 lambda^2 (E -
# sqrt(E^2 - 1)) = 0, solved in 30-digit arithmetic, and the weight is
# 1/(1 - Sigma'(E)) with Sigma' = 2 lambda^2 (1 - E/sqrt(E^2 - 1)).  The
# level at -0.9 mirrors it below the band.
SEMICIRCLE_BOUND_ENERGY = 1.0371626542795034
SEMICIRCLE_BOUND_WEIGHT = 0.6673316991267826


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_bound_state_past_either_band_edge(side):
    ff = _Semicircle()
    (bs,) = find_bound_states(ff, side * 0.9)
    assert bs.energy == pytest.approx(side * SEMICIRCLE_BOUND_ENERGY, rel=1e-12)
    assert bs.weight == pytest.approx(SEMICIRCLE_BOUND_WEIGHT, rel=1e-10)
    p0 = survival_spectral_integral(ff, side * 0.9, [0.0]).probabilities[0]
    assert abs(p0 - 1.0) <= 1e-8
