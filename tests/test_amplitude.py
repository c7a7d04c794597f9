"""Survival amplitude: closed form, spectral route, pole approximation."""

import math

import numpy as np
import pytest

from spectral_reference import reference_amplitude
from test_selfenergy import _Semicircle
from zenodecay.amplitude import (
    SurvivalMethod,
    SurvivalSeries,
    pole_approximation,
    spectral_density,
    survival_closed_form_lorentzian,
    survival_spectral_integral,
)
from zenodecay.errors import DomainError
from zenodecay.formfactor import LorentzianCoupling, ThresholdPowerLawCoupling
from zenodecay.resolvent import find_pole, lorentzian_pole_closed_form
from zenodecay.formfactor import zeno_time

# Spectral-route survival probabilities for the threshold power law
# (0.1, 1, 0, 1/2, 4) at omega_a = 0.7, frozen after cross-validation
# against the pole asymptote (agreement 7e-5 relative at t = 5) and the
# t = 0 norm (1 to 2.5e-11).
TPL_P_FROZEN = {
    0.5: 0.9975421045317134,
    5.0: 0.8442501549963165,
    20.0: 0.38663169624403476,
}


# -- closed form -------------------------------------------------------


def test_closed_form_unit_norm_at_zero():
    for omega_a in (0.0, 2.0, 10.0):
        s = survival_closed_form_lorentzian(0.1, 1.0, omega_a, [0.0])
        assert abs(s.amplitudes[0] - 1.0) < 1e-12


def test_closed_form_free_evolution_limit():
    t = np.array([0.0, 1.0, 7.5])
    s = survival_closed_form_lorentzian(1e-6, 1.0, 2.0, t)
    assert np.allclose(s.amplitudes, np.exp(-2.0j * t), atol=1e-10)
    assert np.all(s.probabilities > 1.0 - 1e-10)


def test_closed_form_rejects_negative_times():
    with pytest.raises(DomainError):
        survival_closed_form_lorentzian(0.1, 1.0, 2.0, [-1.0])


def test_series_probabilities_are_squared_moduli():
    t = np.linspace(0.0, 30.0, 40)
    s = survival_closed_form_lorentzian(0.1, 1.0, 2.0, t)
    assert np.max(np.abs(s.probabilities - np.abs(s.amplitudes) ** 2)) < 1e-14
    assert np.all(s.probabilities <= 1.0 + 1e-9)
    assert s.method is SurvivalMethod.CLOSED_FORM


def test_short_time_expansion_is_quadratic(lor):
    tz = zeno_time(lor)
    for t in (1e-3, 5e-3, 1e-2):
        p = survival_closed_form_lorentzian(0.1, 1.0, 2.0, [t]).probabilities[0]
        assert (1.0 - p) * tz**2 / t**2 == pytest.approx(1.0, rel=0.02)


# -- spectral route ----------------------------------------------------


def test_spectral_matches_closed_form(lor):
    t = np.linspace(0.0, 50.0, 26)
    closed = survival_closed_form_lorentzian(0.1, 1.0, 2.0, t)
    spectral = survival_spectral_integral(lor, 2.0, t)
    assert np.max(np.abs(spectral.amplitudes - closed.amplitudes)) < 1e-6
    assert spectral.method is SurvivalMethod.SPECTRAL_INTEGRAL
    # Late times take the same panel sum; x(-t) = conj x(t).
    late = np.array([2000.0, 4000.0, 5000.0, -6000.0])
    closed = survival_closed_form_lorentzian(0.1, 1.0, 2.0, np.abs(late)).amplitudes
    closed = np.where(late < 0.0, np.conj(closed), closed)
    spectral = survival_spectral_integral(lor, 2.0, late).amplitudes
    assert np.max(np.abs(spectral - closed)) < 1e-12


def test_spectral_unit_norm(lor, tpl, tab_lorentzian):
    assert abs(survival_spectral_integral(lor, 2.0, [0.0]).probabilities[0] - 1.0) < 1e-12
    assert abs(survival_spectral_integral(tpl, 0.7, [0.0]).probabilities[0] - 1.0) < 1e-8
    assert (
        abs(survival_spectral_integral(tab_lorentzian, 2.0, [0.0]).probabilities[0] - 1.0)
        < 1e-8
    )


def test_spectral_threshold_family_frozen_values(tpl):
    times = sorted(TPL_P_FROZEN)
    s = survival_spectral_integral(tpl, 0.7, times)
    for t, p in zip(times, s.probabilities):
        assert p == pytest.approx(TPL_P_FROZEN[t], rel=1e-6)


def test_spectral_time_reversal_conjugation(lor):
    t = np.array([-7.0, -2.0, 2.0, 7.0])
    s = survival_spectral_integral(lor, 2.0, t)
    assert s.amplitudes[0] == pytest.approx(np.conj(s.amplitudes[3]), abs=1e-10)
    assert s.amplitudes[1] == pytest.approx(np.conj(s.amplitudes[2]), abs=1e-10)


def test_spectral_tabulated_tracks_lorentzian(tab_lorentzian):
    # A table has no pole; late times take the panel sum like early ones.
    t = np.concatenate((np.linspace(1.0, 40.0, 14), [100.0, 300.0, 1000.0]))
    a = survival_spectral_integral(tab_lorentzian, 2.0, t).amplitudes
    b = survival_closed_form_lorentzian(0.1, 1.0, 2.0, t).amplitudes
    # Bounded by the table's linear-interpolation error, not quadrature.
    assert np.max(np.abs(a - b)) < 5e-6


def test_spectral_includes_bound_state(tpl_strong):
    # Nearly half the initial norm sits in a bound state below threshold;
    # omitting it would leave P(0) near 0.57.
    s = survival_spectral_integral(tpl_strong, 0.7, [0.0, 200.0])
    assert abs(s.probabilities[0] - 1.0) < 1e-8
    assert abs(s.amplitudes[1] - reference_amplitude(tpl_strong, 0.7, 200.0)) < 1e-12


@pytest.mark.parametrize(
    "ff, omega_a, late",
    [
        (ThresholdPowerLawCoupling(1.0, 1.0, 0.0, 0.5, 4.0), 2.0, [2000.0]),
        (ThresholdPowerLawCoupling(0.3, 1.0, -0.3, 0.7, 6.0), 1.0, [2000.0]),
        (ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0), 0.7, [289.0, 788.0, 2000.0, 1e4]),
    ],
)
def test_spectral_power_law_matches_reference(ff, omega_a, late):
    # The late times reach the power-law tail past the exponential era.
    x = survival_spectral_integral(ff, omega_a, [30.0] + late).amplitudes
    assert abs(x[0] - reference_amplitude(ff, omega_a, 30.0)) < 1e-9
    for t, xt in zip(late, x[1:]):
        assert abs(xt - reference_amplitude(ff, omega_a, t)) < 1e-12


def test_spectral_custom_family():
    # A FormFactor subclass with only g2, support and moments.
    ff = _Semicircle()
    s = survival_spectral_integral(ff, 0.2, [0.0, 5.0])
    assert abs(s.probabilities[0] - 1.0) < 1e-8
    assert abs(s.amplitudes[1] - reference_amplitude(ff, 0.2, 5.0)) < 1e-9


def test_spectral_density_normalization(lor):
    # rho integrates to 1 (no bound states for the Lorentzian family).
    from scipy import integrate

    val, _ = integrate.quad(
        lambda w: float(spectral_density(lor, 2.0, w)), -np.inf, np.inf,
        epsabs=1e-12, epsrel=1e-10, limit=400,
        points=None,
    )
    assert val == pytest.approx(1.0, abs=5e-7)


# -- pole approximation ------------------------------------------------


def test_pole_approximation_starts_at_z():
    pole = lorentzian_pole_closed_form(0.1, 1.0, 2.0)
    s = pole_approximation(pole, [0.0])
    assert s.probabilities[0] == pytest.approx(pole.z_renorm, rel=1e-14)
    assert s.method is SurvivalMethod.POLE_APPROX


def test_pole_approximation_unity_crossing():
    # P = Z e^{-gamma0 t} passes through 1 exactly at t = ln(Z)/gamma0.
    pole = lorentzian_pole_closed_form(0.1, 1.0, 0.0)  # Z > 1 here
    t_cross = math.log(pole.z_renorm) / pole.gamma0
    s = pole_approximation(pole, [t_cross])
    assert s.probabilities[0] == pytest.approx(1.0, rel=1e-12)


def test_pole_approximation_pure_exponential():
    pole = find_pole(LorentzianCoupling(0.1, 1.0), 2.0)
    t = np.array([0.0, 100.0, 250.0])
    s = pole_approximation(pole, t)
    assert np.allclose(
        s.probabilities, pole.z_renorm * np.exp(-pole.gamma0 * t), rtol=1e-13
    )
    # Phase convention: the amplitude rotates at Re E_pole.
    phase = np.angle(s.amplitudes[1] * np.exp(1j * pole.e_pole.real * 100.0))
    assert phase == pytest.approx(0.0, abs=1e-10)


def test_asymptotic_agreement_with_spectral(lor):
    pole = lorentzian_pole_closed_form(0.1, 1.0, 2.0)
    t = np.array([15.0, 25.0, 40.0])
    spectral = survival_spectral_integral(lor, 2.0, t).probabilities
    asym = pole_approximation(pole, t).probabilities
    assert np.max(np.abs(spectral / asym - 1.0)) < 1e-3


# -- series construction ----------------------------------------------


def test_series_shape_validation():
    with pytest.raises(ValueError):
        SurvivalSeries(
            times=np.array([0.0, 1.0]),
            amplitudes=np.array([1.0 + 0j]),
            probabilities=np.array([1.0, 0.5]),
            method=SurvivalMethod.CLOSED_FORM,
        )
