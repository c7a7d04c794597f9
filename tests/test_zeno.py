"""Measurement layer: effective rates, regimes, and the transition time.

`TAU_STAR` was frozen from the bisection search after verifying
γ(τ*) = γ₀ to machine precision against the closed-form survival; the
ω_a = 10 case pins the jump-time estimate against the found crossing.
"""

import math

import numpy as np
import pytest

from spectral_reference import reference_amplitude, reference_rate
from zenodecay.errors import DomainError, GridError, NoDecayError
from zenodecay.formfactor import LorentzianCoupling
from zenodecay.model import DecayModel, ExponentialDecayModel
from zenodecay.zeno import (
    CharacteristicScales,
    EffectiveRateCurve,
    ExistenceCriteria,
    Regime,
    TransitionReport,
    characteristic_scales,
    classify_regime,
    effective_rate,
    effective_rate_curve,
    existence_criteria,
    find_transition_time,
    interpolated_survival,
    repeated_survival,
)

# Lorentzian(0.1, 1.0) at omega_a = 2: smallest root of gamma(tau) = gamma0.
TAU_STAR = 0.5037246420094716


@pytest.fixture(scope="module")
def model2(lor):
    return DecayModel(lor, 2.0)


@pytest.fixture(scope="module")
def model10(lor):
    return DecayModel(lor, 10.0)


# -- effective rate -------------------------------------------------------


def test_small_interval_rate_is_linear_in_tau(model2):
    # Below 1e-3/bandwidth the analytic branch applies: gamma = tau/tz^2.
    tau = 1e-5
    assert effective_rate(model2, tau) == tau / model2.zeno_time**2


def test_rate_matches_log_survival_identity(model2):
    for tau in (0.01, 0.5, 3.0):
        expected = -model2.log_survival_probability(tau) / tau
        assert effective_rate(model2, tau) == pytest.approx(expected, rel=1e-12)


def test_rate_approaches_natural_rate_from_asymptote(model2):
    # Once the background has died, gamma(tau) = gamma0 - ln(Z)/tau.
    expected = model2.gamma0 - math.log(model2.z_renorm) / 50.0
    assert effective_rate(model2, 50.0) == pytest.approx(expected, rel=1e-12)


def test_rate_rejects_bad_intervals(model2):
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            effective_rate(model2, bad)


def test_rate_requires_decay():
    silent = DecayModel(LorentzianCoupling(0.0, 1.0), 2.0)
    with pytest.raises(NoDecayError):
        effective_rate(silent, 0.5)


def test_exponential_model_rate_is_flat():
    ideal = ExponentialDecayModel(0.25)
    for tau in (1e-6, 1.0, 40.0):
        assert effective_rate(ideal, tau) == pytest.approx(0.25, rel=1e-15)


# -- rate curve -----------------------------------------------------------


def test_curve_small_interval_head(model2):
    curve = effective_rate_curve(model2, np.geomspace(1e-3, 20.0, 25))
    for tau, gamma in zip(curve.taus[:3], curve.gammas[:3]):
        assert gamma == pytest.approx(tau / model2.zeno_time**2, rel=5e-2)


def test_curve_preserves_order_and_identity(model2):
    taus = np.array([2.0, 0.01, 0.5])
    curve = effective_rate_curve(model2, taus)
    assert np.array_equal(curve.taus, taus)
    for tau, gamma in zip(taus, curve.gammas):
        assert gamma == effective_rate(model2, tau)


class _ScalarOnly:
    """A model seen without its array path: γ(τ) one scalar call at a time."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name == "_log_survival_array":
            raise AttributeError(name)
        return getattr(self._model, name)


def test_curve_array_path_equals_scalar_rates(model2, tpl):
    # Both sides of the small-interval switch at 1e-3/bandwidth, the
    # Lorentzian tail and the power law's spectral route.
    power = DecayModel(tpl, 2.4)
    for model, taus in ((model2, np.geomspace(1e-5, 300.0, 40)),
                        (power, np.geomspace(1e-4, 40.0, 8))):
        curve = effective_rate_curve(model, taus)
        assert curve.gammas.tolist() == [effective_rate(model, t) for t in taus]
    taus = np.geomspace(1e-5, 300.0, 40)
    assert np.array_equal(effective_rate_curve(model2, taus).gammas,
                          effective_rate_curve(_ScalarOnly(model2), taus).gammas)


def test_transition_array_scan_keeps_tau_star(model2, tpl):
    fast = find_transition_time(model2)
    assert fast.tau_star == TAU_STAR
    assert fast.all_roots == find_transition_time(_ScalarOnly(model2)).all_roots
    # Power law at omega_a = 2.4 (Z < 1), pinned from the panel engine;
    # the independent reference rate must cross gamma0 there too.
    model = DecayModel(tpl, 2.4)
    power = find_transition_time(model, tau_max=1.0, grid_points=64)
    assert power.tau_star == pytest.approx(0.3397756166558609, rel=1e-10)
    assert abs(reference_rate(tpl, 2.4, power.tau_star) - model.gamma0) <= 1e-11


def test_transition_reports_late_power_law_crossing(tpl):
    # Past the exponential era the power-law tail of P(tau) overtakes the
    # pole term and gamma(tau) crosses gamma0 again, from above; the
    # reference amplitude must straddle gamma0 at that root too.
    model = DecayModel(tpl, 2.4)
    report = find_transition_time(model, grid_points=64)
    assert len(report.all_roots) == 2
    assert report.tau_star == pytest.approx(0.3397756166558609, rel=1e-10)
    late = report.all_roots[1]
    assert late == pytest.approx(11033.16, rel=1e-6)
    shifts = [
        -math.log(abs(reference_amplitude(tpl, 2.4, tau)) ** 2) / tau - model.gamma0
        for tau in (late * (1.0 - 1e-6), late * (1.0 + 1e-6))
    ]
    assert shifts[0] > 0.0 > shifts[1]


def test_rate_just_above_small_interval_switch(tpl):
    # 1 - P is ~1.5e-8 here, so the rate needs x(tau) to ~1e-13.
    tau = 1.2424e-3
    gamma = effective_rate(DecayModel(tpl, 2.4), tau)
    assert gamma == pytest.approx(reference_rate(tpl, 2.4, tau), rel=1e-5)


def test_curve_rejects_bad_intervals(model2):
    with pytest.raises(DomainError):
        effective_rate_curve(model2, [0.5, 0.0])


def test_curve_regimes_bracket_the_transition(model2):
    curve = effective_rate_curve(model2, [0.1, TAU_STAR, 2.0])
    assert curve.regimes == (Regime.ZENO, Regime.NATURAL, Regime.INVERSE_ZENO)


def test_curve_validation():
    with pytest.raises(ValueError):
        EffectiveRateCurve(taus=np.array([1.0, -1.0]), gammas=np.array([0.1, 0.1]),
                           gamma0=0.1, model=None)
    with pytest.raises(ValueError):
        EffectiveRateCurve(taus=np.array([1.0, 2.0]), gammas=np.array([0.1]),
                           gamma0=0.1, model=None)


# -- stroboscopic survival ------------------------------------------------


def test_repeated_survival_is_a_power():
    assert repeated_survival(0.9, 3) == 0.9**3
    assert repeated_survival(0.9, 0) == 1.0


def test_repeated_survival_domain():
    for bad_p in (-0.1, 1.5):
        with pytest.raises(DomainError):
            repeated_survival(bad_p, 2)
    for bad_n in (-1, 2.5):
        with pytest.raises(DomainError):
            repeated_survival(0.9, bad_n)


def test_interpolating_exponential_passes_through_stroboscopic_points(model2):
    tau = 0.37
    p = model2.survival_probability(tau)
    gamma = effective_rate(model2, tau)
    for n in (1, 4, 11):
        assert interpolated_survival(gamma, n * tau) == pytest.approx(
            repeated_survival(p, n), rel=1e-12
        )


# -- classification -------------------------------------------------------


def test_classify_before_and_after_transition(model2):
    assert classify_regime(model2, 0.1) is Regime.ZENO
    assert classify_regime(model2, 2.0) is Regime.INVERSE_ZENO


def test_classify_natural_inside_dead_band():
    assert classify_regime(ExponentialDecayModel(0.25), 7.0) is Regime.NATURAL


# -- transition search ----------------------------------------------------


def test_transition_time_frozen(model2):
    report = find_transition_time(model2)
    assert report.tau_star == pytest.approx(TAU_STAR, rel=1e-10)
    assert report.all_roots == (report.tau_star,)
    assert effective_rate(model2, report.tau_star) == pytest.approx(model2.gamma0, rel=1e-10)


def test_transition_report_bookkeeping(model2):
    report = find_transition_time(model2)
    assert report.z_renorm == model2.z_renorm
    assert report.criterion_z_less_1 is True
    assert report.lorentzian_asymmetry_holds is True
    assert report.tau_max_searched == pytest.approx(100.0 / model2.gamma0, rel=1e-15)
    assert report.jump_time == model2.gamma0 * model2.zeno_time**2
    assert report.zeno_time == model2.zeno_time


def test_transition_near_jump_time_for_far_detuned_level(model10):
    # Far off resonance the linear estimate gamma0*tz^2 is self-consistent:
    # it lower-bounds tau* and lands within a few percent of it.
    report = find_transition_time(model10)
    assert report.tau_star >= report.jump_time
    assert report.tau_star == pytest.approx(report.jump_time, rel=0.25)


def test_symmetric_level_has_no_transition(lor):
    report = find_transition_time(DecayModel(lor, 0.0))
    assert report.tau_star is None
    assert report.all_roots == ()
    assert report.criterion_z_less_1 is False
    assert report.lorentzian_asymmetry_holds is False


def test_transition_search_flags_untenable_window(model10):
    # Z < 1 promises a crossing; a window that cannot contain it must
    # fail loudly rather than report "no transition".
    with pytest.raises(GridError):
        find_transition_time(model10, tau_max=1e-3)


def test_transition_search_validation(model2):
    with pytest.raises(DomainError):
        find_transition_time(model2, tau_max=-1.0)
    with pytest.raises(DomainError):
        find_transition_time(model2, grid_points=32)


def test_transition_report_validation():
    common = dict(z_renorm=0.9, criterion_z_less_1=True, lorentzian_asymmetry_holds=None,
                  tau_max_searched=10.0, jump_time=0.1, zeno_time=1.0)
    with pytest.raises(ValueError):
        TransitionReport(tau_star=0.2, all_roots=(0.2, 0.1), **common)
    with pytest.raises(ValueError):
        TransitionReport(tau_star=0.2, all_roots=(0.1, 0.3), **common)
    with pytest.raises(ValueError):
        TransitionReport(tau_star=0.2, all_roots=(), **common)


# -- diagnostics ----------------------------------------------------------


def test_existence_criteria_cases(lor):
    above = existence_criteria(DecayModel(lor, 2.0))
    assert above == ExistenceCriteria(z_less_1=True, asymmetry=True, near_boundary=True)
    symmetric = existence_criteria(DecayModel(lor, 0.0))
    assert symmetric == ExistenceCriteria(z_less_1=False, asymmetry=False, near_boundary=True)
    ideal = existence_criteria(ExponentialDecayModel(0.25))
    assert ideal == ExistenceCriteria(z_less_1=False, asymmetry=None, near_boundary=False)


def test_characteristic_scales_far_detuned(model10):
    scales = characteristic_scales(model10)
    assert isinstance(scales, CharacteristicScales)
    assert scales.zeno_time == pytest.approx(10.0, rel=1e-12)
    assert scales.jump_time == model10.gamma0 * model10.zeno_time**2
    assert scales.bandwidth_time == 1.0
    assert scales.jump_bandwidth_ratio == pytest.approx(scales.jump_time, rel=1e-15)


def test_zeno_time_scales_inversely_with_coupling():
    doubled = DecayModel(LorentzianCoupling(0.2, 1.0), 2.0)
    assert characteristic_scales(doubled).zeno_time == pytest.approx(5.0, rel=1e-12)


def test_characteristic_scales_refuse_degenerate_models():
    with pytest.raises(NoDecayError):
        characteristic_scales(ExponentialDecayModel(0.25))
    with pytest.raises(NoDecayError):
        characteristic_scales(DecayModel(LorentzianCoupling(0.0, 1.0), 2.0))
