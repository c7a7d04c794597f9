"""Model layer: pole caching, method dispatch, and the log-survival path.

`TPL_P_AT_20` is the spectral-route anchor shared with test_amplitude;
late-time ln P of the power law is checked against the independent
reference of spectral_reference.
"""

import math

import numpy as np
import pytest

from spectral_reference import reference_amplitude
from zenodecay.amplitude import SurvivalMethod
from zenodecay.errors import DomainError, NoDecayError
from zenodecay.formfactor import LorentzianCoupling, zeno_time
from zenodecay.model import DecayModel, ExponentialDecayModel
from zenodecay.resolvent import find_pole

TPL_P_AT_20 = 0.38663169624403476  # anchor shared with test_amplitude


def test_constructor_rejects_non_form_factor():
    with pytest.raises(TypeError):
        DecayModel(object(), 2.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_constructor_rejects_nonfinite_level(lor, bad):
    with pytest.raises(DomainError):
        DecayModel(lor, bad)


def test_pole_properties_match_find_pole(lor):
    model = DecayModel(lor, 2.0)
    pole = find_pole(lor, 2.0)
    assert model.gamma0 == pole.gamma0
    assert model.z_renorm == pole.z_renorm
    assert model.pole is model.pole  # cached, not re-searched


def test_scale_passthrough(lor):
    model = DecayModel(lor, 2.0)
    assert model.bandwidth == lor.bandwidth
    assert model.zeno_time == zeno_time(lor)


def test_default_method_dispatch(lor, tpl):
    assert DecayModel(lor, 2.0).default_method() is SurvivalMethod.CLOSED_FORM
    assert DecayModel(tpl, 0.7).default_method() is SurvivalMethod.SPECTRAL_INTEGRAL


def test_series_method_tags_follow_dispatch(lor, tpl):
    s = DecayModel(lor, 2.0).survival_series([0.5])
    assert s.method is SurvivalMethod.CLOSED_FORM
    s = DecayModel(tpl, 0.7).survival_series([0.5])
    assert s.method is SurvivalMethod.SPECTRAL_INTEGRAL


def test_explicit_pole_approximation(lor):
    model = DecayModel(lor, 2.0)
    s = model.survival_series([0.0], method=SurvivalMethod.POLE_APPROX)
    assert s.method is SurvivalMethod.POLE_APPROX
    assert s.probabilities[0] == pytest.approx(model.z_renorm, rel=1e-14)


def test_closed_form_refused_off_family(tpl):
    with pytest.raises(DomainError):
        DecayModel(tpl, 0.7).survival_series([1.0], method=SurvivalMethod.CLOSED_FORM)


def test_unknown_method_rejected(lor):
    with pytest.raises(ValueError):
        DecayModel(lor, 2.0).survival_series([1.0], method="magic")


def test_amplitudes_helper_matches_series(lor):
    model = DecayModel(lor, 2.0)
    times = [0.0, 0.3, 1.7]
    assert np.array_equal(model.amplitudes(times), model.survival_series(times).amplitudes)


def test_log_survival_zero_time(lor):
    assert abs(DecayModel(lor, 2.0).log_survival_probability(0.0)) < 1e-14


def test_log_survival_matches_series(lor):
    model = DecayModel(lor, 2.0)
    p_direct = model.survival_series([1.0]).probabilities[0]
    assert model.survival_probability(1.0) == pytest.approx(p_direct, rel=1e-11)


def test_log_survival_small_interval_quadratic_law(lor):
    # At the small-interval handover (tau ~ 1e-3/bandwidth) the deviation
    # 1 - P ~ 1e-8 sits far below a naive |x|^2 - 1 in doubles; the
    # compensated path must still show the quadratic Zeno law.
    model = DecayModel(lor, 2.0)
    tau = 1e-3
    ratio = -model.log_survival_probability(tau) * model.zeno_time**2 / tau**2
    assert ratio == pytest.approx(1.0, rel=1e-3)


def test_log_survival_far_tail_lorentzian(lor):
    model = DecayModel(lor, 2.0)
    expected = math.log(model.z_renorm) - model.gamma0 * 2000.0
    assert model.log_survival_probability(2000.0) == pytest.approx(expected, rel=1e-13)
    # Far beyond amplitude underflow the logarithm stays representable.
    deep = math.log(model.z_renorm) - model.gamma0 * 1e9
    assert model.log_survival_probability(1e9) == pytest.approx(deep, rel=1e-14)


def test_log_survival_power_law_tail(tpl):
    # ThresholdPowerLaw(0.1, 1.0, 0.0, 0.5, 4.0) at omega_a = 0.7: by
    # t = 2000 the power-law tail of x(t) dwarfs the pole term
    # (ln P = -30.36 against ln Z - gamma0 t = -104.08).
    model = DecayModel(tpl, 0.7)
    expected = math.log(abs(reference_amplitude(tpl, 0.7, 2000.0)) ** 2)
    assert model.log_survival_probability(2000.0) == pytest.approx(expected, rel=1e-9)


def test_log_survival_power_law_inside_budget(tpl):
    model = DecayModel(tpl, 0.7)
    assert model.log_survival_probability(20.0) == pytest.approx(math.log(TPL_P_AT_20), rel=1e-9)


def test_exponential_model_validation():
    with pytest.raises(NoDecayError):
        ExponentialDecayModel(0.0)
    with pytest.raises(NoDecayError):
        ExponentialDecayModel(math.nan)
    with pytest.raises(ValueError):
        ExponentialDecayModel(0.25, z_renorm=0.0)


def test_exponential_model_is_exact():
    plain = ExponentialDecayModel(0.25)
    assert plain.log_survival_probability(3.0) == -0.75
    assert plain.survival_probability(3.0) == math.exp(-0.75)
    assert plain.zeno_time == math.inf
    dressed = ExponentialDecayModel(0.25, z_renorm=1.1)
    assert dressed.log_survival_probability(3.0) == pytest.approx(
        math.log(1.1) - 0.75, rel=1e-15
    )


def test_reprs_name_their_parameters(lor):
    assert "omega_a=2.0" in repr(DecayModel(lor, 2.0))
    assert "gamma0=0.25" in repr(ExponentialDecayModel(0.25))
