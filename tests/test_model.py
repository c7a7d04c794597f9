"""Model layer: pole caching, method dispatch, and the log-survival path.

`TPL_P_AT_20` is the spectral-route anchor shared with test_amplitude;
late-time ln P of the power law is checked against the independent
reference of spectral_reference.
"""

import math

import numpy as np
import pytest

from spectral_reference import reference_amplitude
from zenodecay import amplitude
from zenodecay.amplitude import SurvivalMethod
from zenodecay.errors import DomainError, NoDecayError, ToleranceError
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


def test_closed_form_series_shares_the_model_pole(lor):
    # ln P of the series and of the compensated path come from one pole,
    # which the Newton search of the cached pole leaves as it is.
    model = DecayModel(lor, 2.0)
    taus = np.array([10.0, 100.0])
    from_series = np.log(model.survival_series(taus).probabilities)
    direct = [model.log_survival_probability(tau) for tau in taus]
    np.testing.assert_allclose(from_series, direct, rtol=1e-14, atol=0.0)
    for lam, bw, omega_a in [(0.1, 1.0, 2.0), (1.0, 1.0, 0.0), (0.5, 0.25, 0.0), (1e-10, 1.0, 2.0)]:
        model = DecayModel(LorentzianCoupling(lam, bw), omega_a)
        assert model.pole.e_pole == model._closed_form_pair[0]


@pytest.mark.parametrize("omega_a", [0.7, 2.4])
def test_spectral_deficit_only_where_log_survival_uses_it(tpl, omega_a, monkeypatch):
    # The default transition grid; a quarter or more of it has P < 1/2,
    # where ln P takes x and the deficit u is not summed.
    model = DecayModel(tpl, omega_a)
    taus = np.geomspace(1e-4 / model.bandwidth, 100.0 / model.gamma0, 2048)
    deficit, summed = amplitude._deficit, []

    def counted(k, omega_a, ts, *rest):
        summed.append(ts.copy())
        return deficit(k, omega_a, ts, *rest)

    monkeypatch.setattr(amplitude, "_deficit", counted)
    log_p = model.log_survival_probability(taus)
    above = log_p >= -math.log(2.0)
    assert np.mean(~above) > 0.25
    assert np.array_equal(np.concatenate(summed), taus[above])
    # Rows are independent: each tau alone gives the grid's ln P.
    picks = np.arange(0, taus.size, taus.size // 64)
    alone = [model.log_survival_probability(taus[i]) for i in picks]
    assert np.array_equal(alone, log_p[picks])


def test_spectral_log_survival_error_carries_log_p(tpl, monkeypatch):
    # Above its target the panel route raises with the ln P it would
    # return as the error's value, not the amplitudes.
    model = DecayModel(tpl, 2.4)
    taus = np.array([1e-3, 1.0, 100.0])
    log_p = model.log_survival_probability(taus)
    monkeypatch.setattr(amplitude, "SPECTRAL_TOL", 0.0)
    with pytest.raises(ToleranceError, match="above the target") as exc:
        model.log_survival_probability(taus)
    assert np.array_equal(exc.value.value, log_p)


def test_log_survival_small_interval_quadratic_law(lor):
    # At tau ~ 1e-3/bandwidth the deviation 1 - P ~ 1e-8 sits far below
    # a naive |x|^2 - 1 in doubles; the deficit path must still show the
    # quadratic Zeno law.
    model = DecayModel(lor, 2.0)
    tau = 1e-3
    ratio = -model.log_survival_probability(tau) * model.zeno_time**2 / tau**2
    assert ratio == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("lam, bw, omega_a", [(0.1, 1.0, 2.0), (1.0, 1.0, 0.0), (0.3, 2.0, 5.0)])
def test_closed_form_log_survival_against_mpmath(lam, bw, omega_a):
    # ln P of the model's own float pole pair, summed exactly by mpmath
    # (the float C1 + C2 is exactly 1).  Near tau = 1e-3/bandwidth,
    # 1 - P ~ 1e-8 and the factored form alone lost up to 8.5e-9 relative.
    # Below that, Re u is O(tau^2) but its two terms are O(tau) each, and
    # their rounding leaves at most ~3e-16/(tau*bandwidth) relative: up to
    # 1.03e-10 on this grid, 2.2e-10 at worst on a denser one.
    mpmath = pytest.importorskip("mpmath")
    model = DecayModel(LorentzianCoupling(lam, bw), omega_a)
    e1, e2, c1, c2 = (mpmath.mpc(v) for v in model._closed_form_pair)
    taus = np.geomspace(1e-6 / bw, 100.0 / model.gamma0, 200)
    with mpmath.workdps(40):
        assert c1 + c2 == 1
        exact = np.array([float(mpmath.log(abs(c1 * mpmath.exp(-1j * e1 * t)
                                                + c2 * mpmath.exp(-1j * e2 * t)) ** 2))
                          for t in taus])
    got = model.log_survival_probability(taus)
    err = np.abs(got / exact - 1.0)
    head = taus < 1e-3 / bw
    assert np.max(err[head]) <= 5e-10
    assert np.max(err[~head]) <= 1e-12
    assert [model.log_survival_probability(t) for t in taus] == got.tolist()


def test_log_survival_takes_arrays(lor, tpl):
    taus = np.array([[1e-5, 0.3], [20.0, 2000.0]])
    for model in (DecayModel(lor, 2.0), DecayModel(tpl, 0.7), ExponentialDecayModel(0.25, 0.9)):
        got = model.log_survival_probability(taus)
        assert got.shape == taus.shape
        assert got.ravel().tolist() == [model.log_survival_probability(t) for t in taus.ravel()]
        assert isinstance(model.log_survival_probability(np.float64(0.3)), float)


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


@pytest.mark.parametrize("bad", [-1.0, -100.0, math.nan, math.inf, np.array([0.5, -0.5])])
def test_log_survival_refuses_a_negative_or_non_finite_interval(lor, bad):
    # Unchecked, the pair route gives ln P(-100) = +187 (P > 1) and NaN at NaN.
    model = DecayModel(lor, 2.0)
    with pytest.raises(DomainError, match="times must be"):
        model.log_survival_probability(bad)
    assert model.log_survival_probability(0.0) == 0.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, -math.inf, np.array([0.5, -0.5])])
def test_spectral_log_survival_refuses_a_negative_or_non_finite_interval(tpl, bad):
    # Unchecked, the spectral route gives ln P(|tau|) at a negative tau.
    model = DecayModel(tpl, 2.4)
    with pytest.raises(DomainError, match="times must be"):
        model.log_survival_probability(bad)
    assert model.log_survival_probability(0.0) == 0.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_exponential_log_survival_refuses_a_negative_or_non_finite_interval(bad):
    model = ExponentialDecayModel(0.25, z_renorm=1.1)
    with pytest.raises(DomainError, match="times must be"):
        model.log_survival_probability(bad)
    assert model.log_survival_probability(0.0) == math.log(1.1)


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
