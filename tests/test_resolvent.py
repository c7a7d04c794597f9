"""Pole location, closed forms, golden rule, bound states."""

import cmath
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from zenodecay import resolvent
from zenodecay.errors import (
    BelowThresholdWarning,
    ContinuationUnsupportedError,
    ConvergenceError,
    DomainError,
    NoDecayError,
)
from zenodecay.formfactor import LorentzianCoupling, ThresholdPowerLawCoupling
from zenodecay.model import DecayModel
from zenodecay.resolvent import (
    BoundState,
    PoleData,
    find_bound_states,
    find_pole,
    golden_rule_rate,
    lorentzian_pole_closed_form,
)
from zenodecay.amplitude import pole_approximation, survival_spectral_integral
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
    # As lam -> 0 the pole tends to omega_a with gamma0 ~ 0.4*lam^2 and Z
    # to 1.  The pair keeps Im E to full relative accuracy, with no
    # eps*|E| floor (see the mpmath grid below); this checks the limit.
    pole = lorentzian_pole_closed_form(1e-6, 1.0, 2.0)
    assert pole.e_pole.real == pytest.approx(2.0, abs=1e-10)
    assert pole.gamma0 == pytest.approx(0.0, abs=1e-11)
    assert pole.z_renorm == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("lam", [1e-10, 1e-6, 1e-3])
def test_closed_form_width_keeps_its_digits_at_weak_coupling(lam):
    # gamma0 = -2 Im E1, with E1 = omega_a + lam^2/(omega_a - E2) free of
    # cancellation, must keep the weak-coupling width
    # 2*lam^2*Lambda/(omega_a^2 + Lambda^2) (times 1 + O(lam^2)) to the last digits.
    pole = lorentzian_pole_closed_form(lam, 1.0, 2.0)
    leading = 2.0 * lam**2 / 5.0
    assert pole.gamma0 == pytest.approx(leading, rel=1e-14 + 2.0 * lam**2)


def test_closed_form_symmetric_strong_coupling_branch():
    # lambda > Lambda/2 at omega_a = 0: the quadratic roots split
    # symmetrically about Re E = 0; the closed form must be one of them.
    lam, bw = 0.8, 1.0
    pole = lorentzian_pole_closed_form(lam, bw, 0.0)
    roots = np.roots([1.0, 1j * bw, -(lam**2)])
    assert min(abs(pole.e_pole - r) for r in roots) < 1e-12


@pytest.mark.parametrize("lam", [0.8, 1.0, 3.0])
def test_symmetric_strong_coupling_pole_has_positive_real_part(lam):
    # At omega_a = 0 with 2*lambda > Lambda the roots mirror each other
    # about Re E = 0 with equal widths and residues; the pole of the level
    # is the one with Re E >= 0, whatever the rounding of the two widths.
    e1, e2, c1, c2 = LorentzianCoupling(lam, 1.0).pole_pair(0.0)
    assert e1.real > 0.0 > e2.real
    assert abs(e1.imag) == pytest.approx(abs(e2.imag), rel=1e-15)
    assert abs(c1) == pytest.approx(abs(c2), rel=1e-15)
    assert lorentzian_pole_closed_form(lam, 1.0, 0.0).e_pole == e1


def test_lorentzian_pair_refuses_a_level_that_does_not_decay():
    with pytest.raises(NoDecayError, match="zero coupling"):
        LorentzianCoupling(0.0, 1.0).pole_pair(2.0)
    # lambda^2 underflows to 0, and no pole leaves the real axis.
    with pytest.raises(DomainError, match="no decaying pole"):
        lorentzian_pole_closed_form(1e-200, 1.0, 2.0)


def _mp_level_pole(mp, lam, bw, omega_a):
    """E, gamma0 and Z of the level's pole from 50-digit roots of the quadratic."""
    with mp.workdps(50):
        lam, bw, omega_a = mp.mpf(lam), mp.mpf(bw), mp.mpf(omega_a)
        b = 1j * bw - omega_a
        root = mp.sqrt(b * b + 4 * (1j * bw * omega_a + lam**2))
        e1, e2 = sorted(((-b + root) / 2, (-b - root) / 2), key=lambda E: abs(E.imag))
        z = abs((e1 + 1j * bw) / (e1 - e2)) ** 2
        return complex(e1), float(-2 * e1.imag), float(z)


@pytest.mark.parametrize("lam", [1e-10, 1e-6, 0.01, 0.1, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("omega_ratio", [-3.0, 0.3, 2.0, 10.0, 1e3, 1e4])
def test_lorentzian_pole_matches_mpmath_roots(lam, omega_ratio):
    # The model's pole (Newton from the family's pair) and the closed form
    # keep every digit of E, gamma0 and Z, from gamma0 ~ 1e-28 at weak
    # coupling far from resonance to lambda = 3.
    mp = pytest.importorskip("mpmath")
    bw = 1.0
    omega_a = omega_ratio * bw
    e_want, gamma0_want, z_want = _mp_level_pole(mp, lam, bw, omega_a)
    model = DecayModel(LorentzianCoupling(lam, bw), omega_a)
    closed = lorentzian_pole_closed_form(lam, bw, omega_a)
    for e, gamma0, z in ((model.pole.e_pole, model.gamma0, model.z_renorm),
                         (closed.e_pole, closed.gamma0, closed.z_renorm)):
        assert abs(e - e_want) <= 1e-14 * abs(e_want)
        assert abs(gamma0 - gamma0_want) <= 1e-14 * gamma0_want
        assert abs(z - z_want) <= 1e-14 * z_want


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


@pytest.mark.parametrize("lam, bw", [(1.0, 1.0), (0.5, 0.25)])
def test_find_pole_seeds_from_closed_form(lam, bw):
    # At omega_a = 0 the golden-rule point -i*lam^2/bw is the second-sheet
    # singularity -i*bw of Sigma when lam = bw, and Newton from it stalls
    # at (0.5, 0.25); the family's closed-form pole is the seed instead.
    found = find_pole(LorentzianCoupling(lam, bw), 0.0)
    assert abs(found.e_pole - lorentzian_pole_closed_form(lam, bw, 0.0).e_pole) <= 1e-12


def test_converged_pole_evaluates_sigma_once(monkeypatch):
    # The closed-form seed meets the residual target at once: the loop's
    # one evaluation of Sigma_II there is also the one Z and the residual use.
    import zenodecay.resolvent as resolvent

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return self_energy(*args, **kwargs)

    monkeypatch.setattr(resolvent, "self_energy", counted)
    pole = find_pole(LorentzianCoupling(0.1, 1.0), 2.0)
    assert len(calls) == 1
    assert pole.residual < 1e-10 * max(1.0, abs(pole.e_pole))


def test_find_pole_near_zero_coupling_limit():
    pole = find_pole(LorentzianCoupling(1e-10, 1.0), 2.0)
    assert pole.e_pole.real == pytest.approx(2.0, abs=1e-12)
    assert pole.gamma0 == pytest.approx(0.0, abs=1e-12)
    assert pole.z_renorm == pytest.approx(1.0, abs=1e-10)


def _fake_sigma(monkeypatch, value, derivative):
    """Make every Sigma_II the pole search asks for value(E), derivative; return the E asked at."""
    asked = []

    def sigma(ff, E, sheet):
        asked.append(E)
        return SimpleNamespace(value=value(E), derivative=derivative)

    monkeypatch.setattr(resolvent, "self_energy", sigma)
    return asked


def test_newton_refuses_a_vanishing_derivative(monkeypatch):
    # Sigma' = 1 makes f'(E) = 1 - Sigma'(E) vanish at the seed.
    _fake_sigma(monkeypatch, lambda E: 0j, 1.0)
    ff = LorentzianCoupling(0.1, 1.0)
    with pytest.raises(ConvergenceError, match="derivative vanished") as exc:
        find_pole(ff, 2.0)
    assert exc.value.trajectory == (ff.pole_pair(2.0)[0],)


@pytest.mark.parametrize("offset", [1e-12, 1e-6])
def test_stalled_newton_keeps_its_best_iterate_within_the_residual_bound(monkeypatch, offset):
    # f(E) = offset at every E: Newton never meets its 1e-13 target, and
    # after 200 steps the best iterate stands only if its residual is
    # within 1e-10*max(1, |E|).  The best iterate keeps its own Sigma: one
    # evaluation per step, none after the loop.
    omega_a = 2.0
    asked = _fake_sigma(monkeypatch, lambda E: E - omega_a - offset, 0.0)
    ff = LorentzianCoupling(0.1, 1.0)
    if offset < 1e-10:
        pole = find_pole(ff, omega_a)
        assert abs(pole.e_pole - ff.pole_pair(omega_a)[0]) <= 201 * offset
        assert pole.residual == pytest.approx(offset, rel=1e-3)
        assert pole.z_renorm == 1.0
    else:
        with pytest.raises(ConvergenceError, match="stalled") as exc:
            find_pole(ff, omega_a)
        assert len(exc.value.trajectory) == 201
    assert len(asked) == 200


def test_newton_without_a_finite_residual_stalls(monkeypatch):
    # A NaN residual never becomes the best iterate, so none stands.
    _fake_sigma(monkeypatch, lambda E: complex(math.nan, 0.0), 0.0)
    with pytest.raises(ConvergenceError, match="stalled: residual inf"):
        find_pole(LorentzianCoupling(0.1, 1.0), 2.0)


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
    for omega_a in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            find_pole(tpl, omega_a)


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


def test_bound_state_far_below_the_threshold_doubles_its_bracket():
    # At lambda = 2 the state lies past the first far point, one bandwidth
    # below the threshold, so the bracket doubles once.  Oracle: the level
    # equation E - omega_a - Sigma_I(E) = 0 and the weight 1/(1 - Sigma_I'(E))
    # with Sigma_I summed by mpmath quadrature.
    mp = pytest.importorskip("mpmath")
    case = (2.0, 1.0, 0.0, 0.5, 4.0)
    ff = ThresholdPowerLawCoupling(*case)
    (bs,) = find_bound_states(ff, 0.5)
    with mp.workdps(30):
        g = _mp_g2(mp, case)

        def transform(E, power):
            return mp.quad(lambda w: g(w) / (E - w) ** power, [0, 1, mp.inf])

        energy = mp.findroot(lambda E: E - 0.5 - transform(E, 1), mp.mpf(-1.36))
        weight = 1 / (1 + transform(energy, 2))
    assert bs.energy < -1.0
    assert bs.energy == pytest.approx(float(energy), rel=1e-13)
    assert bs.weight == pytest.approx(float(weight), rel=1e-12)
    p0 = survival_spectral_integral(ff, 0.5, [0.0]).probabilities[0]
    assert abs(p0 - 1.0) <= 1e-13


def test_no_bound_states_at_zero_coupling():
    assert find_bound_states(_Semicircle(coupling=0.0), 0.9) == ()


def test_bound_state_scan_gives_up_after_60_doublings(monkeypatch):
    # Delta_R(E) = 2E gives the level function F(E) = -E - omega_a, which
    # starts like a bound state past each edge (F > 0 below -1, F < 0
    # above 1) but never changes sign: each side doubles 60 times and
    # reports nothing.
    calls = []

    def shift(ff, E):
        calls.append(E)
        return 2.0 * E

    monkeypatch.setattr(resolvent, "real_shift", shift)
    assert find_bound_states(_Semicircle(), 0.5) == ()
    assert len(calls) == 2 * (1 + 60)


@pytest.mark.parametrize("family", ["semicircle", "tpl_strong", "tab_lorentzian"])
def test_bound_state_probes_keep_a_fresh_shift(request, family, monkeypatch):
    # The scan takes Δ_R at its probe past each finite edge once per
    # instance: the kept value is a fresh real_shift there, and a scan at
    # another level with no bound state calls real_shift no more.
    ff = _Semicircle() if family == "semicircle" else request.getfixturevalue(family)
    find_bound_states(ff, 0.7)
    bw = max(1.0, ff.bandwidth)
    probes = {edge + side * 1e-6 * bw for edge, side in zip(ff.support(), (-1.0, 1.0))
              if math.isfinite(edge)}
    assert set(ff._probe_shifts) == probes
    for near, shift in ff._probe_shifts.items():
        assert shift == resolvent.real_shift(ff, near)
    calls = []
    monkeypatch.setattr(resolvent, "real_shift", lambda ff, E: calls.append(E))
    level = 0.5 * sum(ff.support()) if family != "tpl_strong" else 3.0
    assert find_bound_states(ff, level) == () and calls == []


# -- PoleData validation ----------------------------------------------


def test_pole_data_rejects_inconsistent_fields():
    with pytest.raises(ValueError):
        PoleData(
            e_pole=1.0 + 0.5j,  # upper half plane
            omega_a=1.0,
            z_renorm=1.0,
            residual=0.0,
        )


def test_pole_data_derives_gamma0_and_shift_from_the_pole():
    pole = PoleData(e_pole=2.004 - 0.002j, omega_a=2.0, z_renorm=1.0, residual=0.0)
    assert pole.gamma0 == 0.004
    assert pole.shift_delta == 2.004 - 2.0
    p1 = pole_approximation(pole, [1.0]).probabilities[0]
    assert p1 == pytest.approx(math.exp(-0.004), rel=1e-15)
    with pytest.raises(AttributeError):
        pole.gamma0 = 1.0


@pytest.mark.parametrize("field, value", [("z_renorm", 0.0), ("z_renorm", -0.5),
                                          ("residual", math.nan)])
def test_pole_data_rejects_bad_z_and_residual(field, value):
    fields = dict(e_pole=1.0 - 0.5j, omega_a=1.0, z_renorm=1.0, residual=0.0)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        PoleData(**fields)


@pytest.mark.parametrize("args, error", [
    ((0.0, 1.0, 2.0), NoDecayError),
    ((math.nan, 1.0, 2.0), NoDecayError),
    ((0.1, 0.0, 2.0), ValueError),
    ((0.1, math.inf, 2.0), ValueError),
    ((0.1, 1.0, math.nan), DomainError),
])
def test_lorentzian_closed_form_checks_its_inputs(args, error):
    with pytest.raises(error):
        lorentzian_pole_closed_form(*args)


def test_golden_rule_rejects_a_non_finite_level(lor):
    with pytest.raises(DomainError, match="finite"):
        golden_rule_rate(lor, math.nan)


@pytest.mark.parametrize("omega_a", [math.nan, math.inf])
def test_bound_state_scan_rejects_a_non_finite_level(tpl_strong, omega_a):
    # Unchecked, a NaN level finds no bound state and returns ().
    with pytest.raises(DomainError, match="omega_a must be finite"):
        find_bound_states(tpl_strong, omega_a)


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
