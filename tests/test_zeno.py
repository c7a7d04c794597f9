"""Measurement layer: effective rates, regimes, and the transition time.

`TAU_STAR` was frozen from the bracketing search after verifying
γ(τ*) = γ₀ to machine precision against the closed-form survival, and
lies within 5.1e-14 (relative) of the root 0.50372464199937307776 that
mpmath finds at 50 digits from the exact two-pole amplitude; the
ω_a = 10 case pins the jump-time estimate against the found crossing.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from spectral_reference import (
    kofman_kurizki_rate,
    kofman_kurizki_transition,
    reference_amplitude,
    reference_rate,
)
from zenodecay import amplitude, zeno
from zenodecay.errors import ContinuationUnsupportedError, DomainError, GridError, NoDecayError
from zenodecay.formfactor import LorentzianCoupling, ThresholdPowerLawCoupling
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
TAU_STAR = 0.5037246419993476

# Crossings of gamma(tau) = gamma0 for the power law (0.1, 1, 0, 1/2, 4) on
# the default window, by (omega_a, grid points).  SCIPY_CROSSINGS were found
# by one scalar brentq per bracket on the rate built with scipy's
# spherical_jn, before the package had its own root solver and Bessel table;
# TABLE_CROSSINGS are the package's own.  They differ only through the j_k
# at x <= 9, where the table runs Miller's recurrence for every k, and scipy
# the upward recurrence where k < x and AMOS where k >= x.
# Their tau* at 2.4 (P ~ 0.997) comes from ln P of the deficit 1 - x, and
# the reference rate meets gamma0 there to 3e-14.  The later roots follow
# the last bits of gamma0 (see the test below); they are pinned for the
# pole found with Sigma off the cut from the g2 fit and for the kernel's
# panels graded at the resonance and the threshold.  One scalar brentq per
# bracket on scipy's j_k still gives SCIPY_CROSSINGS to the last bit.
SCIPY_CROSSINGS = {
    (2.4, 64): (0.33977561665585804, 8976.210986178823),
    (2.4, 2048): (
        0.3397756166558581, 8903.149198846653, 8919.510861439112, 9200.646876430159,
        9379.15570241924, 9474.704996295568, 9645.496493530933, 9748.78624913865,
        9945.764164522592, 10067.259427753972, 10230.35502097497, 10529.323261288007,
        11381.748055537864, 11628.355256105124, 11919.618595417447, 12116.476481201635,
    ),
    (0.7, 2048): (
        374.5129021485142, 376.07926978822593, 400.67360659852, 403.6491702049833,
        409.51313507528266, 412.72121557166895, 418.3836646792251, 421.7628476442557,
        427.2793275704506, 430.77983158832046, 436.19653326224125, 439.77563143281486,
        445.1331671383136, 448.75221643816866, 463.0617298071592, 466.6500872469767,
        472.05465600779667, 475.5700384575392, 490.10916992067786, 493.33977434793,
        499.1808684130276, 502.1791512095242, 508.29529062260696, 510.9749409623611,
        517.4743737981406, 519.7051187857505,
    ),
}
TABLE_CROSSINGS = {
    (2.4, 64): (0.33977561665585804, 8976.210998242988),
    (2.4, 2048): (
        0.3397756166558581, 8903.149196618957, 8919.51084617539, 9200.646870887998,
        9379.155693186582, 9474.705008060217, 9645.496480335463, 9748.786220055426,
        9945.764187071236, 10069.8699192363, 10230.35503261911, 10526.712667303378,
        11381.74806894528, 11628.355261805755, 11919.618579942222, 12116.476476713207,
    ),
    (0.7, 2048): (
        374.51290214989314, 376.0792697884365, 400.67360659855046, 403.649170206427,
        409.51313507604857, 412.7212155712051, 418.38366467820305, 421.76284764345553,
        427.2793275717103, 430.779831588008, 436.1965332607451, 439.77563143249506,
        445.13316713835536, 448.75221643906866, 463.0617298068752, 466.65008724657633,
        472.05465600595943, 475.57003845760335, 490.10916992023687, 493.3397743470854,
        499.18086841348105, 502.17915121004347, 508.2952906228006, 510.9749409639969,
        517.4743737984438, 519.7051187851075,
    ),
}


@pytest.fixture(scope="module")
def model2(lor):
    return DecayModel(lor, 2.0)


@pytest.fixture(scope="module")
def model10(lor):
    return DecayModel(lor, 10.0)


# -- effective rate -------------------------------------------------------


def test_small_interval_rate_is_linear_in_tau(model2):
    # gamma = tau/tz^2 to leading order; the Lorentzian's infinite fourth
    # moment leaves a tau^3 term in 1 - P, 3.3e-6 relative at tau = 1e-5.
    tau = 1e-5
    assert effective_rate(model2, tau) == pytest.approx(tau / model2.zeno_time**2, rel=1e-5)


def test_rate_is_continuous_at_small_intervals(model2, tpl):
    # One ln P route at every tau: no step at tau = 1e-3/bandwidth, where
    # the small-interval law once took over (a 3.3e-4 step here).  Compare
    # gamma/tau: gamma ~ tau itself moves by 2e-9 across the pair.
    taus = 1e-3 * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    below, above = effective_rate(model2, taus) / taus
    assert abs(above / below - 1.0) <= 1e-9
    for omega_a in (0.7, 2.4):
        model = DecayModel(tpl, omega_a)
        for tau in (3e-4, 9.99e-4, 1.0001e-3, 3e-3):
            assert effective_rate(model, tau) == pytest.approx(
                reference_rate(tpl, omega_a, tau), rel=1e-7)
        tau = 1e-5
        assert effective_rate(model, tau) == pytest.approx(tau / model.zeno_time**2, rel=1e-8)


def test_rate_matches_log_survival_identity(model2):
    for tau in (0.01, 0.5, 3.0):
        expected = -model2.log_survival_probability(tau) / tau
        assert effective_rate(model2, tau) == pytest.approx(expected, rel=1e-12)


def test_rate_approaches_natural_rate_from_asymptote(model2):
    # Once the background has died, gamma(tau) = gamma0 - ln(Z)/tau.
    expected = model2.gamma0 - math.log(model2.z_renorm) / 50.0
    assert effective_rate(model2, 50.0) == pytest.approx(expected, rel=1e-12)


def test_rate_rejects_bad_intervals(model2, tpl):
    # The rate refuses tau = 0 itself (ln P(0) = 0 is valid); ln P refuses
    # the rest, on the pair route and on the panels alike.
    for model in (model2, DecayModel(tpl, 2.4)):
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=f"got {re.escape(str(bad))}$"):
                effective_rate(model, bad)


def test_rate_of_a_model_without_a_pole(lor, tab_lorentzian, tpl_strong):
    # gamma(tau) reads ln P alone, which a table (no second sheet), a power
    # law with a non-continuable exponent and a level below the threshold
    # all have, though none has a pole to search for.
    taus = np.geomspace(0.5, 50.0, 7)
    table = DecayModel(tab_lorentzian, 2.0)
    for model in (table, DecayModel(ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.3, 4.0), 0.7),
                  DecayModel(tpl_strong, -0.5)):
        rates = effective_rate(model, taus)
        assert np.array_equal(rates, np.fmax(0.0, -model.log_survival_probability(taus) / taus))
        assert np.all(np.isfinite(rates) & (rates >= 0.0))
    # The table samples the Lorentzian on [-100, 100].
    assert effective_rate(table, taus) == pytest.approx(
        effective_rate(DecayModel(lor, 2.0), taus), rel=1e-4)
    # Comparing with gamma0 still needs the pole.
    with pytest.raises(ContinuationUnsupportedError):
        effective_rate_curve(table, taus)
    with pytest.raises(ContinuationUnsupportedError):
        find_transition_time(table)


def test_rate_of_an_array_is_the_rate_of_each_interval(model2):
    taus = np.geomspace(1e-5, 300.0, 12).reshape(3, 4)
    rates = effective_rate(model2, taus)
    assert rates.shape == (3, 4)
    assert rates.ravel().tolist() == [effective_rate(model2, t) for t in taus.ravel().tolist()]
    assert isinstance(effective_rate(model2, np.float64(0.5)), float)
    with pytest.raises(DomainError, match="got -1.0"):
        effective_rate(model2, [0.5, -1.0, 2.0])


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


def test_curve_array_path_equals_scalar_rates(model2, tpl):
    # Small intervals, the Lorentzian tail and the power law's spectral route.
    power = DecayModel(tpl, 2.4)
    for model, taus in ((model2, np.geomspace(1e-5, 300.0, 40)),
                        (power, np.geomspace(1e-4, 40.0, 8))):
        curve = effective_rate_curve(model, taus)
        assert curve.gammas.tolist() == [effective_rate(model, t) for t in taus]


def test_transition_array_scan_keeps_tau_star(model2, tpl):
    assert find_transition_time(model2).tau_star == TAU_STAR
    # Power law at omega_a = 2.4 (Z < 1), pinned from the panel engine;
    # the independent reference rate must cross gamma0 there too.
    model = DecayModel(tpl, 2.4)
    power = find_transition_time(model, tau_max=1.0, grid_points=64)
    assert power.tau_star == pytest.approx(0.3397756166558609, rel=1e-10)
    assert abs(reference_rate(tpl, 2.4, power.tau_star) - model.gamma0) <= 1e-11


@pytest.mark.parametrize("omega_a, grid_points", list(SCIPY_CROSSINGS))
def test_transition_reports_late_power_law_crossing(tpl, monkeypatch, omega_a, grid_points):
    # Past the exponential era the power-law tail of P(tau) overtakes the
    # pole term and gamma(tau) crosses gamma0 again, first from above; the
    # reference amplitude must straddle gamma0 at that root too.  The two
    # terms beat with period ~2.6 at omega_a = 2.4, and a bracket holding
    # several of their sign changes (the 64-point grid's last one holds
    # some 2400) resolves to one that follows the last bits of gamma(tau),
    # so each set of pins holds for its own Bessel functions.
    model = DecayModel(tpl, omega_a)
    report = find_transition_time(model, grid_points=grid_points)
    assert report.all_roots == pytest.approx(TABLE_CROSSINGS[omega_a, grid_points], rel=1e-12)
    if grid_points == 64:
        tau_star, late = report.all_roots
        assert abs(reference_rate(tpl, omega_a, tau_star) - model.gamma0) <= 1e-11
        shifts = [
            -math.log(abs(reference_amplitude(tpl, omega_a, tau)) ** 2) / tau - model.gamma0
            for tau in (late * (1.0 - 1e-6), late * (1.0 + 1e-6))
        ]
        assert shifts[0] > 0.0 > shifts[1]
    # Given scipy's j_k the search returns the former scalar brentq roots.
    special = pytest.importorskip("scipy.special")
    monkeypatch.setattr(amplitude, "_jn_table",
                        lambda x: special.spherical_jn(np.arange(10)[:, None], x))
    report = find_transition_time(model, grid_points=grid_points)
    pins = SCIPY_CROSSINGS[omega_a, grid_points]
    early = sum(root < 1.0 for root in pins)
    assert report.all_roots[:early] == pytest.approx(pins[:early], rel=1e-12)
    assert report.all_roots[early:] == pins[early:]


@pytest.mark.parametrize(
    "family, omega_a",
    [("lorentzian", 2.0), ("threshold_power_law", 2.4), ("threshold_power_law", 0.7)],
)
def test_rate_approaches_kofman_kurizki_limit(family, omega_a):
    # At weak coupling gamma(tau) tends to the overlap of g2 with the
    # measurement-broadened line, an oracle with no pole and no level
    # shift; the relative gap is O(lambda^2), so it falls fourfold with
    # every halving of the coupling (3.97-4.12 here, from 1.6e-5 at
    # tau = 0.1 to 2.2e-2 at tau = 5 at lambda = 0.1).
    taus = np.array([0.1, 1.0, 5.0])
    gaps = []
    for lam in (0.1, 0.05, 0.025):
        ff = (LorentzianCoupling(lam, 1.0) if family == "lorentzian"
              else ThresholdPowerLawCoupling(lam, 1.0, 0.0, 0.5, 4.0))
        rates = effective_rate(DecayModel(ff, omega_a), taus)
        limit = np.array([kofman_kurizki_rate(ff, omega_a, tau) for tau in taus])
        gaps.append(np.abs(rates / limit - 1.0))
    for wide, narrow in zip(gaps[:-1], gaps[1:]):
        assert np.all((3.5 <= wide / narrow) & (wide / narrow <= 4.5))


def test_rate_just_above_small_interval_switch(tpl):
    # 1 - P is ~1.5e-8 here, so the rate needs 1 - x(tau) to ~1e-13.
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
        EffectiveRateCurve(taus=np.array([1.0, -1.0]), gammas=np.array([0.1, 0.1]), gamma0=0.1)
    with pytest.raises(ValueError):
        EffectiveRateCurve(taus=np.array([1.0, 2.0]), gammas=np.array([0.1]), gamma0=0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="taus must be positive and finite"):
            EffectiveRateCurve(taus=np.array([1.0, bad]), gammas=np.array([0.1, 0.2]),
                               gamma0=0.1)


# -- stroboscopic survival ------------------------------------------------


def test_repeated_survival_is_a_power():
    assert repeated_survival(0.9, 3) == 0.9**3
    assert repeated_survival(0.9, 0) == 1.0


def test_repeated_survival_domain():
    for bad_p in (-0.1, 1.5):
        with pytest.raises(DomainError):
            repeated_survival(bad_p, 2)
    for bad_n in (-1, 2.5, math.inf, -math.inf, math.nan):
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
    # One interval only: a grid is classified by its rate curve.
    for taus in ([0.1, 2.0], [0.1], np.array([[2.0]])):
        with pytest.raises(DomainError, match="regimes"):
            classify_regime(model2, taus)


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


def test_transition_window_below_the_grid_floor(lor):
    # tau_max under 1e-4/Lambda moves the grid's lower end to 1e-8*tau_max;
    # above the band centre (Z > 1) no crossing is promised, and none is found.
    report = find_transition_time(DecayModel(lor, 0.5), tau_max=1e-5)
    assert report.all_roots == ()
    assert report.tau_star is None
    assert report.tau_max_searched == 1e-5


def test_transition_near_jump_time_for_far_detuned_level(model10):
    # Far off resonance the linear estimate gamma0*tz^2 is self-consistent:
    # it lower-bounds tau* and lands within a few percent of it.
    report = find_transition_time(model10)
    assert report.tau_star >= report.jump_time
    assert report.tau_star == pytest.approx(report.jump_time, rel=0.25)


@pytest.mark.parametrize("omega_a, rel", [(1e3, 1e-8), (1e4, 1e-6)])
def test_transition_window_starts_before_an_early_jump(omega_a, rel):
    # Far above the band gamma(tau) crosses gamma0 at the jump time
    # gamma0*tz^2, 2e-6 and 2e-8 here, below 1e-4/Lambda: the window starts
    # at a hundredth of it.  The root is that of the exact two-pole
    # amplitude at 50 digits; at 1e4 the small-tau ln P loses digits.
    mp = pytest.importorskip("mpmath")
    lam, bw = 0.3, 1.0
    report = find_transition_time(DecayModel(LorentzianCoupling(lam, bw), omega_a))
    assert report.all_roots == (report.tau_star,)
    assert report.tau_star < 1e-4 / bw
    with mp.workdps(50):
        b = 1j * bw - mp.mpf(omega_a)
        root = mp.sqrt(b * b + 4 * (1j * bw * omega_a + mp.mpf(lam) ** 2))
        e1, e2 = sorted(((-b + root) / 2, (-b - root) / 2), key=lambda E: abs(E.imag))
        c1 = (e1 + 1j * bw) / (e1 - e2)

        def shift(tau):
            x = c1 * mp.exp(-1j * e1 * tau) + (1 - c1) * mp.exp(-1j * e2 * tau)
            return -mp.log(abs(x) ** 2) + 2 * e1.imag * tau

        exact = mp.findroot(shift, mp.mpf(report.tau_star))
        assert abs(report.tau_star - exact) <= rel * exact


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


def test_transition_search_scans_its_grid_once(model10, monkeypatch):
    # A window with no crossing costs one grid of rates, then GridError:
    # no finer second scan.
    sizes = []
    rate = zeno.effective_rate

    def counted(model, taus):
        sizes.append(np.size(taus))
        return rate(model, taus)

    monkeypatch.setattr(zeno, "effective_rate", counted)
    with pytest.raises(GridError):
        find_transition_time(model10, tau_max=1e-3)
    assert sizes == [2048]


# Power laws (λ, p, q) with Λ = 1 and threshold 0 at ω_a, on whose late
# beating two neighbouring grid cells can both refine to the node they share.
SHARED_NODE_MODELS = [(1e-4, 2.0, 5.0, 2.5), (1e-3, 2.0, 5.0, 2.5), (1e-2, 1.5, 6.0, 1.0),
                      (1e-2, 1.5, 6.0, 2.5), (0.1, 1.5, 6.0, 2.5), (0.1, 2.0, 5.0, 0.1)]


@pytest.mark.parametrize("lam, p, q, omega_a", SHARED_NODE_MODELS)
def test_transition_reports_a_crossing_at_a_shared_node_once(lam, p, q, omega_a):
    # The report takes the distinct roots, so it builds, ascending strictly.
    model = DecayModel(ThresholdPowerLawCoupling(lam, 1.0, 0.0, p, q), omega_a)
    report = find_transition_time(model)
    roots = np.array(report.all_roots)
    assert roots.size >= 1 and report.tau_star == roots[0] > 0.0
    assert np.all(np.diff(roots) > 0.0)


@pytest.mark.parametrize("family, omega_a", [("lorentzian", 2.0), ("threshold_power_law", 2.4)])
def test_transition_time_approaches_kofman_kurizki_crossing(family, omega_a):
    # tau*_KK, where the weak-coupling rate meets the golden rule, does not
    # depend on lambda; tau* lies below it by O(lambda^2), so the gap falls
    # fourfold with every halving (3.96-3.995 here, from -6.6e-3 on the
    # Lorentzian and -1.4e-2 on the power law at lambda = 0.1).
    def coupling(lam):
        return (LorentzianCoupling(lam, 1.0) if family == "lorentzian"
                else ThresholdPowerLawCoupling(lam, 1.0, 0.0, 0.5, 4.0))

    tau_kk = kofman_kurizki_transition(coupling(0.1), omega_a, 0.1, 2.0)
    gaps = [find_transition_time(DecayModel(coupling(lam), omega_a), tau_max=2.0).tau_star / tau_kk
            - 1.0 for lam in (0.1, 0.05, 0.025)]
    assert all(gap < 0.0 for gap in gaps)
    for wide, narrow in zip(gaps[:-1], gaps[1:]):
        assert 3.5 <= wide / narrow <= 4.5


def test_pure_exponential_with_z_below_one_has_no_transition():
    # γ(τ) = γ₀ − ln Z/τ stays above γ₀ at every τ: with an infinite Zeno
    # time the short-time side never starts below γ₀, so Z < 1 promises
    # nothing and the search reports no crossing instead of a grid failure.
    report = find_transition_time(ExponentialDecayModel(0.25, z_renorm=0.9))
    assert report.tau_star is None and report.all_roots == ()
    assert report.criterion_z_less_1 is True
    assert report.zeno_time == math.inf


def test_transition_search_validation(model2):
    with pytest.raises(DomainError):
        find_transition_time(model2, tau_max=-1.0)
    with pytest.raises(DomainError):
        find_transition_time(model2, grid_points=32)
    for bad in (64.9, math.nan, math.inf):
        with pytest.raises(DomainError, match=f"integer, got {bad}"):
            find_transition_time(model2, grid_points=bad)


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
    # Duck-typed models: no decay rate, and a Zeno time without a bandwidth.
    with pytest.raises(NoDecayError, match="no decay rate"):
        characteristic_scales(SimpleNamespace(gamma0=0.0))
    with pytest.raises(DomainError, match="no bandwidth"):
        characteristic_scales(SimpleNamespace(gamma0=0.1, zeno_time=2.0, bandwidth=None))
