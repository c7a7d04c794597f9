"""Survival amplitude: closed form, spectral route, pole approximation."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spectral_reference import reference_amplitude
from test_selfenergy import _geometric_table, _rough_table, _Semicircle
from zenodecay import _panels, amplitude
from zenodecay.amplitude import (
    _JN_SERIES_BELOW,
    SurvivalMethod,
    SurvivalSeries,
    _jn_table,
    _spectral_kernel,
    pole_approximation,
    spectral_density,
    survival_closed_form_lorentzian,
    survival_spectral_integral,
)
from zenodecay.errors import DomainError, NoDecayError, ToleranceError
from zenodecay.formfactor import LorentzianCoupling, TabulatedCoupling, ThresholdPowerLawCoupling
from zenodecay.resolvent import find_pole, lorentzian_pole_closed_form
from zenodecay.formfactor import zeno_time
from zenodecay.model import DecayModel
from zenodecay.selfenergy import real_shift

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_rejected(lor, bad):
    # Each entry point refuses them, and so does a hand-built series.
    with pytest.raises(DomainError, match="finite"):
        survival_closed_form_lorentzian(0.1, 1.0, 2.0, [0.0, bad])
    with pytest.raises(DomainError, match="finite"):
        survival_spectral_integral(lor, 2.0, [bad])
    with pytest.raises(ValueError, match="finite"):
        SurvivalSeries(np.array([0.0, bad]), np.ones(2, dtype=complex),
                       SurvivalMethod.CLOSED_FORM)


@pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("omega_a", [-3.0, 0.0, 2.0, 1e3])
def test_closed_form_entries_equal_the_lorentzian_model(lam, omega_a):
    # Both roads take the family's one pole pair: the same floats, the
    # root tie of lambda = 1 at omega_a = 0 included.
    t = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 25)))
    ff = LorentzianCoupling(lam, 1.0)
    model = DecayModel(ff, omega_a)
    assert np.array_equal(survival_closed_form_lorentzian(lam, 1.0, omega_a, t).amplitudes,
                          model.survival_series(t).amplitudes)
    assert lorentzian_pole_closed_form(lam, 1.0, omega_a).e_pole == find_pole(ff, omega_a).e_pole


@pytest.mark.parametrize("entry", [
    lambda ff: spectral_density(ff, math.nan, 1.0),
    lambda ff: survival_spectral_integral(ff, math.nan, [0.0, 1.0]),
    lambda ff: survival_spectral_integral(ff, math.inf, [0.0, 1.0]),
], ids=["density_nan", "integral_nan", "integral_inf"])
def test_spectral_entries_reject_a_non_finite_level(tpl, entry):
    # Unchecked, spectral_density gives nan, and the spectral integral's
    # error names real_shift's argument rather than omega_a.
    with pytest.raises(DomainError, match="omega_a must be finite"):
        entry(tpl)


def test_spectral_integral_at_zero_coupling_raises():
    with pytest.raises(NoDecayError, match="zero coupling"):
        survival_spectral_integral(LorentzianCoupling(0.0, 1.0), 2.0, [0.0, 1.0])


def test_spectral_integral_above_its_target_raises(lor, monkeypatch):
    # No kernel reaches a zero target: the error carries the amplitudes,
    # the kernel's achieved bound and the target.
    t = [0.0, 1.0]
    amps = survival_spectral_integral(lor, 2.0, t).amplitudes
    monkeypatch.setattr(amplitude, "SPECTRAL_TOL", 0.0)
    with pytest.raises(ToleranceError, match="above the target") as exc:
        survival_spectral_integral(lor, 2.0, t)
    err = exc.value
    assert err.requested == 0.0
    assert err.achieved == _spectral_kernel(lor, 2.0).error > 0.0
    assert np.array_equal(err.value, amps)


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
    # Every node of a table takes the exact shift, so the achieved error
    # covers its norm too.
    for omega_a in (0.0, 2.0, 5.5, 8.0):
        p0 = survival_spectral_integral(tab_lorentzian, omega_a, [0.0]).probabilities[0]
        dev = abs(p0 - 1.0)
        assert dev <= min(1e-13, _spectral_kernel(tab_lorentzian, omega_a).error)


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


class _KinkedSemicircle(_Semicircle):
    """The semicircle with panel edges at its quarter points."""

    def kinks(self):
        return np.linspace(-1.0, 1.0, 5)


class _UnhashableSemicircle(_KinkedSemicircle):
    __hash__ = None


def test_spectral_unhashable_custom_family_with_kinks():
    ff = _UnhashableSemicircle()
    with pytest.raises(TypeError):
        hash(ff)
    times = [0.0, 5.0]
    s = survival_spectral_integral(ff, 0.2, times)
    assert abs(s.probabilities[0] - 1.0) <= 1e-8
    # Built without the caches, the same as the hashable family with them.
    hashable = survival_spectral_integral(_KinkedSemicircle(), 0.2, times)
    assert np.array_equal(s.amplitudes, hashable.amplitudes)


class _KinkedLorentzian(LorentzianCoupling):
    """The Lorentzian with kinks on [-0.5, 0.5] and two far outside the kernel's window."""

    def kinks(self):
        return np.concatenate(([-1e9], np.linspace(-0.5, 0.5, 11), [1e9]))


def test_panel_edges_give_each_whole_segment_its_memo_row(tab_lorentzian):
    # A first panel gets row j where it spans exactly the segment between
    # kinks j and j + 1, counted among all kinks, those past the window
    # (the Lorentzian's ±1e9) too; a table's window is its support.
    for ff, omega_r, res in ((_KinkedLorentzian(0.1, 1.0), 5.0, 0.01), (tab_lorentzian, 0.0, 0.03)):
        kinks = np.unique(ff.kinks())
        edges, rows = amplitude._panel_edges(ff, omega_r, res, kinks)
        index = {kink: j for j, kink in enumerate(kinks)}
        expected = [index[lo] if index.get(lo, -10) + 1 == index.get(hi, -1) else -1
                    for lo, hi in zip(edges[:-1], edges[1:])]
        assert rows.tolist() == expected
        assert 0 < np.count_nonzero(rows >= 0) < rows.size
        assert (edges[0] > kinks[0]) == (edges[-1] < kinks[-1]) == (ff is not tab_lorentzian)


def _recorded_edges(monkeypatch, ff, omega_a):
    """ω_r, res and the first edges of ``ff``'s kernel at ``omega_a``, as the build placed them."""
    seen, edges_of = [], amplitude._panel_edges

    def recorded(ff, omega_r, res, kinks):
        out = edges_of(ff, omega_r, res, kinks)
        seen.append((omega_r, res, out[0]))
        return out

    monkeypatch.setattr(amplitude, "_panel_edges", recorded)
    amplitude._kernel_uncached(ff, omega_a)
    (found,) = seen
    return found


@pytest.mark.parametrize("omega_a", [0.0, 2.0, 5.5, 8.0])
def test_grading_edges_leave_narrow_knot_segments_whole(tab_lorentzian, omega_a, monkeypatch):
    # A grading edge of step s, res·2^k at the resonance or |offset|·Λ at
    # the peak, is dropped where it falls strictly inside a knot segment no
    # wider than s/2: every one placed off a knot lies in a wider segment.
    omega_r, res, edges = _recorded_edges(monkeypatch, tab_lorentzian, omega_a)
    knots = tab_lorentzian.omegas
    steps = res * 2.0 ** np.arange(-3.0, 60.0)
    offsets = tab_lorentzian.bandwidth * np.array([1.0, 3.0, 10.0, 30.0])
    peak = tab_lorentzian.peak_energy()
    grading = np.concatenate((omega_r - steps, omega_r + steps, peak - offsets, peak + offsets))
    step = np.concatenate((steps, steps, offsets, offsets))
    placed = np.isin(grading, edges) & ~np.isin(grading, knots)
    at = np.searchsorted(knots, grading[placed])
    assert np.count_nonzero(placed) >= 6
    assert np.all(knots[at] - knots[at - 1] > 0.5 * step[placed])


def test_sparse_kinks_keep_every_resonance_edge(monkeypatch):
    # The semicircle's kinks are 0.5 apart, wider than half of every step
    # res·2^k that lands inside its support, so no grading edge is dropped.
    omega_r, res, edges = _recorded_edges(monkeypatch, _KinkedSemicircle(), 0.2)
    steps = res * 2.0 ** np.arange(-3.0, 10.0)
    grading = np.concatenate((omega_r - steps, omega_r + steps))
    inside = grading[(grading >= -1.0) & (grading <= 1.0)]
    assert inside.size >= 10 and np.all(np.isin(inside, edges))


@pytest.mark.parametrize("omega_a", [0.0, 4e-4])
def test_kernel_window_keeps_a_finite_support_whole(omega_a):
    # A user bandwidth far below the table's span makes the window
    # 1e5·max(|ω_r|, |peak|, Λ) narrower than the support: the support's
    # edges bound the window, so no mass is cut off (1.3e-5 of P(0) was).
    om = np.linspace(-100.0, 100.0, 2001)
    ff = TabulatedCoupling(om, 0.01 / (1.0 + om * om), bandwidth=1e-4)
    p0 = survival_spectral_integral(ff, omega_a, [0.0]).probabilities[0]
    assert abs(p0 - 1.0) <= 1e-13


def _identity_merge(kinks, rows, coef, est):
    return kinks[rows], kinks[rows + 1], coef[:, rows], est[rows], 0


def _counted_shifts(monkeypatch):
    """The energies of every real_shift call amplitude makes from here on, call by call."""
    calls = []

    def counted(ff, w):
        calls.append(np.asarray(w))
        return real_shift(ff, w)

    monkeypatch.setattr(amplitude, "real_shift", counted)
    return calls


@pytest.mark.parametrize("omega_a", [0.0, 2.0, 5.5, 8.0])
def test_table_segment_shifts_leave_the_kernel_as_it_is(tab_lorentzian, omega_a, monkeypatch):
    # At omega_a = 0 the resonance sits on the coupling peak, where
    # resonance points split knot segments and bisection runs.  A fresh
    # instance of the table holds no segment values yet.
    table = TabulatedCoupling(tab_lorentzian.omegas, tab_lorentzian.g2_values)
    calls = _counted_shifts(monkeypatch)
    cold = amplitude._kernel_uncached(table, omega_a)
    kept = table._level_free["segments"]
    calls.clear()
    warm = amplitude._kernel_uncached(table, omega_a)
    assert table._level_free["segments"] is kept
    memo_nodes = sum(w.size for w in calls)
    # The build counts its own calls: one for the resonance, one per pass.
    assert (warm.shift_calls, warm.shift_points) == (len(calls), memo_nodes)
    assert warm.shift_calls == warm.passes + 1
    for name in cold._fields:
        assert np.array_equal(getattr(cold, name), getattr(warm, name)), name
    # The memo holds a fresh call's shifts and g² at the nodes of every
    # segment, the offsets of those nodes from the segment's lower edge,
    # and (πg²)² and g² > 0 there.
    kinks, memo = kept
    offsets = np.diff(kinks)[:, None] * _panels._GL_FRACTION
    nodes = kinks[:-1, None] + offsets
    g2 = table.g2(nodes)
    assert np.array_equal(memo.shifts, real_shift(table, nodes))
    assert np.array_equal(memo.g2, g2)
    assert np.array_equal(memo.offsets, offsets)
    assert np.array_equal(memo.damping, (math.pi * g2) ** 2)
    assert np.array_equal(memo.positive, g2 > 0.0)
    # Against a build with no whole segments, which takes every shift
    # fresh and merges nothing: the same panels, in another order.
    monkeypatch.setattr(amplitude, "_merge", _identity_merge)
    unmerged = amplitude._kernel_uncached(table, omega_a)
    edges_of = amplitude._panel_edges

    def no_rows(*args):
        edges, rows = edges_of(*args)
        return edges, np.full_like(rows, -1)

    monkeypatch.setattr(amplitude, "_panel_edges", no_rows)
    calls.clear()
    direct = amplitude._kernel_uncached(table, omega_a)
    # The memo serves the knot segments, most of the table's panels.
    assert memo_nodes < 0.2 * sum(w.size for w in calls)
    assert direct.memo_rows == 0 and warm.memo_rows > 0.9 * (warm.mids.size + warm.merged)
    order, direct_order = np.argsort(unmerged.mids), np.argsort(direct.mids)
    for name in ("mids", "detunings"):
        assert np.array_equal(getattr(unmerged, name)[order], getattr(direct, name)[direct_order])
    assert np.array_equal(unmerged.terms[:, order], direct.terms[:, direct_order])
    assert np.array_equal(unmerged.widths[unmerged.width_index[order]],
                          direct.widths[direct.width_index[direct_order]])
    # The same bounds, summed in another order.
    assert unmerged.error == pytest.approx(direct.error, rel=1e-13)


def _one_expression_rho(detuning, values):
    """ρ as one expression of fresh arrays from Δ_R and g² alone, none formed in place nor kept."""
    g2 = values.g2
    return np.divide(g2, (detuning - values.shifts) ** 2 + (math.pi * g2) ** 2,
                     out=np.zeros_like(g2), where=g2 > 0.0)


def _fresh_segment_memo(ff):
    """The segment memo of ``ff``, every array formed at once from fresh calls."""
    kinks = np.unique(ff.kinks())
    lo, h = kinks[:-1, None], np.diff(kinks)[:, None]
    nodes = lo + h * _panels._GL_FRACTION
    g2 = np.asarray(ff.g2(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return kinks, amplitude._NodeValues(real_shift(ff, nodes), g2, h * _panels._GL_FRACTION,
                                        (math.pi * g2) ** 2, g2 > 0.0)


@pytest.mark.parametrize("family, omega_a", [("tab_lorentzian", w) for w in (0.0, 2.0, 5.5, 8.0)]
                         + [("geometric", 0.01), ("geometric", 2.0), ("rough", 0.5),
                            ("kinked_semicircle", 0.2)])
def test_memo_kernel_is_the_kernel_of_fresh_values(request, family, omega_a, monkeypatch):
    # ρ formed in place from the memo's arrays gives the kernel of ρ formed
    # as one expression from fresh values, in every field, the counters of
    # real_shift calls and memo rows included.
    ff = {"tab_lorentzian": lambda: request.getfixturevalue("tab_lorentzian"),
          "geometric": _geometric_table, "rough": _rough_table,
          "kinked_semicircle": _KinkedSemicircle}[family]()
    kernel = amplitude._kernel_uncached(ff, omega_a)
    monkeypatch.setattr(amplitude, "_rho", _one_expression_rho)
    monkeypatch.setattr(amplitude, "_segment_values", _fresh_segment_memo)
    reference = amplitude._kernel_uncached(ff, omega_a)
    # The grading edges split each of the semicircle's four segments, so
    # its memo fit keeps no panel; a table's keeps most of them.
    assert (kernel.memo_rows > 0) == (family != "kinked_semicircle")
    for name in kernel._fields:
        assert np.array_equal(getattr(kernel, name), getattr(reference, name)), name


def _segment_rows(ff):
    """The node rows of every segment between consecutive kinks of ``ff``, as bytes."""
    kinks = np.unique(ff.kinks())
    return {row.tobytes() for row in kinks[:-1, None] + np.diff(kinks)[:, None]
            * _panels._GL_FRACTION}


@pytest.mark.parametrize("omega_a", [0.0, 2.0, 5.5, 8.0])
def test_warm_table_build_fits_no_knot_segment_twice(tab_lorentzian, omega_a, monkeypatch):
    # A whole segment whose memo fit is open goes to bisection as its two
    # halves, so the nodes of no knot segment reach real_shift in a warm
    # build: bisection fits only first panels that are not whole, each
    # inside one segment, and halves.
    amplitude._kernel_uncached(tab_lorentzian, omega_a)
    calls = _counted_shifts(monkeypatch)
    kernel = amplitude._kernel_uncached(tab_lorentzian, omega_a)
    fresh = [row.tobytes() for w in calls if w.ndim == 2 for row in w]
    assert len(fresh) * _panels._NODES + 1 == kernel.shift_points
    memo = _segment_rows(tab_lorentzian)
    assert len(fresh) > 0
    assert sum(row in memo for row in fresh) == 0


def test_each_table_keeps_its_segment_values(monkeypatch):
    # The segment values live on the coupling instance: building another
    # table's kernel in between leaves them, so the third build below
    # takes Δ_R at none of table A's segment nodes.
    om = np.linspace(-20.0, 20.0, 401)
    table_a = TabulatedCoupling(om, LorentzianCoupling(0.1, 1.0).g2(om))
    table_b = TabulatedCoupling(om, LorentzianCoupling(0.2, 1.0).g2(om))
    amplitude._kernel_uncached(table_a, 2.0)
    amplitude._kernel_uncached(table_b, 2.0)
    calls = _counted_shifts(monkeypatch)
    amplitude._kernel_uncached(table_a, 2.0)
    segments = _segment_rows(table_a)
    fresh = [row.tobytes() for w in calls if w.ndim == 2 for row in w]
    assert len(fresh) > 0
    assert sum(row in segments for row in fresh) == 0


@pytest.mark.parametrize("table, omega_a", [("tab_lorentzian", w) for w in (0.0, 2.0, 5.5, 8.0)]
                         + [("geometric", w) for w in (0.01, 2.0)])
def test_table_panel_merge_keeps_the_numbers(request, table, omega_a, monkeypatch):
    # The knot segments merge into fewer panels, while x(t), ln P, the
    # norm and the error bound stay those of the unmerged kernel.  The
    # geometric table's knots crowd its threshold, so hundreds of its tree
    # nodes have children of unequal widths and take the projection's far
    # path; the uniform table's take none.
    ff = request.getfixturevalue(table) if table == "tab_lorentzian" else _geometric_table()
    times = np.concatenate([[0.0, -3.0], np.geomspace(1e-4, 1e5, 40), [1e4, 1.7e4, 2.5e4]])
    taus = np.geomspace(1e-3, 200.0, 300)

    def outputs():
        amplitude._kernel_cached.cache_clear()
        return (amplitude._spectral_kernel(ff, omega_a),
                survival_spectral_integral(ff, omega_a, times).amplitudes,
                DecayModel(ff, omega_a).log_survival_probability(taus))

    with monkeypatch.context() as patch:
        patch.setattr(amplitude, "_merge", _identity_merge)
        reference, x_ref, log_p_ref = outputs()
    _panels._half_maps()
    far, projection = [], _panels._projection
    monkeypatch.setattr(_panels, "_projection", lambda share: far.append(share.size) or
                        projection(share))
    trees, merge = [], _panels._merge

    def recorded(kinks, rows, coef, est):
        out = merge(kinks, rows, coef, est)
        trees.append((kinks, rows, *out[:2]))
        return out

    monkeypatch.setattr(amplitude, "_merge", recorded)
    kernel, x, log_p = outputs()
    assert (sum(far) > 0) == (table == "geometric")
    assert np.max(np.abs(x - x_ref)) <= 1e-13
    assert np.max(np.abs(log_p / log_p_ref - 1.0)) <= 1e-12
    (kinks, rows, lo, hi), = trees
    start, stop = np.searchsorted(kinks, lo), np.searchsorted(kinks, hi)
    assert np.array_equal(kinks[start], lo) and np.array_equal(kinks[stop], hi)
    # Every merged panel is a tree node [kinks[j·2^L], kinks[(j+1)·2^L]] ...
    span = stop - start
    assert np.all(span > 0) and np.all(span & (span - 1) == 0) and np.all(start % span == 0)
    # ... and the panels tile the resolved whole segments, with no gap or overlap.
    covered = np.concatenate([np.arange(a, b) for a, b in zip(start, stop)])
    assert np.array_equal(np.sort(covered), rows)
    if table == "tab_lorentzian":
        assert abs(abs(x[0]) ** 2 - 1.0) <= 1e-13
        assert kernel.error <= 1e-11
        assert kernel.mids.size <= 0.2 * (kernel.mids.size + kernel.merged)
    else:
        # The geometric table's kernel achieves ~3e-10 near its threshold,
        # so its norm is held to the unmerged kernel's.
        assert abs(abs(x[0]) ** 2 - abs(x_ref[0]) ** 2) <= 1e-15
        assert kernel.error <= 1.01 * reference.error
        assert kernel.merged > 500


@pytest.mark.parametrize("share", [0.5, 0.5 + 1e-13, 0.5 - 2e-10, 1.0 / 3.0, 0.95])
def test_merged_panel_is_the_projection_of_its_two_panels(share):
    # Against the Legendre coefficients of the two fitted polynomials on
    # [-1, 2r - 1] and [2r - 1, 1], integrated by 40 Gauss-Legendre nodes
    # per side: the fixed map near r = 1/2 and a pair's own map elsewhere.
    rng = np.random.default_rng(5)
    lower, upper = rng.normal(size=(2, 10))
    x, w = np.polynomial.legendre.leggauss(40)
    legendre = np.polynomial.legendre.legval
    pieces = ((share, share * (x + 1.0) - 1.0, lower),
              (1.0 - share, share + (1.0 - share) * x, upper))
    expected = [(m + 0.5) * sum(r * np.sum(w * legendre(x, c) * legendre(X, np.eye(10)[m]))
                                for r, X, c in pieces) for m in range(10)]
    got = _panels._merged_coefficients(np.array([share]), lower[:, None], upper[:, None])
    assert np.max(np.abs(got[:, 0] - expected)) <= 1e-13


# Threshold and Lorentzian kernels from narrow to broad resonances, levels
# next to the threshold and far above the band: (family args, omega_a values).
KERNEL_ZOO = [
    (ThresholdPowerLawCoupling, (0.1, 1.0, 0.0, 0.5, 4.0), (0.001, 0.01, 0.7, 1.1, 2.4, 50.0)),
    (ThresholdPowerLawCoupling, (1.0, 1.0, 0.0, 0.5, 4.0), (0.3, 0.5, 2.0, 10.0)),
    (ThresholdPowerLawCoupling, (0.3, 1.0, 0.0, 1.5, 5.0), (0.05, 1.0, 8.0)),
    (LorentzianCoupling, (0.1, 1.0), (2.0, 5.0)),
    (LorentzianCoupling, (1.0, 1.0), (0.0, 3.0, 20.0)),
]


@pytest.mark.parametrize("family, args, omega_a", [
    pytest.param(family, args, omega_a, id=f"{family.family}{args}-{omega_a}")
    for family, args, levels in KERNEL_ZOO for omega_a in levels
])
def test_kernel_panels_start_graded_at_resonance_and_threshold(family, args, omega_a):
    # The first panels are graded towards the resonance and a vanishing
    # band edge, so a few bisection passes resolve rho, and the window
    # holds the norm to rounding.
    ff = family(*args)
    kernel = _spectral_kernel(ff, omega_a)
    assert kernel.passes <= 8
    assert kernel.error <= 1e-11
    # No whole segments: nothing is read from a memo, fitted from it or merged.
    assert kernel.merged == kernel.memo_rows == 0
    assert kernel.shift_calls == kernel.passes + 1
    p0 = survival_spectral_integral(ff, omega_a, [0.0]).probabilities[0]
    assert abs(p0 - 1.0) <= 1e-13


def test_rho_is_zero_where_g2_vanishes():
    # Even where the detuning equals the shift, so that the denominator is 0.
    detuning, shift = np.array([0.5, 1.0, 2.0]), np.array([0.5, 0.3, 1.0])
    g2 = np.array([0.0, 0.1, 0.0])
    values = amplitude._NodeValues(shift, g2, np.zeros(3), (math.pi * g2) ** 2, g2 > 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = amplitude._rho(detuning, values)
    assert rho[0] == rho[2] == 0.0 and not np.any(np.signbit(rho))
    assert rho[1] == 0.1 / ((1.0 - 0.3) ** 2 + (math.pi * 0.1) ** 2)


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
            method=SurvivalMethod.CLOSED_FORM,
        )


def test_hand_built_series_probabilities_follow_amplitudes():
    s = SurvivalSeries(np.array([0.0, 1.0]), np.array([1.0, 0.5j]), SurvivalMethod.CLOSED_FORM)
    assert np.array_equal(s.probabilities, np.abs(s.amplitudes) ** 2)
    s.amplitudes[1] = 0.3 + 0.4j
    assert np.array_equal(s.probabilities, np.abs(np.array([1.0, 0.3 + 0.4j])) ** 2)


# -- distinct values without numpy.ma -----------------------------------


def test_distinct_is_np_unique():
    rng = np.random.default_rng(5)
    for values in (np.empty(0), np.array([2.0]), rng.integers(0, 40, 500) * 0.25,
                   rng.standard_normal((30, 7)), np.geomspace(1e-3, 1e3, 101)):
        assert np.array_equal(_panels._distinct(values), np.unique(values))
        distinct, index = _panels._distinct(values, inverse=True)
        expected, inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(distinct, expected)
        assert index.dtype == np.intp
        assert np.array_equal(index, inverse.ravel())


# Builds a power-law kernel (with its g² fit) and a table kernel, and
# finds an effective bandwidth: every call site of the distinct values.
_WITHOUT_NUMPY_MA = """
import sys
import numpy as np
from zenodecay import amplitude
from zenodecay.formfactor import (LorentzianCoupling, TabulatedCoupling,
                                  ThresholdPowerLawCoupling, effective_bandwidth_coupling)

tpl = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
om = np.linspace(-10.0, 10.0, 201)
amplitude._spectral_kernel(tpl, 2.4)
amplitude._spectral_kernel(TabulatedCoupling(om, LorentzianCoupling(0.1, 1.0).g2(om)), 2.0)
effective_bandwidth_coupling(tpl)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_kernels_and_bandwidth_do_not_import_numpy_ma():
    # The first np.unique call of a process imports numpy.ma (~20 ms).
    src = os.path.dirname(os.path.dirname(amplitude.__file__))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY_MA], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# -- spherical-Bessel table ----------------------------------------------


def _bessel_points():
    rng = np.random.default_rng(20)
    # The routes switch at the series bound and, per order k, at x = k.
    switches = [_JN_SERIES_BELOW, *range(1, 10)]
    return np.concatenate([
        [0.0, 5e-324, 1e-300, math.pi, np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0)],
        switches, [np.nextafter(x, side) for x in switches for side in (0.0, math.inf)],
        math.pi * np.arange(1, 40),  # the zeros of j0
        np.linspace(0.0, 30.0, 30001),
        np.geomspace(1e-12, 1e8, 20001),
        rng.uniform(0.0, 1e8, 100000),
    ])


def test_bessel_table_matches_scipy():
    special = pytest.importorskip("scipy.special")
    x = _bessel_points()
    table = _jn_table(x)
    assert table.shape == (10, x.size)
    # scipy gives NaN at subnormal x; j_k there is x^k/(2k+1)!!.
    degrees = np.arange(10)[:, None]
    oracle = np.where(x >= 1e-300, special.spherical_jn(degrees, x), 0.0)
    oracle[0, x < 1e-300] = 1.0
    assert np.max(np.abs(table - oracle)) <= 1e-15
    # Miller's recurrence serves every row on [1e-4, 9]: against 30-digit
    # j_k there, at its ends, at the integers and at their float neighbours.
    mpmath = pytest.importorskip("mpmath")
    ends = np.array([_JN_SERIES_BELOW, *range(1, 10)])
    x = np.concatenate([ends, np.nextafter(ends[1:], 0.0), np.nextafter(ends[:-1], 9.0),
                        np.geomspace(_JN_SERIES_BELOW, 9.0, 100), np.linspace(0.09, 9.0, 100)])
    with mpmath.workdps(30):
        exact = np.array([[float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(v)))
                                 * mpmath.besselj(k + 0.5, v)) for v in x] for k in range(10)])
    assert np.max(np.abs(_jn_table(x) - exact)) <= 2.3e-16


def test_bessel_table_columns_do_not_depend_on_the_batch():
    x = _bessel_points()[::53]
    batch = _jn_table(x)
    for i in range(x.size):
        assert np.array_equal(_jn_table(x[i:i + 1])[:, 0], batch[:, i])


@pytest.mark.parametrize("family, omega_a", [("lor", 2.0), ("tpl", 0.7), ("tpl", 2.4),
                                              ("tab_lorentzian", 2.0)])
def test_panel_sum_is_its_reference_formula(request, family, omega_a):
    # x(t) = Σ_panels e^{−it·mid}·Σ_k h·c_k(−i)^k j_k(|t|h/2) + Σ_b w_b e^{−iE_b t},
    # with j_k gathered per panel, Σ_k by einsum and one sum over the panels
    # in kernel order, conjugated for t < 0: the same floats.
    ff = request.getfixturevalue(family)
    k = _spectral_kernel(ff, omega_a)
    terms = np.empty_like(k.terms)
    terms[amplitude._EVEN_ODD] = k.terms
    t = np.concatenate([[0.0, -3.0], np.geomspace(1e-4, 1e5, 40)])
    ts = np.abs(t)
    j = _jn_table(np.outer(0.5 * ts, k.widths).ravel()).reshape(10, ts.size, -1)
    j = j[:, :, k.width_index]
    re = np.einsum("kp,ktp->tp", terms[0::2], j[0::2])
    im = np.einsum("kp,ktp->tp", terms[1::2], j[1::2])
    x = np.sum(np.exp(np.multiply.outer(-1j * ts, k.mids)) * (re + 1j * im), axis=1)
    for bs in k.bound:
        x += bs.weight * np.exp(-1j * bs.energy * ts)
    x = np.where(t < 0, np.conj(x), x)
    assert np.array_equal(survival_spectral_integral(ff, omega_a, t).amplitudes, x)


def test_spectral_time_points_do_not_depend_on_the_batch(tpl, tab_lorentzian):
    times = np.concatenate([[0.0, -3.0], np.geomspace(1e-4, 1e5, 40)])
    for ff, omega_a in ((tpl, 2.4), (tab_lorentzian, 2.0)):
        batch = survival_spectral_integral(ff, omega_a, times).amplitudes
        alone = [survival_spectral_integral(ff, omega_a, [t]).amplitudes[0] for t in times]
        assert batch.tolist() == alone
