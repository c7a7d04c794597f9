"""Self-energy: closed forms, quadrature routes, sheets, cut values."""

import cmath
import math
import os
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import integrate

from spectral_reference import (
    direct_knot_sum,
    exact_knot_sum,
    exact_segment_sum,
    knot_sum_scale,
    power_law_sigma,
    power_law_sigma_slope,
    segment_sum,
)
from zenodecay.errors import ContinuationUnsupportedError, DomainError, ToleranceError
from zenodecay.formfactor import (
    FormFactor,
    LorentzianCoupling,
    TabulatedCoupling,
    ThresholdPowerLawCoupling,
)
from zenodecay import amplitude, formfactor
from zenodecay.resolvent import find_bound_states, find_pole
from zenodecay.selfenergy import Sheet, real_shift, self_energy


def _quad_sigma(ff, E):
    """Independent route: adaptive quadrature of g2(w)/(E-w) on the line."""
    re, _ = integrate.quad(
        lambda w: (float(ff.g2(w)) * (E - w).conjugate()).real / abs(E - w) ** 2,
        -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400,
    )
    im, _ = integrate.quad(
        lambda w: (float(ff.g2(w)) * (E - w).conjugate()).imag / abs(E - w) ** 2,
        -np.inf, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400,
    )
    return complex(re, im)


# -- Lorentzian closed form -------------------------------------------


def test_lorentzian_value_purely_imaginary_on_axis(lor):
    # lambda^2/(E + i*Lambda) at E = i is 0.01/(2i) = -0.005i.
    sv = self_energy(lor, 1j)
    assert sv.value == pytest.approx(-0.005j, abs=1e-15)
    assert sv.sheet is Sheet.FIRST


def test_lorentzian_value_rational_point(lor):
    # 0.01/(1 + 3i) = 0.001 - 0.003i by exact rational arithmetic.
    sv = self_energy(lor, 1.0 + 2.0j)
    assert sv.value == pytest.approx(0.001 - 0.003j, abs=1e-16)
    assert sv.derivative == pytest.approx(-0.01 / (1.0 + 3.0j) ** 2, rel=1e-14)


def test_zero_coupling_gives_zero():
    ff = LorentzianCoupling(0.0, 1.0)
    for sheet in (Sheet.FIRST, Sheet.SECOND):
        sv = self_energy(ff, 0.3 - 0.2j, sheet)
        assert sv.value == 0.0 and sv.derivative == 0.0


def test_lorentzian_matches_direct_quadrature(lor):
    for E in (0.5 + 1.0j, -2.0 + 0.25j, 3.0 + 4.0j):
        assert self_energy(lor, E).value == pytest.approx(_quad_sigma(lor, E), abs=1e-8)


# -- general-family route: the g2 fit ----------------------------------


def test_tpl_matches_direct_quadrature(tpl):
    for E in (0.5 + 1.0j, 2.0 + 0.3j, -1.0 + 0.5j):
        assert self_energy(tpl, E).value == pytest.approx(_quad_sigma(tpl, E), abs=1e-8)


def test_herglotz_negative_imaginary_part(lor, tpl):
    rng = np.random.default_rng(11)
    for _ in range(20):
        E = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        for ff in (lor, tpl):
            assert self_energy(ff, E).value.imag < 0.0


def test_derivative_matches_central_differences(lor, tpl):
    cases = [
        (lor, 0.8 + 0.6j, Sheet.FIRST),
        (tpl, 0.8 + 0.5j, Sheet.FIRST),
        (tpl, 1.5 - 0.4j, Sheet.SECOND),
    ]
    for ff, E, sheet in cases:
        h = 1e-5 * max(1.0, abs(E))
        fd = (
            self_energy(ff, E + h, sheet).value - self_energy(ff, E - h, sheet).value
        ) / (2.0 * h)
        assert self_energy(ff, E, sheet).derivative == pytest.approx(fd, rel=1e-6)


def test_coupling_scaling_is_quadratic(tpl):
    # Sigma depends on the coupling only through g2 ~ lambda^2.
    tripled = replace(tpl, coupling=3 * tpl.coupling)
    for E in (0.4 + 0.2j, 2.0 - 0.5j):
        base = self_energy(tpl, E).value
        assert self_energy(tripled, E).value == pytest.approx(9.0 * base, rel=1e-12)


# -- cut values and sheet relations -----------------------------------


def test_real_shift_lorentzian_boundary_values(lor):
    assert real_shift(lor, 0.0) == 0.0
    assert real_shift(lor, 1.0) == pytest.approx(0.005, rel=1e-12)
    assert real_shift(LorentzianCoupling(0.0, 1.0), 0.3) == 0.0


def test_boundary_consistency_from_above(tpl):
    # Sigma_I(w + i*eps) approaches Delta_R(w) - i*pi*g2(w).
    w, eps = 0.8, 1e-6
    above = self_energy(tpl, complex(w, eps)).value
    limit = complex(real_shift(tpl, w), -math.pi * float(tpl.g2(w)))
    assert above == pytest.approx(limit, abs=1e-5)


def test_second_sheet_continues_first_through_cut(tpl):
    # Continuation correctness, reading one: crossing the cut is smooth.
    w, eps = 0.8, 1e-6
    above = self_energy(tpl, complex(w, eps), Sheet.FIRST).value
    below = self_energy(tpl, complex(w, -eps), Sheet.SECOND).value
    assert above == pytest.approx(below, abs=1e-5)


def test_two_sheet_gap_is_continued_density(tpl):
    # Reading two: at the same point below the axis the sheets differ by
    # exactly the continuation term 2*pi*i*g2.
    w, eps = 0.8, 1e-6
    first = self_energy(tpl, complex(w, -eps), Sheet.FIRST).value
    second = self_energy(tpl, complex(w, -eps), Sheet.SECOND).value
    assert first - second == pytest.approx(2j * math.pi * float(tpl.g2(w)), abs=1e-5)


@pytest.mark.parametrize("E", [0.3 + 1e-3j, 50.0 + 5.0j, 0.7 - 1e-9j, 2.4 + 0.3j, -1.0 + 0.1j,
                               3.0 - 2.0j])
def test_power_law_self_energy_matches_residue_closed_form(tpl, E):
    # The keyhole-contour residues give Sigma in closed form for q = 4,
    # with no quadrature: above, below and left of the cut, near and far.
    assert self_energy(tpl, E).value == pytest.approx(power_law_sigma(tpl, E), rel=1e-14, abs=0.0)


def test_power_law_shift_matches_residue_closed_form(tpl):
    # Just above the axis the closed form's real part is the principal value.
    ws = np.array([0.05, 0.7, 2.4, 10.0])
    shift = real_shift(tpl, ws)
    expected = np.array([power_law_sigma(tpl, w + 1e-14j).real for w in ws])
    assert np.max(np.abs(shift - expected)) <= 1e-13 * np.max(np.abs(shift))


def test_power_law_second_sheet_matches_residue_closed_form(tpl):
    # The second sheet subtracts the continued density from the first
    # sheet's closed form; the pole of omega_a = 2.4 solves the pole
    # equation on the closed form too.
    def second(E):
        return power_law_sigma(tpl, E) - 2j * math.pi * tpl.g2_continued(E)[0]

    pole = find_pole(tpl, 2.4).e_pole
    for E in (pole, 1.5 - 0.4j):
        value = self_energy(tpl, E, Sheet.SECOND).value
        assert value == pytest.approx(second(E), rel=1e-14, abs=0.0)
    assert abs(pole - 2.4 - second(pole)) <= 1e-15


def test_second_sheet_on_real_axis_needs_a_hook(lor, tpl):
    # On the real axis the generic second sheet is refused, and the
    # boundary value from above is real_shift - i*pi*g2; a closed-form
    # hook still answers there, with that value.
    w = 1.2
    for E in (complex(w, 0.0), complex(-0.3, 0.0), complex(w, -0.0)):
        with pytest.raises(DomainError, match="real_shift"):
            self_energy(tpl, E, Sheet.SECOND)
    sv = self_energy(lor, complex(w, 0.0), Sheet.SECOND)
    expected = complex(real_shift(lor, w), -math.pi * float(lor.g2(w)))
    assert sv.value == pytest.approx(expected, rel=1e-14)


def test_first_sheet_on_cut_rejected(lor, tpl):
    for ff in (lor, tpl):
        with pytest.raises(DomainError):
            self_energy(ff, complex(0.5, 0.0), Sheet.FIRST)


def test_continuation_capability_errors(tab_lorentzian):
    with pytest.raises(ContinuationUnsupportedError):
        self_energy(tab_lorentzian, 1.0 - 0.1j, Sheet.SECOND)
    odd_exponent = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.7, 4.0)
    assert not odd_exponent.continuable
    with pytest.raises(ContinuationUnsupportedError):
        self_energy(odd_exponent, 1.0 - 0.1j, Sheet.SECOND)
    with pytest.raises(ContinuationUnsupportedError):
        odd_exponent.g2_continued(1.0 - 0.1j)
    with pytest.raises(ContinuationUnsupportedError, match="defines no continued g2"):
        self_energy(_ClaimsContinuation(), 1.0 - 0.1j, Sheet.SECOND)


# -- tabulated family --------------------------------------------------


def test_tabulated_tracks_lorentzian_off_cut(lor, tab_lorentzian):
    # Truncation of the tails at |w| = 100 bounds the agreement.
    for E in (0.5 + 1.0j, 2.0 + 0.3j, 1.0 - 2.0j):
        a = self_energy(tab_lorentzian, E).value
        b = self_energy(lor, E).value
        assert a == pytest.approx(b, abs=1e-6)


def test_tabulated_real_shift_tracks_lorentzian(lor, tab_lorentzian):
    for w in (1.0, 2.0039, -0.5):
        assert real_shift(tab_lorentzian, w) == pytest.approx(
            real_shift(lor, w), abs=1e-6
        )


def test_tabulated_real_shift_finite_at_knot(tab_lorentzian):
    # Hitting a table knot exactly must not trip on the segment logs.
    knot = float(tab_lorentzian.omegas[10_000])
    assert math.isfinite(real_shift(tab_lorentzian, knot))


def test_tabulated_derivative_matches_finite_differences(tab_lorentzian):
    E = 1.5 + 0.8j
    h = 1e-5 * max(1.0, abs(E))
    fd = (
        self_energy(tab_lorentzian, E + h).value
        - self_energy(tab_lorentzian, E - h).value
    ) / (2.0 * h)
    assert self_energy(tab_lorentzian, E).derivative == pytest.approx(fd, rel=1e-6)


def test_tabulated_shift_diverges_at_nonzero_edge():
    # A table that ends mid-density has a genuine log divergence there.
    ff = TabulatedCoupling([0.0, 1.0, 2.0], [0.5, 1.0, 0.5])
    with pytest.raises(DomainError):
        real_shift(ff, 2.0)


# -- batched level shift: array form and independent oracles ------------

# Power-law families of the oracle checks: (coupling, bandwidth, threshold,
# rise exponent p, cutoff exponent q); the last is not continuable and has
# its threshold off the origin.
SHIFT_CASES = [
    (0.1, 1.0, 0.0, 0.5, 4.0),
    (1.0, 1.0, 0.0, 0.5, 4.0),
    (0.1, 1.0, -0.3, 0.7, 6.0),
]


def _shift_points(ff):
    """Just above the threshold, at typical level energies, beyond 30Λ."""
    a = ff.threshold
    return [a + 1e-8, 0.7, 2.4, a + 35.0 * ff.bandwidth]


def _scipy_shift(ff, x):
    """Cauchy-weight PV quadrature on a finite piece plus a plain tail."""
    a = ff.threshold
    cut = max(2.0 * x - a, a + 4.0 * ff.bandwidth)

    def g(w):
        return float(ff.g2(w))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        pv, _ = integrate.quad(
            g, a, cut, weight="cauchy", wvar=x, epsabs=1e-14, epsrel=1e-13, limit=500
        )
        tail, _ = integrate.quad(
            lambda w: g(w) / (w - x), cut, np.inf, epsabs=1e-14, epsrel=1e-13, limit=500
        )
    return -(pv + tail)


def _mpmath_shift(mp, case, x):
    """PV integral in 30-digit arithmetic: the symmetric window folded onto
    (0, x − a], then the rest in the distance from x."""
    lam, bw, thr, p, q = (mp.mpf(v) for v in case)
    norm = q * mp.sin(mp.pi * (p + 1) / q) / (mp.pi * bw ** (p + 1))

    def g(w):
        s = w - thr
        return lam**2 * norm * s**p / (1 + (s / bw) ** q) if s > 0 else mp.mpf(0)

    x = mp.mpf(x)
    h = x - thr
    window = mp.quad(lambda s: (g(x - s) - g(x + s)) / s, [0, h / 2, h])
    dists = [h]
    while dists[-1] < 4 * bw:
        dists.append(dists[-1] * 4)
    rest = mp.quad(lambda d: -g(x + d) / d, dists + [mp.inf])
    return float(window + rest)


@pytest.mark.parametrize("case", SHIFT_CASES)
def test_batched_shift_matches_cauchy_weight_quadrature(case):
    ff = ThresholdPowerLawCoupling(*case)
    xs = _shift_points(ff)
    got = real_shift(ff, np.array(xs))
    tol = 1e-12 * max(1.0, case[0] ** 2)
    for x, value in zip(xs, got):
        assert value == pytest.approx(_scipy_shift(ff, x), abs=tol)


@pytest.mark.parametrize("case", SHIFT_CASES)
def test_batched_shift_matches_mpmath_principal_value(case):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ff = ThresholdPowerLawCoupling(*case)
    xs = _shift_points(ff)
    got = real_shift(ff, np.array(xs))
    tol = 1e-12 * max(1.0, case[0] ** 2)
    for x, value in zip(xs, got):
        assert value == pytest.approx(_mpmath_shift(mp, case, x), abs=tol)


def _mpmath_shift_at_threshold(mp, case):
    """Δ_R at the threshold itself, −∫ g²(ω)/(ω − ω_g) dω, in 30-digit arithmetic."""
    lam, bw, thr, p, q = (mp.mpf(v) for v in case)
    norm = q * mp.sin(mp.pi * (p + 1) / q) / (mp.pi * bw ** (p + 1))
    return float(-mp.quad(lambda s: lam**2 * norm * s ** (p - 1) / (1 + (s / bw) ** q),
                          [0, mp.mpf(10) ** -12, mp.mpf(10) ** -6, mp.mpf(10) ** -3, 1, mp.inf]))


# Δ_R of the weak power law (0.1, 1, 0, 1/2, 4) at every node where the
# spectral kernels at omega_a = 0.7, 1.1 and 2.4 asked for it, with the
# values of the double-exponential rule that served them before the g2 fit.
SHIFT_NODES = os.path.join(os.path.dirname(__file__), "data", "weak_power_law_shift.npz")


@pytest.mark.parametrize("omega_a", ["0_7", "1_1", "2_4"])
def test_power_law_shift_matches_former_rule_at_kernel_nodes(tpl, omega_a):
    with np.load(SHIFT_NODES) as data:
        nodes, former = data["nodes_" + omega_a], data["shifts_" + omega_a]
    assert np.max(np.abs(real_shift(tpl, nodes) - former)) <= 2e-14 * np.max(np.abs(former))


@pytest.mark.parametrize("case", SHIFT_CASES)
def test_shift_exact_on_panel_edges_and_threshold(case):
    # On the edge two panels share, each one's logarithm of the edge
    # distance is taken as zero, the limit in which they cancel; at the
    # threshold the fit's edge panel is replaced by the panels graded on
    # to it.  Off zero, nodes near the threshold round to its ulp (5.6e-17
    # at -0.3), which leaves ~1e-12 of the scale at the threshold and
    # ~3e-14 at 1e-12 from it (the double-exponential rule read 4.9e-13
    # and 8.3e-14 there).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ff = ThresholdPowerLawCoupling(*case)
    thr = case[2]
    lo = ff._shift_fit.lo
    edges = np.concatenate((lo[(lo > thr + 1e-12) & (lo < thr + 1e-9)][::4],
                            lo[(lo > thr + 0.1) & (lo < thr + 3.0)][::8]))
    scale = np.max(np.abs(real_shift(ff, np.linspace(thr, thr + 5.0, 201))))
    at_zero = thr == 0.0
    assert abs(real_shift(ff, thr) - _mpmath_shift_at_threshold(mp, case)) <= (
        2e-14 if at_zero else 1e-11) * scale
    want = [_mpmath_shift(mp, case, x) for x in edges]
    assert np.all(np.abs(real_shift(ff, edges) - want) <= (2e-14 if at_zero else 1e-13) * scale)
    # Across an edge the shift is continuous: the neighbours' logarithms
    # cancel (near the threshold one ulp of x moves it by more than that).
    for edge in edges[edges > thr + 0.1]:
        side = real_shift(ff, np.array([np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]))
        assert np.all(np.abs(side - real_shift(ff, edge)) <= 1e-13 * scale)


def test_one_fit_serves_every_route(monkeypatch):
    # Delta_R, Sigma on both sheets, the pole search, the bound state's
    # weight and a kernel build all read the one g2 fit of a coupling
    # value, which equal instances share.  No other test uses this
    # coupling, so no fit of it is kept from before.
    builds = []
    build = formfactor._build_shift_fit

    def counted(ff):
        builds.append(ff)
        return build(ff)

    monkeypatch.setattr(formfactor, "_build_shift_fit", counted)
    case = (0.137, 1.0, 0.0, 0.5, 4.0)
    ff = ThresholdPowerLawCoupling(*case)
    real_shift(ff, np.linspace(-1.0, 5.0, 7))
    for sheet in Sheet:
        self_energy(ThresholdPowerLawCoupling(*case), 2.4 - 0.01j, sheet)
    find_pole(ff, 2.4)
    # Below the threshold a bound state splits off; its weight takes Sigma'
    # on the real axis.
    assert len(find_bound_states(ThresholdPowerLawCoupling(*case), -0.5)) == 1
    assert amplitude._kernel_uncached(ff, 2.4).error <= 1e-11
    assert len(builds) == 1


def test_lorentzian_continuation_is_the_sheet_gap(lor):
    # Sigma_II - Sigma_I = -2 pi i g2_c(E) below the axis, on the family's
    # own closed forms, with g2_c the rational continuation
    # c/(z^2 + Lam^2), c = lam^2 Lam / pi; the derivatives differ by its slope.
    c = lor.coupling**2 * lor.bandwidth / math.pi

    def g2_c(z):
        return c / (z * z + lor.bandwidth**2)

    assert g2_c(0.7) == pytest.approx(float(lor.g2(0.7)), rel=1e-15)
    for E in (0.5 - 0.2j, 2.0 - 0.01j, -1.3 - 0.7j):
        first, second = (self_energy(lor, E, sheet) for sheet in (Sheet.FIRST, Sheet.SECOND))
        assert second.value - first.value == pytest.approx(-2j * math.pi * g2_c(E), rel=1e-14)
        slope = -2.0 * c * E / (E * E + lor.bandwidth**2) ** 2
        assert second.derivative - first.derivative == pytest.approx(
            -2j * math.pi * slope, rel=1e-12)


def test_real_shift_array_equals_scalar(lor, tpl, tab_lorentzian):
    grid = np.array([[-3.0, 1e-9, 0.5], [1.1, 2.4, 40.0]])
    for ff in (lor, tpl, tab_lorentzian):
        arr = real_shift(ff, grid)
        assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
        scalars = [real_shift(ff, float(w)) for w in grid.ravel()]
        assert all(isinstance(v, float) for v in scalars)
        assert arr.ravel().tolist() == scalars


@pytest.mark.parametrize("family", ["tpl", "tab_lorentzian"])
def test_real_shift_of_a_point_does_not_depend_on_the_others(request, family):
    # 10^4 points fill more than one chunk of the tree sum; the table's
    # span reaches past its moment-series radius on both sides.
    ff = request.getfixturevalue(family)
    lo, hi = (-2.0, 40.0) if family == "tpl" else (-250.0, 250.0)
    w = np.random.default_rng(11).uniform(lo, hi, 10_000)
    arr = real_shift(ff, w)
    assert np.array_equal(real_shift(ff, w[::-1]), arr[::-1])
    assert np.array_equal([real_shift(ff, float(x)) for x in w[::50]], arr[::50])


def test_real_shift_memory_does_not_grow_with_the_points(tpl):
    # The fit's near panels go in chunks like the tree sum, so the peak
    # does not grow with the points: 2e5 points take ~14 MB.
    real_shift(tpl, 0.5)
    w = np.linspace(-1.0, 10.0, 200_000)
    tracemalloc.start()
    try:
        real_shift(tpl, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _geometric_table():
    """A threshold table whose knots crowd the edge: 0 and 1e-6 ... 50."""
    om = np.concatenate(([0.0], np.geomspace(1e-6, 50.0, 3000)))
    return TabulatedCoupling(om, np.sqrt(om) / (1.0 + om * om) ** 2)


def _rough_table():
    """4000 random knots with random values."""
    rng = np.random.default_rng(7)
    return TabulatedCoupling(np.sort(rng.uniform(-5.0, 5.0, 4000)), rng.uniform(0.0, 1.0, 4000))


def _test_table(request, table):
    return {
        "tab_lorentzian": lambda: request.getfixturevalue("tab_lorentzian"),
        "geometric": _geometric_table,
        "rough": _rough_table,
        "three": lambda: TabulatedCoupling([-3.0, 0.0, 5.0], [0.0, 1.0, 0.0]),
        "two": lambda: TabulatedCoupling([0.0, 1.0], [1.0, 2.0]),
    }[table]()


@pytest.mark.parametrize("table", ["tab_lorentzian", "geometric", "rough", "three", "two"])
def test_table_knot_sum_matches_segment_sum(request, table):
    # The tree sum against the direct knot sum and the segment form, on
    # and off the support, exact knot hits included.  On the support it
    # is no worse than ten times the direct sum's own distance from the
    # segment form; outside, where Δ_R is far below the knot terms, each
    # point is held to the rounding scale ε·Σ|terms| of its own sum.
    ff = _test_table(request, table)
    om = ff.omegas
    lo, hi = ff.support()
    span = hi - lo
    rng = np.random.default_rng(3)
    inside = np.concatenate((
        rng.uniform(lo, hi, 200),
        om[rng.integers(1, om.size - 1, 40)] if om.size > 2 else [],
        om[[0, -1]] if ff.g2_values[0] == ff.g2_values[-1] == 0.0 else [],
    ))
    outside = np.concatenate((
        lo - span * rng.uniform(1e-9, 1.5, 20),
        hi + span * rng.uniform(1e-9, 1.5, 20),
        [lo - 40.0 * span, hi + 3e3 * span],
    ))
    for xs in (inside, outside):
        tree = real_shift(ff, xs)
        direct = direct_knot_sum(ff, xs)
        segment = np.array([segment_sum(ff, complex(x, 0.0)).real for x in xs])
        if xs is inside:
            bound = max(10.0 * np.max(np.abs(direct - segment)),
                        1e-15 * np.max(np.abs(segment)))
        else:
            bound = 4.0 * np.finfo(float).eps * knot_sum_scale(ff, xs)
        assert np.all(np.abs(tree - segment) <= bound)
        assert np.all(np.abs(tree - direct) <= bound)


@pytest.mark.parametrize("table", ["tab_lorentzian", "geometric", "rough", "three", "two"])
def test_knot_tree_near_zones_hold_at_most_twelve_knots(request, table):
    # Each near knot costs a logarithm per point, so a table's knot tree
    # halves its boxes down to 12 near knots.
    tree = _test_table(request, table)._knot_tree
    assert np.max(tree.near_hi - tree.near_lo) <= 12


def test_fit_tree_near_zones_hold_at_most_24_nodes():
    # A g² fit's tree, whose near terms take a division each, stops at 24
    # near nodes, so the power law's Δ_R keeps its floats.
    fit = formfactor._shared_shift_fit(ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)).tree
    assert 12 < np.max(fit.near_hi - fit.near_lo) <= 24


@pytest.mark.parametrize("table", ["tab_lorentzian", "geometric", "rough"])
def test_table_shift_far_outside_matches_exact_knot_sum(request, table):
    # Far outside a table its knot terms, of size |κ·x·ln x|, cancel to a
    # Δ_R of order 1/x: the term-by-term sum loses those digits (on the
    # rough table it is 1.6e-3 off at x ≈ 3e4, ten times Δ_R), the moment
    # series of the tree does not.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ff = _test_table(request, table)
    lo, hi = ff.support()
    span = hi - lo
    xs = np.array([lo - 0.6 * span, hi + 1.5 * span, lo - 40.0 * span, hi + 3e3 * span])
    scale = np.max(np.abs(real_shift(ff, np.linspace(lo, hi, 101)[1:-1])))
    got = real_shift(ff, xs)
    for x, value in zip(xs, got):
        assert abs(value - float(exact_knot_sum(mp, ff, x))) <= 1e-13 * scale


def test_table_sigma_far_outside_matches_exact_segment_sum():
    # Past twice its half-span from the centre a table's segment terms
    # cancel as its knot terms do: summed one by one they leave Sigma 8e-5
    # and Sigma' 6e-5 off on the rough table at hi + 40 spans.  The knot
    # tree's moments keep every digit, on the axis and off it.
    mp = pytest.importorskip("mpmath")
    ff = _rough_table()
    lo, hi = ff.support()
    span, centre = hi - lo, 0.5 * (lo + hi)
    for E in (complex(hi + 40.0 * span, 0.0), complex(centre, 30.0 * span),
              complex(lo - 2.5 * span, -0.3 * span)):
        sv = self_energy(ff, E)
        with mp.workdps(30):
            sigma, slope = exact_segment_sum(mp, ff, E)
        assert abs(sv.value - sigma) <= 1e-13 * abs(sigma)
        assert abs(sv.derivative - slope) <= 1e-13 * abs(slope)


@pytest.mark.parametrize("table", [
    TabulatedCoupling([0.0, 1.0, 2.0], [0.5, 1.0, 0.5]),
    TabulatedCoupling(np.linspace(-5.0, 5.0, 41), np.random.default_rng(1).uniform(0.1, 1.0, 41)),
], ids=["three", "forty-one"])
def test_table_far_field_matches_mpmath(table):
    # Past twice its half-span a table's Sigma, Sigma' and Delta_R are one
    # series in R/(E - c), held to the exact value itself out to 1e8 spans:
    # edge logarithms taken by complex log1p left Sigma 6e-9 and Delta_R
    # 2.7e-7 relative off on the forty-one-knot table.
    mp = pytest.importorskip("mpmath")
    lo, hi = table.support()
    centre, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    points = [centre + rho * radius * cmath.exp(1j * arg)
              for rho in (2.5, 1e2, 1e4, 1e6, 1e8) for arg in (0.0, math.pi / 4, math.pi / 2)]
    points.append(complex(centre - 3.0 * radius, -1e-9 * radius))
    for E in points:
        sv = self_energy(table, E)
        with mp.workdps(40):
            sigma, slope = exact_segment_sum(mp, table, E)
            shift = float(exact_knot_sum(mp, table, E.real)) if E.imag == 0.0 else None
        assert abs(sv.value - sigma) <= 1e-14 * abs(sigma)
        assert abs(sv.derivative - slope) <= 1e-14 * abs(slope)
        if shift is not None:
            assert abs(real_shift(table, E.real) - shift) <= 1e-14 * abs(shift)


@pytest.mark.parametrize("family, energy", [("lor", complex(math.nan, 1.0)),
                                            ("tpl", complex(math.nan, 1.0)),
                                            ("tpl", complex(math.inf, 1.0)),
                                            ("tpl", complex(0.5, -math.inf))])
def test_self_energy_rejects_a_non_finite_energy(request, family, energy):
    # Unchecked, NaN gives nan+nanj (with a RuntimeWarning on the fit
    # route), and inf+1j gives 0j.
    with pytest.raises(DomainError, match="energy must be finite"):
        self_energy(request.getfixturevalue(family), energy)


def test_real_shift_rejects_non_finite(tpl):
    with pytest.raises(DomainError):
        real_shift(tpl, np.array([0.5, math.nan]))


@dataclass(frozen=True)
class _Semicircle(FormFactor):
    """Custom family with two finite edges: g2 = (2 lam^2/pi) sqrt(1 - w^2)."""

    coupling: float = 0.3
    bandwidth: float = 1.0
    family = "semicircle"

    def g2(self, omega):
        w = np.asarray(omega, dtype=float)
        out = 2.0 * self.coupling**2 / math.pi * np.sqrt(np.clip(1.0 - w * w, 0.0, None))
        return out if out.ndim else float(out)

    def support(self):
        return (-1.0, 1.0)

    def g2_integral(self):
        return self.coupling**2

    def peak_energy(self):
        return 0.0


@dataclass(frozen=True)
class _ClaimsContinuation(_Semicircle):
    """Custom family that says it continues but defines no continued g2."""

    family = "claims_continuation"
    continuable = True


@dataclass(frozen=True)
class _Box(_Semicircle):
    """Custom family g2 = lam^2 on (0, 1): the shift diverges at both edges."""

    family = "box"

    def g2(self, omega):
        w = np.asarray(omega, dtype=float)
        out = np.where((w > 0.0) & (w < 1.0), self.coupling**2, 0.0)
        return out if out.ndim else float(out)

    def support(self):
        return (0.0, 1.0)

    def peak_energy(self):
        return 0.5


def test_custom_family_shift_matches_semicircle_hilbert_transform():
    # The shift is 2 lam^2 (x - sign(x) sqrt(x^2 - 1)) outside the support
    # and 2 lam^2 x inside it.
    ff = _Semicircle()
    lam2 = ff.coupling**2
    xs = np.array([-3.0, -1.0 - 1e-9, -0.99, 0.0, 0.3, 1.0 - 1e-9, 1.5])
    outside = np.abs(xs) > 1.0
    branch = np.where(outside, np.sign(xs) * np.sqrt(np.abs(xs * xs - 1.0)), 0.0)
    expected = 2.0 * lam2 * (xs - branch)
    assert real_shift(ff, xs) == pytest.approx(expected, abs=1e-13)
    # Exactly on an edge the integrand is ~ sqrt(edge distance)/distance,
    # and g2 cannot resolve distances below one ulp of the edge: the mass
    # lost there is ~ sqrt(1e-16) relative.
    edges = real_shift(ff, np.array([-1.0, 1.0]))
    assert edges == pytest.approx([-2.0 * lam2, 2.0 * lam2], abs=1e-8)
    # Past twice the fit's half-span from its centre the nodes are summed
    # directly; the closed form, written without cancellation, holds there
    # to rounding at every scale, down to a shift of ~1e-7.
    far = np.array([-2.5, 2.5, -10.0, 10.0, 1e3, -1e6])
    expected = 2.0 * lam2 * np.sign(far) / (np.abs(far) + np.sqrt(far * far - 1.0))
    assert real_shift(ff, far) == pytest.approx(expected, rel=1e-13, abs=0.0)
    # The direct sum goes in blocks; a point's value does not depend on them.
    w = np.random.default_rng(5).uniform(-1e3, 1e3, 2000)
    arr = real_shift(ff, w)
    assert np.array_equal(real_shift(ff, w[::-1]), arr[::-1])
    assert np.array_equal([real_shift(ff, float(x)) for x in w[::100]], arr[::100])


@dataclass(frozen=True)
class _Gaussian(_Semicircle):
    """Custom family on the whole line: g2 = (lam^2/sqrt(pi)) exp(-(w - 1/2)^2)."""

    family = "gaussian"

    def g2(self, omega):
        w = np.asarray(omega, dtype=float)
        out = self.coupling**2 / math.sqrt(math.pi) * np.exp(-((w - 0.5) ** 2))
        return out if out.ndim else float(out)

    def support(self):
        return (-math.inf, math.inf)

    def peak_energy(self):
        return 0.5


@dataclass(frozen=True)
class _Tent(_Semicircle):
    """Custom family g2 = lam^2 (1 - |w|) on (-1, 1), with its kink at 0."""

    family = "tent"

    def g2(self, omega):
        w = np.asarray(omega, dtype=float)
        out = self.coupling**2 * np.clip(1.0 - np.abs(w), 0.0, None)
        return out if out.ndim else float(out)

    def kinks(self):
        return np.array([0.0])


@pytest.mark.parametrize("family", [_Gaussian, _Tent])
def test_custom_family_shift_matches_cauchy_weight_quadrature(family):
    # The fit's tails out along both infinite sides (Gaussian), and a kink
    # and two edges where g2 vanishes linearly (tent), hit exactly too.
    ff = family()
    lo, hi = (-60.0, 60.0) if family is _Gaussian else ff.support()
    xs = np.array([-3.0, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.5])
    got = real_shift(ff, xs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for x, value in zip(xs, got):
            if lo < x < hi:
                want = -integrate.quad(lambda w: float(ff.g2(w)), lo, hi, weight="cauchy", wvar=x,
                                       epsabs=1e-15, epsrel=1e-13, limit=500)[0]
            else:
                want = integrate.quad(lambda w: float(ff.g2(w)) / (x - w), lo, hi,
                                      epsabs=1e-15, epsrel=1e-13, limit=500)[0]
            assert value == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("E", [1.0 - 1e-3j, -1.0 + 1e-6j, 0.3 + 1e-8j, 1.5, -3.0, 5.0 + 100.0j])
def test_custom_family_self_energy_matches_semicircle_closed_form(E):
    # Off the cut Sigma = 2 lam^2 (E - r) and Sigma' = 2 lam^2 (1 - E/r),
    # r = sqrt(E - 1) sqrt(E + 1) (~E at infinity); exactly above an edge
    # the fit's panels graded on to it are the near ones.
    ff = _Semicircle()
    E = complex(E)
    lam2 = ff.coupling**2
    r = cmath.sqrt(E - 1.0) * cmath.sqrt(E + 1.0)
    sv = self_energy(ff, E)
    assert sv.value == pytest.approx(2.0 * lam2 * (E - r), rel=1e-11)
    assert sv.derivative == pytest.approx(2.0 * lam2 * (1.0 - E / r), rel=1e-9)


def test_custom_family_shift_divergence_raises_domain_error():
    ff = _Box()
    xs = np.array([-2.0, 0.3, 0.5, 1.5])
    expected = ff.coupling**2 * np.log(np.abs(xs / (xs - 1.0)))
    assert real_shift(ff, xs) == pytest.approx(expected, abs=1e-13)
    # A nonzero density at an edge makes the shift diverge there: undefined
    # at that point, as for a table.
    with pytest.raises(DomainError, match="diverges"):
        real_shift(ff, 1.0)


# -- one fit on and off the cut: mpmath oracles, non-finite samples -----


def _mp_g2(mp, case):
    """The power-law density of ``case`` in mpmath, continued off the axis."""
    lam, bw, thr, p, q = (mp.mpf(v) for v in case)
    norm = q * mp.sin(mp.pi * (p + 1) / q) / (mp.pi * bw ** (p + 1))
    return lambda w: lam**2 * norm * (w - thr) ** p / (1 + ((w - thr) / bw) ** q)


def _mp_transform(mp, case, E, power):
    """∫ g2(w)/(E - w)^power dw on the support, split at the distances
    |Im E|·4^k from Re E so that the near-pole scale has pieces of its own."""
    g = _mp_g2(mp, case)
    thr, bw = mp.mpf(case[2]), mp.mpf(case[1])
    E = mp.mpc(E)
    x, d = E.real, abs(E.imag)
    pts = {thr, x} if x > thr else {thr}
    while d < 4 * bw:
        pts.update(w for w in (x - d, x + d) if w > thr)
        d *= 4
    return mp.quad(lambda w: g(w) / (E - w) ** power, sorted(pts) + [mp.inf])


def _principal_g2(case, E):
    """The power-law density of ``case`` and its slope at complex E, by principal powers."""
    lam, bw, thr, p, q = case
    c = lam**2 * q * math.sin(math.pi * (p + 1.0) / q) / (math.pi * bw ** (p + 1.0))
    s = complex(E) - thr
    u = (s / bw) ** q
    return c * s**p / (1.0 + u), c * s ** (p - 1.0) * (p * (1.0 + u) - q * u) / (1.0 + u) ** 2


@pytest.mark.parametrize(
    "case, E, sheet",
    [
        (SHIFT_CASES[0], 0.8 + 1e-6j, Sheet.FIRST),
        (SHIFT_CASES[1], 0.8 + 1e-6j, Sheet.FIRST),
        (SHIFT_CASES[0], 1e-7 - 1e-9j, Sheet.FIRST),  # below the cut, just past the threshold
        (SHIFT_CASES[0], 3.0 - 1e-11j, Sheet.SECOND),
        (SHIFT_CASES[0], 3.0 - 1e-14j, Sheet.SECOND),
    ],
)
def test_self_energy_near_cut_matches_residue_closed_form(case, E, sheet):
    # Sigma' at |Im E| = 1e-14 is O(1) left from pieces of O(1/|Im E|) in
    # any quadrature; the residue forms of the q = 4 power law take no
    # integral.  Below the axis the second sheet adds -2 pi i times the
    # continued density, here the principal power.
    ff = ThresholdPowerLawCoupling(*case)
    sv = self_energy(ff, E, sheet)
    sigma, dsigma = power_law_sigma(ff, E), power_law_sigma_slope(ff, E)
    if sheet is Sheet.SECOND:
        g2, dg2 = _principal_g2(case, E)
        sigma -= 2j * math.pi * g2
        dsigma -= 2j * math.pi * dg2
    assert sv.value == pytest.approx(sigma, rel=1e-12)
    assert sv.derivative == pytest.approx(dsigma, rel=1e-9)


@dataclass(frozen=True)
class _Holed(_Semicircle):
    """Semicircle whose density is NaN on (0.2, 0.4)."""

    family = "holed"

    def g2(self, omega):
        w = np.asarray(omega, dtype=float)
        out = np.where((w > 0.2) & (w < 0.4), math.nan, super().g2(w))
        return out if out.ndim else float(out)


def test_non_finite_density_raises_tolerance_error():
    ff = _Holed()
    with pytest.raises(ToleranceError):
        real_shift(ff, np.array([-3.0, 0.5, 2.0]))
    for E in (0.5 + 0.1j, 3.0):
        with pytest.raises(ToleranceError):
            self_energy(ff, E)


def test_non_finite_fit_shift_raises_tolerance_error(monkeypatch):
    # A fit whose transform is not finite is refused, not returned.
    from zenodecay import selfenergy

    monkeypatch.setattr(selfenergy, "_fit_shift", lambda fit, x: np.full(x.shape, math.nan))
    with pytest.raises(ToleranceError, match="not finite at") as exc:
        real_shift(_Semicircle(), np.array([0.5, 2.0]))
    assert exc.value.achieved == math.inf and exc.value.requested == 0.0


def test_lorentzian_second_sheet_refuses_its_pole(lor):
    # Sigma_II = lambda^2/(E + i*Lambda) has its one pole at E = -i*Lambda.
    with pytest.raises(DomainError, match="pole"):
        self_energy(lor, -1j * lor.bandwidth, Sheet.SECOND)
