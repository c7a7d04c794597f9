"""Self-energy: closed forms, quadrature routes, sheets, cut values."""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

from zenodecay.errors import ContinuationUnsupportedError, DomainError, ToleranceError
from zenodecay.formfactor import FormFactor, LorentzianCoupling, ThresholdPowerLawCoupling
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


# -- general-family quadrature route ----------------------------------


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
    tripled = tpl.scaled(3.0)
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


def test_second_sheet_on_cut_equals_boundary_value(tpl):
    # The +0j convention evaluates the limit from above exactly.
    w = 1.2
    sv = self_energy(tpl, complex(w, 0.0), Sheet.SECOND)
    expected = complex(real_shift(tpl, w), -math.pi * float(tpl.g2(w)))
    assert sv.value == pytest.approx(expected, rel=1e-10)


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
    from zenodecay.formfactor import TabulatedCoupling

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


def test_real_shift_array_equals_scalar(lor, tpl, tab_lorentzian):
    grid = np.array([[-3.0, 1e-9, 0.5], [1.1, 2.4, 40.0]])
    for ff in (lor, tpl, tab_lorentzian):
        arr = real_shift(ff, grid)
        assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
        scalars = [real_shift(ff, float(w)) for w in grid.ravel()]
        assert all(isinstance(v, float) for v in scalars)
        assert arr.ravel().tolist() == scalars


def test_table_knot_sum_matches_segment_sum(tab_lorentzian):
    from zenodecay.selfenergy import _tabulated_value

    om = tab_lorentzian.omegas
    xs = np.concatenate([
        np.linspace(-99.99, 99.99, 37),
        om[[1, 4321, 10_000, 10_001, 19_999]],  # exact knot hits
        [-150.0, 130.0],  # outside the table
    ])
    got = real_shift(tab_lorentzian, xs)
    for x, value in zip(xs, got):
        segment_sum = _tabulated_value(tab_lorentzian, complex(x, 0.0)).real
        assert value == pytest.approx(segment_sum, abs=1e-14)


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


@pytest.mark.parametrize("E", [1.0 - 1e-3j, -1.0 + 1e-6j, 0.3 + 1e-8j, 1.5, -3.0, 5.0 + 100.0j])
def test_custom_family_self_energy_matches_semicircle_closed_form(E):
    # Off the cut Sigma = 2 lam^2 (E - r) and Sigma' = 2 lam^2 (1 - E/r),
    # r = sqrt(E - 1) sqrt(E + 1) (~E at infinity); exactly above an edge
    # the rule's pieces from x are cut at the scale |Im E|.
    ff = _Semicircle()
    E = complex(E)
    lam2 = ff.coupling**2
    r = cmath.sqrt(E - 1.0) * cmath.sqrt(E + 1.0)
    sv = self_energy(ff, E)
    assert sv.value == pytest.approx(2.0 * lam2 * (E - r), rel=1e-11)
    assert sv.derivative == pytest.approx(2.0 * lam2 * (1.0 - E / r), rel=1e-9)


def test_custom_family_shift_divergence_raises_tolerance_error():
    ff = _Box()
    xs = np.array([-2.0, 0.3, 0.5, 1.5])
    expected = ff.coupling**2 * np.log(np.abs(xs / (xs - 1.0)))
    assert real_shift(ff, xs) == pytest.approx(expected, abs=1e-13)
    # A nonzero density at an edge makes the shift diverge there.
    with pytest.raises(ToleranceError):
        real_shift(ff, 1.0)


# -- one rule on and off the cut: mpmath oracles, non-finite samples ----


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


@pytest.mark.parametrize(
    "case, E",
    [
        (SHIFT_CASES[0], 0.8 + 1e-6j),
        (SHIFT_CASES[1], 0.8 + 1e-6j),
        (SHIFT_CASES[0], 1e-7 - 1e-9j),  # below the cut, just past the threshold
    ],
)
def test_self_energy_near_cut_matches_mpmath(case, E):
    mp = pytest.importorskip("mpmath")
    sv = self_energy(ThresholdPowerLawCoupling(*case), E)
    with mp.workdps(20):
        sigma = complex(_mp_transform(mp, case, E, 1))
        dsigma = -complex(_mp_transform(mp, case, E, 2))
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
