"""Coupling families between a discrete state and a continuum.

A family is described by the squared coupling density ``g2(omega)`` — the
strength with which the discrete state couples to the continuum mode at
energy ``omega`` — together with its support and, where available, an
analytic continuation of ``g2`` into the complex energy plane.

Three families are provided:

``LorentzianCoupling``
    g²(ω) = (λ²/π)·Λ/(ω² + Λ²), supported on the whole real line.
    Integrates to λ² exactly, so the short-time curvature scale is 1/λ.

``ThresholdPowerLawCoupling``
    g²(ω) = λ²·N·(ω−ω_g)^p / (1 + ((ω−ω_g)/Λ)^q) for ω > ω_g, else 0,
    with N chosen so that ∫g² = λ².  Rises like a power at the threshold
    ω_g and drops off beyond the scale Λ; requires p > 0 and q > p + 1
    for integrability.

``TabulatedCoupling``
    Piecewise-linear interpolation of (ω, g²) samples; zero outside the
    tabulated range.  No analytic continuation.

Each family also owns whatever it knows in closed form — the Lorentzian's
rational self-energy and two-pole residue sum, the table's segment sums
and knot sum — through the optional hooks listed on :class:`FormFactor`;
the numerical layers fall back to their generic routes where a hook is
absent and never branch on a concrete family.  The generic self-energy
lives here too: a family without the hooks fits its g² on Legendre
panels once per coupling value, a fit that equal instances share, and
both Δ_R and Σ, Σ′ off the cut are that fit's exact transform (Neumann's
Q_k on the panels near the point, the panels' nodes as point charges
elsewhere); on the real axis those nodes are summed by the same source
tree as a table's knots.

Module-level operations: point queries with validation, the Zeno time
τ_Z = (∫g²dω)^(−1/2), and the effective bandwidth point ω̄ defined by
g²(ω̄)·Λ = 1/τ_Z².
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval as _polyval

from ._panels import (_DEGREES, _FIT, _GL_FRACTION, _GL_W, _GL_X, _LEG, _NODES, _CellMemo, _chunks,
                      _distinct, _memoized, _refine)
from ._roots import bracketed_roots
from .errors import (
    ContinuationUnsupportedError,
    DomainError,
    NoDecayError,
    OutOfRangeError,
    ToleranceError,
)

__all__ = [
    "FormFactor",
    "LorentzianCoupling",
    "ThresholdPowerLawCoupling",
    "TabulatedCoupling",
    "BandwidthPoint",
    "coupling_strength_squared",
    "zeno_time",
    "effective_bandwidth_coupling",
]

#: Threshold exponents whose continuation has a closed principal branch.
_CONTINUABLE_EXPONENTS = (0.5, 1.0, 1.5, 2.0)


class BandwidthPoint(NamedTuple):
    """Solution of the effective-bandwidth relation g²(ω̄)·Λ = 1/τ_Z².

    ``exact`` is False when the relation has no solution in the support and
    the reported point is the location of maximum coupling instead.
    """

    omega_bar: float
    g2_bar: float
    exact: bool


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class FormFactor:
    """Common interface for coupling families.

    Concrete families are immutable dataclasses; every method is pure, so
    instances may be shared freely between threads.

    A custom family defines six members: ``family`` (a name),
    ``bandwidth`` (its energy scale), :meth:`g2`, :meth:`support`,
    :meth:`g2_integral` and :meth:`peak_energy`; for a second sheet (pole
    search) two more, :attr:`continuable` and :meth:`g2_continued`, which
    only a family without a second-sheet ``sigma_closed_form`` is asked
    for.  That is enough for every quantity in the package, by the
    numerical routes.

    Optional closed-form hooks, ``None`` here; a family that knows the
    quantity exactly defines a method of that name instead:

    ``shift_closed_form(x)``
        Δ_R on a 1-D float array of real ω (else: the exact principal
        value of the family's g² fitted on Legendre panels, built on
        first use once per coupling value, shared by equal instances and
        kept as ``_shift_fit``; see :func:`~zenodecay.real_shift`).
    ``sigma_closed_form(E, second)``
        (Σ, Σ′) at complex E on the second sheet if ``second`` (asked
        only of continuable families, the real axis included), else on
        the first, off the cut (else: the exact transform of the same g²
        fit as Δ_R, continued by −2πi·g²(E) below the axis; a
        second-sheet E on the real axis is refused).
    ``pole_pair(omega_a)``
        For a propagator with exactly two second-sheet poles, both poles
        and their residues, ``(e1, e2, c1, c2)`` with C₁ + C₂ = 1 and E₁
        the pole of the level at ``omega_a``, which the pole search
        polishes by Newton (else: Newton starts from the golden-rule
        point, and ln P comes from the spectral route).

    Two more members have defaults: :meth:`kinks` (none) and
    :meth:`transition_asymmetry` (None).
    """

    family: str = "abstract"

    shift_closed_form = None
    sigma_closed_form = None
    pole_pair = None

    # -- squared coupling density ------------------------------------

    def g2(self, omega):
        """Squared coupling density at real energy ``omega`` (array-safe).

        Returns 0 outside the support; never raises for finite input.
        """
        raise NotImplementedError

    # -- support and moments -----------------------------------------

    def support(self) -> tuple[float, float]:
        """Lower and upper edge of the continuum (may be infinite)."""
        raise NotImplementedError

    def g2_integral(self) -> float:
        """∫ g²(ω) dω over the support (the inverse squared Zeno time)."""
        raise NotImplementedError

    def peak_energy(self) -> float:
        """Energy at which g² attains its maximum."""
        raise NotImplementedError

    def kinks(self) -> np.ndarray:
        """Energies where g² is not smooth, which quadrature takes as panel edges."""
        return np.empty(0)

    def transition_asymmetry(self, omega_a: float):
        """The family's own reading of whether a transition time exists.

        None when the family has no such reading; the general criterion
        is Z < 1 (see :func:`~zenodecay.existence_criteria`).
        """
        return None

    @functools.cached_property
    def _shift_fit(self) -> "_ShiftFit":
        """Legendre panels of g² and their node tree, built on first use.

        Σ depends on g² alone, so a family without closed forms fits g²
        once per coupling value, a fit that equal instances share
        (:func:`_shared_shift_fit`; an unhashable family builds its own),
        and takes every Δ_R (:func:`_fit_shift`) and every Σ off the cut
        (:func:`_fit_sigma`) from the fit.
        """
        return _memoized(_shared_shift_fit, self)

    @functools.cached_property
    def _level_free(self) -> dict:
        """What depends on g² alone, so on no level: filled on first use, kept by the instance.

        ``"probes"``: Δ_R at the probes of :func:`~zenodecay.find_bound_states`
        just past each finite support edge, by probe energy, which every
        scan of the instance reads.  ``"segments"``: the sorted kinks of
        g² and the spectral kernel's node values on the segments between
        them (``amplitude._segment_values``), which every kernel of the
        instance reads.
        """
        return {}

    # -- analytic continuation ---------------------------------------

    @property
    def continuable(self) -> bool:
        """Whether g² extends to an analytic function near the cut."""
        return False

    def g2_continued(self, z: complex) -> tuple[complex, complex]:
        """The continued g² and its derivative d(g²)/dz at complex ``z``.

        Asked only of a continuable family without a second-sheet
        ``sigma_closed_form`` (the Lorentzian continues through its hook).
        """
        raise ContinuationUnsupportedError(f"{self.family} family defines no continued g2")


@dataclass(frozen=True)
class LorentzianCoupling(FormFactor):
    """g²(ω) = (coupling²/π) · bandwidth / (ω² + bandwidth²) on all of ℝ.

    Parameters
    ----------
    coupling : float
        Strength λ ≥ 0; the density has integral λ² exactly.
    bandwidth : float
        Half-width Λ > 0 of the Lorentzian profile.

    Notes
    -----
    The support being the whole real line means the underlying Hamiltonian
    is unbounded below; the family is nevertheless the standard exactly
    solvable case and all downstream closed forms assume it.
    """

    coupling: float
    bandwidth: float

    family = "lorentzian"

    def __post_init__(self):
        object.__setattr__(self, "coupling", _require_finite("coupling", self.coupling))
        object.__setattr__(self, "bandwidth", _require_finite("bandwidth", self.bandwidth))
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    def g2(self, omega):
        omega = np.asarray(omega, dtype=float)
        lam2 = self.coupling**2
        out = (lam2 / math.pi) * self.bandwidth / (omega**2 + self.bandwidth**2)
        return out if out.ndim else float(out)

    def support(self):
        return (-math.inf, math.inf)

    def g2_integral(self):
        return self.coupling**2

    def peak_energy(self):
        return 0.0

    @property
    def continuable(self):
        return True

    def shift_closed_form(self, x):
        """Δ_R(ω) = λ²ω/(ω² + Λ²)."""
        return self.coupling**2 * x / (x * x + self.bandwidth**2)

    def sigma_closed_form(self, E, second):
        """Σ = λ²/(E ± iΛ): +iΛ on the second sheet and above the axis.

        The first sheet below the axis takes −iΛ; the second sheet has its
        only pole at E = −iΛ.
        """
        lam2 = self.coupling**2
        den = E + (1j if second or E.imag > 0 else -1j) * self.bandwidth
        if abs(den) < 1e-12 * self.bandwidth:
            raise DomainError(
                "second-sheet self-energy has a pole at E = -i*bandwidth; "
                f"requested E={E!r} is too close"
            )
        return lam2 / den, -lam2 / (den * den)

    def pole_pair(self, omega_a):
        """Both second-sheet poles and their residues ``(e1, e2, c1, c2)``.

        The pole equation (E − ω_a)(E + iΛ) = λ² is quadratic.  E₂ is the
        partner root from :func:`_lorentzian_roots`; since the roots sum to
        ω_a − iΛ, E₁ + iΛ = ω_a − E₂ exactly, so the pole of the level is

            E₁ = ω_a + λ²/(ω_a − E₂),

        which keeps Im E₁ = −γ₀/2 to full relative accuracy at any ω_a and
        coupling.  The residues of (E + iΛ)/((E − E₁)(E − E₂)) are
        C₁ = (E₁ + iΛ)/(E₁ − E₂) and C₂ = 1 − C₁, and Z = |C₁|².
        """
        lam, bw = self.coupling, self.bandwidth
        if lam == 0.0:
            raise NoDecayError("zero coupling: the level is stationary, no pole exists")
        e2 = _lorentzian_roots(lam, bw, omega_a)[1]
        e1 = omega_a + lam**2 / (omega_a - e2)
        if not (e1.imag < 0.0):
            raise DomainError(
                f"no decaying pole for coupling={lam}, bandwidth={bw}, omega_a={omega_a}")
        c1 = (e1 + 1j * bw) / (e1 - e2)
        return e1, e2, c1, 1.0 - c1

    def transition_asymmetry(self, omega_a):
        """ω_a² > Λ²: the level sits outside the Lorentzian's half-width."""
        return bool(omega_a**2 > self.bandwidth**2)


def _lorentzian(coupling, bandwidth) -> LorentzianCoupling:
    """The family of the Lorentzian closed forms, refused unless λ is positive and finite.

    Λ is checked by the family itself.
    """
    if not 0.0 < float(coupling) < math.inf:
        raise NoDecayError(f"coupling must be positive and finite, got {coupling!r}")
    return LorentzianCoupling(coupling, bandwidth)


def _lorentzian_roots(lam: float, bw: float, omega_a: float) -> tuple:
    """Both roots of (E − ω_a)(E + iΛ) = λ², the pole of the level first.

    That is the root with the smaller |Im E|.  The two |Im E| tie only at
    ω_a = 0 with 2λ > Λ, where the roots mirror each other about Re E = 0
    and rounding alone tells their widths apart; within a few ulps the
    root with Re E ≥ 0 goes first.  The roots of E² + bE + c are
    q = −(b ± √(b² − 4c))/2, the sign avoiding cancellation, and c/q.
    """
    b = 1j * bw - omega_a
    c = -(1j * bw * omega_a + lam**2)
    root = cmath.sqrt(b * b - 4.0 * c)
    q = -0.5 * (b + root if (b.conjugate() * root).real >= 0.0 else b - root)
    near, far = sorted((complex(q), complex(c / q)), key=lambda E: abs(E.imag))
    if abs(far.imag) - abs(near.imag) <= 8.0 * math.ulp(far.imag) and near.real < 0.0:
        near, far = far, near
    return near, far


@dataclass(frozen=True)
class ThresholdPowerLawCoupling(FormFactor):
    """Power-law rise at a threshold with a power-law drop beyond Λ.

    g²(ω) = coupling²·N·(ω−threshold)^p / (1 + ((ω−threshold)/Λ)^q)
    for ω > threshold, zero otherwise, where p = ``rise_exponent``,
    q = ``cutoff_exponent`` and the normalization

        N = q·sin(π(p+1)/q) / (π·Λ^(p+1))

    makes ∫g² = coupling² (so the Zeno time is 1/coupling, matching
    the Lorentzian convention).

    Parameters
    ----------
    coupling : float
        Strength λ ≥ 0.
    bandwidth : float
        Drop-off scale Λ > 0.
    threshold : float
        Lower edge ω_g of the continuum.
    rise_exponent : float
        p > 0 — how fast g² vanishes at the threshold.
    cutoff_exponent : float
        q > p + 1 — how fast g² decays past the bandwidth.

    Notes
    -----
    Analytic continuation across the cut uses the principal branch of
    (z − threshold)^p and is only offered for p ∈ {1/2, 1, 3/2, 2};
    other exponents would need branch bookkeeping nothing here requires.
    """

    coupling: float
    bandwidth: float
    threshold: float
    rise_exponent: float
    cutoff_exponent: float

    family = "threshold_power_law"

    def __post_init__(self):
        for name in ("coupling", "bandwidth", "threshold", "rise_exponent", "cutoff_exponent"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.coupling < 0:
            raise ValueError(f"coupling must be >= 0, got {self.coupling}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.rise_exponent <= 0:
            raise ValueError(f"rise_exponent must be > 0, got {self.rise_exponent}")
        if self.cutoff_exponent <= self.rise_exponent + 1:
            raise ValueError(
                "cutoff_exponent must exceed rise_exponent + 1 for an "
                f"integrable density, got p={self.rise_exponent}, q={self.cutoff_exponent}"
            )

    @property
    def _norm(self) -> float:
        p, q = self.rise_exponent, self.cutoff_exponent
        return q * math.sin(math.pi * (p + 1.0) / q) / (math.pi * self.bandwidth ** (p + 1.0))

    def g2(self, omega):
        omega = np.asarray(omega, dtype=float)
        s = omega - self.threshold
        pos = s > 0
        out = np.zeros_like(s)
        sp = s[pos]
        out[pos] = (
            self.coupling**2
            * self._norm
            * sp**self.rise_exponent
            / (1.0 + (sp / self.bandwidth) ** self.cutoff_exponent)
        )
        return out if out.ndim else float(out)

    def support(self):
        return (self.threshold, math.inf)

    def g2_integral(self):
        # N is defined to cancel the Beta-type integral exactly.
        return self.coupling**2

    def peak_energy(self):
        p, q = self.rise_exponent, self.cutoff_exponent
        return self.threshold + self.bandwidth * (p / (q - p)) ** (1.0 / q)

    @property
    def continuable(self):
        return any(abs(self.rise_exponent - p) < 1e-12 for p in _CONTINUABLE_EXPONENTS)

    def g2_continued(self, z):
        if not self.continuable:
            return super().g2_continued(z)
        # Principal powers: analytic off the ray below the threshold.
        s = complex(z) - self.threshold
        p, q = self.rise_exponent, self.cutoff_exponent
        c = self.coupling**2 * self._norm
        u = (s / self.bandwidth) ** q
        return c * s**p / (1.0 + u), c * s ** (p - 1.0) * (p * (1.0 + u) - q * u) / (1.0 + u) ** 2


@dataclass(frozen=True, eq=False)
class TabulatedCoupling(FormFactor):
    """Sampled coupling density with linear interpolation.

    Parameters
    ----------
    omegas : array_like
        Strictly increasing sample energies (at least two).
    g2_values : array_like
        Non-negative g² samples at ``omegas``.
    bandwidth : float, optional
        Characteristic scale used by downstream grid heuristics;
        defaults to half the tabulated span.

    Notes
    -----
    Queries outside the table are zero when taken through :meth:`g2`
    (integrals treat the density as compactly supported) but raise
    :class:`~zenodecay.errors.OutOfRangeError` through the validating
    :func:`coupling_strength_squared` entry point.
    """

    omegas: np.ndarray
    g2_values: np.ndarray
    bandwidth: float = None  # type: ignore[assignment]

    family = "tabulated"

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        vals = np.asarray(self.g2_values, dtype=float)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("omegas must be a 1-D array with at least two samples")
        if vals.shape != om.shape:
            raise ValueError("g2_values must match omegas in shape")
        if not np.all(np.isfinite(om)) or not np.all(np.isfinite(vals)):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(om) <= 0):
            raise ValueError("omegas must be strictly increasing")
        if np.any(vals < 0):
            raise ValueError("g2_values must be non-negative")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "g2_values", vals)
        if self.bandwidth is None:
            object.__setattr__(self, "bandwidth", 0.5 * (om[-1] - om[0]))
        else:
            bw = _require_finite("bandwidth", self.bandwidth)
            if bw <= 0:
                raise ValueError(f"bandwidth must be > 0, got {bw}")
            object.__setattr__(self, "bandwidth", bw)

    def g2(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.interp(omega, self.omegas, self.g2_values, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def support(self):
        return (float(self.omegas[0]), float(self.omegas[-1]))

    def g2_integral(self):
        return self._g2_total

    @functools.cached_property
    def _g2_total(self) -> float:
        """The trapezoid sum of :meth:`g2_integral`, taken once per table."""
        return float(np.trapezoid(self.g2_values, self.omegas))

    def peak_energy(self):
        return float(self.omegas[int(np.argmax(self.g2_values))])

    def kinks(self):
        return self.omegas

    @functools.cached_property
    def _knot_tree(self) -> "_Tree":
        """The tree of :meth:`shift_closed_form`, built once per table."""
        return _build_knot_tree(self.omegas, self.g2_values)

    @functools.cached_property
    def _far_series(self) -> np.ndarray:
        """The a_n of the far field of :meth:`sigma_closed_form`, taken once per table."""
        return _far_coefficients(self.omegas, self.g2_values)

    def shift_closed_form(self, x):
        """Exact Δ_R of the piecewise-linear density on a 1-D array of ω.

        Summing the segment closed forms of :meth:`sigma_closed_form` on
        the real axis and collecting the logarithm of each knot leaves one
        real log per knot:

            Δ_R(x) = Σ_j κ_j (x − ω_j) ln|x − ω_j|
                     + v_0 ln|x − ω_0| − v_N ln|x − ω_N| − (v_N − v_0),

        with κ_j the jump of the slope at knot j (the slope is zero outside
        the table) and v_0, v_N the edge values.  At an exact knot hit the
        term (x − ω_j) ln|x − ω_j| is zero; at an edge with a nonzero value
        the shift diverges.

        The knot sum is a tree sum (Greengard and Rokhlin, J. Comput. Phys.
        73, 325 (1987)), built on the first call and kept with the table.
        The root box, a power-of-two span on a multiple of it, covers
        [c − 2R, c + 2R] (c, R the centre and half-span of the table); a
        box is halved until its near zone — the box and its two neighbours
        of equal width — holds at most ``_KNOT_NEAR`` = 12 knots (a g² fit's
        tree stops at 24 nodes), so clustered knots make deep leaves, not
        long near sums.  Every box carries its
        far field, the sum over the knots outside its near zone, as values
        at ``_TREE_ORDER`` Chebyshev nodes: its parent's far field
        interpolated there, plus the knots that join its far set between
        the two levels, box by box, each box acting through its two lowest
        moments and its Chebyshev proxy charges (see :func:`_build_tree`
        and :func:`_log_field`).  At
        x the leaf's far-field series is summed and the knots of its near
        zone are added exactly, then the edge terms.  Past |x − c| > 2R,
        where every knot is far, Δ_R is the table's far-field series in
        R/(x − c) instead, the one of :meth:`sigma_closed_form` taken on
        the axis.  There the knot terms, of size |κ_j·x·ln|x||, cancel to
        a Δ_R of order 1/x, and a term-by-term sum keeps none of its digits
        on a rough table; the series forms no logarithm and cancels nothing.

        Error bound: a far knot sits at least one box width outside the
        box, so its term is analytic inside the Bernstein ellipse of
        parameter ρ = 3 + √8 ≈ 5.83 around the box (and around the knot's
        own box, for its proxy charges), and Chebyshev interpolation on
        n = ``_TREE_ORDER`` = 24 nodes misses it by at most
        4ρ^(−n)/(ρ − 1) ≈ 3.5·10^(−19) of its largest modulus on that
        ellipse; each interpolation between levels adds the same factor on
        the parent's far field, and the far-field series is cut below
        2^(−46) of its first term.  What remains is rounding, the size of
        the direct knot sum's: ε·Σ_j |κ_j (x − ω_j) ln|x − ω_j||.  The tree costs
        O(n) per knot and level once, and O(``_KNOT_NEAR`` + n) per x.  Each
        near knot costs a logarithm: with 12 near knots instead of 24, a
        2000-point call on 20001 knots takes 0.52 ms instead of 0.69 ms
        (one core of a 2-core Xeon).
        """
        om = self.omegas
        fv = self.g2_values
        edges = np.zeros_like(x)
        for edge, value in ((om[0], fv[0]), (om[-1], -fv[-1])):
            if value != 0.0:
                if np.any(x == edge):
                    raise DomainError(f"on-cut value diverges at the support edge {edge} "
                                      "where the table is nonzero")
                edges += value * np.log(np.abs(x - edge))
        tree, a = self._knot_tree, self._far_series
        leaf, outer = _tree_leaf(tree, x)
        out = _tree_sum(tree, x, leaf, outer,
                        lambda tree, xs: _polyval(tree.radius / (xs - tree.centre), a), _knot_term)
        return np.where(outer, out, out + edges - (fv[-1] - fv[0]))

    def sigma_closed_form(self, E, second):
        """Σ_I and Σ_I′ by exact segment sums, in one pass (the table has no second sheet).

        The tabulated density *is* its linear interpolant, so segment
        [ω_k, ω_{k+1}], with c its left knot value, m its slope and
        u₀, u₁ = E − ω_k, E − ω_{k+1}, contributes in closed form

            Σ:  (c + m·u₀)·ln(u₀/u₁) − m·Δω,
            Σ′: −(c + m·u₀)·(1/u₁ − 1/u₀) + m·ln(u₀/u₁),

        with ln(u₀/u₁) taken as ln u₀ − ln u₁.  This is exact and immune
        to the interpolation kinks that defeat adaptive quadrature; off
        the support's span on the real axis both logarithms are real.

        Past |E − c| > 2R (c, R the table's centre and half-span) the
        segment terms cancel as the knot terms of :meth:`shift_closed_form`
        do, and both come from the table's far-field series instead, in
        z = R/(E − c) with |z| < ½:

            Σ = Σ_{n≥1} a_n zⁿ,   Σ′ = −(z/R)·Σ_{n≥1} n·a_n zⁿ,

        a_n = ∫ g² sⁿ⁻¹ ds (s = (ω − c)/R) the moments of g² itself, built
        once per table by :func:`_far_coefficients`.  Its terms are real
        multiples of zⁿ, so no logarithm is formed and nothing cancels, on
        the axis (Δ_R there) and off it alike.
        """
        om, fv = self.omegas, self.g2_values
        radius = 0.5 * (om[-1] - om[0])
        r = E - 0.5 * (om[0] + om[-1])
        if abs(r) > 2.0 * radius:
            z, a = radius / r, self._far_series
            return complex(_polyval(z, a)), complex(-z / radius * _polyval(z, np.arange(a.size) * a))
        dw = np.diff(om)
        m = np.diff(fv) / dw
        u0, u1 = E - om[:-1], E - om[1:]
        fE = fv[:-1] + m * u0
        logs = np.log(u0) - np.log(u1)
        return (complex(np.sum(fE * logs - m * dw)),
                complex(np.sum(-(fE * (1.0 / u1 - 1.0 / u0)) + m * logs)))


#: Chebyshev nodes per box of a source tree (series degree 23).
_TREE_ORDER = 24
#: A box of a g² fit's tree is a leaf once its near zone holds at most this
#: many sources; they are the exact terms of every point in the leaf, one
#: division each.
_TREE_NEAR = 24
#: The same for a table's knot tree, whose near terms take a logarithm each:
#: for 20001 knots, twice the leaves of _TREE_NEAR (6434) and a build of
#: 59–69 ms instead of 43–50 ms, once per table, for ~0.75 of the time per
#: point.  A near zone of 8 (12832 leaves) was faster still, but took the
#: peak RSS of 30 table rounds from 58 to 71 MB.
_KNOT_NEAR = 12
#: Box indices count box widths from zero; a box is halved only while its
#: index is below this, so that its children and their neighbours have
#: exact indices in a float.  Boxes narrower than the float spacing of
#: their position are never needed: distinct sources are that far apart.
_TREE_INDEX = 2.0**50
#: Halvings of the root after which every box is a leaf, so that sources
#: that coincide end the walk; no table or fit needs boxes that narrow.
_TREE_LEVELS = 256
#: Terms of a table's far-field series of Σ, Σ′ and Δ_R past |E − c| > 2R
#: (a₀ = 0 included).
_FAR_TERMS = 48
#: Points of a tree sum taken together: a chunk's near terms, up to
#: ``_TREE_NEAR`` per point on either tree, and its leaves' coefficients
#: stay below 1 MB.
_TREE_CHUNK = 4096
#: Offsets, in box widths, of the source boxes that join a box's far set.
_TREE_OFFSETS = np.array([-3.0, -2.0, 2.0, 3.0])
#: Terms of a fit's direct node sum past 2R formed at once, at most (2 MB).
_DIRECT_BLOCK = 2**18
#: First-kind Chebyshev nodes on [−1, 1], and node values → coefficients.
_CHEB_T = np.cos(np.pi * (np.arange(_TREE_ORDER) + 0.5) / _TREE_ORDER)
_CHEB_FIT = (2.0 / _TREE_ORDER) * np.cos(np.outer(np.arange(_TREE_ORDER), np.arccos(_CHEB_T)))
_CHEB_FIT[0] *= 0.5


def _lagrange_halves() -> tuple:
    """Node values of a box → values at the nodes of its left and right half.

    By the barycentric formula in long double, rounded once.  Each
    halving carries a box's far field down with the error of its
    matrices; a fit's tree, ~70 levels deep next to a threshold, needs
    them correctly rounded (formed through the Chebyshev coefficients in
    double, entries off by up to 8e-15, they left Δ_R 1e-13 off there).
    Where long double is double, the entries keep a few units of rounding.
    """
    nodes = _CHEB_T.astype(np.longdouble)
    gaps = nodes[:, None] - nodes
    np.fill_diagonal(gaps, 1.0)
    weights = 1.0 / np.prod(gaps, axis=1)
    halves = []
    for side in (-1.0, 1.0):
        terms = weights / ((0.5 * (nodes + side))[:, None] - nodes)
        halves.append((terms / terms.sum(axis=1, keepdims=True)).astype(float))
    return tuple(halves)


_CHEB_HALVES = _lagrange_halves()


class _Tree(NamedTuple):
    """Leaves of a source tree, in order.

    Leaf i spans [lo[i], lo[i+1]] with half-width ``half[i]``, so its
    centre is lo[i] + half[i]; ``coef`` holds the Chebyshev coefficients
    of its far field (one row per degree, one column per leaf), and
    sources ``near_lo[i]`` up to ``near_hi[i]`` (exclusive) are its near
    zone.  ``sources`` are the sorted positions ω_j, ``weights`` their
    weights w_j, all within ``radius`` R of ``centre`` c.
    """

    lo: np.ndarray
    half: np.ndarray
    coef: np.ndarray
    near_lo: np.ndarray
    near_hi: np.ndarray
    sources: np.ndarray
    weights: np.ndarray
    centre: float
    radius: float


def _chebyshev(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Σ_k c_k·T_k(t) by Clenshaw, with c_k = ``coef[k]`` broadcast against t.

    b_k = 2t·b_{k+1} − b_{k+2} + c_k, each step in new arrays: on the
    one-point calls of a table's Δ_R, in-place steps cost more than the
    arrays they spare (52 against 31 µs per call).
    """
    t2 = 2.0 * t
    b1, b2 = np.zeros_like(t), np.zeros_like(t)
    for k in range(_TREE_ORDER - 1, 0, -1):
        b1, b2 = t2 * b1 - b2 + coef[k], b1
    return t * b1 - b2 + coef[0]


def _build_tree(sources, weights, centre, radius, field, near) -> _Tree:
    """The tree of Σ_j w_j K(x − ω_j) over sorted sources ω_j within R of c.

    Two kernels share it: K(d) = d·ln|d| for a table's knots
    (:meth:`TabulatedCoupling.shift_closed_form`, ``field`` =
    :func:`_log_field`) and K(d) = 1/d for the nodes of a family's g² fit
    (:func:`_fit_shift`, ``field`` = :func:`_cauchy_field`).  Only the
    action of a source box on a box's Chebyshev nodes, ``field(sums, m1,
    charges, dist, width)``, depends on the kernel; the sum past
    |x − c| > 2R is the caller's (see :func:`_tree_sum`).  A box is
    halved until its near zone holds at most ``near`` sources.

    Boxes are dyadic: a box of a level spans [k·w, (k + 1)·w] for its
    integer index k and the level's power-of-two width w, so every edge
    and centre is exact, every source's box is floor(ω/w) exactly, and
    all boxes of a level are translates: one interpolation matrix per
    half and one interaction matrix per offset serve the whole level.
    The walk starts from the two boxes of width 2^⌈log₂ 4R⌉ that cover
    [c − 2R, c + 2R], and a level takes part only of the sources within
    three boxes of a live one, so a cluster of sources costs a few boxes
    per level however deep it goes.  The products run in ``einsum``'s own
    loops: a threaded BLAS call on matrices this small can stall for
    milliseconds when another process holds the other cores.

    Going down a level, the sources that join a box's far set fill the
    boxes two and three widths away on its outer side and two on its
    inner side.  Such a source box S, centre c_S, reaches the box through
    ``field`` from its sums Σ_j w_j T_m(2δ_j/w) (δ_j = ω_j − c_S, T_m the
    Chebyshev polynomials), its first moment M₁ = Σ_j w_j δ_j and its
    Chebyshev proxy charges Σ_j w_j ℓ_m(2δ_j/w) (ℓ_m the Lagrange basis
    of the nodes), with ``dist`` the distances of the box's nodes from
    c_S.
    """
    span = 2.0 ** math.ceil(math.log2(4.0 * radius))
    root = math.floor((centre - 2.0 * radius) / span)
    box = np.array([root, root + 1.0])
    far = np.zeros((2, _TREE_ORDER))
    leaves = []
    for level in range(1, _TREE_LEVELS + 1):
        width = span / 2.0 ** (level - 1)
        start = np.searchsorted(sources, (box[0] - 3.0) * width)
        stop = np.searchsorted(sources, (box[-1] + 4.0) * width)
        held = np.floor(sources[start:stop] / width)
        near_lo = start + np.searchsorted(held, box - 1.0, "left")
        near_hi = start + np.searchsorted(held, box + 1.0, "right")
        first = np.flatnonzero(np.r_[True, held[1:] != held[:-1]])
        ids = held[first]
        src = box[:, None] + _TREE_OFFSETS
        pos = np.minimum(np.searchsorted(ids, src), ids.size - 1)
        use = ids[pos] == src
        # Three widths out only on a box's outer side.
        right = np.mod(box, 2.0) == 1.0
        use[:, 0] &= right
        use[:, -1] &= ~right
        if np.any(use):
            # The boxes that act at this level, and their sources.
            acting = np.flatnonzero(np.bincount(pos[use], minlength=ids.size))
            count = np.append(first[1:], held.size)[acting] - first[acting]
            j = start + np.repeat(first[acting], count) + _ragged_offsets(count)
            w = weights[j]
            delta = sources[j] - (np.repeat(ids[acting], count) + 0.5) * width
            t = delta * (2.0 / width)
            cheb = np.empty((_TREE_ORDER, t.size))
            cheb[0], cheb[1] = 1.0, t
            t2 = 2.0 * t
            for k in range(1, _TREE_ORDER - 1):
                np.multiply(t2, cheb[k], out=cheb[k + 1])
                cheb[k + 1] -= cheb[k - 1]
            cheb *= w
            groups = np.cumsum(count) - count
            cheb_sums = np.ascontiguousarray(np.add.reduceat(cheb, groups, axis=1).T)
            charges = np.einsum("bk,km->bm", cheb_sums, _CHEB_FIT)
            m1 = np.add.reduceat(w * delta, groups)
            slot = np.searchsorted(acting, pos)
            for i in np.flatnonzero(use.any(axis=0)):
                p = slot[use[:, i], i]
                dist = 0.5 * width * _CHEB_T - _TREE_OFFSETS[i] * width
                far[use[:, i]] += field(cheb_sums[p], m1[p], charges[p], dist, width)
        split = ((near_hi - near_lo > near) & (level < _TREE_LEVELS)
                 & (np.abs(box) < _TREE_INDEX))
        leaf = ~split
        lo = box[leaf] * width
        leaves.append((lo, np.full(lo.size, 0.5 * width),
                       np.einsum("km,bm->kb", _CHEB_FIT, far[leaf]), near_lo[leaf], near_hi[leaf]))
        if not np.any(split):
            break
        box = np.repeat(2.0 * box[split], 2)
        box[1::2] += 1.0
        far = np.stack([np.einsum("bm,nm->bn", far[split], half) for half in _CHEB_HALVES], axis=1)
        far = far.reshape(-1, _TREE_ORDER)

    parts = [np.concatenate(part, axis=-1) for part in zip(*leaves)]
    order = np.argsort(parts[0], kind="stable")
    return _Tree(*(part[..., order] for part in parts), sources, weights, centre, radius)


def _log_field(sums, m1, charges, dist, width):
    """A source box's knots on a box's nodes for K(d) = d·ln|d|.

    At distance D = x − c_S,

        Σ_j κ_j φ(D − δ_j) = M₀φ(D) − M₁φ′(D) + Σ_j κ_j D·h(δ_j/D),

    φ(d) = d·ln|d|, M_k = Σ_j κ_j δ_j^k, and h(u) = (1 − u)·ln(1 − u) + u
    = O(u²).  The last sum, smooth in δ, goes through the proxy charges,
    whose rounding therefore never meets the large φ(D).
    """
    u = (0.5 * width * _CHEB_T) / dist[:, None]
    smooth = dist[:, None] * ((1.0 - u) * np.log1p(-u) + u)
    log_dist = np.log(np.abs(dist))
    return (np.outer(sums[:, 0], dist * log_dist)
            - np.outer(m1, log_dist + 1.0)
            + np.einsum("bm,nm->bn", charges, smooth))


def _cauchy_field(sums, m1, charges, dist, width):
    """A source box's nodes on a box's nodes for K(d) = 1/d, by its proxy charges.

    The weights of a fit's nodes are positive, so nothing cancels, and
    the charges alone serve: ``sums`` and ``m1`` go unused.
    """
    return np.einsum("bm,nm->bn", charges, 1.0 / (dist[:, None] - 0.5 * width * _CHEB_T))


def _cauchy_direct(tree: _Tree, x: np.ndarray) -> np.ndarray:
    """A fit's node sum Σ_j w_j/(x − ω_j) at x, |x − c| > 2R, summed directly.

    Every x − ω_j there has the sign of x − c and every w_j is positive,
    so nothing cancels and the plain sum keeps its digits.  Each x sums
    its own row, in blocks of at most ``_DIRECT_BLOCK`` terms.
    """
    out = np.empty_like(x)
    step = max(1, _DIRECT_BLOCK // tree.sources.size)
    for i in range(0, x.size, step):
        out[i:i + step] = np.sum(tree.weights / (x[i:i + step, None] - tree.sources), axis=1)
    return out


def _knot_term(tree: _Tree, x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """κ_j (x − ω_j) ln|x − ω_j|, zero at a knot hit."""
    d = x - tree.sources[j]
    ad = np.abs(d)
    ad[ad == 0.0] = 1.0  # (x − ω_j)·ln|x − ω_j| → 0 at a knot hit
    return tree.weights[j] * d * np.log(ad)


def _tree_leaf(tree: _Tree, x: np.ndarray):
    """The leaf of each x, and where x lies past 2R from the centre (no leaf)."""
    outer = np.abs(x - tree.centre) > 2.0 * tree.radius
    leaf = np.clip(np.searchsorted(tree.lo, x, "right") - 1, 0, tree.lo.size - 1)
    return leaf, outer


def _tree_sum(tree: _Tree, x: np.ndarray, leaf: np.ndarray, outer: np.ndarray,
              far, term) -> np.ndarray:
    """Σ_j w_j K(x − ω_j) on a 1-D array by the tree, given :func:`_tree_leaf` of x.

    In the leaf of x, its far-field series plus ``term(tree, xs, j)`` of
    the sources j of its near zone, added from 0 in the order of j; past
    |x − c| > 2R, ``far(tree, xs)``: a table's far-field series (see
    :meth:`TabulatedCoupling.sigma_closed_form`), :func:`_cauchy_direct`
    for a fit's nodes.
    Each point takes its terms in its own order, so its value does not
    depend on the other points.  The points go in chunks of
    ``_TREE_CHUNK``, each taking one gather of its leaves' coefficients,
    one ``term`` on its near zones laid end to end and one ``bincount``
    of them: about a hundred numpy calls per chunk, whatever the tree,
    so that a call on one point costs ~0.1 ms.
    """
    out = np.empty_like(x)
    if np.any(outer):
        out[outer] = far(tree, x[outer])
    inner = np.flatnonzero(~outer)
    for i in range(0, inner.size, _TREE_CHUNK):
        at = inner[i:i + _TREE_CHUNK]
        xs, box = x[at], leaf[at]
        half = tree.half[box]
        val = _chebyshev(tree.coef[:, box], (xs - (tree.lo[box] + half)) / half)
        count = tree.near_hi[box] - tree.near_lo[box]
        which = np.repeat(np.arange(at.size), count)
        j = np.repeat(tree.near_lo[box], count) + _ragged_offsets(count)
        near = term(tree, np.repeat(xs, count), j)
        out[at] = val + np.bincount(which, weights=near, minlength=at.size)
    return out


def _build_knot_tree(om: np.ndarray, values: np.ndarray) -> _Tree:
    """The knot tree of :meth:`TabulatedCoupling.shift_closed_form`: κ_j, K(d) = d·ln|d|."""
    slopes = np.diff(values) / np.diff(om)
    kappa = np.diff(slopes, prepend=0.0, append=0.0)
    centre = 0.5 * (om[0] + om[-1])
    radius = 0.5 * (om[-1] - om[0])
    return _build_tree(om, kappa, centre, radius, _log_field, _KNOT_NEAR)


def _far_coefficients(om: np.ndarray, values: np.ndarray) -> np.ndarray:
    """a_n of a table's Σ = Σ_{n≥1} a_n zⁿ, z = R/(E − c), for n < ``_FAR_TERMS``.

    a_n = ∫ g² sⁿ⁻¹ ds over s = (ω − c)/R, which integration by parts
    twice turns into (R·M_{n+1}/(n+1) + (−1)^{n+1}·v_0 + v_N)/n, with
    v_0, v_N the edge values and M_k = Σ_j κ_j s_j^k the knot moments.
    Those are summed by parts over the segments, R·M_k = −Σ Δv·(s₁^k −
    s₀^k)/(s₁ − s₀), so that no cancellation between slope jumps enters;
    the divided difference obeys d_k = s₁·d_{k−1} + s₀^(k−1).
    """
    centre = 0.5 * (om[0] + om[-1])
    radius = 0.5 * (om[-1] - om[0])
    s = (om - centre) / radius
    s0, s1 = s[:-1], s[1:]
    dv = np.diff(values)
    coef = np.zeros(_FAR_TERMS)
    diff, power = np.ones_like(s0), s0
    for n in range(1, _FAR_TERMS):
        diff = s1 * diff + power  # d_{n+1}
        power = power * s0
        coef[n] = (-np.sum(dv * diff) / (n + 1) + (-1.0) ** (n + 1) * values[0] + values[-1]) / n
    return coef


#: A panel of a family's g² fit is bisected until its last two Legendre
#: coefficients are within this fraction of g² at the peak, or of the
#: panel's own c₀, pointwise.
_FIT_ABSOLUTE = 1e-13
_FIT_RELATIVE = 1e-12
#: Width ratio of the fit's panels graded toward a finite support edge and
#: out along an infinite side: a panel [r, 1.5r] (in distance from the
#: edge or the peak) sits five half-widths from it.
_FIT_RATIO = 1.5
#: Graded edges per side at most: down to 1.5^−89 ≈ 2·10⁻¹⁶ bandwidths
#: from a finite edge, out to 1.5^120 ≈ 1.4·10²¹ bandwidths from the peak.
_FIT_FINE = 90
_FIT_COARSE = 120
#: The graded edges stop short of a finite edge by 2^−50 bandwidths, or by
#: 64 float spacings of the edge, so that no panel is so narrow that its
#: nodes round together.
_FIT_FLOOR = 2.0**-50
_FIT_ULPS = 64.0
#: A panel is near x, and its polynomial integrated exactly, while
#: |x − m| < 4h (m, h its centre and half-width); farther panels act
#: through their nodes.
_FIT_NEAR = 4.0
#: Legendre coefficients → values, and slopes in the panel coordinate, at the nodes.
_LEG_AT_NODES = _LEG.T
_LEG_SLOPE = np.array([np.polynomial.legendre.legval(_GL_X, np.polynomial.legendre.legder(unit))
                       for unit in np.eye(_NODES)])


class _ShiftFit(NamedTuple):
    """Legendre panels of a family's g², and what its Hilbert transform needs.

    Panel p spans [lo[p], hi[p]] and carries the Legendre coefficients
    ``coef[:, p]`` of g² in its own coordinate.  It is near every x in
    [near_lo[p], near_hi[p]); the x of cell c, [cells[c], cells[c+1]),
    have the near panels ``cell_panels[cell_start[c]:cell_start[c+1]]``.
    ``tree`` sums the panels' Gauss–Legendre nodes as point charges; node
    j lies ``offsets[j]`` above the lower edge of panel j // 10.
    ``divergent`` holds the support edges where g² does not vanish, and
    ``edge_shifts`` the (edge, panel, value) of every other finite edge:
    that panel's share of Δ_R at the edge itself.  ``kernel_cells`` holds
    Δ_R and g² at the nodes of the spectral kernel's lattice cells
    (``amplitude._cell_values``), which every kernel of the coupling value
    reads, at most ``_KERNEL_CELLS`` of them.
    """

    lo: np.ndarray
    hi: np.ndarray
    coef: np.ndarray
    near_lo: np.ndarray
    near_hi: np.ndarray
    cells: np.ndarray
    cell_start: np.ndarray
    cell_panels: np.ndarray
    offsets: np.ndarray
    tree: _Tree
    divergent: np.ndarray
    edge_shifts: tuple
    kernel_cells: _CellMemo


def _build_shift_fit(ff: FormFactor) -> _ShiftFit:
    """The fit of :func:`_fit_shift`, from g² alone.

    Initial edges: the peak, the kinks, geometric edges graded toward each
    finite support edge until g² falls below the absolute tolerance or
    the floor ``_FIT_FLOOR``/``_FIT_ULPS`` is reached, and geometric edges
    out along each infinite side until the mass scale g²(ω)·|ω − peak|/Λ
    is below it, where the fit ends.  :func:`~zenodecay._panels._refine`
    then bisects, pointwise, to ``_FIT_ABSOLUTE``·g²(peak) or
    ``_FIT_RELATIVE``·|c₀|.

    A finite edge where the fit is small against its own error (g²
    vanishes there, as at a threshold or the edge of a semicircle) has
    the fit's edge value taken out (:func:`_shift_end`), so that no
    logarithm of the edge distance is left; an edge where it is not (g²
    jumps there) is listed as ``divergent``.
    """
    a, b = ff.support()
    scale = ff.bandwidth
    peak = min(max(ff.peak_energy(), a), b)
    tol = _FIT_ABSOLUTE * abs(float(ff.g2(peak)))
    grades = _FIT_RATIO ** -np.arange(_FIT_FINE)
    fine = scale * grades
    coarse = scale * _FIT_RATIO ** np.arange(_FIT_COARSE)
    parts = [np.array([peak]), np.asarray(ff.kinks(), dtype=float)]
    ends = []
    for edge, side in ((a, 1.0), (b, -1.0)):
        if math.isfinite(edge):
            floor = max(_FIT_FLOOR * scale, _FIT_ULPS * np.spacing(abs(edge)))
            pts, weight = edge + side * fine[fine >= floor], 1.0
        else:
            pts, weight = peak - side * coarse, coarse / scale
        inside = (pts > a) & (pts < b)
        pts = pts[inside]
        low = np.flatnonzero(~(weight * np.abs(np.asarray(ff.g2(pts), dtype=float)) > tol))
        parts.append(pts[: low[0] + 1] if low.size else pts)
        ends.append(parts[-1][-1] if parts[-1].size else edge)
    edges = _distinct(np.concatenate(parts + [ends]))
    edges = edges[(edges >= ends[0]) & (edges <= ends[1])]

    def density(lo, h):
        """g² at the nodes of [lo, lo + h], moved back onto the nominal nodes.

        A node rounds to the float nearest lo + h·x_i, off by ``miss``,
        exactly (Knuth's TwoSum); next to a steep edge g² changes by
        g²′·miss there, so each sample takes the fit's own slope times it.
        """
        lo = lo[:, None]
        step = h[:, None] * _GL_FRACTION
        node = lo + step
        back = node - lo
        miss = (lo - (node - back)) + (step - back)
        g = np.asarray(ff.g2(node), dtype=float)
        return g + (g @ _FIT.T) @ _LEG_SLOPE * (miss / (0.5 * h[:, None]))

    def chunked(lo, h):
        """``density`` on each chunk of the panels of a pass, in turn."""
        return (density(lo[cols], h[cols]) for cols in _chunks(lo.size))

    lo, hi, coef, est, _ = _refine(chunked, edges[:-1], edges[1:], tol, _FIT_RELATIVE,
                                   integrated=False)
    # The panel between a finite edge and the innermost graded edge takes
    # one fit, unrefined: the edge's singularity would draw bisection on
    # to the tolerance, ~80 halvings deep at a threshold, for the values
    # within 2^−50 bandwidths of the edge alone.  Its c₀ is set from the
    # panel's mass, and its level shift at the edge itself kept, both
    # summed on sub-panels graded on to the edge, so that the panel acts
    # on every x outside it as g² does.
    at_edge = {}
    for edge, end in zip((a, b), ends):
        if math.isfinite(edge) and edge != end:
            e_lo, e_hi = min(edge, end), max(edge, end)
            e_coef = _FIT @ density(np.array([e_lo]), np.array([e_hi - e_lo]))[0]
            sub = _distinct(np.append(edge + (end - edge) * grades, edge))
            width = np.diff(sub)[:, None]
            charge = 0.5 * width * _GL_W * density(sub[:-1], width[:, 0])
            distance = np.abs((sub[:-1] - edge)[:, None] + width * _GL_FRACTION)
            e_coef[0] = np.sum(charge) / (e_hi - e_lo)
            at_edge[edge] = math.copysign(np.sum(charge / distance), edge - end)
            lo, hi = np.append(lo, e_lo), np.append(hi, e_hi)
            coef = np.column_stack((coef, e_coef))
            est = np.append(est, abs(e_coef[-2]) + abs(e_coef[-1]))
    order = np.argsort(lo)
    lo, hi, coef, est = lo[order], hi[order], coef[:, order], est[order]
    if not np.all(np.isfinite(coef)):
        bad = int(np.argmax(~np.all(np.isfinite(coef), axis=0)))
        raise ToleranceError(
            f"g2 is not finite on [{lo[bad]}, {hi[bad]}]; the level shift is undefined",
            achieved=math.inf, requested=tol,
        )

    divergent, edge_shifts = [], []
    for p, edge, t in ((0, a, -1.0), (lo.size - 1, b, 1.0)):
        if not math.isfinite(edge):
            continue
        if edge in at_edge:
            # The unrefined panel meets its neighbour's value at its inner
            # end, so that their logarithms cancel there.
            gap = _legendre_at(coef[:, p], -t) - _legendre_at(coef[:, p - int(t)], t)
            _shift_end(coef[:, p], -t, gap)
        value = _legendre_at(coef[:, p], t)
        if abs(value) > 100.0 * est[p] + 1e-10 * np.max(np.abs(coef[:, p] @ _LEG_AT_NODES)):
            divergent.append(edge)
        else:
            _shift_end(coef[:, p], t, value)
            if edge in at_edge:
                edge_shifts.append((edge, p, at_edge[edge]))

    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    near_lo, near_hi = m - _FIT_NEAR * h, m + _FIT_NEAR * h
    cells = np.concatenate(([-math.inf], _distinct(np.concatenate((near_lo, near_hi)))))
    first = np.searchsorted(cells, near_lo)
    count = np.searchsorted(cells, near_hi) - first
    panel = np.repeat(np.arange(lo.size), count)
    cell = np.repeat(first, count) + _ragged_offsets(count)
    order = np.argsort(cell, kind="stable")
    cell_start = np.searchsorted(cell[order], np.arange(cells.size + 1))

    offsets = ((hi - lo)[:, None] * _GL_FRACTION).ravel()
    nodes = np.repeat(lo, _NODES) + offsets
    charges = (h[:, None] * _GL_W * (coef.T @ _LEG_AT_NODES)).ravel()
    centre, radius = 0.5 * (lo[0] + hi[-1]), 0.5 * (hi[-1] - lo[0])
    tree = _build_tree(nodes, charges, centre, radius, _cauchy_field, _TREE_NEAR)
    return _ShiftFit(lo, hi, coef, near_lo, near_hi, cells, cell_start, panel[order], offsets,
                     tree, np.array(divergent), tuple(edge_shifts),
                     _CellMemo(_KERNEL_CELLS, 2 * _NODES))


#: Fits kept by coupling value: a sweep and a benchmark round build their
#: family anew for every ω_a, and a caller works through a few at a time.
_SHARED_FITS = 4
#: Lattice cells of the spectral kernel each fit keeps Δ_R and g² for: over
#: 200 rounds of two levels of the weak power law (ω_a in [1, 1.2] and
#: [1.8, 3]), 2048 / 4096 / 8192 cells served 82 / 89 / 93 % of the cells
#: asked for, and no bound 93.5 % from 10095 cells.  Full, 4096 cells take
#: ~1.9 MB, their keys included.
_KERNEL_CELLS = 4096


@functools.lru_cache(maxsize=_SHARED_FITS)
def _shared_shift_fit(ff: FormFactor) -> _ShiftFit:
    """:func:`_build_shift_fit`, once per coupling value: equal families share the fit.

    The build is deterministic, so the fit has the same floats whichever
    of the equal instances asks for it.
    """
    return _build_shift_fit(ff)


def _legendre_at(coef: np.ndarray, t: float) -> float:
    """A panel's polynomial at its end t = ±1: Σ_k c_k t^k."""
    return float(coef @ t ** _DEGREES)


def _shift_end(coef: np.ndarray, t: float, value: float) -> None:
    """Lower a panel's polynomial by ``value`` at its end t = ±1, in place.

    By (P₂ + t·P₁)/2, which is 1 at that end, 0 at the other and of zero
    mass, so neither the other end nor the panel's mass moves.
    """
    coef[1] -= 0.5 * t * value
    coef[2] -= 0.5 * value


def _ragged_offsets(count: np.ndarray) -> np.ndarray:
    """0, 1, …, count[i] − 1 for each i in turn."""
    return np.arange(np.sum(count)) - np.repeat(np.cumsum(count) - count, count)


def _legendre_q(s: np.ndarray, log_plus: np.ndarray, log_minus: np.ndarray) -> np.ndarray:
    """Q_k(s) = ½ ∫₋₁¹ P_k(t)/(s − t) dt for k < 10, one row per k, one column per s.

    Q₀ = ½(log(1 + s) − log(s − 1)), from the logarithms given: on the
    real axis their real parts (the principal value), off it the
    principal complex logarithms, whose difference has its cut on
    [−1, 1] alone.  The rest follow by the forward recurrence
    (k + 1)Q_{k+1} = (2k + 1)s·Q_k − k·Q_{k−1}.  For |s| > 1 the Q_k
    decay with k and the recurrence loses them, but what it loses grows
    like P_k(s): an error δ in Q₀ or Q₁ comes out as δ·Σ_k c_k P_k(s) =
    δ·p(s), the panel's polynomial continued to s, which for |s| < 4
    stays of the size of g² on the panels near it.
    """
    q = [0.5 * (log_plus - log_minus)]
    q.append(s * q[0] - 1.0)
    for k in range(1, _NODES - 1):
        q.append(((2 * k + 1) * s * q[k] - k * q[k - 1]) / (k + 1))
    return np.array(q)


def _fit_shift(fit: _ShiftFit, x: np.ndarray) -> np.ndarray:
    """Δ_R(x) = PV ∫ g²(ω)/(x − ω) dω of the fitted g², exactly, on a 1-D array.

    A panel [lo, hi] with centre m and half-width h contributes
    Σ_k c_k·2Q_k(s), s = (x − m)/h, by Neumann's integral for Q_k.
    Panels near x (|s| < 4) take that form, with 1 ± s formed from the
    exact edges as (x − lo)/h and (hi − x)/h so that the logarithms of
    two neighbours cancel at their shared edge; the logarithm of a zero
    distance is taken as 0, the limit where they do.  Every other panel
    acts through its ten Gauss–Legendre nodes, charges h·w_i·p(t_i) with
    the kernel 1/(x − ω_i), which for |s| ≥ 4 misses its exact form by
    c_k·O(7.9^(k−20)); these are summed by the source tree, whose near
    zone skips the nodes of near panels, and past |x − c| > 2R, where
    the tree has no leaf, directly over all nodes.  A near panel's nodes
    outside that zone are in the tree's far field or the direct sum, and
    are subtracted, so that no panel counts twice.  Each x takes its
    terms in its own order, so its value does not depend on the other
    points, and the near panels go in chunks of ``_TREE_CHUNK`` points,
    like the tree sum.
    """
    tree = fit.tree
    leaf, outer = _tree_leaf(tree, x)

    def term(tree, xs, j):
        p = j // _NODES
        d = (xs - fit.lo[p]) - fit.offsets[j]
        d[(xs >= fit.near_lo[p]) & (xs < fit.near_hi[p])] = math.inf
        return tree.weights[j] / d

    out = _tree_sum(tree, x, leaf, outer, _cauchy_direct, term)
    for i in range(0, x.size, _TREE_CHUNK):
        at = slice(i, i + _TREE_CHUNK)
        xs = x[at]
        cell = np.searchsorted(fit.cells, xs, "right") - 1
        start = fit.cell_start[cell]
        count = fit.cell_start[cell + 1] - start
        which = np.repeat(np.arange(cell.size), count)
        p = fit.cell_panels[np.repeat(start, count) + _ragged_offsets(count)]
        xp = xs[which]
        lo, hi = fit.lo[p], fit.hi[p]
        plus, minus = xp - lo, hi - xp
        log_h = np.log(0.5 * (hi - lo))
        log_plus = np.log(np.where(plus == 0.0, 1.0, np.abs(plus))) - log_h
        log_minus = np.log(np.where(minus == 0.0, 1.0, np.abs(minus))) - log_h
        q = _legendre_q((plus - minus) / (hi - lo), log_plus, log_minus)
        exact = 2.0 * np.einsum("kp,kp->p", fit.coef[:, p], q)
        for edge, panel, value in fit.edge_shifts:
            exact[(p == panel) & (xp == edge)] = value
        # The near panels' nodes that the tree's far field holds.
        near_leaf, near_outer = leaf[at][which], outer[at][which]
        nodes = p[:, None] * _NODES + np.arange(_NODES)
        held = ((nodes >= tree.near_lo[near_leaf][:, None])
                & (nodes < tree.near_hi[near_leaf][:, None]) & ~near_outer[:, None])
        d = plus[:, None] - fit.offsets[nodes]
        d[held] = math.inf
        exact -= np.sum(tree.weights[nodes] / d, axis=1)
        out[at] += np.bincount(which, weights=exact, minlength=cell.size)
    return out


def _fit_sigma(fit: _ShiftFit, E: complex) -> tuple[complex, complex]:
    """Σ(E) = ∫ g²(ω)/(E − ω) dω of the fitted g², and Σ′(E), at a complex E off the cut.

    The panels of :func:`_fit_shift` at complex s = (E − m)/h.  Those
    with |s| < 4 take Neumann's form Σ_k c_k·2Q_k(s), and Σ_k c_k·2Q_k′(s)/h
    for Σ′ by (s² − 1)Q_k′ = k(sQ_k − Q_{k−1}), Q₀′ = 1/(1 − s²); s ± 1
    are formed from the exact edges, as (E − lo)/h and (E − hi)/h, for
    the principal logarithms of Q₀ and for s² − 1, so that near a panel
    edge the two neighbours' poles cancel to the fit's own jump there.
    Every other panel acts through its nodes' charges, summed directly.
    """
    m, h = 0.5 * (fit.lo + fit.hi), 0.5 * (fit.hi - fit.lo)
    near = np.abs(E - m) < _FIT_NEAR * h
    h = h[near]
    plus, minus = (E - fit.lo[near]) / h, (E - fit.hi[near]) / h
    s = 0.5 * (plus + minus)
    q = _legendre_q(s, np.log(plus), np.log(minus))
    square = plus * minus  # s² − 1
    dq = np.empty_like(q)
    dq[0] = -1.0 / square
    dq[1:] = np.arange(1, _NODES)[:, None] * (s * q[1:] - q[:-1]) / square
    coef = fit.coef[:, near]
    charges = fit.tree.weights.reshape(-1, _NODES)[~near]
    r = 1.0 / (E - fit.tree.sources.reshape(-1, _NODES)[~near])
    value = 2.0 * np.sum(coef * q) + np.sum(charges * r)
    derivative = 2.0 * np.sum(coef * dq / h) - np.sum(charges * r * r)
    return complex(value), complex(derivative)


def coupling_strength_squared(ff: FormFactor, omega: float) -> float:
    """Validated point query of the squared coupling density.

    Parameters
    ----------
    ff : FormFactor
    omega : float
        Real energy; must be finite.

    Returns
    -------
    float
        g²(omega) ≥ 0; exactly 0 below the threshold of threshold families.

    Raises
    ------
    OutOfRangeError
        If a tabulated family is queried outside its tabulated range.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega!r}")
    if ff.family == "tabulated":
        lo, hi = ff.support()
        if omega < lo or omega > hi:
            raise OutOfRangeError(
                f"omega={omega} outside tabulated range [{lo}, {hi}]"
            )
    return float(ff.g2(omega))


def zeno_time(ff: FormFactor) -> float:
    """Short-time curvature scale τ_Z = (∫ g²(ω) dω)^(−1/2).

    Raises
    ------
    NoDecayError
        If the coupling vanishes (the Zeno time is infinite).
    """
    total = ff.g2_integral()
    if total == 0.0:
        raise NoDecayError("zero coupling: the Zeno time is infinite")
    return total**-0.5


#: Uniform samples of a bracket of :func:`effective_bandwidth_coupling`, besides its kinks.
_BANDWIDTH_SAMPLES = 64


def effective_bandwidth_coupling(ff: FormFactor) -> BandwidthPoint:
    """Solve g²(ω̄)·Λ = 1/τ_Z² for the effective bandwidth point ω̄.

    On each side of the coupling maximum ω_max a march doubles its reach,
    within the support, until g² falls below the required level.  That
    bracket is sampled at the kinks of g² inside it and on a uniform grid,
    and the first sign change going outward from ω_max is refined, so
    that a second bump past a dip below the level is not taken; of the
    two sides' crossings the one nearer ω_max is returned.  When
    the relation has no solution (the required level exceeds the maximum
    of g², as for the Lorentzian, where the mismatch is a factor of π, or
    g² stays above it out to the support's edges), the maximum itself is
    returned with ``exact=False``.

    Returns
    -------
    BandwidthPoint
        ``(omega_bar, g2_bar, exact)``.

    Raises
    ------
    NoDecayError
        If the coupling vanishes (the relation is empty).
    """
    total = ff.g2_integral()
    if total == 0.0:
        raise NoDecayError("zero coupling: no effective bandwidth point")
    target = total / ff.bandwidth  # 1/(tau_Z^2 * Lambda)
    omega_max = ff.peak_energy()
    g2_max = float(ff.g2(omega_max))
    if g2_max <= target:
        return BandwidthPoint(omega_max, g2_max, exact=abs(g2_max - target) <= 1e-10 * target)

    lo, hi = ff.support()

    def shifted(w):
        return np.asarray(ff.g2(w), dtype=float) - target

    brackets = []
    # March outward from the peak on each side, doubling the reach and
    # clamping it into the support (where g² may jump to zero at an edge),
    # until g2 falls below target or the edge is reached.
    for side, edge in ((-1.0, lo), (1.0, hi)):
        reach = ff.bandwidth
        end = min(max(omega_max + side * reach, lo), hi)
        while end != edge and shifted(end) > 0:
            reach *= 2.0
            end = min(max(omega_max + side * reach, lo), hi)
        if shifted(end) < 0:
            kinks = np.asarray(ff.kinks(), dtype=float)
            inside = kinks[((kinks - omega_max) * side > 0) & ((end - kinks) * side > 0)]
            grid = np.linspace(omega_max, end, _BANDWIDTH_SAMPLES)
            w = _distinct(np.concatenate((grid, inside)))[::int(side)]
            first = np.flatnonzero(shifted(w) < 0)[0]
            brackets.append(tuple(sorted((w[first - 1], w[first]))))

    if not brackets:
        return BandwidthPoint(omega_max, g2_max, exact=False)
    candidates = bracketed_roots(shifted, *np.array(brackets).T, xtol=1e-15, rtol=1e-15).tolist()
    omega_bar = min(candidates, key=lambda w: abs(w - omega_max))
    g2_bar = float(ff.g2(omega_bar))
    if abs(g2_bar - target) > 1e-10 * max(target, 1e-300):
        raise DomainError(
            f"effective bandwidth residual {abs(g2_bar - target):.3e} "
            "exceeds tolerance 1e-10"
        )
    return BandwidthPoint(omega_bar, g2_bar, exact=True)

