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
absent and never branch on a concrete family.

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

from ._roots import bracketed_roots
from .errors import ContinuationUnsupportedError, DomainError, NoDecayError, OutOfRangeError

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
        Δ_R on a 1-D float array of real ω (else: the double-exponential
        rule of :func:`~zenodecay.real_shift`).
    ``sigma_closed_form(E, second)``
        (Σ, Σ′) at complex E on the second sheet if ``second`` (asked
        only of continuable families, the real axis included), else on
        the first, off the cut (else: the rule, continued by −2πi·g²(E)
        below the axis; a second-sheet E on the real axis is refused).
    ``pole_closed_form(omega_a)``
        The second-sheet pole E of the level at ``omega_a``, which the
        pole search polishes by Newton (else: Newton starts from the
        golden-rule point).
    ``pole_pair(e_pole, omega_a)``
        For a propagator with exactly two second-sheet poles, the partner
        of ``e_pole`` and both residues, ``(e1, e2, c1, c2)`` with
        C₁ + C₂ = 1 (else: no closed-form survival; ln P comes from the
        spectral route).  A family with this hook also has
        ``pole_closed_form``, whose pole it is given.

    Two more members have defaults: :meth:`kinks` (none) and
    :meth:`transition_asymmetry` (None).
    """

    family: str = "abstract"

    shift_closed_form = None
    sigma_closed_form = None
    pole_closed_form = None
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

    # -- analytic continuation ---------------------------------------

    @property
    def continuable(self) -> bool:
        """Whether g² extends to an analytic function near the cut."""
        return False

    def g2_continued(self, z: complex) -> tuple[complex, complex]:
        """The continued g² and its derivative d(g²)/dz at complex ``z``."""
        raise ContinuationUnsupportedError(
            f"{self.family} family has no analytic continuation"
        )


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

    def pole_closed_form(self, omega_a):
        """The second-sheet pole, by radicals (:func:`_lorentzian_pole`)."""
        if self.coupling == 0.0:
            raise NoDecayError("zero coupling: the level is stationary, no pole exists")
        return _lorentzian_pole(self.coupling, self.bandwidth, omega_a)

    def pole_pair(self, e_pole, omega_a):
        """Both second-sheet poles and their residues.

        The pole equation (E − ω_a)(E + iΛ) = λ² is quadratic, so the
        partner of ``e_pole`` is fixed by the root sum ω_a − iΛ; the
        residues C₁, C₂ of (E + iΛ)/((E−E₁)(E−E₂)) satisfy C₁ + C₂ = 1
        exactly.
        """
        e1 = e_pole
        e2 = omega_a - 1j * self.bandwidth - e1
        c1 = (e1 + 1j * self.bandwidth) / (e1 - e2)
        return e1, e2, c1, 1.0 - c1

    def transition_asymmetry(self, omega_a):
        """ω_a² > Λ²: the level sits outside the Lorentzian's half-width."""
        return bool(omega_a**2 > self.bandwidth**2)


def _lorentzian_pole(lam: float, bw: float, omega_a: float) -> complex:
    """The Lorentzian's second-sheet pole E = ω_a + Δ − iγ₀/2 by radicals.

    With Ω² = ω_a² + 4λ² − Λ², S = √(Ω⁴ + 4ω_a²Λ²), u = √((S + Ω²)/2)
    and v = √((S − Ω²)/2),

        Δ  = −ω_a/2 + sign(ω_a)·u/2,
        γ₀ = Λ − v = 8λ²Λ² / ((ω_a² + Λ² + 4λ² + S)(Λ + v)),

    the last form free of the cancellation that rounds Λ − v to zero at
    weak coupling.  The radicals presuppose a branch; the roots of the
    pole equation (E − ω_a)(E + iΛ) = λ² are the ground truth, and unless
    the radical value solves it to 1e−10 and is the longest-lived root,
    that root is returned instead.
    """
    omega2 = omega_a**2 + 4.0 * lam**2 - bw**2
    s = math.sqrt(omega2**2 + 4.0 * omega_a**2 * bw**2)
    u = math.sqrt(max(s + omega2, 0.0) / 2.0)
    v = math.sqrt(max(s - omega2, 0.0) / 2.0)
    delta = -omega_a / 2.0 + float(np.sign(omega_a)) * u / 2.0
    gamma0 = 8.0 * lam**2 * bw**2 / ((omega_a**2 + bw**2 + 4.0 * lam**2 + s) * (bw + v))
    candidate = complex(omega_a + delta, -gamma0 / 2.0)

    scale = max(1.0, abs(candidate))
    best = _lorentzian_roots(lam, bw, omega_a)[0]
    residual = abs((candidate - omega_a) * (candidate + 1j * bw) - lam**2)
    if residual > 1e-10 * scale or abs(candidate - best) > 1e-10 * scale:
        candidate = best
    if not (candidate.imag < 0.0):
        raise DomainError(f"no decaying pole for coupling={lam}, bandwidth={bw}, omega_a={omega_a}")
    return candidate


def _lorentzian_roots(lam: float, bw: float, omega_a: float) -> list:
    """Both roots of (E − ω_a)(E + iΛ) = λ², best first.

    Ordering: smaller |Im| first; ties broken by larger residue magnitude,
    then by Re ≥ 0 for determinism in the symmetric strong-coupling case.
    The roots of E² + bE + c are q = −(b ± √(b² − 4c))/2, the sign
    avoiding cancellation, and c/q.
    """
    b = 1j * bw - omega_a
    c = -(1j * bw * omega_a + lam**2)
    root = cmath.sqrt(b * b - 4.0 * c)
    q = -0.5 * (b + root if (b.conjugate() * root).real >= 0.0 else b - root)

    def sort_key(E):
        den = E + 1j * bw
        resid_mag = abs(1.0 / (1.0 + lam**2 / den**2)) if den != 0 else 0.0
        return (abs(E.imag), -resid_mag, -E.real)

    return sorted((complex(q), complex(c / q)), key=sort_key)


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
        return float(np.trapezoid(self.g2_values, self.omegas))

    def peak_energy(self):
        return float(self.omegas[int(np.argmax(self.g2_values))])

    def kinks(self):
        return self.omegas

    @functools.cached_property
    def _knot_tree(self) -> "_KnotTree":
        """The tree of :meth:`shift_closed_form`, built once per table."""
        return _build_knot_tree(self.omegas, self.g2_values)

    def shift_closed_form(self, x):
        """Exact Δ_R of the piecewise-linear density on a 1-D array of ω.

        Summing the segment closed forms of :func:`_tabulated_value` on the
        real axis and collecting the logarithm of each knot leaves one real
        log per knot:

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
        of equal width — holds at most ``_TREE_NEAR`` knots, so clustered
        knots make deep leaves, not long near sums.  Every box carries its
        far field, the sum over the knots outside its near zone, as values
        at ``_TREE_ORDER`` Chebyshev nodes: its parent's far field
        interpolated there, plus the knots that join its far set between
        the two levels, box by box, each box acting through its two lowest
        moments and its Chebyshev proxy charges (see
        :func:`_build_knot_tree`).  At
        x the leaf's far-field series is summed and the knots of its near
        zone are added exactly; past |x − c| > 2R, where every knot is far,
        the series of the knot sum in R/(x − c) is summed instead.  There
        the knot terms, of size |κ_j·x·ln|x||, cancel to a Δ_R of order
        1/x, and a term-by-term sum keeps none of its digits on a rough
        table; the series, from moments summed without that cancellation,
        does.

        Error bound: a far knot sits at least one box width outside the
        box, so its term is analytic inside the Bernstein ellipse of
        parameter ρ = 3 + √8 ≈ 5.83 around the box (and around the knot's
        own box, for its proxy charges), and Chebyshev interpolation on
        n = ``_TREE_ORDER`` = 24 nodes misses it by at most
        4ρ^(−n)/(ρ − 1) ≈ 3.5·10^(−19) of its largest modulus on that
        ellipse; each interpolation between levels adds the same factor on
        the parent's far field, and the moment series is cut at
        2^(−48)/48².  What remains is rounding, the size of the direct
        knot sum's: ε·Σ_j |κ_j (x − ω_j) ln|x − ω_j||.  The tree costs
        O(n) per knot and level once, and O(``_TREE_NEAR`` + n) per x.
        """
        om = self.omegas
        fv = self.g2_values
        for edge, value in ((om[0], fv[0]), (om[-1], fv[-1])):
            if value != 0.0 and np.any(x == edge):
                raise DomainError(
                    f"on-cut value diverges at the support edge {edge} where the table is nonzero"
                )
        edges = np.zeros_like(x)
        for edge, value in ((om[0], fv[0]), (om[-1], -fv[-1])):
            if value != 0.0:
                edges += value * np.log(np.abs(x - edge))
        return _knot_sum(self._knot_tree, x) + edges - (fv[-1] - fv[0])

    def sigma_closed_form(self, E, second):
        """Exact segment sums of Σ_I and Σ_I′ (the table has no second sheet)."""
        return _tabulated_value(self, E), _tabulated_deriv(self, E)


#: Chebyshev nodes per box of a table's knot tree (series degree 23).
_TREE_ORDER = 24
#: A box of the knot tree is a leaf once its near zone holds at most this
#: many knots; they are the exact terms of every point in the leaf.
_TREE_NEAR = 24
#: Halvings of the knot tree's root after which every box is a leaf: box
#: indices stay exact in a float, and no table needs boxes that narrow.
_TREE_LEVELS = 52
#: Terms of the moment series of a table's knot sum past |x − c| > 2R.
_TREE_MOMENTS = 48
#: First-kind Chebyshev nodes on [−1, 1], and node values → coefficients.
_CHEB_T = np.cos(np.pi * (np.arange(_TREE_ORDER) + 0.5) / _TREE_ORDER)
_CHEB_FIT = (2.0 / _TREE_ORDER) * np.cos(np.outer(np.arange(_TREE_ORDER), np.arccos(_CHEB_T)))
_CHEB_FIT[0] *= 0.5


#: Node values of a box → values at the nodes of its left and right half.
_CHEB_HALVES = tuple(
    np.cos(np.outer(np.arccos(0.5 * (_CHEB_T + side)), np.arange(_TREE_ORDER))) @ _CHEB_FIT
    for side in (-1.0, 1.0)
)


class _KnotTree(NamedTuple):
    """Leaves of a table's knot tree, in order, and its moment series.

    Leaf i spans [lo[i], lo[i+1]] around ``mid`` with half-width
    ``half``; ``coef`` holds the Chebyshev coefficients of its far field
    (one row per degree, one column per leaf), and knots ``near_lo[i]``
    up to ``near_hi[i]`` (exclusive) are its near zone.  ``knots`` are
    the ω_j, ``kappa`` the slope jumps κ_j, and ``moments`` the
    Σ_j κ_j ((ω_j − c)/R)^k.
    """

    lo: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    coef: np.ndarray
    near_lo: np.ndarray
    near_hi: np.ndarray
    knots: np.ndarray
    kappa: np.ndarray
    centre: float
    radius: float
    moments: np.ndarray


def _x_log_x(d):
    """d·ln|d|, for d ≠ 0."""
    return d * np.log(np.abs(d))


def _chebyshev(coef, t: np.ndarray) -> np.ndarray:
    """Σ_k c_k·T_k(t) by Clenshaw, with c_k = ``coef(k)`` broadcast against t."""
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for k in range(_TREE_ORDER - 1, 0, -1):
        b1, b2 = 2.0 * t * b1 - b2 + coef(k), b1
    return t * b1 - b2 + coef(0)


def _build_knot_tree(om: np.ndarray, values: np.ndarray) -> _KnotTree:
    """The knot tree of :meth:`TabulatedCoupling.shift_closed_form`.

    The root is a power-of-two span on a multiple of it, so every box edge
    and centre is exact and all boxes of one level are translates: one
    interpolation matrix per half and one interaction matrix per offset
    serve the whole level.  The products run in ``einsum``'s own loops:
    a threaded BLAS call on matrices this small can stall for
    milliseconds when another process holds the other cores.

    Going down a level, the knots that join a box's far set fill the
    boxes two and three widths away on its outer side and two on its
    inner side.  Such a source box S, centre c, acts at distance
    D = x − c through

        Σ_j κ_j φ(D − δ_j) = M₀φ(D) − M₁φ′(D) + Σ_j κ_j D·h(δ_j/D),

    φ(d) = d·ln|d|, δ_j = ω_j − c, M_k = Σ_j κ_j δ_j^k, and
    h(u) = (1 − u)·ln(1 − u) + u = O(u²).  M₀ and M₁ are summed from the
    knots; the last sum, smooth in δ, goes through the Chebyshev proxy
    charges Σ_j κ_j ℓ_m(2δ_j/w) of the box (w its width, ℓ_m the Lagrange
    basis of the nodes), whose rounding therefore never meets the large
    φ(D).
    """
    slopes = np.diff(values) / np.diff(om)
    kappa = np.diff(slopes, prepend=0.0, append=0.0)
    centre = 0.5 * (om[0] + om[-1])
    radius = 0.5 * (om[-1] - om[0])
    span = 2.0 ** math.ceil(math.log2(4.0 * radius))
    origin = span * math.floor((centre - 2.0 * radius) / span)
    box = np.zeros(1, dtype=np.int64)
    far = np.zeros((1, _TREE_ORDER))
    leaves = []
    for level in range(_TREE_LEVELS + 1):
        width = 2.0 * span / 2.0**level
        held = np.floor((om - origin) / width).astype(np.int64)
        near_lo = np.searchsorted(held, box - 1, "left")
        near_hi = np.searchsorted(held, box + 1, "right")
        if level:
            delta = om - (origin + (held + 0.5) * width)
            t = delta * (2.0 / width)
            ids, first = np.unique(held, return_index=True)
            cheb_sums = np.empty((ids.size, _TREE_ORDER))
            cheb_prev, cheb = np.ones_like(t), t
            cheb_sums[:, 0] = np.add.reduceat(kappa, first)
            for k in range(1, _TREE_ORDER):
                cheb_sums[:, k] = np.add.reduceat(kappa * cheb, first)
                cheb_prev, cheb = cheb, 2.0 * t * cheb - cheb_prev
            charges = np.einsum("bk,km->bm", cheb_sums, _CHEB_FIT)
            m1 = np.add.reduceat(kappa * delta, first)
            right = (box & 1) == 1
            for offset, use in ((-3, right), (-2, True), (2, True), (3, ~right)):
                src = box + offset
                pos = np.minimum(np.searchsorted(ids, src), ids.size - 1)
                use = use & (ids[pos] == src)
                pos = pos[use]
                dist = 0.5 * width * _CHEB_T - offset * width
                u = (0.5 * width * _CHEB_T) / dist[:, None]
                smooth = dist[:, None] * ((1.0 - u) * np.log1p(-u) + u)
                far[use] += (np.outer(cheb_sums[pos, 0], _x_log_x(dist))
                             - np.outer(m1[pos], np.log(np.abs(dist)) + 1.0)
                             + np.einsum("bm,nm->bn", charges[pos], smooth))
        split = (near_hi - near_lo > _TREE_NEAR) & (level < _TREE_LEVELS)
        leaf = ~split
        lo = origin + box[leaf] * width
        leaves.append((lo, lo + 0.5 * width, np.full(lo.size, 0.5 * width),
                       np.einsum("km,bm->kb", _CHEB_FIT, far[leaf]), near_lo[leaf], near_hi[leaf]))
        if not np.any(split):
            break
        box = np.column_stack((2 * box[split], 2 * box[split] + 1)).ravel()
        far = np.stack([np.einsum("bm,nm->bn", far[split], half) for half in _CHEB_HALVES], axis=1)
        far = far.reshape(-1, _TREE_ORDER)

    parts = [np.concatenate(part, axis=-1) for part in zip(*leaves)]
    order = np.argsort(parts[0], kind="stable")
    return _KnotTree(*(part[..., order] for part in parts), om, kappa, centre, radius,
                     _knot_moments(om, values, centre, radius))


def _knot_moments(om, values, centre, radius) -> np.ndarray:
    """M_k = Σ_j κ_j s_j^k, s = (ω − c)/R, for k < ``_TREE_MOMENTS``.

    Summed by parts over the segments, −Σ Δv·(s₁^k − s₀^k)/(s₁ − s₀)/R,
    so that no cancellation between slope jumps enters: M₀ = 0 and
    M₁ = −(v_N − v_0)/R exactly.  The divided difference obeys
    d_k = s₁·d_{k−1} + s₀^(k−1).
    """
    s = (om - centre) / radius
    s0, s1 = s[:-1], s[1:]
    dv = np.diff(values) / radius
    moments = np.zeros(_TREE_MOMENTS)
    diff, power = np.zeros_like(s0), np.ones_like(s0)
    for k in range(1, _TREE_MOMENTS):
        diff = s1 * diff + power
        power = power * s0
        moments[k] = -np.sum(dv * diff)
    return moments


def _knot_sum(tree: _KnotTree, x: np.ndarray) -> np.ndarray:
    """Σ_j κ_j (x − ω_j) ln|x − ω_j| on a 1-D array by the knot tree."""
    out = np.empty_like(x)
    rel = x - tree.centre
    outer = np.abs(rel) > 2.0 * tree.radius
    if np.any(outer):
        # With (1 − u)·ln(1 − u) = −u + Σ_{k≥2} u^k/(k(k − 1)) and M₀ = 0:
        # Σ_j κ_j φ(x − ω_j) = R·[Σ_{k≥2} M_k z^(k−1)/(k(k − 1))
        #                         − M₁·(ln|x − c| + 1)],  z = R/(x − c).
        r = rel[outer]
        z = tree.radius / r
        k = np.arange(2, _TREE_MOMENTS)
        series = np.zeros_like(z)
        for c in (tree.moments[2:] / (k * (k - 1.0)))[::-1]:
            series = series * z + c
        out[outer] = tree.radius * (z * series - tree.moments[1] * (np.log(np.abs(r)) + 1.0))
    inner = np.nonzero(~outer)[0]
    if inner.size:
        xi = x[inner]
        leaf = np.clip(np.searchsorted(tree.lo, xi, "right") - 1, 0, tree.lo.size - 1)
        val = _chebyshev(lambda k: tree.coef[k, leaf], (xi - tree.mid[leaf]) / tree.half[leaf])
        # Near zones, the longest first, so that the points still taking
        # their j-th near knot are always a leading slice.
        count = tree.near_hi[leaf] - tree.near_lo[leaf]
        order = np.argsort(-count, kind="stable")
        count, xs, start = count[order], xi[order], tree.near_lo[leaf][order]
        near = np.zeros_like(xs)
        for j in range(int(count[0])):
            n = np.searchsorted(-count, -j, "left")
            knot = start[:n] + j
            d = xs[:n] - tree.knots[knot]
            ad = np.abs(d)
            ad[ad == 0.0] = 1.0  # (x − ω_j)·ln|x − ω_j| → 0 at a knot hit
            near[:n] += tree.kappa[knot] * d * np.log(ad)
        val[order] += near
        out[inner] = val
    return out


def _tabulated_value(ff: TabulatedCoupling, E: complex) -> complex:
    """Exact segment-by-segment ∫ g²/(E−ω) dω for a tabulated density.

    The tabulated density *is* its linear interpolant, so each segment
    [ω_k, ω_{k+1}] contributes in closed form:

        (c + mα)·ln((E−ω_k)/(E−ω_{k+1})) − m·Δω,   α = E−ω_k,

    with c the left knot value and m the segment slope.  This is exact,
    immune to the interpolation kinks that defeat adaptive quadrature,
    and valid on the cut (y == +0 gives the limit from above) as long as
    x does not sit exactly on a knot; an exact hit is handled by merging
    the two adjacent segments, whose log singularities cancel in pairs.
    """
    om = ff.omegas
    fv = ff.g2_values
    w0, w1 = om[:-1], om[1:]
    dw = w1 - w0
    m = np.diff(fv) / dw
    u0 = E - w0
    u1 = E - w1
    x, y = E.real, E.imag

    if y == 0.0 and om[0] < x < om[-1]:
        hit = np.nonzero(om == x)[0]
        if hit.size:
            k = int(hit[0])
            keep = np.ones(len(dw), dtype=bool)
            keep[k - 1] = keep[k] = False
            fE = fv[:-1] + m * u0
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(u0) - np.log(u1)
            val = np.sum(fE[keep] * logs[keep] - m[keep] * dw[keep])
            fx = fv[k]
            val += fx * (math.log(x - om[k - 1]) - math.log(om[k + 1] - x))
            val -= m[k - 1] * dw[k - 1] + m[k] * dw[k]
            return complex(val - 1j * math.pi * fx)

    fE = fv[:-1] + m * u0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(u0) - np.log(u1)
    if y == 0.0 and (x == om[0] or x == om[-1]):
        if (fv[0] if x == om[0] else fv[-1]) != 0.0:
            raise DomainError(
                f"on-cut value diverges at the support edge {x} where the table is nonzero"
            )
        logs = np.where(np.isfinite(logs), logs, 0.0)  # 0·log(0) limit
    return complex(np.sum(fE * logs - m * dw))


def _tabulated_deriv(ff: TabulatedCoupling, E: complex) -> complex:
    """Exact −∫ g²/(E−ω)² dω for a tabulated density, off knots and cut."""
    om = ff.omegas
    fv = ff.g2_values
    w0, w1 = om[:-1], om[1:]
    m = np.diff(fv) / (w1 - w0)
    u0 = E - w0
    u1 = E - w1
    fE = fv[:-1] + m * u0
    logs = np.log(u0) - np.log(u1)
    return complex(np.sum(-(fE * (1.0 / u1 - 1.0 / u0)) + m * logs))


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


def effective_bandwidth_coupling(ff: FormFactor) -> BandwidthPoint:
    """Solve g²(ω̄)·Λ = 1/τ_Z² for the effective bandwidth point ω̄.

    Among real solutions in the support, the one nearest the coupling
    maximum ω_max is returned.  When the relation has no solution (the
    required level exceeds the maximum of g², as for the Lorentzian,
    where the mismatch is a factor of π), the maximum itself is returned
    with ``exact=False``.

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
    # March outward from the peak on each side until g2 falls below target.
    span = ff.bandwidth
    left = omega_max - span
    while (math.isfinite(lo) and left > lo and shifted(left) > 0) or (
        not math.isfinite(lo) and shifted(left) > 0
    ):
        left = omega_max - (omega_max - left) * 2.0
        if math.isfinite(lo):
            left = max(left, lo)
            if left == lo:
                break
    if shifted(left) < 0:
        brackets.append((left, omega_max))
    right = omega_max + span
    while shifted(right) > 0:
        right = omega_max + (right - omega_max) * 2.0
        if math.isfinite(hi) and right >= hi:
            right = hi
            break
    if shifted(right) < 0:
        brackets.append((omega_max, right))

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

