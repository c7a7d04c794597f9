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

Module-level operations: point queries with validation, the Zeno time
τ_Z = (∫g²dω)^(−1/2), and the effective bandwidth point ω̄ defined by
g²(ω̄)·Λ = 1/τ_Z².
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize

from .errors import DomainError, NoDecayError, OutOfRangeError

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
    """

    family: str = "abstract"

    # -- squared coupling density ------------------------------------

    def g2(self, omega):
        """Squared coupling density at real energy ``omega`` (array-safe).

        Returns 0 outside the support; never raises for finite input.
        """
        raise NotImplementedError

    def g2_deriv(self, omega):
        """d(g²)/dω at real ``omega``, zero outside the support."""
        raise NotImplementedError

    # -- support and moments -----------------------------------------

    def support(self) -> tuple[float, float]:
        """Lower and upper edge of the continuum (may be infinite)."""
        raise NotImplementedError

    # A cached_property is a non-data descriptor, so a family may store
    # its own ``threshold`` as a dataclass field instead.
    @functools.cached_property
    def threshold(self) -> float:
        """Lower edge of the continuum, ``support()[0]``."""
        return self.support()[0]

    def g2_integral(self) -> float:
        """∫ g²(ω) dω over the support (the inverse squared Zeno time)."""
        raise NotImplementedError

    def peak_energy(self) -> float:
        """Energy at which g² attains its maximum."""
        raise NotImplementedError

    # -- analytic continuation ---------------------------------------

    @property
    def continuable(self) -> bool:
        """Whether g² extends to an analytic function near the cut."""
        return False

    def g2_analytic(self, z: complex) -> complex:
        """Analytic continuation of g² evaluated at complex ``z``."""
        from .errors import ContinuationUnsupportedError

        raise ContinuationUnsupportedError(
            f"{self.family} family has no analytic continuation"
        )

    def g2_analytic_deriv(self, z: complex) -> complex:
        """Derivative of the continued g² at complex ``z``."""
        from .errors import ContinuationUnsupportedError

        raise ContinuationUnsupportedError(
            f"{self.family} family has no analytic continuation"
        )

    def scaled(self, factor: float) -> "FormFactor":
        """A copy with the coupling multiplied by ``factor`` (g² by factor²)."""
        raise NotImplementedError


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

    def g2_deriv(self, omega):
        omega = np.asarray(omega, dtype=float)
        lam2 = self.coupling**2
        out = -(lam2 / math.pi) * self.bandwidth * 2.0 * omega / (omega**2 + self.bandwidth**2) ** 2
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

    def g2_analytic(self, z):
        z = complex(z)
        return (self.coupling**2 / math.pi) * self.bandwidth / (z * z + self.bandwidth**2)

    def g2_analytic_deriv(self, z):
        z = complex(z)
        return (
            -(self.coupling**2 / math.pi)
            * self.bandwidth
            * 2.0
            * z
            / (z * z + self.bandwidth**2) ** 2
        )

    def scaled(self, factor):
        return dataclasses.replace(self, coupling=factor * self.coupling)


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
    # field() keeps the base class's ``threshold`` from becoming a default.
    threshold: float = dataclasses.field()
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

    def g2_deriv(self, omega):
        omega = np.asarray(omega, dtype=float)
        s = omega - self.threshold
        pos = s > 0
        out = np.zeros_like(s)
        sp = s[pos]
        p, q = self.rise_exponent, self.cutoff_exponent
        u = (sp / self.bandwidth) ** q
        out[pos] = (
            self.coupling**2
            * self._norm
            * sp ** (p - 1.0)
            * (p * (1.0 + u) - q * u)
            / (1.0 + u) ** 2
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

    def g2_analytic(self, z):
        if not self.continuable:
            return super().g2_analytic(z)
        z = complex(z)
        s = z - self.threshold
        # Principal powers: analytic off the ray below the threshold.
        return (
            self.coupling**2
            * self._norm
            * s**self.rise_exponent
            / (1.0 + (s / self.bandwidth) ** self.cutoff_exponent)
        )

    def g2_analytic_deriv(self, z):
        if not self.continuable:
            return super().g2_analytic_deriv(z)
        z = complex(z)
        s = z - self.threshold
        p, q = self.rise_exponent, self.cutoff_exponent
        u = (s / self.bandwidth) ** q
        return (
            self.coupling**2
            * self._norm
            * s ** (p - 1.0)
            * (p * (1.0 + u) - q * u)
            / (1.0 + u) ** 2
        )

    def scaled(self, factor):
        return dataclasses.replace(self, coupling=factor * self.coupling)


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

    def g2_deriv(self, omega):
        omega = np.asarray(omega, dtype=float)
        idx = np.clip(np.searchsorted(self.omegas, omega) - 1, 0, self.omegas.size - 2)
        slope = (self.g2_values[idx + 1] - self.g2_values[idx]) / (
            self.omegas[idx + 1] - self.omegas[idx]
        )
        inside = (omega > self.omegas[0]) & (omega < self.omegas[-1])
        out = np.where(inside, slope, 0.0)
        return out if out.ndim else float(out)

    def support(self):
        return (float(self.omegas[0]), float(self.omegas[-1]))

    def g2_integral(self):
        return float(np.trapezoid(self.g2_values, self.omegas))

    def peak_energy(self):
        return float(self.omegas[int(np.argmax(self.g2_values))])

    def scaled(self, factor):
        return TabulatedCoupling(self.omegas, factor**2 * self.g2_values, self.bandwidth)


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
        return float(ff.g2(w)) - target

    candidates = []
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
        candidates.append(optimize.brentq(shifted, left, omega_max, xtol=1e-15, rtol=1e-15))
    right = omega_max + span
    while shifted(right) > 0:
        right = omega_max + (right - omega_max) * 2.0
        if math.isfinite(hi) and right >= hi:
            right = hi
            break
    if shifted(right) < 0:
        candidates.append(optimize.brentq(shifted, omega_max, right, xtol=1e-15, rtol=1e-15))

    if not candidates:
        return BandwidthPoint(omega_max, g2_max, exact=False)
    omega_bar = min(candidates, key=lambda w: abs(w - omega_max))
    g2_bar = float(ff.g2(omega_bar))
    if abs(g2_bar - target) > 1e-10 * max(target, 1e-300):
        raise DomainError(
            f"effective bandwidth residual {abs(g2_bar - target):.3e} "
            "exceeds tolerance 1e-10"
        )
    return BandwidthPoint(omega_bar, g2_bar, exact=True)

