"""Resonance pole of the level propagator and derived quantities.

For a discrete level of energy ``omega_a`` coupled to the continuum, the
propagator of the surviving component is 1/(E − omega_a − Sigma(E)).  On
the second sheet this has a simple pole

    E_pole = (omega_a + Delta) − i·gamma0/2,

whose real shift ``Delta``, width ``gamma0`` and squared-residue magnitude

    Z = |1 − Sigma'(E_pole)|^(−2)

control the exponential era of the decay, P(t) ≈ Z·exp(−gamma0·t).

:func:`find_pole` locates the pole by a damped complex Newton iteration on
f(E) = E − omega_a − Sigma_II(E), seeded at the family's closed-form pole
where it has one (the first pole of ``pole_pair``) and otherwise at the
second-order golden-rule point omega_a + Delta_R(omega_a) − iπg²(omega_a).
For the Lorentzian family the pole equation is the quadratic
(E − omega_a)(E + iΛ) = λ², and :func:`lorentzian_pole_closed_form`
takes the pole and Z = |C₁|² from the family's own pair of roots and
residues, the same pair ``pole_pair`` returns.

Families with a finite band edge can additionally split off a genuine
bound state below the lower or above the upper edge;
:func:`find_bound_states` detects them and reports their spectral
weights, which the amplitude module must include to conserve probability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._roots import bracketed_roots
from .errors import (
    BelowThresholdWarning,
    ContinuationUnsupportedError,
    ConvergenceError,
    DomainError,
    NoDecayError,
)
from .formfactor import FormFactor, _lorentzian
from .selfenergy import Sheet, real_shift, self_energy

__all__ = [
    "BoundState",
    "PoleData",
    "find_pole",
    "lorentzian_pole_closed_form",
    "golden_rule_rate",
    "find_bound_states",
]

_RESIDUAL_TOL = 1e-10
_NEWTON_TARGET = 1e-13
_MAX_NEWTON_STEPS = 200


class BoundState(NamedTuple):
    """A real propagator pole outside the continuum, past a finite band edge.

    ``weight`` is the residue 1/(1 − Sigma'(E)) ∈ (0, 1); it is the
    probability permanently trapped in the discrete-continuum mixture.
    """

    energy: float
    weight: float


@dataclass(frozen=True)
class PoleData:
    """Second-sheet resonance pole and its derived decay parameters.

    The record holds only independent values; the level shift and the
    decay rate are read off the pole, so they cannot disagree with it.

    Attributes
    ----------
    e_pole : complex
        Pole position, Im e_pole < 0.
    omega_a : float
        Discrete-level energy the pole belongs to.
    z_renorm : float
        Wave-function renormalization |1 − Sigma'(e_pole)|^(−2).
    residual : float
        |e_pole − omega_a − Sigma_II(e_pole)|, the convergence witness.
    bound_states : tuple of BoundState
        Real poles outside the continuum, if any were detected.
    shift_delta : float
        Derived: level shift Delta = Re e_pole − omega_a.
    gamma0 : float
        Derived: decay rate gamma0 = −2 Im e_pole > 0.
    """

    e_pole: complex
    omega_a: float
    z_renorm: float
    residual: float
    bound_states: tuple = field(default=())

    def __post_init__(self):
        if not (self.e_pole.imag < 0.0):
            raise ValueError(f"pole must lie in the lower half plane, got {self.e_pole!r}")
        if not (self.z_renorm > 0.0):
            raise ValueError(f"z_renorm must be positive, got {self.z_renorm}")
        if not (self.residual >= 0.0 and math.isfinite(self.residual)):
            raise ValueError(f"residual must be finite and non-negative, got {self.residual}")

    @property
    def shift_delta(self) -> float:
        return self.e_pole.real - self.omega_a

    @property
    def gamma0(self) -> float:
        return -2.0 * self.e_pole.imag


def _level(omega_a) -> float:
    """The discrete-level energy as a float, refused unless finite."""
    omega_a = float(omega_a)
    if not math.isfinite(omega_a):
        raise DomainError(f"omega_a must be finite, got {omega_a!r}")
    return omega_a


def find_pole(ff: FormFactor, omega_a: float) -> PoleData:
    """Locate the second-sheet pole of the propagator by complex Newton.

    Parameters
    ----------
    ff : FormFactor
        Coupling family; must support analytic continuation.
    omega_a : float
        Discrete-level energy; must exceed the threshold for threshold
        families.

    Returns
    -------
    PoleData
        The pole nearest the seed (the family's closed-form pole, else
        the golden-rule point), with residual below
        1e−10·max(1, |e_pole|), plus any detected bound states.

    Raises
    ------
    NoDecayError
        Zero coupling — the level does not decay and there is no pole.
    ContinuationUnsupportedError
        The family has no second sheet to search.
    DomainError
        omega_a not finite, or at or below the continuum threshold.
    ConvergenceError
        Newton failed to meet the residual target within 200 steps; the
        exception carries the iterate trajectory.
    """
    omega_a = _level(omega_a)
    if ff.g2_integral() == 0.0:
        raise NoDecayError("zero coupling: the level is stationary, no pole exists")
    if not ff.continuable:
        raise ContinuationUnsupportedError(
            f"{ff.family} family has no analytic continuation to search for a pole"
        )
    lo = ff.support()[0]
    if math.isfinite(lo) and omega_a <= lo:
        raise DomainError(
            f"omega_a={omega_a} must lie above the continuum threshold {lo}"
        )

    # The pole lies below the real axis, and the generic second sheet is
    # refused on it: the seed and every iterate stay strictly below.
    nudge = 1e-12 * max(1.0, abs(omega_a), ff.bandwidth)

    def below(E):
        return complex(E.real, -abs(E.imag) or -nudge)

    if ff.pole_pair is not None:
        E = below(ff.pole_pair(omega_a)[0])
    else:
        E = below(complex(omega_a + real_shift(ff, omega_a), -math.pi * float(ff.g2(omega_a))))

    trajectory = [E]
    # (|f|, E, Σ) of the iterate the search returns: the converged one,
    # else the one of least |f|.  A NaN |f| never becomes the best.
    best = (math.inf, E, None)
    step_cap = 2.0 * ff.bandwidth
    for _ in range(_MAX_NEWTON_STEPS):
        sv = self_energy(ff, E, Sheet.SECOND)
        f = E - omega_a - sv.value
        fabs = abs(f)
        if fabs < _NEWTON_TARGET * max(1.0, abs(E)):
            best = (fabs, E, sv)
            break
        if fabs < best[0]:
            best = (fabs, E, sv)
        fprime = 1.0 - sv.derivative
        if fprime == 0:
            raise ConvergenceError("Newton derivative vanished", trajectory=trajectory)
        step = f / fprime
        if abs(step) > step_cap:
            step *= step_cap / abs(step)
        E = below(E - step)
        trajectory.append(E)

    residual, E, sv = best
    if residual > _RESIDUAL_TOL * max(1.0, abs(E)):
        raise ConvergenceError(
            f"pole search stalled: residual {residual:.3e} after {_MAX_NEWTON_STEPS} steps",
            trajectory=trajectory,
        )
    z = abs(1.0 - sv.derivative) ** -2.0

    return PoleData(E, omega_a, z, residual, find_bound_states(ff, omega_a))


def lorentzian_pole_closed_form(coupling: float, bandwidth: float, omega_a: float) -> PoleData:
    """The Lorentzian pole from the roots of (E − omega_a)(E + iΛ) = λ².

    The pole E₁ and its residue C₁ are those of
    :meth:`LorentzianCoupling.pole_pair <zenodecay.LorentzianCoupling.pole_pair>`,
    Z = |C₁|² = |1 − Σ′(E₁)|^(−2), and the residual takes Σ_II(E₁) from
    the family's ``sigma_closed_form``.

    Parameters
    ----------
    coupling, bandwidth : float
        λ > 0 and Λ > 0.
    omega_a : float
        Discrete-level energy (any real value).

    Returns
    -------
    PoleData

    Raises
    ------
    NoDecayError
        λ not positive and finite.
    ValueError
        Λ not positive and finite.
    DomainError
        omega_a not finite, or λ² underflows so that no pole decays.
    """
    ff = _lorentzian(coupling, bandwidth)
    omega_a = _level(omega_a)
    e1, _, c1, _ = ff.pole_pair(omega_a)
    residual = abs(e1 - omega_a - ff.sigma_closed_form(e1, True)[0])
    return PoleData(e1, omega_a, abs(c1) ** 2, residual)


def golden_rule_rate(ff: FormFactor, omega_a: float) -> float:
    """Weak-coupling on-shell decay rate 2π·g²(omega_a).

    Below the continuum threshold the density vanishes and the rate is
    zero; a :class:`BelowThresholdWarning` flags that case.
    """
    omega_a = _level(omega_a)
    lo = ff.support()[0]
    if math.isfinite(lo) and omega_a < lo:
        warnings.warn(
            f"omega_a={omega_a} lies below the continuum threshold {lo}; "
            "the on-shell rate is zero",
            BelowThresholdWarning,
            stacklevel=2,
        )
        return 0.0
    return 2.0 * math.pi * float(ff.g2(omega_a))


def find_bound_states(ff: FormFactor, omega_a: float) -> tuple:
    """Scan for real propagator poles past each finite band edge.

    The level function F(E) = E − omega_a − Δ_R(E) is strictly
    increasing outside the support because Sigma_I' < 0 there, so each
    side holds at most one bound state: below a finite lower edge one
    exists iff F just below it is positive, above a finite upper edge
    iff F just above it is negative.  "Just past" is the probe
    edge ± 1e-6·max(1, Λ), where Δ_R does not depend on the level: each
    family instance takes it once and keeps it (``_level_free``).

    Returns
    -------
    tuple of BoundState
        Lower state first.  Empty for families without a finite edge (no
        real axis outside the continuum) and at weak coupling.

    Raises
    ------
    DomainError
        omega_a not finite.
    """
    omega_a = _level(omega_a)
    if ff.g2_integral() == 0.0:
        return ()

    def level_fn(E):
        return E - omega_a - real_shift(ff, E)

    brackets = []
    for edge, side in zip(ff.support(), (-1.0, 1.0)):
        if not math.isfinite(edge):
            continue
        near = edge + side * 1e-6 * max(1.0, ff.bandwidth)
        probes = ff._level_free.setdefault("probes", {})
        if near not in probes:
            probes[near] = real_shift(ff, near)
        if side * (near - omega_a - probes[near]) >= 0.0:
            continue
        far = edge + side * max(ff.bandwidth, abs(omega_a - edge), 1.0)
        for _ in range(60):
            if side * level_fn(far) > 0.0:
                break
            far = edge + 2.0 * (far - edge)
        else:
            continue
        brackets.append(sorted((near, far)))
    if not brackets:
        return ()
    lo, hi = np.array(brackets).T
    states = []
    for energy in bracketed_roots(level_fn, lo, hi, xtol=1e-14, rtol=8.9e-16).tolist():
        sv = self_energy(ff, complex(energy, 0.0), Sheet.FIRST)
        states.append(BoundState(energy, float(1.0 / (1.0 - sv.derivative.real))))
    return tuple(states)
