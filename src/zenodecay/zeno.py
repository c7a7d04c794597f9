"""Measurement-modified decay: effective rates, regimes, transition time.

Projective measurements at interval τ reset the decay, so after N of
them the survival is P(τ)^N = e^{−γ(τ)·Nτ} with the effective rate

    γ(τ) = −(1/τ)·ln P(τ).

Comparing γ(τ) with the undisturbed rate γ₀ splits the τ axis into a
Zeno region (γ < γ₀, measurement slows decay) and an inverse-Zeno region
(γ > γ₀, measurement accelerates decay).  The boundary γ(τ*) = γ₀
defines the transition time; a renormalization Z < 1 is a sufficient
condition for τ* to exist, because then the large-τ asymptote
γ(τ) ≈ γ₀ − ln(Z)/τ approaches γ₀ from above while the small-τ side
γ ≈ τ/τ_Z² starts below.  That asymptote holds only in the exponential
era: for a family with a threshold the survival amplitude ends in a
power-law tail that outlives the pole term, and there γ(τ) can cross γ₀
again, so a search window reaching past the exponential era may hold
several late crossings besides τ*.

Characteristic scales: the Zeno time τ_Z (curvature of the initial
quadratic decay), the bandwidth time 1/Λ (duration of the short-time
transient), and the jump time γ₀τ_Z² (linear-regime estimate, and lower
bound, of τ*).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import optimize

from .errors import DomainError, GridError, NoDecayError
from .formfactor import LorentzianCoupling

__all__ = [
    "Regime",
    "EffectiveRateCurve",
    "TransitionReport",
    "ExistenceCriteria",
    "CharacteristicScales",
    "effective_rate",
    "effective_rate_curve",
    "repeated_survival",
    "interpolated_survival",
    "find_transition_time",
    "classify_regime",
    "existence_criteria",
    "characteristic_scales",
]

#: Relative dead band around gamma0 inside which a rate counts as Natural.
CLASSIFY_EPS = 1e-9

#: Below tau = 1e-3/bandwidth the linear small-interval form is exact to
#: better than the evaluation noise of the amplitude, and is used directly.
_SMALL_TAU_FACTOR = 1e-3


class Regime(enum.Enum):
    ZENO = "zeno"
    INVERSE_ZENO = "inverse_zeno"
    NATURAL = "natural"


class ExistenceCriteria(NamedTuple):
    """Sufficiency diagnostics for the existence of a transition time.

    ``z_less_1`` is the theorem's sufficient condition; ``asymmetry`` is
    the Lorentzian-specific reading ω_a² > Λ² (None for other families);
    ``near_boundary`` flags |Z − 1| < 10λ², where the O(λ²) corrections
    decide and the boolean answers are fragile.
    """

    z_less_1: bool
    asymmetry: Optional[bool]
    near_boundary: bool


class CharacteristicScales(NamedTuple):
    """Time scales governing the measurement response.

    ``jump_bandwidth_ratio`` = jump_time/bandwidth_time; the linear
    estimate of τ* is self-consistent only when this is ≲ 1.
    """

    zeno_time: float
    jump_time: float
    bandwidth_time: float
    jump_bandwidth_ratio: float


@dataclass(frozen=True, eq=False)
class EffectiveRateCurve:
    """γ(τ) sampled on a grid, with the natural rate for reference."""

    taus: np.ndarray
    gammas: np.ndarray
    gamma0: float
    model: object

    def __post_init__(self):
        t = np.asarray(self.taus, dtype=float)
        g = np.asarray(self.gammas, dtype=float)
        if t.ndim != 1 or g.shape != t.shape:
            raise ValueError("taus and gammas must be congruent 1-D arrays")
        if np.any(t <= 0):
            raise ValueError("taus must be positive")
        object.__setattr__(self, "taus", t)
        object.__setattr__(self, "gammas", g)

    @property
    def regimes(self) -> tuple:
        """Per-point classification against gamma0."""
        out = []
        for g in self.gammas:
            if g < self.gamma0 * (1.0 - CLASSIFY_EPS):
                out.append(Regime.ZENO)
            elif g > self.gamma0 * (1.0 + CLASSIFY_EPS):
                out.append(Regime.INVERSE_ZENO)
            else:
                out.append(Regime.NATURAL)
        return tuple(out)


@dataclass(frozen=True)
class TransitionReport:
    """Everything the transition-time search learned.

    ``tau_star`` is the smallest root of γ(τ) = γ₀ (None when no
    crossing was found up to ``tau_max_searched``); ``all_roots`` holds
    every refined crossing in ascending order.
    """

    tau_star: Optional[float]
    all_roots: tuple
    z_renorm: float
    criterion_z_less_1: bool
    lorentzian_asymmetry_holds: Optional[bool]
    tau_max_searched: float
    jump_time: float
    zeno_time: float

    def __post_init__(self):
        roots = tuple(float(r) for r in self.all_roots)
        object.__setattr__(self, "all_roots", roots)
        if any(b <= a for a, b in zip(roots, roots[1:])):
            raise ValueError("all_roots must be strictly ascending")
        if roots and self.tau_star != roots[0]:
            raise ValueError("tau_star must be the smallest root")
        if not roots and self.tau_star is not None:
            raise ValueError("tau_star without roots")


def _require_decaying(model) -> float:
    """gamma0 of the model, translating zero coupling into NoDecayError."""
    gamma0 = model.gamma0  # may itself raise NoDecayError via find_pole
    if not (gamma0 > 0.0):
        raise NoDecayError(f"model has no decay rate (gamma0={gamma0})")
    return gamma0


def effective_rate(model, tau: float) -> float:
    """Effective decay rate γ(τ) = −ln P(τ)/τ under measurements at τ.

    Parameters
    ----------
    model : DecayModel or compatible
        Needs ``log_survival_probability``; the small-τ shortcut also
        uses ``zeno_time`` and ``bandwidth`` when available.
    tau : float
        Measurement interval, τ > 0.

    Returns
    -------
    float
        γ(τ) ≥ 0; ``inf`` if the survival probability vanishes at τ.

    Raises
    ------
    DomainError
        τ ≤ 0.
    NoDecayError
        The model does not decay (zero coupling).
    """
    tau = float(tau)
    if not (tau > 0.0) or not math.isfinite(tau):
        raise DomainError(f"measurement interval must be positive and finite, got {tau}")
    _require_decaying(model)
    return float(_rates(model, np.array([tau]))[0])


def _rates(model, taus: np.ndarray) -> np.ndarray:
    """γ(τ) on an array of valid τ.

    Below τ = 1e−3/Λ the small-interval law τ/τ_Z² applies.  Elsewhere
    ln P comes from ``model._log_survival_array`` for the whole array in
    one pass when the model has it (:class:`~zenodecay.model.DecayModel`),
    and from ``log_survival_probability`` one τ at a time otherwise.
    """
    out = np.empty_like(taus)
    bw = getattr(model, "bandwidth", None)
    tz = getattr(model, "zeno_time", math.inf)
    small = np.zeros(taus.shape, dtype=bool)
    if bw is not None and math.isfinite(tz):
        small = taus < _SMALL_TAU_FACTOR / bw
        out[small] = taus[small] / tz**2
    rest = ~small
    if np.any(rest):
        t = taus[rest]
        log_survival = getattr(model, "_log_survival_array", None)
        if log_survival is not None:
            lp = log_survival(t)
        else:
            lp = np.array([model.log_survival_probability(x) for x in t])
        with np.errstate(invalid="ignore"):
            # fmax(0, ·) answers like max(0.0, ·) for NaN and −0.0 too.
            out[rest] = np.where(lp == -math.inf, math.inf, np.fmax(0.0, -lp / t))
    return out


def effective_rate_curve(model, taus) -> EffectiveRateCurve:
    """Evaluate γ(τ) on a grid (order preserved).

    Equal, point by point, to :func:`effective_rate`; for a
    :class:`~zenodecay.model.DecayModel` the survival amplitudes of the
    whole grid are computed in one pass.
    """
    gamma0 = _require_decaying(model)
    t = np.atleast_1d(np.asarray(taus, dtype=float))
    bad = ~(np.isfinite(t) & (t > 0.0))
    if np.any(bad):
        raise DomainError(
            f"measurement interval must be positive and finite, got {t[bad][0]}"
        )
    return EffectiveRateCurve(taus=t, gammas=_rates(model, t), gamma0=gamma0, model=model)


def repeated_survival(p_tau: float, n: int) -> float:
    """Survival after n projective measurements: P(τ)^n.

    The identity P^n = exp(−γ(τ)·nτ), with γ(τ) = −ln P/τ, is what
    :func:`interpolated_survival` evaluates; both agree to rounding.
    """
    p_tau = float(p_tau)
    if not (0.0 <= p_tau <= 1.0):
        raise DomainError(f"survival probability must lie in [0, 1], got {p_tau}")
    if n != int(n) or n < 0:
        raise DomainError(f"measurement count must be a non-negative integer, got {n}")
    return float(p_tau ** int(n))


def interpolated_survival(gamma: float, t: float) -> float:
    """Interpolating exponential e^{−γt} through the stroboscopic points."""
    return math.exp(-float(gamma) * float(t))


def classify_regime(model, tau: float) -> Regime:
    """Zeno / inverse-Zeno / natural label of one measurement interval.

    The comparison uses a relative dead band of 1e−9 around γ₀: rates
    within it count as Natural rather than leaning on rounding noise.
    """
    gamma0 = _require_decaying(model)
    g = effective_rate(model, tau)
    if g < gamma0 * (1.0 - CLASSIFY_EPS):
        return Regime.ZENO
    if g > gamma0 * (1.0 + CLASSIFY_EPS):
        return Regime.INVERSE_ZENO
    return Regime.NATURAL


def find_transition_time(
    model, tau_max: Optional[float] = None, grid_points: int = 2048
) -> TransitionReport:
    """Find all crossings of γ(τ) = γ₀ and designate τ* = smallest.

    Scans a log-spaced grid on [1e−4/Λ, tau_max] (default tau_max =
    100/γ₀), brackets every sign change of γ(τ) − γ₀ and refines each by
    bisection to relative 1e−12.  For a threshold family the window can
    reach past the exponential era, where the power-law tail of P(τ)
    overtakes the pole term and γ(τ) crosses γ₀ again; those late
    crossings are reported in ``all_roots`` like any other.

    Parameters
    ----------
    model : DecayModel or compatible
    tau_max : float, optional
        Upper end of the search window; defaults to 100/γ₀.
    grid_points : int
        Number of grid samples, at least 64.

    Returns
    -------
    TransitionReport

    Raises
    ------
    NoDecayError
        Zero coupling / γ₀ ≤ 0.
    GridError
        Z < 1 guarantees a crossing, but none was found even after one
        automatic grid refinement — the search window or grid must grow.
    """
    gamma0 = _require_decaying(model)
    if tau_max is None:
        tau_max = 100.0 / gamma0
    tau_max = float(tau_max)
    if not (tau_max > 0.0) or not math.isfinite(tau_max):
        raise DomainError(f"tau_max must be positive and finite, got {tau_max}")
    grid_points = int(grid_points)
    if grid_points < 64:
        raise DomainError(f"grid_points must be at least 64, got {grid_points}")

    bw = getattr(model, "bandwidth", None)
    scale = bw if bw is not None else gamma0
    tau_lo = 1e-4 / scale
    if tau_lo >= tau_max:
        tau_lo = tau_max * 1e-8

    z = model.z_renorm
    criterion = z < 1.0
    ff = getattr(model, "form_factor", None)
    asymmetry = None
    if isinstance(ff, LorentzianCoupling):
        asymmetry = bool(model.omega_a**2 > ff.bandwidth**2)

    def rate_shift(tau):
        return effective_rate(model, tau) - gamma0

    roots: list[float] = []
    points = grid_points
    for _attempt in range(2):
        taus = np.geomspace(tau_lo, tau_max, points)
        vals = _rates(model, taus) - gamma0
        roots = [float(x) for x in taus[vals == 0.0]]
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
            roots.append(
                float(optimize.brentq(rate_shift, taus[i], taus[i + 1], xtol=1e-300, rtol=1e-12))
            )
        # Deduplicate refinements that landed on the same crossing.
        dedup: list[float] = []
        for r in sorted(roots):
            if not dedup or r - dedup[-1] > 1e-9 * max(r, dedup[-1]):
                dedup.append(r)
        roots = dedup
        if roots or not criterion:
            break
        points *= 4  # the theorem promises a root; look harder once

    if criterion and not roots:
        raise GridError(
            f"z_renorm={z:.12g} < 1 guarantees a transition, but no crossing "
            f"was found on ({tau_lo:g}, {tau_max:g}) with {points} points"
        )

    tz = getattr(model, "zeno_time", math.inf)
    return TransitionReport(
        tau_star=roots[0] if roots else None,
        all_roots=tuple(roots),
        z_renorm=float(z),
        criterion_z_less_1=bool(criterion),
        lorentzian_asymmetry_holds=asymmetry,
        tau_max_searched=tau_max,
        jump_time=gamma0 * tz**2,
        zeno_time=tz,
    )


def existence_criteria(model) -> ExistenceCriteria:
    """Transition-existence diagnostics from the pole data.

    ``z_less_1`` (the sufficient condition), the Lorentzian asymmetry
    reading ω_a² > Λ² where applicable, and a near-boundary flag for
    |Z − 1| < 10λ² marking parameter sets where the O(λ²) band makes the
    booleans fragile.
    """
    z = model.z_renorm
    ff = getattr(model, "form_factor", None)
    asymmetry = None
    near = False
    if ff is not None:
        lam2 = ff.g2_integral()
        near = abs(z - 1.0) < 10.0 * lam2
        if isinstance(ff, LorentzianCoupling):
            asymmetry = bool(model.omega_a**2 > ff.bandwidth**2)
    return ExistenceCriteria(z_less_1=bool(z < 1.0), asymmetry=asymmetry, near_boundary=near)


def characteristic_scales(model) -> CharacteristicScales:
    """Zeno time, jump time γ₀τ_Z², bandwidth time 1/Λ, and their ratio.

    Raises
    ------
    NoDecayError
        Zero coupling (every scale degenerates).
    DomainError
        The model has no bandwidth scale (idealized exponential models).
    """
    gamma0 = _require_decaying(model)
    tz = getattr(model, "zeno_time", math.inf)
    if not math.isfinite(tz):
        raise NoDecayError("model has an infinite Zeno time (no coupling curvature)")
    bw = getattr(model, "bandwidth", None)
    if bw is None:
        raise DomainError("model has no bandwidth scale")
    jump = gamma0 * tz**2
    return CharacteristicScales(
        zeno_time=tz,
        jump_time=jump,
        bandwidth_time=1.0 / bw,
        jump_bandwidth_ratio=jump * bw,
    )
