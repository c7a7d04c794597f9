"""Measurement-modified decay: effective rates, regimes, transition time.

Projective measurements at interval τ reset the decay, so after N of
them the survival is P(τ)^N = e^{−γ(τ)·Nτ} with the effective rate

    γ(τ) = −(1/τ)·ln P(τ).

The model's ``log_survival_probability`` gives ln P for a whole array
of τ by one route at every τ, accurate in relative terms down to the
smallest τ, so γ(τ) needs no small-interval law of its own, and reads
ln P alone: no pole search, so a table or a level below a threshold
has a rate too.  The pole rate γ₀ is asked for once per call only where
γ(τ) is compared with it (rate curves, regimes, the transition search).

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

from ._roots import bracketed_roots
from .errors import DomainError, GridError, NoDecayError

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

#: Fewest samples the transition search's grid may have.
MIN_GRID_POINTS = 64


class Regime(enum.Enum):
    ZENO = "zeno"
    INVERSE_ZENO = "inverse_zeno"
    NATURAL = "natural"


class ExistenceCriteria(NamedTuple):
    """Sufficiency diagnostics for the existence of a transition time.

    ``z_less_1`` is the theorem's sufficient condition; ``asymmetry`` is
    the family's own reading (Lorentzian: ω_a² > Λ²; None for families
    without one);
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
    """γ(τ) sampled on a grid, with the natural rate for reference.

    ``taus`` must be finite and positive; ``regimes`` is derived from
    ``gammas`` and ``gamma0``.
    """

    taus: np.ndarray
    gammas: np.ndarray
    gamma0: float

    def __post_init__(self):
        t = np.asarray(self.taus, dtype=float)
        g = np.asarray(self.gammas, dtype=float)
        if t.ndim != 1 or g.shape != t.shape:
            raise ValueError("taus and gammas must be congruent 1-D arrays")
        if not np.all((t > 0) & np.isfinite(t)):
            raise ValueError("taus must be positive and finite")
        object.__setattr__(self, "taus", t)
        object.__setattr__(self, "gammas", g)

    @property
    def regimes(self) -> tuple:
        """Per-point classification against gamma0."""
        return tuple(_regime(g, self.gamma0) for g in self.gammas)


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


def _regime(gamma: float, gamma0: float) -> Regime:
    """Label of a rate against gamma0, with the relative dead band CLASSIFY_EPS."""
    if gamma < gamma0 * (1.0 - CLASSIFY_EPS):
        return Regime.ZENO
    if gamma > gamma0 * (1.0 + CLASSIFY_EPS):
        return Regime.INVERSE_ZENO
    return Regime.NATURAL


def _require_decaying(model) -> float:
    """gamma0 of the model, translating zero coupling into NoDecayError."""
    gamma0 = model.gamma0  # may itself raise NoDecayError via find_pole
    if not (gamma0 > 0.0):
        raise NoDecayError(f"model has no decay rate (gamma0={gamma0})")
    return gamma0


def effective_rate(model, tau):
    """Effective decay rate γ(τ) = −ln P(τ)/τ under measurements at τ.

    Reads ln P alone, not the pole: γ₀ is not asked for, so a model
    without one (a table, a level below a threshold) has a rate too.

    Parameters
    ----------
    model : DecayModel or compatible
        Needs a ``log_survival_probability`` that takes an array of τ
        and refuses a τ that is negative or not finite with
        :class:`~zenodecay.DomainError`, as both package models do.
    tau : float or array_like
        Measurement interval, τ > 0, or an array of them.

    Returns
    -------
    float or numpy.ndarray
        γ(τ) ≥ 0; ``inf`` if the survival probability vanishes at τ.  An
        array of τ gives an array of the same shape, each entry the rate
        that τ gets alone, from one ln P call on the whole array.

    Raises
    ------
    DomainError
        Some τ = 0 (refused here, where ln P(0) = 0 has no rate), or
        negative or not finite (refused by the model's ln P).
    NoDecayError
        The model does not decay (zero coupling), from its ln P.
    """
    t = np.asarray(tau, dtype=float)
    zero = t == 0.0
    if np.any(zero):
        raise DomainError(f"measurement interval must be positive, got {t[zero].flat[0]}")
    lp = model.log_survival_probability(t)
    # fmax(0, ·) answers like max(0.0, ·) for NaN and −0.0 too, and −(−∞)/τ is +∞.
    rates = np.fmax(0.0, -lp / t)
    return float(rates) if rates.ndim == 0 else rates


def effective_rate_curve(model, taus) -> EffectiveRateCurve:
    """Evaluate γ(τ) on a grid (order preserved).

    Equal, point by point, to :func:`effective_rate`; for a
    :class:`~zenodecay.model.DecayModel` the survival amplitudes of the
    whole grid are computed in one pass.
    """
    gamma0 = _require_decaying(model)
    t = np.atleast_1d(np.asarray(taus, dtype=float))
    return EffectiveRateCurve(taus=t, gammas=effective_rate(model, t), gamma0=gamma0)


def repeated_survival(p_tau: float, n: int) -> float:
    """Survival after n projective measurements: P(τ)^n.

    The identity P^n = exp(−γ(τ)·nτ), with γ(τ) = −ln P/τ, is what
    :func:`interpolated_survival` evaluates; both agree to rounding.
    """
    p_tau = float(p_tau)
    if not (0.0 <= p_tau <= 1.0):
        raise DomainError(f"survival probability must lie in [0, 1], got {p_tau}")
    if not math.isfinite(n) or n != int(n) or n < 0:
        raise DomainError(f"measurement count must be a non-negative integer, got {n}")
    return float(p_tau ** int(n))


def interpolated_survival(gamma: float, t: float) -> float:
    """Interpolating exponential e^{−γt} through the stroboscopic points."""
    return math.exp(-float(gamma) * float(t))


def classify_regime(model, tau: float) -> Regime:
    """Zeno / inverse-Zeno / natural label of one measurement interval.

    The comparison uses a relative dead band of 1e−9 around γ₀: rates
    within it count as Natural rather than leaning on rounding noise.
    ``tau`` is one interval; a grid takes :func:`effective_rate_curve`
    and its ``regimes``.
    """
    if np.ndim(tau) != 0:
        raise DomainError(f"classify_regime takes one interval, got shape {np.shape(tau)}; "
                          "classify a grid by effective_rate_curve(model, taus).regimes")
    gamma0 = _require_decaying(model)
    return _regime(effective_rate(model, tau), gamma0)


def find_transition_time(
    model, tau_max: Optional[float] = None, grid_points: int = 2048
) -> TransitionReport:
    """Find all crossings of γ(τ) = γ₀ and designate τ* = smallest.

    Scans one log-spaced grid on [τ_lo, tau_max] (default tau_max =
    100/γ₀), where τ_lo = min(1e−4/Λ, γ₀τ_Z²/100) starts the window before
    the jump time γ₀τ_Z² of a level far above the band (1e−4/Λ where τ_Z
    is not finite), keeps its exact zeros of γ(τ) − γ₀, brackets every
    sign change and refines all brackets together to relative 1e−12
    (Brent's method, one γ(τ) array per iteration for every bracket still
    open).  The roots are the distinct values among the grid zeros and
    the refined brackets: two neighbouring brackets that both refine to
    the grid node they share give one root.  For a threshold family the
    window can reach past the exponential era, where the power-law tail
    of P(τ) overtakes the pole term and γ(τ) crosses γ₀ again; those late
    crossings are reported in ``all_roots`` like any other.

    Parameters
    ----------
    model : DecayModel or compatible
    tau_max : float, optional
        Upper end of the search window; defaults to 100/γ₀.
    grid_points : int
        Number of grid samples, an integer of at least ``MIN_GRID_POINTS`` (64).

    Returns
    -------
    TransitionReport

    Raises
    ------
    NoDecayError
        Zero coupling / γ₀ ≤ 0.
    DomainError
        ``tau_max`` not positive and finite, or ``grid_points`` not an
        integer of at least 64.
    GridError
        Z < 1 with a finite Zeno time guarantees a crossing, but the grid
        shows none — the search window or grid must grow.
    """
    gamma0 = _require_decaying(model)
    if tau_max is None:
        tau_max = 100.0 / gamma0
    tau_max = float(tau_max)
    if not (tau_max > 0.0) or not math.isfinite(tau_max):
        raise DomainError(f"tau_max must be positive and finite, got {tau_max}")
    if not float(grid_points).is_integer():
        raise DomainError(f"grid_points must be an integer, got {grid_points!r}")
    points = int(grid_points)
    if points < MIN_GRID_POINTS:
        raise DomainError(f"grid_points must be at least {MIN_GRID_POINTS}, got {points}")

    scale = model.bandwidth if model.bandwidth is not None else gamma0
    tz = model.zeno_time
    # A level far above the band jumps within γ₀τ_Z² ≪ 1/Λ, and γ(τ) crosses γ₀ there.
    tau_lo = min(1e-4 / scale, gamma0 * tz**2 / 100.0 if math.isfinite(tz) else math.inf)
    if tau_lo >= tau_max:
        tau_lo = tau_max * 1e-8

    criteria = existence_criteria(model)
    # Z < 1 promises a crossing only when γ(τ) starts below γ₀, i.e. when
    # the short-time decay is quadratic on a finite Zeno time.
    guaranteed = criteria.z_less_1 and math.isfinite(tz)

    def rate_shift(taus):
        return effective_rate(model, taus) - gamma0

    taus = np.geomspace(tau_lo, tau_max, points)
    vals = rate_shift(taus)
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    refined = bracketed_roots(rate_shift, taus[i], taus[i + 1], xtol=1e-300, rtol=1e-12,
                              f_lo=vals[i], f_hi=vals[i + 1])
    # A grid zero opens no bracket, but two neighbouring cells share a node
    # and can both refine to it: that crossing is reported once.  (A set,
    # not np.unique, whose first call imports numpy.ma: +0.4 MB of RSS on
    # the closed-form route, which calls it nowhere else.)
    roots = sorted(set(taus[vals == 0.0].tolist() + refined.tolist()))

    if guaranteed and not roots:
        raise GridError(
            f"z_renorm={model.z_renorm:.12g} < 1 guarantees a transition, but no crossing "
            f"was found on ({tau_lo:g}, {tau_max:g}) with {points} points"
        )

    return TransitionReport(
        tau_star=roots[0] if roots else None,
        all_roots=tuple(roots),
        z_renorm=float(model.z_renorm),
        criterion_z_less_1=criteria.z_less_1,
        lorentzian_asymmetry_holds=criteria.asymmetry,
        tau_max_searched=tau_max,
        jump_time=gamma0 * tz**2,
        zeno_time=tz,
    )


def existence_criteria(model) -> ExistenceCriteria:
    """Transition-existence diagnostics from the pole data.

    ``z_less_1`` (the sufficient condition), the family's own asymmetry
    reading where it has one (Lorentzian: ω_a² > Λ²), and a near-boundary flag for
    |Z − 1| < 10λ² marking parameter sets where the O(λ²) band makes the
    booleans fragile.
    """
    z = model.z_renorm
    ff = model.form_factor
    asymmetry = None
    near = False
    if ff is not None:
        near = abs(z - 1.0) < 10.0 * ff.g2_integral()
        asymmetry = ff.transition_asymmetry(model.omega_a)
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
    tz = model.zeno_time
    if not math.isfinite(tz):
        raise NoDecayError("model has an infinite Zeno time (no coupling curvature)")
    bw = model.bandwidth
    if bw is None:
        raise DomainError("model has no bandwidth scale")
    jump = gamma0 * tz**2
    return CharacteristicScales(
        zeno_time=tz,
        jump_time=jump,
        bandwidth_time=1.0 / bw,
        jump_bandwidth_ratio=jump * bw,
    )
