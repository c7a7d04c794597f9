"""Decay models: a coupling family bound to a discrete-level energy.

:class:`DecayModel` is the object the measurement machinery operates on.
It caches the resonance pole and gives ln P(τ) of a float or an array
of τ by one route at every τ, formed in :mod:`zenodecay.amplitude`
(from the deficit 1 − P without cancellation where P ≥ ½): a family
with a closed-form pole pair (the Lorentzian) takes its two-pole
residue sum; every other family takes the spectral panels at every τ,
so late intervals see the true non-exponential tail rather than the
pole term ln Z − γ₀τ.  The model checks τ and picks the route.

:class:`ExponentialDecayModel` is the idealized pure-exponential decay
P(τ) = Z·e^{−γ₀τ}; with Z = 1 its effective rate is γ₀ at every τ,
which makes it the natural fixture for regime-classification edge cases.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .amplitude import (
    SurvivalMethod,
    SurvivalSeries,
    _check_times,
    _pole_pair_log_p,
    _pole_pair_series,
    _spectral_amplitudes,
    pole_approximation,
    survival_spectral_integral,
)
from .errors import DomainError, NoDecayError
from .formfactor import FormFactor, zeno_time as _ff_zeno_time
from .resolvent import PoleData, _level, find_pole

__all__ = ["DecayModel", "ExponentialDecayModel"]


class DecayModel:
    """An unstable level: form factor plus discrete energy omega_a.

    Parameters
    ----------
    form_factor : FormFactor
        The coupling family (must have nonzero coupling for any of the
        decay quantities to exist).
    omega_a : float
        Energy of the discrete level; must be finite.

    Every ln P takes an interval τ that is finite and non-negative, and
    refuses any other with :class:`~zenodecay.DomainError`; ln P(0) = 0.
    """

    def __init__(self, form_factor: FormFactor, omega_a: float):
        if not isinstance(form_factor, FormFactor):
            raise TypeError(f"form_factor must be a FormFactor, got {type(form_factor)!r}")
        self.form_factor = form_factor
        self.omega_a = _level(omega_a)

    def __repr__(self):
        return f"DecayModel({self.form_factor!r}, omega_a={self.omega_a!r})"

    # -- cached pole machinery ---------------------------------------

    @cached_property
    def pole(self) -> PoleData:
        """Second-sheet resonance pole (Newton search, cached)."""
        return find_pole(self.form_factor, self.omega_a)

    @property
    def gamma0(self) -> float:
        return self.pole.gamma0

    @property
    def z_renorm(self) -> float:
        return self.pole.z_renorm

    @property
    def bandwidth(self) -> float:
        return self.form_factor.bandwidth

    @cached_property
    def zeno_time(self) -> float:
        return _ff_zeno_time(self.form_factor)

    @cached_property
    def _closed_form_pair(self):
        """The family's pole pair at its closed-form pole, or None.

        x(t) of the closed form and every ln P take this one pair.  The
        cached :attr:`pole` is the same pole polished by Newton, which
        leaves it as it is once it solves the pole equation to 1e-13.
        """
        ff = self.form_factor
        if ff.pole_pair is None:
            return None
        return ff.pole_pair(self.omega_a)

    # -- survival ----------------------------------------------------

    def default_method(self) -> SurvivalMethod:
        if self.form_factor.pole_pair is not None:
            return SurvivalMethod.CLOSED_FORM
        return SurvivalMethod.SPECTRAL_INTEGRAL

    def survival_series(self, times, method: SurvivalMethod | None = None) -> SurvivalSeries:
        """Sample the survival amplitude/probability on a time grid.

        ``method`` defaults to the exact closed form for families with a
        closed-form pole pair (the Lorentzian) and to the spectral
        integral otherwise.
        """
        if method is None:
            method = self.default_method()
        ff = self.form_factor
        if method is SurvivalMethod.CLOSED_FORM:
            if ff.pole_pair is None:
                raise DomainError(f"the {ff.family} family has no closed-form survival")
            return _pole_pair_series(self._closed_form_pair, times)
        if method is SurvivalMethod.SPECTRAL_INTEGRAL:
            return survival_spectral_integral(ff, self.omega_a, times)
        if method is SurvivalMethod.POLE_APPROX:
            return pole_approximation(self.pole, times)
        raise ValueError(f"unknown method {method!r}")

    def amplitudes(self, times) -> np.ndarray:
        return self.survival_series(times).amplitudes

    def log_survival_probability(self, tau):
        """ln P(τ) at a float or an array of τ (a float in gives a float out).

        Where P ≥ ½, ln P = log1p(−2 Re u + |u|²) with u = 1 − x·e^{iθτ}
        formed without cancellation, so it keeps its relative accuracy as
        τ → 0: from the pole pair rotated by θ = Re E₁ (C₁ + C₂ = 1), or
        from the panels rotated by θ = ω_a.  Below ½ it is the pole pair's
        factored form, which never underflows, or ln|x|² of the panels.
        A τ that is negative or not finite raises :class:`~zenodecay.DomainError`.
        A :class:`~zenodecay.ToleranceError` of the panels carries ln P
        at every τ, flattened, as its ``value``.
        """
        taus = np.ravel(_check_times(tau))
        pair = self._closed_form_pair
        if pair is not None:
            out = _pole_pair_log_p(pair, taus)
        else:
            out = _spectral_amplitudes(self.form_factor, self.omega_a, taus, log_p=True)
        out = out.reshape(np.shape(tau))
        return float(out) if out.ndim == 0 else out

    def survival_probability(self, tau: float) -> float:
        return float(math.exp(self.log_survival_probability(tau)))


class ExponentialDecayModel:
    """Pure exponential decay P(τ) = z_renorm·e^{−gamma0·τ}.

    The z_renorm = 1 case has γ(τ) = γ₀ identically — no Zeno or inverse
    Zeno regime exists.  With z_renorm ≠ 1 it reproduces exactly the
    asymptotic pole form, for which γ(τ) = γ₀ − ln(z)/τ.
    """

    def __init__(self, gamma0: float, z_renorm: float = 1.0):
        gamma0 = float(gamma0)
        z_renorm = float(z_renorm)
        if not (gamma0 > 0.0) or not math.isfinite(gamma0):
            raise NoDecayError(f"gamma0 must be positive, got {gamma0}")
        if not (z_renorm > 0.0) or not math.isfinite(z_renorm):
            raise ValueError(f"z_renorm must be positive, got {z_renorm}")
        self.gamma0 = gamma0
        self.z_renorm = z_renorm
        self.form_factor = None
        self.bandwidth = None
        self.zeno_time = math.inf

    def __repr__(self):
        return f"ExponentialDecayModel(gamma0={self.gamma0!r}, z_renorm={self.z_renorm!r})"

    def log_survival_probability(self, tau):
        """ln Z − γ₀τ at a float or an array of τ ≥ 0 (a float in gives a float out)."""
        _check_times(tau)
        out = math.log(self.z_renorm) - self.gamma0 * np.asarray(tau, dtype=float)
        return float(out) if out.ndim == 0 else out

    def survival_probability(self, tau: float) -> float:
        return math.exp(self.log_survival_probability(tau))
