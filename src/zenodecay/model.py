"""Decay models: a coupling family bound to a discrete-level energy.

:class:`DecayModel` is the object the measurement machinery operates on.
It caches the resonance pole and exposes the survival probability in a
form safe for the small-interval regime: ``log_survival_probability``
computes ln P directly from the amplitude with compensated arithmetic,
so that effective rates −ln P/τ stay accurate where 1 − P is below
rounding noise.  The Lorentzian family takes ln P from its two-pole
closed form; every other family takes it from the spectral amplitude at
every τ, so late intervals see the true non-exponential tail rather than
the pole term ln Z − γ₀τ.

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
    lorentzian_pole_pair,
    pole_approximation,
    survival_closed_form_lorentzian,
    survival_spectral_integral,
)
from .errors import DomainError, NoDecayError
from .formfactor import FormFactor, LorentzianCoupling, zeno_time as _ff_zeno_time
from .resolvent import PoleData, find_pole

__all__ = ["DecayModel", "ExponentialDecayModel"]


def _log_abs2(values: np.ndarray) -> np.ndarray:
    """ln|x|² without cancellation for |x| near 1.

    |x|² − 1 = (re−1)(re+1) + im² is exact to rounding; log1p does the
    rest.  That form degrades once |x|² is itself below rounding (the
    argument collapses to −1), so small amplitudes take the direct log,
    where no cancellation exists.
    """
    re = np.real(values)
    im = np.imag(values)
    mag2 = re * re + im * im
    out = np.empty_like(mag2)
    small = mag2 < 0.25
    with np.errstate(divide="ignore"):
        out[small] = np.log(mag2[small])
    big = ~small
    out[big] = np.log1p((re[big] - 1.0) * (re[big] + 1.0) + im[big] * im[big])
    return out


class DecayModel:
    """An unstable level: form factor plus discrete energy omega_a.

    Parameters
    ----------
    form_factor : FormFactor
        The coupling family (must have nonzero coupling for any of the
        decay quantities to exist).
    omega_a : float
        Energy of the discrete level.
    """

    def __init__(self, form_factor: FormFactor, omega_a: float):
        if not isinstance(form_factor, FormFactor):
            raise TypeError(f"form_factor must be a FormFactor, got {type(form_factor)!r}")
        omega_a = float(omega_a)
        if not math.isfinite(omega_a):
            raise DomainError(f"omega_a must be finite, got {omega_a!r}")
        self.form_factor = form_factor
        self.omega_a = omega_a

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
        ff = self.form_factor
        if not isinstance(ff, LorentzianCoupling):
            return None
        return lorentzian_pole_pair(self.pole, ff.bandwidth)

    # -- survival ----------------------------------------------------

    def default_method(self) -> SurvivalMethod:
        if isinstance(self.form_factor, LorentzianCoupling):
            return SurvivalMethod.CLOSED_FORM
        return SurvivalMethod.SPECTRAL_INTEGRAL

    def survival_series(self, times, method: SurvivalMethod | None = None) -> SurvivalSeries:
        """Sample the survival amplitude/probability on a time grid.

        ``method`` defaults to the exact closed form for Lorentzian
        couplings and to the spectral integral otherwise.
        """
        if method is None:
            method = self.default_method()
        ff = self.form_factor
        if method is SurvivalMethod.CLOSED_FORM:
            if not isinstance(ff, LorentzianCoupling):
                raise DomainError("closed-form survival exists only for Lorentzian couplings")
            return survival_closed_form_lorentzian(ff.coupling, ff.bandwidth, self.omega_a, times)
        if method is SurvivalMethod.SPECTRAL_INTEGRAL:
            return survival_spectral_integral(ff, self.omega_a, times)
        if method is SurvivalMethod.POLE_APPROX:
            return pole_approximation(self.pole, times)
        raise ValueError(f"unknown method {method!r}")

    def amplitudes(self, times) -> np.ndarray:
        return self.survival_series(times).amplitudes

    def log_survival_probability(self, tau: float) -> float:
        """ln P(τ) through the compensated small-deviation path."""
        return float(self._log_survival_array(np.atleast_1d(float(tau)))[0])

    def _log_survival_array(self, taus: np.ndarray) -> np.ndarray:
        pair = self._closed_form_pair
        if pair is not None:
            # Factor out the resonance exponential so that arbitrarily
            # late times never underflow: with r the (decaying) partner
            # ratio, ln P = ln|c1|² + 2·Im(e1)·t + ln|1+r|².
            e1, e2, c1, c2 = pair
            r = (c2 / c1) * np.exp(-1j * (e2 - e1) * taus)
            with np.errstate(divide="ignore"):  # exact amplitude zeros
                correction = np.log1p(2.0 * np.real(r) + np.abs(r) ** 2)
            return 2.0 * math.log(abs(c1)) + 2.0 * e1.imag * taus + correction
        return _log_abs2(self.survival_series(taus, SurvivalMethod.SPECTRAL_INTEGRAL).amplitudes)

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
        self.bandwidth = None
        self.zeno_time = math.inf

    def __repr__(self):
        return f"ExponentialDecayModel(gamma0={self.gamma0!r}, z_renorm={self.z_renorm!r})"

    def log_survival_probability(self, tau: float) -> float:
        return math.log(self.z_renorm) - self.gamma0 * float(tau)

    def survival_probability(self, tau: float) -> float:
        return math.exp(self.log_survival_probability(tau))
