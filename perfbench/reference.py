"""Independent references for the benchmark's accuracy gates.

Everything here is plain numpy and never calls ``zenodecay``, so a gate
that passes means two separate codes agree.

The Lorentzian family is exactly solvable: with
Σ(E) = λ²/(E + iΛ) the propagator (E + iΛ)/((E − E₁)(E − E₂)) has the
two roots of (E − ω_a)(E + iΛ) = λ² as its only poles, so

    x(t) = c₁·e^{−iE₁t} + c₂·e^{−iE₂t},   c_j = (E_j + iΛ)/(E_j − E_k),

with c₁ + c₂ = 1, γ₀ = −2·Im E₁ (E₁ the longer-lived root) and Z = |c₁|².
"""

from __future__ import annotations

import math

import numpy as np


def lorentz_poles(lam: float, bw: float, omega_a: float):
    """(E₁, E₂, c₁, c₂): roots of (E − ω_a)(E + iΛ) = λ², longer-lived first."""
    b = 1j * bw - omega_a
    c = -(1j * bw * omega_a + lam * lam)
    disc = np.sqrt(b * b - 4.0 * c)
    # Cancellation-free pair: q from the larger-magnitude combination.
    q = -0.5 * (b + disc if abs(b + disc) >= abs(b - disc) else b - disc)
    r1, r2 = complex(q), complex(c / q)
    e1, e2 = (r1, r2) if abs(r1.imag) <= abs(r2.imag) else (r2, r1)
    c1 = (e1 + 1j * bw) / (e1 - e2)
    c2 = (e2 + 1j * bw) / (e2 - e1)
    return e1, e2, c1, c2


def lorentz_amplitude(lam: float, bw: float, omega_a: float, t) -> np.ndarray:
    """Exact x(t) of the Lorentzian family."""
    e1, e2, c1, c2 = lorentz_poles(lam, bw, omega_a)
    t = np.asarray(t, dtype=float)
    return c1 * np.exp(-1j * e1 * t) + c2 * np.exp(-1j * e2 * t)


def lorentz_gamma0_z(lam: float, bw: float, omega_a: float) -> tuple[float, float]:
    e1, _e2, c1, _c2 = lorentz_poles(lam, bw, omega_a)
    return -2.0 * e1.imag, abs(c1) ** 2


def _phi2(z: np.ndarray) -> np.ndarray:
    """e^z − 1 − z for complex z, by its Taylor series where |z| < ½."""
    z = np.asarray(z, dtype=complex)
    series = np.zeros_like(z)
    for k in range(15, -1, -1):  # Horner on z²·Σ_k z^k/(k+2)!
        series = series * z + 1.0 / math.factorial(k + 2)
    series = series * z * z
    return np.where(np.abs(z) < 0.5, series, np.expm1(z) - z)


def lorentz_log_survival(lam: float, bw: float, omega_a: float, tau) -> np.ndarray:
    """ln P(τ) = ln|x(τ)|², accurate both as τ → 0 and at late times.

    Early on the first two Taylor orders are taken out exactly: since
    c₁ + c₂ = 1 and c₁E₁ + c₂E₂ = ω_a,
    x = 1 − iω_aτ + R with R = Σ c_j·(e^{−iE_jτ} − 1 + iE_jτ) = O(τ²), and
    ln|x|² = log1p(2·Re R + (Re R)² + (Im R − ω_aτ)²) loses no digits to
    the O(τ) parts.  Once |x − 1| ≥ ½ the resonance term is factored
    out, ln|x|² = 2 ln|c₁| + 2·Im(E₁)·τ + log1p(2·Re r + |r|²) with
    r = (c₂/c₁)·e^{−i(E₂−E₁)τ}, which cannot underflow.
    """
    e1, e2, c1, c2 = lorentz_poles(lam, bw, omega_a)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    rem = c1 * _phi2(-1j * e1 * tau) + c2 * _phi2(-1j * e2 * tau)
    im = rem.imag - omega_a * tau
    r = (c2 / c1) * np.exp(-1j * (e2 - e1) * tau)
    # Both branches are formed everywhere; each is discarded where invalid.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        early = np.log1p(2.0 * rem.real + rem.real * rem.real + im * im)
        late = (2.0 * math.log(abs(c1)) + 2.0 * e1.imag * tau
                + np.log1p(2.0 * r.real + (r.real * r.real + r.imag * r.imag)))
    return np.where(np.hypot(rem.real, im) < 0.5, early, late)


def lorentz_rate(lam: float, bw: float, omega_a: float, tau) -> np.ndarray:
    """Exact effective rate γ(τ) = −ln P(τ)/τ."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return -lorentz_log_survival(lam, bw, omega_a, tau) / tau


#: Log-spaced samples of the τ* bracketing scan (twice the package's grid).
SCAN_POINTS = 4096


def lorentz_transition_time(lam: float, bw: float, omega_a: float,
                            tau_lo: float, tau_hi: float):
    """Smallest root of γ(τ) = γ₀ on [tau_lo, tau_hi], or None.

    A log-spaced scan brackets the first sign change and bisection in
    log τ refines it to the last representable digit.
    """
    gamma0, _z = lorentz_gamma0_z(lam, bw, omega_a)

    def shift(tau):
        return lorentz_rate(lam, bw, omega_a, tau) - gamma0

    taus = np.geomspace(tau_lo, tau_hi, SCAN_POINTS)
    vals = shift(taus)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
    if idx.size == 0:
        return None
    lo, hi = float(taus[idx[0]]), float(taus[idx[0] + 1])
    f_lo = float(shift(lo)[0])
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        f_mid = float(shift(mid)[0])
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
