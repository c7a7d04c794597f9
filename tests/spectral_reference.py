"""Independent reference for the spectral route: adaptive QUADPACK over ρ.

ρ(ω) comes from ``spectral_density`` one scalar ω at a time, i.e. from
the exact level shift ``real_shift``; the integrals are adaptive
``scipy.integrate.quad`` runs over pieces cut around the resonance and
the coupling peak, with QUADPACK's Fourier weights for x(t).  Nothing
here shares code with the panel engine of ``survival_spectral_integral``.
Bound states are added with the weights of ``find_bound_states``.

``direct_knot_sum`` is the reference of a table's level shift: its knot
sum taken term by term, which the tree sum of
``TabulatedCoupling.shift_closed_form`` replaces; ``exact_knot_sum`` takes
the same sum in mpmath arithmetic, and ``segment_sum`` gives Σ on and off
the axis from the table's segments, one closed form per segment;
``exact_segment_sum`` takes those segment forms, of Σ and Σ′, in mpmath.

``power_law_sigma`` is Σ of the threshold power law with an integer
cut-off exponent in closed form, by the residues of a keyhole contour,
and ``power_law_sigma_slope`` its derivative Σ′.

``kofman_kurizki_rate`` is the weak-coupling limit of the effective rate
(Kofman and Kurizki, Nature 405, 546 (2000)): the overlap of g² with the
measurement-broadened line, which needs no pole and no level shift;
``kofman_kurizki_transition`` is where it meets the golden-rule rate.
"""

import cmath
import math
from functools import lru_cache, partial

import numpy as np
from scipy import integrate, optimize

from zenodecay.amplitude import spectral_density
from zenodecay.errors import DomainError
from zenodecay.resolvent import find_bound_states
from zenodecay.selfenergy import real_shift

_QUAD = dict(epsabs=1e-15, limit=500)


def _pieces(ff, omega_a):
    """Piece edges over the support and whether each side runs to infinity."""
    a, b = ff.support()
    peak = omega_a + real_shift(ff, omega_a)
    width = max(2.0 * math.pi * float(ff.g2(peak)), 1e-9)
    marks = [peak + m * width for m in (-100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0)]
    marks += [ff.peak_energy() + m * ff.bandwidth for m in (-1.0, 0.0, 1.0)]
    reach = 50.0 * max(ff.bandwidth, abs(omega_a))
    lo = a if math.isfinite(a) else -reach
    hi = b if math.isfinite(b) else reach
    edges = sorted({lo, hi} | {m for m in marks if lo < m < hi})
    return edges, not math.isfinite(a), not math.isfinite(b)


def _integral(ff, omega_a, f, weight=None, t=None):
    """∫ f(ω)·[cos or sin](ωt) dω over the support, piece by piece."""
    edges, left, right = _pieces(ff, omega_a)
    fourier = {"weight": weight, "wvar": t} if weight else {}
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate.quad(f, lo, hi, epsrel=1e-12, **fourier, **_QUAD)[0]
    if right:
        total += integrate.quad(f, edges[-1], math.inf, **fourier, **_QUAD)[0]
    if left:
        # ω = −u: the sine weight changes sign.
        sign = -1.0 if weight == "sin" else 1.0
        total += sign * integrate.quad(lambda u: f(-u), -edges[0], math.inf, **fourier, **_QUAD)[0]
    return total


@lru_cache(maxsize=None)
def _rho(ff, omega_a, w):
    """ρ(ω), memoized: the quadratures of one model revisit many nodes."""
    return float(spectral_density(ff, omega_a, w))


def reference_amplitude(ff, omega_a, t):
    """x(t) = ∫ρ(ω)e^{−iωt}dω + Σ_b w_b e^{−iE_b t}."""
    rho = partial(_rho, ff, omega_a)
    x = complex(_integral(ff, omega_a, rho, "cos", t), -_integral(ff, omega_a, rho, "sin", t))
    for bs in find_bound_states(ff, omega_a):
        x += bs.weight * np.exp(-1j * bs.energy * t)
    return x


def reference_deficit(ff, omega_a, tau):
    """1 − x(τ) = ∫ρ(ω)(2 sin²(ωτ/2) + i sin ωτ)dω + bound-state terms.

    Each integrand is free of cancellation, so the deficit keeps its
    relative accuracy as τ → 0, where 1 − |x|² is far below rounding of 1.
    """
    rho = partial(_rho, ff, omega_a)
    re = _integral(ff, omega_a, lambda w: rho(w) * 2.0 * math.sin(0.5 * w * tau) ** 2)
    im = _integral(ff, omega_a, lambda w: rho(w) * math.sin(w * tau))
    d = complex(re, im)
    for bs in find_bound_states(ff, omega_a):
        d += bs.weight * complex(2.0 * math.sin(0.5 * bs.energy * tau) ** 2, math.sin(bs.energy * tau))
    return d


def _knot_terms(ff, x):
    """The terms of a table's knot sum at one x, as an array."""
    om, fv = ff.omegas, ff.g2_values
    slopes = np.diff(fv) / np.diff(om)
    kappa = np.diff(slopes, prepend=0.0, append=0.0)
    d = x - om
    ad = np.abs(d)
    ad[ad == 0.0] = 1.0
    la = np.log(ad)
    return np.concatenate((d * la * kappa, [fv[0] * la[0], -fv[-1] * la[-1], -(fv[-1] - fv[0])]))


def direct_knot_sum(ff, x):
    """Δ_R of a table at each x, one real logarithm per knot:

    Σ_j κ_j (x − ω_j) ln|x − ω_j| + v_0 ln|x − ω_0| − v_N ln|x − ω_N|
    − (v_N − v_0),

    κ_j the slope jumps; a term whose knot x hits is zero.
    """
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        terms = _knot_terms(ff, xi)
        out[i] = terms[:-3].sum() + terms[-3] + terms[-2] + terms[-1]
    return out


def knot_sum_scale(ff, x):
    """Σ|terms| of the knot sum at each x: ε times it is the rounding
    scale of any summation order."""
    return np.array([np.abs(_knot_terms(ff, xi)).sum() for xi in x])


def exact_knot_sum(mp, ff, x):
    """The knot sum of ``direct_knot_sum`` at one x outside the support,
    in the working precision of the mpmath module ``mp``, from the
    table's knots and values taken as exact."""
    om = [mp.mpf(float(w)) for w in ff.omegas]
    fv = [mp.mpf(float(v)) for v in ff.g2_values]
    slopes = [(fv[i + 1] - fv[i]) / (om[i + 1] - om[i]) for i in range(len(om) - 1)]
    kappa = [slopes[0]] + [b - a for a, b in zip(slopes, slopes[1:])] + [-slopes[-1]]
    x = mp.mpf(float(x))
    total = mp.fsum(k * (x - w) * mp.log(abs(x - w)) for k, w in zip(kappa, om))
    return total + fv[0] * mp.log(abs(x - om[0])) - fv[-1] * mp.log(abs(x - om[-1])) - (fv[-1] - fv[0])


def exact_segment_sum(mp, ff, E):
    """Σ and Σ′ of ``segment_sum``'s segment forms at one complex E off the
    support, in the working precision of the mpmath module ``mp``, from
    the table's knots and values taken as exact."""
    om = [mp.mpf(float(w)) for w in ff.omegas]
    fv = [mp.mpf(float(v)) for v in ff.g2_values]
    E = mp.mpc(E.real, E.imag)
    sigma, slope = [], []
    for w0, w1, v0, v1 in zip(om, om[1:], fv, fv[1:]):
        m = (v1 - v0) / (w1 - w0)
        u0, u1 = E - w0, E - w1
        f = v0 + m * u0
        logs = mp.log(u0) - mp.log(u1)
        sigma.append(f * logs - m * (w1 - w0))
        slope.append(-f * (1 / u1 - 1 / u0) + m * logs)
    return complex(mp.fsum(sigma)), complex(mp.fsum(slope))


def segment_sum(ff, E):
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


def _power(z, p):
    """z^p with arg z taken in (0, 2π]."""
    arg = cmath.phase(z)
    return abs(z) ** p * cmath.exp(1j * p * (arg if arg > 0.0 else arg + 2.0 * math.pi))


def power_law_sigma(ff, E):
    """Σ_I(E) of ``ThresholdPowerLawCoupling`` at E off the cut, q an integer.

    With s = E − threshold, c = λ²N and the q roots z_k = Λe^{iπ(2k+1)/q}
    of 1 + (z/Λ)^q, the keyhole contour around the cut gives

        Σ_I(E) = 2πi/(1 − e^{2πip})·[−c·s^p/(1 + (s/Λ)^q)
                                     − Σ_k c·z_k^{p+1}/(q(s − z_k))],

    every power taken with its argument in (0, 2π).
    """
    p, q, lam = ff.rise_exponent, int(ff.cutoff_exponent), ff.bandwidth
    c = ff.coupling**2 * ff._norm
    s = complex(E) - ff.threshold
    total = -c * _power(s, p) / (1.0 + (s / lam) ** q)
    for k in range(q):
        z = lam * cmath.exp(1j * math.pi * (2 * k + 1) / q)
        total -= c * _power(z, p + 1.0) / (q * (s - z))
    return 2j * math.pi / (1.0 - cmath.exp(2j * math.pi * p)) * total


def power_law_sigma_slope(ff, E):
    """Σ_I′(E) of ``power_law_sigma``, the derivative of its residue form:

        Σ_I′(E) = 2πi/(1 − e^{2πip})·[−c·s^(p−1)·(p(1 + u) − q·u)/(1 + u)²
                                      + Σ_k c·z_k^{p+1}/(q(s − z_k)²)],

    u = (s/Λ)^q, every power taken with its argument in (0, 2π).
    """
    p, q, lam = ff.rise_exponent, int(ff.cutoff_exponent), ff.bandwidth
    c = ff.coupling**2 * ff._norm
    s = complex(E) - ff.threshold
    u = (s / lam) ** q
    total = -c * _power(s, p - 1.0) * (p * (1.0 + u) - q * u) / (1.0 + u) ** 2
    for k in range(q):
        z = lam * cmath.exp(1j * math.pi * (2 * k + 1) / q)
        total += c * _power(z, p + 1.0) / (q * (s - z) ** 2)
    return 2j * math.pi / (1.0 - cmath.exp(2j * math.pi * p)) * total


def reference_rate(ff, omega_a, tau):
    """γ(τ) = −ln|1 − d|²/τ with d the cancellation-free deficit."""
    d = reference_deficit(ff, omega_a, tau)
    return -math.log1p(-2.0 * d.real + abs(d) ** 2) / tau


def kofman_kurizki_rate(ff, omega_a, tau):
    """γ_KK(τ) = ∫ g²(ω)·τ·sinc²((ω − ω_a)τ/2) dω, by adaptive quadrature.

    The line's centre, its first zeros and the coupling peak cut the
    support into pieces out to 50 line widths or bandwidths from ω_a;
    past that, on an infinite side, the line is 2(1 − cos δτ)/(τδ²) at
    distance δ, and its cosine goes to QUADPACK's Fourier weight.
    γ/γ_KK − 1 = O(λ²) as the coupling λ → 0.
    """
    def line(w):
        u = 0.5 * (w - omega_a) * tau
        sinc = math.sin(u) / u if u != 0.0 else 1.0
        return float(ff.g2(w)) * tau * sinc * sinc

    a, b = ff.support()
    reach = 50.0 * max(ff.bandwidth, 2.0 * math.pi / tau)
    lo = a if math.isfinite(a) else omega_a - reach
    hi = b if math.isfinite(b) else omega_a + reach
    zeros = (omega_a - 2.0 * math.pi / tau, omega_a, omega_a + 2.0 * math.pi / tau)
    edges = [lo] + sorted({p for p in zeros + (ff.peak_energy(),) if lo < p < hi}) + [hi]
    total = sum(integrate.quad(line, x0, x1, epsabs=0.0, epsrel=1e-11, limit=1000)[0]
                for x0, x1 in zip(edges[:-1], edges[1:]))
    for side, edge in ((-1.0, a), (1.0, b)):
        if not math.isfinite(edge):
            def envelope(d, side=side):
                return 2.0 * float(ff.g2(omega_a + side * d)) / (tau * d * d)

            total += integrate.quad(envelope, reach, math.inf, epsabs=1e-16)[0]
            total -= integrate.quad(envelope, reach, math.inf, weight="cos", wvar=tau,
                                    epsabs=1e-16)[0]
    return total


def kofman_kurizki_transition(ff, omega_a, lo, hi):
    """τ*_KK: the root of γ_KK(τ) = 2πg²(ω_a) in [lo, hi], by brentq.

    γ_KK and the golden-rule rate both scale as λ², so τ*_KK does not
    depend on the coupling; τ*/τ*_KK − 1 = O(λ²).
    """
    golden = 2.0 * math.pi * float(ff.g2(omega_a))
    return optimize.brentq(lambda tau: kofman_kurizki_rate(ff, omega_a, tau) - golden, lo, hi,
                           xtol=1e-14, rtol=1e-13)
