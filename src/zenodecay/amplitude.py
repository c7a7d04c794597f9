"""Survival amplitude x(t) and probability P(t) of the unstable level.

Three evaluation routes are provided, all returning a
:class:`SurvivalSeries`:

``survival_closed_form_lorentzian``
    The exact two-exponential expression for the Lorentzian family.  The
    propagator has exactly two second-sheet poles, so the inversion
    integral collapses to the residue sum

        x(t) = C₁·e^{−i(ω_a+Δ)t}·e^{−γ₀t/2} + C₂·e^{+iΔt}·e^{−(Λ−γ₀/2)t},

    with C₁ + C₂ = 1 and |C₁|² = Z.

``survival_spectral_integral``
    General route: the inversion contour is collapsed onto the continuum
    cut, giving the manifestly convergent spectral representation

        x(t) = ∫ ρ(ω)·e^{−iωt} dω  +  Σ_b w_b·e^{−iE_b t},
        ρ(ω) = g²(ω) / [(ω − ω_a − Δ_R(ω))² + π²·g⁴(ω)],

    where the sum covers bound states below the threshold (weights from
    the resolvent module) and ∫ρ + Σw_b = 1 expresses completeness.
    Oscillatory pieces use Fourier-weighted quadrature split at the
    resonance peak; infinite tails use the Fourier transform rule on
    semi-infinite intervals.

``pole_approximation``
    Only the resonance-pole term: P(t) = Z·e^{−γ₀t}, the exponential-era
    asymptote.  Note P(0) = Z ≠ 1 — the discarded background is what
    restores unit norm at t = 0.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy import integrate, interpolate, optimize

from .errors import DomainError, NoDecayError, ToleranceError
from .formfactor import FormFactor, LorentzianCoupling, TabulatedCoupling
from .resolvent import PoleData, find_bound_states, find_pole, lorentzian_pole_closed_form
from .selfenergy import real_shift

__all__ = [
    "SurvivalMethod",
    "SurvivalSeries",
    "survival_closed_form_lorentzian",
    "survival_spectral_integral",
    "pole_approximation",
    "spectral_density",
]

#: Default overall quadrature tolerance of the spectral route.
SPECTRAL_TOL = 1e-8

#: Beyond t·(integration span) of this size the oscillatory quadrature is
#: abandoned for the pole(+bound states) asymptote, with a warning.
_OSCILLATION_BUDGET = 1e4


class SurvivalMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    SPECTRAL_INTEGRAL = "spectral_integral"
    POLE_APPROX = "pole_approx"


@dataclass(frozen=True, eq=False)
class SurvivalSeries:
    """Amplitude and probability sampled on a time grid.

    ``probabilities`` is always |amplitudes|²; for the exact methods
    P(0) = 1 and P ≤ 1, while the pole approximation starts at Z.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray
    method: SurvivalMethod

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        p = np.asarray(self.probabilities, dtype=float)
        if t.ndim != 1 or a.shape != t.shape or p.shape != t.shape:
            raise ValueError("times, amplitudes, probabilities must be 1-D and congruent")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "probabilities", p)


def _series(times, amps, method: SurvivalMethod) -> SurvivalSeries:
    amps = np.asarray(amps, dtype=complex)
    return SurvivalSeries(
        times=np.asarray(times, dtype=float),
        amplitudes=amps,
        probabilities=np.abs(amps) ** 2,
        method=method,
    )


def _check_times(times, allow_negative=False) -> np.ndarray:
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if not allow_negative and np.any(t < 0):
        raise DomainError("times must be non-negative")
    return t


def lorentzian_pole_pair(pole: PoleData, bandwidth: float):
    """Both second-sheet poles and their residues for the Lorentzian family.

    The pole equation is quadratic, so the partner of ``pole.e_pole`` is
    fixed by the root sum ω_a − iΛ; the residues C₁, C₂ of
    (E + iΛ)/((E−E₁)(E−E₂)) satisfy C₁ + C₂ = 1 exactly.
    """
    e1 = pole.e_pole
    e2 = pole.omega_a - 1j * bandwidth - e1
    c1 = (e1 + 1j * bandwidth) / (e1 - e2)
    c2 = 1.0 - c1
    return e1, e2, c1, c2


def survival_closed_form_lorentzian(coupling, bandwidth, omega_a, times) -> SurvivalSeries:
    """Exact Lorentzian survival series from the two-pole residue sum.

    Parameters
    ----------
    coupling, bandwidth : float
        λ > 0, Λ > 0.
    omega_a : float
        Discrete-level energy.
    times : array_like
        Non-negative sample times.
    """
    t = _check_times(times)
    pole = lorentzian_pole_closed_form(coupling, bandwidth, omega_a)
    e1, e2, c1, c2 = lorentzian_pole_pair(pole, float(bandwidth))
    amps = c1 * np.exp(-1j * e1 * t) + c2 * np.exp(-1j * e2 * t)
    return _series(t, amps, SurvivalMethod.CLOSED_FORM)


def pole_approximation(pole: PoleData, times) -> SurvivalSeries:
    """Resonance-pole term only: x = √Z·e^{−i·Re(E_pole)·t − γ₀t/2}.

    The phase is fixed to Re(E_pole)·t, which makes this the exact modulus
    of the pole's residue contribution; P(t) = Z·e^{−γ₀t}.
    """
    t = _check_times(times)
    amps = math.sqrt(pole.z_renorm) * np.exp(
        (-1j * pole.e_pole.real - 0.5 * pole.gamma0) * t
    )
    return _series(t, amps, SurvivalMethod.POLE_APPROX)


def spectral_density(ff: FormFactor, omega_a: float, omega) -> np.ndarray:
    """Continuum density ρ(ω) of the surviving component (array-safe).

    ρ(ω) = g²(ω) / [(ω − ω_a − Δ_R(ω))² + π²g⁴(ω)]; integrates to one
    minus the total bound-state weight.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    g2 = np.atleast_1d(np.asarray(ff.g2(w), dtype=float))
    dr = real_shift(ff, w)
    out = np.zeros_like(g2)
    mask = g2 > 0.0
    out[mask] = g2[mask] / (
        (w[mask] - omega_a - dr[mask]) ** 2 + (math.pi * g2[mask]) ** 2
    )
    return out if np.ndim(omega) else float(out[0])


def _resonance_energy(ff: FormFactor, omega_a: float) -> float:
    """Root of ω − ω_a − Δ_R(ω) inside the support (peak of ρ)."""
    a, b = ff.support()

    def h(w):
        return w - omega_a - real_shift(ff, w)

    half = 0.25 * ff.bandwidth
    lo, hi = omega_a - half, omega_a + half
    for _ in range(40):
        if math.isfinite(a):
            lo = max(lo, a + 1e-12 * max(1.0, ff.bandwidth))
        if math.isfinite(b):
            hi = min(hi, b - 1e-12 * max(1.0, ff.bandwidth))
        if lo < hi:
            h_lo, h_hi = h(np.array([lo, hi]))
            if h_lo < 0.0 < h_hi:
                return float(optimize.brentq(h, lo, hi, xtol=1e-14, rtol=8.9e-16))
        lo, hi = omega_a - 2.0 * (omega_a - lo), omega_a + 2.0 * (hi - omega_a)
        if (math.isfinite(a) and lo <= a) and (math.isfinite(b) and hi >= b):
            break
    # Shift-at-level fallback; adequate when the bracket degenerates.
    return omega_a + real_shift(ff, omega_a)


def _breakpoints(ff: FormFactor, omega_r: float, gw: float, res: float):
    """Integration endpoints and interior breakpoints for the ρ quadrature."""
    a, b = ff.support()
    bw = ff.bandwidth
    center = ff.peak_energy()
    if gw <= 0.5 * bw:
        # Narrow resonance: the slowly decaying Lorentzian wings carry
        # mass out to many widths before the analytic tail takes over.
        wing = 1500.0 * gw
    else:
        # Broad resonance: past a few widths the density already decays
        # on the coupling's own scale; stretching the span by thousands
        # of (bandwidth-sized) widths would starve every grid downstream.
        wing = 30.0 * bw + 20.0 * gw
    lo_cap = min(omega_r - wing, center - 30.0 * bw)
    hi_cap = max(omega_r + wing, center + 30.0 * bw)
    A = a if math.isfinite(a) else lo_cap
    B = b if math.isfinite(b) else hi_cap

    pts = {A, B}
    for m in (-1024.0, -256.0, -64.0, -16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
        pts.add(omega_r + m * res)
    for k in (-30.0, -10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0, 30.0):
        pts.add(center + k * bw)
    ordered = [A]
    for p in sorted(pts):
        if A < p < B and p - ordered[-1] > 1e-9 * bw:
            ordered.append(p)
    if B - ordered[-1] > 1e-9 * bw:
        ordered.append(B)
    else:
        ordered[-1] = B
    return ordered, (not math.isfinite(a)), (not math.isfinite(b))


def _local_table_shift(ff: TabulatedCoupling, lo: float, hi: float):
    """Exact on-cut shift contribution of the table segments overlapping [lo, hi].

    A piecewise-linear density gives a shift whose derivative has weak
    logarithmic kinks at every knot — structure no smooth interpolant
    can reproduce.  Restricted to a short slice of segments, the exact
    per-segment sum is a dense vectorized expression and costs almost
    nothing, so inside the resonance window the kink structure is kept
    exactly and only the smooth far-segment remainder is interpolated.

    Clamping |ω − knot| from below makes the two divergent log terms of
    adjacent segments cancel identically at a knot hit, which is also
    the correct merged limit.
    """
    om = ff.omegas
    g2v = ff.g2_values
    k = np.where((om[1:] >= lo) & (om[:-1] <= hi))[0]
    k0, k1 = int(k[0]), int(k[-1]) + 1
    w0, w1 = om[k0 : k1], om[k0 + 1 : k1 + 1]
    c = g2v[k0 : k1]
    m = (g2v[k0 + 1 : k1 + 1] - c) / (w1 - w0)

    def local(ws):
        ws = np.asarray(ws, dtype=float)
        alpha = ws[..., None] - w0
        la0 = np.log(np.maximum(np.abs(alpha), 1e-300))
        la1 = np.log(np.maximum(np.abs(ws[..., None] - w1), 1e-300))
        return np.sum((c + m * alpha) * (la0 - la1) - m * (w1 - w0), axis=-1)

    return local, float(om[k0]), float(om[k1])


def _shift_interpolant(
    ff: FormFactor, omega_r: float, res: float, A: float, B: float, omega_a: float
):
    """Spline surrogate for Δ_R over [A, B]; leading-moment tail outside.

    The oscillatory integrator asks for ρ one node at a time, and a
    single exact Δ_R costs a whole quadrature rule (or a sum over every
    table knot), so the exact shift is sampled on grids, one batched
    :func:`real_shift` call per grid, and interpolated.  Δ_R is smooth
    on the coupling's own scale (it does not share the narrow resonance
    structure of ρ), so a few hundred exact samples — densified around
    the resonance and at a finite threshold — carry the spline below the
    spectral error budget.  Outside [A, B] only the far tails ask for
    it, where Δ_R → (∫g²)/ω.

    The norm ∫ρ is first-order sensitive to the *slope* error of the
    interpolated shift at the resonance (a tilted shift drags the peak
    off the true level line), so a second, much finer layer covers a
    window around ω_r; elsewhere plain backbone spacing suffices.  The
    fine layer is *validated*: spline-vs-exact deviations are probed in
    ρ itself at segment midpoints, turned into a norm-bias estimate, and
    the grid is midpoint-refined until the estimate meets the budget
    (exact samples are cached, so probes are recycled as nodes).  For
    tabulated couplings the window additionally splits off the exact
    near-segment sum (see _local_table_shift) and interpolates only the
    smooth remainder.
    """
    a, _b = ff.support()
    # Keep sample points strictly inside the support: at an edge with a
    # nonzero density value the principal value diverges (the spline
    # extrapolates across the 1e-9 fringe, where ρ carries no weight).
    edge = 1e-9 * (B - A)
    lo_in, hi_in = A + edge, B - edge
    parts = [np.linspace(lo_in, hi_in, 321)]
    core_half = min(0.5 * (B - A), max(64.0 * res, 0.02 * (B - A)))
    parts.append(omega_r + np.linspace(-core_half, core_half, 241))
    if math.isfinite(a) and a >= A:
        parts.append(a + (B - a) * np.logspace(-8.0, 0.0, 33))
    grid = np.unique(np.concatenate(parts))
    grid = grid[(grid >= lo_in) & (grid <= hi_in)]
    grid = grid[np.concatenate(([True], np.diff(grid) > 1e-12 * (B - A)))]
    spline = interpolate.CubicSpline(grid, real_shift(ff, grid))

    half_w = min(0.25 * (B - A), max(40.0 * res, 2e-3 * (B - A)))
    flo, fhi = max(lo_in, omega_r - half_w), min(hi_in, omega_r + half_w)

    local = None
    nudge = None
    if isinstance(ff, TabulatedCoupling):
        local, _kn_lo, _kn_hi = _local_table_shift(ff, flo - 0.5 * half_w, fhi + 0.5 * half_w)
        # The slice boundary knots lie outside the window, so local()
        # never sees their divergent logs; interior knot hits on the
        # sample grid are nudged off (the remainder is smooth anyway).
        knots = ff.omegas
        h_min = float(np.min(np.diff(knots)))

        def nudge(ws):
            up = np.clip(np.searchsorted(knots, ws), 0, knots.size - 1)
            dn = np.clip(up - 1, 0, knots.size - 1)
            near = np.minimum(np.abs(ws - knots[up]), np.abs(ws - knots[dn]))
            return np.where(near < 1e-6 * h_min, ws + 1e-3 * h_min, ws)

    seen: dict = {}

    def exact(ws):
        """Exact Δ_R at ``ws``, one real_shift call for the points not seen yet."""
        new = [w for w in dict.fromkeys(ws.tolist()) if w not in seen]
        if new:
            seen.update(zip(new, real_shift(ff, np.array(new)).tolist()))
        return np.array([seen[w] for w in ws.tolist()])

    fgrid = np.linspace(flo, fhi, 321)
    if math.isfinite(a) and flo <= a + 0.05 * (fhi - flo):
        # Threshold inside (or hugging) the window: cluster toward it,
        # a uniform grid converges slowly across the edge power law.
        fgrid = np.concatenate([fgrid, flo + (fhi - flo) * np.logspace(-8.0, -1.0, 25)])
    if nudge is not None:
        fgrid = nudge(fgrid)
    fgrid = np.unique(fgrid)

    bias = math.inf
    for _ in range(4):
        mids = 0.5 * (fgrid[:-1] + fgrid[1:])
        if nudge is not None:
            mids = nudge(mids)
        step = max(1, mids.size // 48)
        probes = mids[step // 2 :: step]
        widths = np.diff(fgrid)[step // 2 :: step]
        exact(np.concatenate([fgrid, probes]))
        fvals = exact(fgrid)
        base = fvals - local(fgrid) if local is not None else fvals
        fine = interpolate.CubicSpline(fgrid, base)
        d_fit = np.asarray(fine(probes), dtype=float)
        if local is not None:
            d_fit = d_fit + local(probes)
        # |δρ| at the probes when the fitted shift replaces the exact one.
        g2 = np.asarray(ff.g2(probes), dtype=float)
        pg2 = math.pi * g2
        u_true = probes - omega_a - exact(probes)
        u_fit = probes - omega_a - d_fit
        with np.errstate(divide="ignore", invalid="ignore"):
            dev = np.abs(g2 / (u_fit * u_fit + pg2 * pg2) - g2 / (u_true * u_true + pg2 * pg2))
        dev = np.where(g2 > 0.0, dev, 0.0)
        bias = float(np.sum(dev * widths)) * (mids.size / probes.size)
        if bias <= 1e-9 or fgrid.size > 2400:
            break
        fgrid = np.unique(np.concatenate([fgrid, mids]))

    m0 = ff.g2_integral()

    if local is None:

        def delta_fast(w):
            if flo <= w <= fhi:
                return float(fine(w))
            if A <= w <= B:
                return float(spline(w))
            return m0 / w if w != 0.0 else 0.0

    else:

        def delta_fast(w):
            if flo <= w <= fhi:
                return float(fine(w)) + float(local(w))
            if A <= w <= B:
                return float(spline(w))
            return m0 / w if w != 0.0 else 0.0

    delta_fast.spline = spline
    delta_fast.fine = fine
    delta_fast.fine_window = (flo, fhi)
    delta_fast.local = local
    delta_fast.bias = bias
    return delta_fast


def _kernel_uncached(ff: FormFactor, omega_a: float) -> SimpleNamespace:
    bound = find_bound_states(ff, omega_a) if math.isfinite(ff.threshold) else ()
    omega_r = _resonance_energy(ff, omega_a)
    gw = max(math.pi * float(ff.g2(omega_r)), 1e-12 * ff.bandwidth)
    # Resolution unit for the grids below: the resonance width, except
    # in the broad regime, where the density has no structure narrower
    # than the coupling scale and the bandwidth takes over.
    res = min(gw, 0.5 * ff.bandwidth)
    pts, left_tail, right_tail = _breakpoints(ff, omega_r, gw, res)
    A, B = pts[0], pts[-1]

    if isinstance(ff, LorentzianCoupling):
        lam2 = ff.coupling**2
        bw2 = ff.bandwidth**2

        def delta_fast(w):
            return lam2 * w / (w * w + bw2)

    else:
        delta_fast = _shift_interpolant(ff, omega_r, res, A, B, omega_a)

    def rho(w):
        g2 = float(ff.g2(w))
        if g2 <= 0.0:
            return 0.0
        return g2 / ((w - omega_a - delta_fast(w)) ** 2 + (math.pi * g2) ** 2)

    def rho_neg(u):
        return rho(-u)

    kernel = SimpleNamespace(
        ff=ff,
        omega_a=omega_a,
        pts=pts,
        left_tail=left_tail,
        right_tail=right_tail,
        bound=bound,
        rho=rho,
        rho_neg=rho_neg,
        span=B - A,
        npieces=len(pts) - 1 + left_tail + right_tail,
        pole_cache={},
        table=None,
        bias=getattr(delta_fast, "bias", 0.0),
    )
    if isinstance(ff, TabulatedCoupling):
        kernel.table = _table_panels(ff, omega_a, omega_r, res, delta_fast)
    return kernel


def _table_panels(ff: TabulatedCoupling, omega_a, omega_r, res, delta_fast):
    """Knot-aligned fixed panels for tabulated densities.

    Adaptive quadrature across a table sees a kink at every knot and its
    error estimate never settles.  Between knots, though, ρ is perfectly
    smooth, so a 4-point Gauss rule per knot segment is essentially exact
    — except where the resonance peak puts structure narrower than the
    knot spacing inside a segment; those few segments are left to the
    adaptive oscillatory integrator.  Per time point the panel part is a
    single vectorized inner product against e^{−iωt}.
    """
    om = ff.omegas
    w0, w1 = om[:-1], om[1:]
    h = w1 - w0
    radius = np.maximum(25.0 * res, 5.0 * h)
    adaptive = (w1 >= omega_r - radius) & (w0 <= omega_r + radius)

    xg, wg = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (w0[~adaptive] + w1[~adaptive])
    half = 0.5 * h[~adaptive]
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()

    g2n = np.asarray(ff.g2(nodes), dtype=float)
    shift = np.asarray(delta_fast.spline(nodes), dtype=float)
    flo, fhi = delta_fast.fine_window
    near = (nodes >= flo) & (nodes <= fhi)
    if np.any(near):
        shift[near] = delta_fast.fine(nodes[near])
        if delta_fast.local is not None:
            shift[near] += delta_fast.local(nodes[near])
    rho_n = np.zeros_like(g2n)
    ok = g2n > 0.0
    rho_n[ok] = g2n[ok] / (
        (nodes[ok] - omega_a - shift[ok]) ** 2 + (math.pi * g2n[ok]) ** 2
    )
    segs = [(float(a), float(b)) for a, b in zip(w0[adaptive], w1[adaptive])]
    wrho = weights * rho_n
    return SimpleNamespace(
        nodes=nodes,
        wrho=wrho,
        adaptive_segs=segs,
        h_max=float(np.max(h[~adaptive])) if np.any(~adaptive) else 0.0,
        mass=float(np.sum(np.abs(wrho))),
    )


_kernel_cached = lru_cache(maxsize=16)(_kernel_uncached)


def _spectral_kernel(ff: FormFactor, omega_a: float) -> SimpleNamespace:
    try:
        return _kernel_cached(ff, omega_a)
    except TypeError:  # unhashable custom family: build without caching
        return _kernel_uncached(ff, omega_a)


def _wquad(f, lo, hi, weight, wvar, epsabs):
    out = integrate.quad(
        f, lo, hi, weight=weight, wvar=wvar, epsabs=epsabs, epsrel=1e-10,
        limit=200, full_output=1,
    )
    return out[0], out[1]


def _pquad(f, lo, hi, epsabs, points=None):
    if points is not None and not (math.isfinite(lo) and math.isfinite(hi)):
        points = None
    out = integrate.quad(
        f, lo, hi, epsabs=epsabs, epsrel=1e-12, limit=200, points=points, full_output=1
    )
    return out[0], out[1]


def survival_spectral_integral(
    ff: FormFactor, omega_a: float, times, tol: float = SPECTRAL_TOL
) -> SurvivalSeries:
    """Survival series from the spectral representation of the propagator.

    Works for any family with a finite coupling integral; bound states
    below a finite threshold are detected and included (omitting them
    would violate unit norm at t = 0).

    Parameters
    ----------
    ff : FormFactor
    omega_a : float
        Discrete-level energy.
    times : array_like
        Sample times; negative values are accepted and return the
        conjugate amplitude (ρ is real, so x(−t) = conj x(t)).
    tol : float
        Overall absolute accuracy target per time point (t = 0 is always
        evaluated at near-machine accuracy for the norm check).

    Notes
    -----
    The ρ machinery — resonance location, breakpoints, bound states and
    (for non-Lorentzian families) a spline surrogate of the level shift
    accurate beyond the error budget — is built once per
    (family, omega_a) pair and memoized, so repeated calls with
    different time grids only pay for the oscillatory quadrature.  The
    surrogate's exact samples come from :func:`~zenodecay.real_shift`
    called on whole ω grids (the backbone, each refinement pass of the
    resonance window together with its validation probes), so a kernel
    build makes a few dozen batched calls rather than one per sample.

    Raises
    ------
    NoDecayError
        Zero coupling (the spectral density is empty).
    ToleranceError
        Accumulated quadrature error estimate above ``tol``.

    Warns
    -----
    UserWarning
        When t·(integration span) exceeds 1e4 and the evaluation falls
        back to the pole-plus-bound-state asymptote: one warning per call,
        giving the number of such times and their range.
    """
    t_in = _check_times(times, allow_negative=True)
    if ff.g2_integral() == 0.0:
        raise NoDecayError("zero coupling: no spectral density to integrate")
    k = _spectral_kernel(ff, float(omega_a))
    pts, rho, rho_neg, bound = k.pts, k.rho, k.rho_neg, k.bound
    A, B = pts[0], pts[-1]

    def asymptote(tau):
        if "pole" not in k.pole_cache:
            k.pole_cache["pole"] = find_pole(ff, k.omega_a)
        p = k.pole_cache["pole"]
        val = math.sqrt(p.z_renorm) * np.exp((-1j * p.e_pole.real - 0.5 * p.gamma0) * tau)
        for bs in bound:
            val += bs.weight * np.exp(-1j * bs.energy * tau)
        return val

    def panel_sum(tau):
        """Fixed-panel Fourier sum plus the adaptive resonance segments."""
        tab = k.table
        if tau == 0.0:
            val = complex(np.sum(tab.wrho))
        else:
            val = complex(np.dot(tab.wrho, np.exp(-1j * tau * tab.nodes)))
        # Degree-7 Gauss panels: the residual scales like (t·h/2)^8/8!.
        err = 1e-12 + 70.0 * tab.mass * (0.5 * tau * tab.h_max) ** 8 / 40320.0
        eps = (3e-14 if tau == 0.0 else tol) / (3.0 * max(1, len(tab.adaptive_segs)))
        for lo, hi in tab.adaptive_segs:
            if tau == 0.0:
                v, e = _pquad(rho, lo, hi, eps)
                val += v
            else:
                v, e = _wquad(rho, lo, hi, "cos", tau, eps)
                val += v
                err += e
                v, e = _wquad(rho, lo, hi, "sin", tau, eps)
                val += complex(0.0, -v)
            err += e
        return val, err

    def eval_zero():
        if k.table is not None:
            total, err = panel_sum(0.0)
            for bs in bound:
                total += bs.weight
            return total, err
        eps = 3e-14
        total = 0.0
        err = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            v, e = _pquad(rho, lo, hi, eps)
            total += v
            err += e
        if k.left_tail:
            v, e = _pquad(rho_neg, -A, math.inf, eps)
            total += v
            err += e
        if k.right_tail:
            v, e = _pquad(rho, B, math.inf, eps)
            total += v
            err += e
        for bs in bound:
            total += bs.weight
        return complex(total, 0.0), err

    def eval_at(tau):
        if tau == 0.0:
            return eval_zero()
        if k.table is not None:
            val, err = panel_sum(tau)
            for bs in bound:
                val += bs.weight * np.exp(-1j * bs.energy * tau)
            return val, err
        eps = tol / (3.0 * k.npieces)
        cos_sum = 0.0
        sin_sum = 0.0
        err = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            v, e = _wquad(rho, lo, hi, "cos", tau, eps)
            cos_sum += v
            err += e
            v, e = _wquad(rho, lo, hi, "sin", tau, eps)
            sin_sum += v
            err += e
        if k.left_tail:
            v, e = _wquad(rho_neg, -A, math.inf, "cos", tau, eps)
            cos_sum += v
            err += e
            v, e = _wquad(rho_neg, -A, math.inf, "sin", tau, eps)
            sin_sum -= v
            err += e
        if k.right_tail:
            v, e = _wquad(rho, B, math.inf, "cos", tau, eps)
            cos_sum += v
            err += e
            v, e = _wquad(rho, B, math.inf, "sin", tau, eps)
            sin_sum += v
            err += e
        val = complex(cos_sum, -sin_sum)
        for bs in bound:
            val += bs.weight * np.exp(-1j * bs.energy * tau)
        return val, err

    amps = np.empty(t_in.shape, dtype=complex)
    achieved = 0.0
    beyond = np.abs(t_in) * k.span > _OSCILLATION_BUDGET
    if np.any(beyond):
        late = np.abs(t_in[beyond])
        warnings.warn(
            f"{late.size} of {t_in.size} times (|t| from {late.min():g} to {late.max():g}) "
            "are beyond the oscillatory quadrature budget; "
            "using the pole-plus-bound-state asymptote there",
            UserWarning,
            stacklevel=2,
        )
    for i, tau in enumerate(t_in):
        ta = abs(float(tau))
        if beyond[i]:
            val = asymptote(ta)
            err = 0.0
        else:
            # The shift-surrogate bias is a systematic error on ρ itself,
            # on top of whatever the quadrature reports.
            val, err = eval_at(ta)
            err += k.bias
        amps[i] = np.conj(val) if tau < 0 else val
        achieved = max(achieved, err)

    if achieved > tol:
        raise ToleranceError(
            f"spectral quadrature achieved {achieved:.3e}, above the target {tol:.3e}",
            value=amps,
            achieved=achieved,
            requested=tol,
        )
    return _series(t_in, amps, SurvivalMethod.SPECTRAL_INTEGRAL)
