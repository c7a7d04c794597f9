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

    where the sum covers bound states past a finite band edge (weights
    from the resolvent module) and ∫ρ + Σw_b = 1 expresses completeness.
    The integral runs over one fixed set of panels per (family, ω_a),
    the same for every family.  ρ is sampled at Gauss–Legendre nodes on
    each panel with the exact level shift Δ_R (a table, whose exact
    shift costs one logarithm per knot, takes it only near the
    resonance and a cubic-spline backbone elsewhere) and stored as
    Legendre coefficients.  Their Fourier transforms are spherical
    Bessel functions (the Filon–Legendre rule), exact in t for the
    fitted polynomials, so every t uses the same coefficients.  Panels
    are bisected until the fit is resolved; the summed truncation bound
    is the achieved error for every t at once, and there is no late-time
    fallback to the pole term.

``pole_approximation``
    Only the resonance-pole term: P(t) = Z·e^{−γ₀t}, the exponential-era
    asymptote.  Note P(0) = Z ≠ 1 — the discarded background is what
    restores unit norm at t = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np
from scipy import interpolate, optimize, special

from .errors import DomainError, NoDecayError, ToleranceError
from .formfactor import FormFactor, TabulatedCoupling
from .resolvent import PoleData, find_bound_states, lorentzian_pole_closed_form
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

#: Gauss–Legendre nodes per spectral panel, and the Legendre degrees fitted.
_NODES = 10
_DEGREES = np.arange(_NODES)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NODES)
#: The nodes as fractions of the panel width from its lower edge.
_GL_FRACTION = 0.5 * (1.0 + _GL_X)
#: Node values → Legendre coefficients c_k = (k + ½)·Σ_i w_i P_k(x_i) ρ_i.
_FIT = (_DEGREES[:, None] + 0.5) * np.polynomial.legendre.legvander(_GL_X, _NODES - 1).T * _GL_W
#: The nonzero real or imaginary part of (−i)^k: even k are real, odd k imaginary.
_PHASE_SIGN = np.resize([1.0, -1.0, -1.0, 1.0], _NODES)
#: Panels whose nodes share one ρ evaluation during a kernel build.
_PANEL_CHUNK = 2048
#: Bisection passes of a kernel build before the error bound is accepted as is.
_MAX_PASSES = 60
#: Width ratio of successive tail panels and their reach in units of max(|A|, |B|, Λ).
_TAIL_RATIO = 1.5
_TAIL_REACH = 1e4
#: Half-width, in resonance widths, of the window where a table's nodes
#: take the exact shift; its ends are panel edges, so that no panel
#: straddles the switch to the backbone.
_TABLE_EXACT_HALF_WIDTH = 40.0


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

    ρ(ω) = g²(ω) / [(ω − ω_a − Δ_R(ω))² + π²g⁴(ω)]; its integral is one
    minus the total bound-state weight.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    g2 = np.atleast_1d(np.asarray(ff.g2(w), dtype=float))
    out = _rho(w - omega_a, g2, real_shift(ff, w))
    return out if np.ndim(omega) else float(out[0])


def _rho(detuning: np.ndarray, g2: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """ρ from ω − ω_a, g² and Δ_R at the same energies; zero where g² vanishes."""
    out = np.zeros_like(g2)
    mask = g2 > 0.0
    out[mask] = g2[mask] / ((detuning[mask] - shift[mask]) ** 2 + (math.pi * g2[mask]) ** 2)
    return out


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


def _table_backbone(ff: TabulatedCoupling, omega_r: float, res: float, A: float, B: float):
    """Cubic-spline backbone of a table's Δ_R over [A, B].

    The exact Δ_R of a table sums one logarithm per knot, and a table
    kernel has a node count of the order of ten times its knots, so only
    the nodes near the resonance take the exact sum; elsewhere ρ is small
    and smooth enough for a spline through a few hundred exact samples,
    densified around the resonance and at the lower edge.
    """
    # Keep sample points strictly inside the support: at an edge with a
    # nonzero density value the principal value diverges (the spline
    # extrapolates across the 1e-9 fringe, where ρ carries no weight).
    edge = 1e-9 * (B - A)
    lo_in, hi_in = A + edge, B - edge
    core_half = min(0.5 * (B - A), max(64.0 * res, 0.02 * (B - A)))
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(lo_in, hi_in, 321),
                omega_r + np.linspace(-core_half, core_half, 241),
                A + (B - A) * np.logspace(-8.0, 0.0, 33),
            ]
        )
    )
    grid = grid[(grid >= lo_in) & (grid <= hi_in)]
    grid = grid[np.concatenate(([True], np.diff(grid) > 1e-12 * (B - A)))]
    return interpolate.CubicSpline(grid, real_shift(ff, grid))


def _node_shift(ff: FormFactor, omega_r: float, res: float, A: float, B: float):
    """Δ_R on arrays of panel nodes: exact, but a table's backbone far from ω_r."""
    if not isinstance(ff, TabulatedCoupling):
        return partial(real_shift, ff)
    backbone = _table_backbone(ff, omega_r, res, A, B)

    def shift(w):
        out = backbone(w)
        near = np.abs(w - omega_r) <= _TABLE_EXACT_HALF_WIDTH * res
        if np.any(near):
            out[near] = real_shift(ff, w[near])
        return out

    return shift


def _panel_edges(ff: FormFactor, omega_r: float, res: float, pts, left_tail, right_tail):
    """Initial panel edges: breakpoints, graded resonance points, a table's
    knots and exact-shift window, and tails.

    On an infinite side, panels grow geometrically away from the
    resonance out to 1e4·max(|A|, |B|, Λ); past that ρ ~ g²/ω² carries no
    weight at any accuracy asked of the route.
    """
    A, B = pts[0], pts[-1]
    steps = res * 2.0 ** np.arange(-3.0, 7.0)
    parts = [np.asarray(pts), omega_r - steps, omega_r + steps]
    if isinstance(ff, TabulatedCoupling):
        window = _TABLE_EXACT_HALF_WIDTH * res
        parts += [ff.omegas, np.array([omega_r - window, omega_r + window])]
    reach = _TAIL_REACH * max(abs(A), abs(B), ff.bandwidth)
    growth = _TAIL_RATIO ** np.arange(1.0, 64.0)
    lo, hi = A, B
    if left_tail:
        lo = -reach
        parts.append(np.maximum(omega_r - (omega_r - A) * growth, lo))
    if right_tail:
        hi = reach
        parts.append(np.minimum(omega_r + (B - omega_r) * growth, hi))
    edges = np.unique(np.concatenate(parts + [np.array([lo, hi])]))
    return edges[(edges >= lo) & (edges <= hi)]


def _refine(density, edges: np.ndarray):
    """Panels over ``edges`` with the Legendre coefficients of ρ on each.

    ``density(lo, offset)`` gives ρ at the nodes lo + offset.  Every
    pass fits all open panels from one batched ρ evaluation (in chunks
    of panels, to bound the memory of the node arrays) and bisects
    those whose last two coefficients are not negligible against 1e-14
    or 1e-11 of the panel's mass, as long as bisection still shrinks
    them.  Returns lo, hi, the coefficients (one row per degree, one
    column per panel) and the error bounds, with the panels in no
    particular order.
    """
    lo, hi = edges[:-1], edges[1:]
    parent_est = None
    kept = []
    for n in range(_MAX_PASSES):
        h = hi - lo
        coef = np.empty((_NODES, lo.size))
        for i in range(0, lo.size, _PANEL_CHUNK):
            cols = slice(i, i + _PANEL_CHUNK)
            coef[:, cols] = _FIT @ density(lo[cols, None], h[cols, None] * _GL_FRACTION).T
        est = h * (np.abs(coef[-2]) + np.abs(coef[-1]))
        mass = h * np.abs(coef[0])
        split = est > np.maximum(1e-14, 1e-11 * mass)
        if parent_est is not None:
            # Resolved halves whose bounds add up to their parent's see
            # rounding noise in ρ (e.g. a table's knot sum near a narrow
            # resonance), not structure: halving again cannot help.
            pairs = parent_est.size
            stalled = np.tile(est[:pairs] + est[pairs:] >= 0.75 * parent_est, 2)
            split &= ~(stalled & (est <= 1e-8 * mass))
        mid = 0.5 * (lo + hi)
        split &= (lo < mid) & (mid < hi) & (n + 1 < _MAX_PASSES)
        kept.append((lo[~split], hi[~split], coef[:, ~split], est[~split]))
        if not np.any(split):
            break
        parent_est = est[split]
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
    return tuple(np.concatenate(part, axis=-1) for part in zip(*kept))


def _kernel_uncached(ff: FormFactor, omega_a: float) -> SimpleNamespace:
    bound = find_bound_states(ff, omega_a)
    omega_r = _resonance_energy(ff, omega_a)
    gw = max(math.pi * float(ff.g2(omega_r)), 1e-12 * ff.bandwidth)
    # Resolution unit for the grids below: the resonance width, except
    # in the broad regime, where the density has no structure narrower
    # than the coupling scale and the bandwidth takes over.
    res = min(gw, 0.5 * ff.bandwidth)
    pts, left_tail, right_tail = _breakpoints(ff, omega_r, gw, res)
    A, B = pts[0], pts[-1]
    shift = _node_shift(ff, omega_r, res, A, B)

    def density(lo, offset):
        """ρ at the nodes lo + offset, as a (panels, nodes) array.

        Nodes are placed from the exact panel edge, and the detuning from
        ω_a is formed before the node is rounded: near a narrow resonance
        an edge or node off by one rounding, though far below the panel
        width, moves mass by ulp(ω)·ρ_max ~ ulp(ω)/Γ.
        """
        w = (lo + offset).ravel()
        detuning = ((lo - omega_a) + offset).ravel()
        rho = _rho(detuning, np.asarray(ff.g2(w), dtype=float), shift(w))
        return rho.reshape(offset.shape)

    lo, hi, coef, est = _refine(density, _panel_edges(ff, omega_r, res, pts, left_tail, right_tail))
    h = hi - lo
    widths, width_index = np.unique(h, return_inverse=True)
    # h·c_k times the real or imaginary unit of (−i)^k.
    coef *= h * _PHASE_SIGN[:, None]
    return SimpleNamespace(
        bound=bound,
        mids=0.5 * (lo + hi),
        widths=widths,
        # int32 keeps the index of a table kernel (~2·10⁴ panels) small.
        width_index=width_index.astype(np.int32),
        terms=coef,
        error=float(np.sum(est)),
    )


# A table kernel holds ~2 MB, so the cache keeps only the few models a
# caller works through at once.
_kernel_cached = lru_cache(maxsize=4)(_kernel_uncached)


def _spectral_kernel(ff: FormFactor, omega_a: float) -> SimpleNamespace:
    try:
        return _kernel_cached(ff, omega_a)
    except TypeError:  # unhashable custom family: build without caching
        return _kernel_uncached(ff, omega_a)


def _continuum(k: SimpleNamespace, t: float) -> complex:
    """∫ρ(ω)e^{−iωt}dω over the kernel's panels (Filon–Legendre, exact in t).

    One fixed-order reduction per t, so a value does not depend on which
    other times share the call.
    """
    j = special.spherical_jn(_DEGREES[:, None], (0.5 * t) * k.widths)[:, k.width_index]
    re = np.einsum("kp,kp->p", k.terms[0::2], j[0::2])
    im = np.einsum("kp,kp->p", k.terms[1::2], j[1::2])
    return complex(np.sum(np.exp(-1j * t * k.mids) * (re + 1j * im)))


def survival_spectral_integral(
    ff: FormFactor, omega_a: float, times, tol: float = SPECTRAL_TOL
) -> SurvivalSeries:
    """Survival series from the spectral representation of the propagator.

    Works for any family with a finite coupling integral; bound states
    past a finite band edge are detected and included (omitting them
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
        Overall absolute accuracy target per time point.

    Notes
    -----
    Everything that does not depend on t is built once per
    (family, omega_a) pair and memoized: resonance location, bound
    states and a fixed set of panels over the support — the breakpoints
    around the resonance and the coupling peak, resonance-graded points,
    a table's knots and, on an infinite side, geometrically growing tail
    panels.  On each panel ρ is sampled at 10 Gauss–Legendre nodes with
    the exact level shift of :func:`~zenodecay.real_shift` (for a table
    only near the resonance; its far nodes take a cubic-spline backbone
    of the exact shift) and stored as Legendre coefficients c_k.  A
    panel of width h around ω_c then contributes, exactly for the
    fitted polynomial,

        ∫ ρ e^{−iωt} dω = h·e^{−iω_c t}·Σ_k c_k (−i)^k j_k(th/2),

    so every t costs one spherical-Bessel row per distinct panel width
    and one sum over panels.  Panels are bisected until
    h·(|c_{N−2}| + |c_{N−1}|) is below max(1e−14, 1e−11·panel mass);
    the sum of these bounds is the achieved error, the same for every t.
    The panel sum is the only route at every t: late times keep the
    non-exponential tail that departs from the pole term Z·e^{−γ₀t},
    and a table, which has no pole, is evaluated like any other family.
    Only the rounding of the phases t·ω grows with t.

    Raises
    ------
    NoDecayError
        Zero coupling (the spectral density is empty).
    ToleranceError
        Summed panel error bound above ``tol``.
    """
    t_in = _check_times(times, allow_negative=True)
    if ff.g2_integral() == 0.0:
        raise NoDecayError("zero coupling: the spectral density is empty")
    k = _spectral_kernel(ff, float(omega_a))

    amps = np.empty(t_in.shape, dtype=complex)
    for i, tau in enumerate(t_in):
        ta = abs(float(tau))
        val = _continuum(k, ta)
        for bs in k.bound:
            val += bs.weight * np.exp(-1j * bs.energy * ta)
        amps[i] = np.conj(val) if tau < 0 else val

    if k.error > tol:
        raise ToleranceError(
            f"spectral panels achieved {k.error:.3e}, above the target {tol:.3e}",
            value=amps,
            achieved=k.error,
            requested=tol,
        )
    return _series(t_in, amps, SurvivalMethod.SPECTRAL_INTEGRAL)
