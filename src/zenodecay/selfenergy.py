"""Self-energy of the discrete level: first sheet, second sheet, cut values.

The level self-energy is the Stieltjes-type transform of the squared
coupling density,

    Sigma_I(E) = ∫ g²(ω) / (E − ω) dω,

analytic off the continuum cut (the support of g²).  Its continuation
through the cut onto the second sheet,

    Sigma_II(E) = Sigma_I(E) − 2πi·g²_c(E)      (Im E < 0),

with g²_c the analytic continuation of the density, is where the decay
pole lives.  On the cut itself the boundary value from above is
Δ_R(ω) − iπ g²(ω), Δ_R being the principal-value integral exposed as
:func:`real_shift`.

Evaluation strategy
-------------------
Closed forms are used for the Lorentzian family (Sigma is rational) and
for tables (exact segment sums of the piecewise-linear density; Δ_R by
its knot sum).  Every other family goes through one fixed
double-exponential rule, vectorized over Re E = x: a symmetric window
around x with g²(x) subtracted,

    ∫ (g²(ω) − g²(x)) / (E − ω) dω  −  2i·g²(x)·atan(h/Im E)    (|ω − x| < h),

which is uniformly well-conditioned in the distance to the cut, then
log-distance pieces and a mapped tail.  Off the cut the rule gives Sigma
and Sigma′ from the same samples of g²; on the real axis it gives the
principal value Δ_R in real arithmetic (see :func:`real_shift`).  Only
exactly on the cut inside the support is the second-sheet Sigma′ taken
by parts, as the boundary value of the transform of (g²)′.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    ContinuationUnsupportedError,
    DomainError,
    ToleranceError,
)
from .formfactor import FormFactor, LorentzianCoupling, TabulatedCoupling

__all__ = ["Sheet", "SelfEnergyValue", "self_energy", "real_shift"]

#: Absolute / relative tolerances of Sigma and Δ_R; a rule is accepted
#: while its error estimate is within 1e3·max(EPSABS, EPSREL·|value|).
EPSABS = 1e-12
EPSREL = 1e-10


class Sheet(enum.Enum):
    """Riemann sheet selector for the self-energy."""

    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class SelfEnergyValue:
    """Self-energy and its energy derivative on a given sheet.

    Attributes
    ----------
    value : complex
        Sigma(E) in energy units.
    derivative : complex
        dSigma/dE, dimensionless.
    sheet : Sheet
        Sheet on which both were evaluated.
    """

    value: complex
    derivative: complex
    sheet: Sheet


def _cut_distance(ff: FormFactor, E: complex) -> float:
    """Distance from E to the continuum cut (the support of g²)."""
    a, b = ff.support()
    x, y = E.real, E.imag
    if a <= x <= b:
        return abs(y)
    gap = min(abs(x - a) if math.isfinite(a) else math.inf,
              abs(x - b) if math.isfinite(b) else math.inf)
    return math.hypot(gap, y)


def _tabulated_value(ff: TabulatedCoupling, E: complex) -> complex:
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


def _tabulated_deriv(ff: TabulatedCoupling, E: complex) -> complex:
    """Exact −∫ g²/(E−ω)² dω for a tabulated density, off knots and cut."""
    om = ff.omegas
    fv = ff.g2_values
    w0, w1 = om[:-1], om[1:]
    m = np.diff(fv) / (w1 - w0)
    u0 = E - w0
    u1 = E - w1
    fE = fv[:-1] + m * u0
    logs = np.log(u0) - np.log(u1)
    return complex(np.sum(-(fE * (1.0 / u1 - 1.0 / u0)) + m * logs))


#: ω values of a table evaluated together: each row holds one real log
#: per knot, so this bounds the working set of the knot sum.
_TABLE_CHUNK = 4
#: ω values evaluated together by the double-exponential rule.
_RULE_CHUNK = 64


def _table_shift(ff: TabulatedCoupling, x: np.ndarray) -> np.ndarray:
    """Exact Δ_R of a piecewise-linear density on a 1-D array of ω.

    Summing the segment closed forms of :func:`_tabulated_value` on the
    real axis and collecting the logarithm of each knot leaves one real
    log per knot:

        Δ_R(x) = Σ_j κ_j (x − ω_j) ln|x − ω_j|
                 + v_0 ln|x − ω_0| − v_N ln|x − ω_N| − (v_N − v_0),

    with κ_j the jump of the slope at knot j (the slope is zero outside
    the table) and v_0, v_N the edge values.  At an exact knot hit the
    term (x − ω_j) ln|x − ω_j| is zero; at an edge with a nonzero value
    the shift diverges.
    """
    om = ff.omegas
    fv = ff.g2_values
    for edge, value in ((om[0], fv[0]), (om[-1], fv[-1])):
        if value != 0.0 and np.any(x == edge):
            raise DomainError(
                f"on-cut value diverges at the support edge {edge} where the table is nonzero"
            )
    slopes = np.diff(fv) / np.diff(om)
    kappa = np.diff(slopes, prepend=0.0, append=0.0)
    out = np.empty_like(x)
    for i in range(0, x.size, _TABLE_CHUNK):
        d = x[i : i + _TABLE_CHUNK, None] - om
        ad = np.abs(d)
        ad[ad == 0.0] = 1.0  # (x − ω_j)·ln|x − ω_j| → 0 at a knot hit
        la = np.log(ad)
        edges = fv[0] * la[:, 0] - fv[-1] * la[:, -1]
        out[i : i + _TABLE_CHUNK] = (d * la * kappa).sum(axis=1) + edges
    return out - (fv[-1] - fv[0])


#: Double-exponential rules of the self-energy and the level shift on the
#: unit parameter t ∈ [−T, T] at step 2^−_DE_LEVEL.  The sum over every other
#: node is the same rule at twice the step; the difference of the two is
#: the error estimate (the finer sum is the more accurate by far, since
#: the rules converge double-exponentially).
_DE_LEVEL = 5


def _de_nodes(t_max: float):
    """Nodes t = j·step for |j| ≤ n, and the slice of those with even j."""
    step = 2.0**-_DE_LEVEL
    n = round(t_max / step)
    return np.arange(-n, n + 1) * step, step, slice(n % 2, None, 2)


def _tanh_sinh_rule():
    """tanh–sinh nodes on [0, 1], which also resolve endpoint singularities.

    ``lo`` and ``hi`` are the distances of each node to the two ends, each
    exact where it is the smaller; ``upper`` marks the nodes nearer 1.
    """
    t, step, coarse = _de_nodes(3.3)
    y = 0.5 * math.pi * np.sinh(t)
    lo = 1.0 / (1.0 + np.exp(-2.0 * y))
    hi = 1.0 / (1.0 + np.exp(2.0 * y))
    return SimpleNamespace(
        lo=lo, hi=hi, upper=t > 0.0, w=math.pi * np.cosh(t) * lo * hi * step, coarse=coarse
    )


def _exp_sinh_rule():
    """exp–sinh nodes v ∈ (0, ∞) with weights dv, for semi-infinite pieces."""
    t, step, coarse = _de_nodes(4.0)
    v = np.exp(0.5 * math.pi * np.sinh(t))
    return SimpleNamespace(v=v, w=v * 0.5 * math.pi * np.cosh(t) * step, coarse=coarse)


_TANH_SINH = _tanh_sinh_rule()
_EXP_SINH = _exp_sinh_rule()


def _de_sum(f: np.ndarray, weights: np.ndarray, coarse: slice):
    """Row sums of the rule and |fine − coarse| as their error estimate."""
    fw = f * weights
    fine = fw.sum(axis=-1)
    return fine, np.abs(fine - 2.0 * fw[..., coarse].sum(axis=-1))


def _log_nodes(d1: np.ndarray, d2: np.ndarray):
    """tanh–sinh nodes on [d1, d2] in ln d, with weights per unit ln d."""
    ts = _TANH_SINH
    span = np.log(d2 / d1)
    near = np.where(ts.upper, d2, d1)
    return near * np.exp(np.where(ts.upper, -span * ts.hi, span * ts.lo)), span * ts.w


def _de_rule(ff: FormFactor, g, x: np.ndarray, y: float | None = None):
    """∫ g(ω′)/(E − ω′) dω′ at E = x + iy by fixed DE rules, on a 1-D array of x.

    With ``y`` None, E is real and the result is the principal value,
    in real arithmetic (Δ_R for g = g²).  With a float ``y`` (E off the
    cut) the result has two complex rows taken from the same samples of
    g: the transform and its derivative −∫ g/(E − ω′)² dω′.  Returns
    (values, error estimates), both of that shape.

    Per x the support splits into

    * the symmetric window [x − h, x + h] (h half a bandwidth or the
      distance to the nearer support edge), folded onto s ∈ (0, h] with
      g(x) subtracted, ∫ Σ± (g(x ± s) − g(x))/(iy ∓ s) ds, plus the
      closed form −2i·g(x)·atan(h/y) of the subtracted part, which is
      −iπg(x) at y = +0: the real path keeps only the principal value
      ∫ (g(x − s) − g(x + s))/s ds.  A tanh–sinh rule clusters its nodes
      at a threshold on the window edge.  For 0 < |y| < h the window is
      cut at s = |y| and its outer part taken in ln s;
    * finite pieces on each side, cut at the structure points around the
      coupling peak so that the bump near ω ≈ Λ has pieces of its own.
      They are taken in u = ln d, d = |ω′ − x|, where the kernel
      d/(E − ω′) = d/(iy ∓ d) is ∓1 on the real axis and the scale of
      the window (down to the distance to a threshold) costs nothing; a
      piece that starts at x itself (x on a support edge) takes an
      exp–sinh rule in ln(d₂/d) instead on the real axis, and off it is
      cut at d = |y| like the window;
    * a semi-infinite tail past the last structure point, mapped by an
      exp–sinh rule.
    """
    a, b = ff.support()
    half = 0.5 * ff.bandwidth
    peak = ff.peak_energy()
    cuts = np.array([c for c in (peak - 4.0 * half, peak - half, peak + 4.0 * half) if a < c < b])
    h = np.where((x > a) & (x < b), np.minimum(half, np.minimum(x - a, b - x)), 0.0)
    real = y is None
    val = np.zeros_like(x) if real else np.zeros((2, x.size), dtype=complex)
    err = np.zeros(val.shape)
    ts, es = _TANH_SINH, _EXP_SINH

    def terms(mask, side, d, log, sub=None):
        """g(x + side·d), less ``sub``, times the kernel, on the rows of ``mask``.

        The kernel is per unit d, or per unit ln d if ``log``.  Off the
        axis it is 1/(E − ω′) = 1/(iy − side·d) for Sigma and −1/(E − ω′)²
        for Sigma′.  On the real path it is −side/d or −side, and the
        factor −side is left to the caller, which applies it to the sums.
        """
        gs = g(x[mask, None] + side * d)
        if sub is not None:
            gs = gs - sub[mask, None]
        if real:
            return gs if log else gs / d
        r = 1.0 / (1j * y - side * d)
        return np.stack((r, -r * r)) * (gs * d if log else gs)

    def add(mask, f, w, coarse, sign=1.0):
        fine, est = _de_sum(f, w, coarse)
        val[..., mask] += sign * fine
        err[..., mask] += est

    def from_x(reach, sides, sub=None):
        """Pieces over d ∈ (0, reach] on ``sides`` of x (rows with reach > 0).

        Off the axis they are cut at d = |y|, and the outer part is taken
        in ln d, where the kernel varies on the scale of d alone.  On the
        real axis only the window comes here, and its two sides fold to
        (g(x − s) − g(x + s))/s.
        """
        cut = reach if real else np.minimum(abs(y), reach)
        m = cut > 0.0
        if np.any(m):
            cm = cut[m, None]
            s = np.where(ts.upper, cm - cm * ts.hi, cm * ts.lo)
            f = [terms(m, side, s, False, sub) for side in sides]
            add(m, f[0] - f[1] if real else sum(f), cm * ts.w, ts.coarse)
        m = cut < reach
        if np.any(m):
            s, w = _log_nodes(cut[m, None], reach[m, None])
            add(m, sum(terms(m, side, s, True, sub) for side in sides), w, ts.coarse)

    gx = None if real else g(x)
    from_x(h, (-1.0, 1.0), gx)
    m = h > 0.0
    if not real and np.any(m):
        hm, gm = h[m], gx[m]
        val[0, m] -= 2j * gm * np.copysign(np.arctan2(hm, abs(y)), y)
        val[1, m] += 2.0 * gm * hm / (hm * hm + y * y)

    for side in (-1.0, 1.0):
        sign = -side if real else 1.0
        # Distances d = |ω′ − x| covered on this side, outside the window.
        if side < 0.0:
            d_lo, d_hi, marks = np.maximum(h, x - b), x - a, x[:, None] - cuts[::-1]
        else:
            d_lo, d_hi, marks = np.maximum(h, a - x), b - x, cuts - x[:, None]
        tail = np.isinf(d_hi)
        d_end = d_hi.copy()
        if np.any(tail):
            reach = marks.max(axis=1) if cuts.size else d_lo
            d_end[tail] = np.maximum(np.maximum(d_lo, half), reach)[tail]
        d_end = np.maximum(d_end, d_lo)
        edges = np.column_stack([d_lo, np.clip(marks, d_lo[:, None], d_end[:, None]), d_end])
        for d1, d2 in zip(edges.T[:-1], edges.T[1:]):
            m = (d2 > d1) & (d1 > 0.0)
            if np.any(m):
                d, w = _log_nodes(d1[m, None], d2[m, None])
                add(m, terms(m, side, d, True), w, ts.coarse, sign)
            m = (d2 > d1) & (d1 == 0.0)
            if np.any(m) and not real:
                from_x(np.where(m, d2, 0.0), (side,))
            elif np.any(m):
                d = d2[m, None] * np.exp(-es.v)
                add(m, terms(m, side, d, True), es.w, es.coarse, sign)
        if np.any(tail):
            dt = d_end[tail, None]
            add(tail, terms(tail, side, dt * (1.0 + es.v), False), dt * es.w, es.coarse, sign)
    return val, err


def _accept(what: str, at, val, err, absolute: float, relative: float) -> None:
    """Raise ToleranceError unless err ≤ max(absolute, relative·|val|).

    Written so that a NaN value or estimate fails the check as well.
    """
    at, val, err = np.atleast_1d(at, val, err)
    bad = ~(err <= np.maximum(absolute, relative * np.abs(val)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ToleranceError(
            f"{what} did not converge at {at[k].item()!r}",
            value=val[k].item(),
            achieved=float(err[k]),
            requested=max(absolute, relative * abs(val[k].item())),
        )


def _sigma_first(ff: FormFactor, E: complex) -> tuple[complex, complex]:
    """Sigma_I(E) and Sigma_I′(E) of a non-Lorentzian family, E off the cut."""
    if isinstance(ff, TabulatedCoupling):
        return _tabulated_value(ff, E), _tabulated_deriv(ff, E)
    (val, der), (err, der_err) = _de_rule(ff, ff.g2, np.array([E.real]), E.imag)
    _accept("self-energy rule", E, val, err, 1e3 * EPSABS, 1e3 * EPSREL)
    _accept("self-energy derivative rule", E, der, der_err, 1e-8, 1e-6)
    return complex(val[0]), complex(der[0])


def _lorentzian_first(ff: LorentzianCoupling, E: complex) -> tuple[complex, complex]:
    lam2 = ff.coupling**2
    pole = 1j * ff.bandwidth if E.imag > 0 else -1j * ff.bandwidth
    den = E + pole
    return lam2 / den, -lam2 / (den * den)


def _lorentzian_second(ff: LorentzianCoupling, E: complex) -> tuple[complex, complex]:
    lam2 = ff.coupling**2
    den = E + 1j * ff.bandwidth
    if abs(den) < 1e-12 * ff.bandwidth:
        raise DomainError(
            "second-sheet self-energy has a pole at E = -i*bandwidth; "
            f"requested E={E!r} is too close"
        )
    return lam2 / den, -lam2 / (den * den)


def self_energy(ff: FormFactor, energy: complex, sheet: Sheet = Sheet.FIRST) -> SelfEnergyValue:
    """Evaluate Sigma(E) and dSigma/dE on the requested sheet.

    Parameters
    ----------
    ff : FormFactor
        Coupling family; determines the cut and the continuation.
    energy : complex
        Evaluation point E.
    sheet : Sheet
        ``Sheet.FIRST`` for the physical sheet (E must be off the cut by
        more than 1e−12); ``Sheet.SECOND`` for the continuation through
        the cut (requires a continuable family).

    Returns
    -------
    SelfEnergyValue

    Raises
    ------
    DomainError
        First-sheet request on (or within 1e−12 of) the cut.
    ContinuationUnsupportedError
        Second-sheet request for a family without analytic continuation.
    ToleranceError
        The rule's error estimate for Sigma exceeds 1e3·max(1e−12,
        1e−10·|Sigma|), or that for Sigma′ exceeds max(1e−8, 1e−6·|Sigma′|);
        a value or estimate that is not finite (g² NaN somewhere) fails too.

    Notes
    -----
    The Lorentzian family has closed forms on both sheets and tables
    exact segment sums.  Every other family takes the double-exponential
    rule of :func:`real_shift` at complex E, with the kernel 1/(E − ω′)
    and, on the same samples of g², −1/(E − ω′)² for Sigma′; the second
    sheet adds −2πi times the continued density and its derivative below
    the axis.  On the cut inside the support (second sheet, Im E = 0)
    Sigma′ is the boundary value of ∫ (g²)′/(E − ω) dω plus the endpoint
    terms of g².
    """
    E = complex(energy)
    if ff.g2_integral() == 0.0:
        return SelfEnergyValue(0j, 0j, sheet)

    if sheet is Sheet.FIRST:
        if _cut_distance(ff, E) <= 1e-12:
            raise DomainError(
                f"E={E!r} lies on the continuum cut; use Sheet.SECOND or real_shift"
            )
        if isinstance(ff, LorentzianCoupling):
            val, der = _lorentzian_first(ff, E)
        else:
            val, der = _sigma_first(ff, E)
        return SelfEnergyValue(val, der, sheet)

    # --- second sheet ---
    if not ff.continuable:
        raise ContinuationUnsupportedError(
            f"{ff.family} family does not support second-sheet continuation"
        )
    if isinstance(ff, LorentzianCoupling):
        val, der = _lorentzian_second(ff, E)
        return SelfEnergyValue(val, der, sheet)

    # Threshold power law: continuation of the first-sheet transform.
    if E.imag != 0.0:
        val, der = _sigma_first(ff, E)
        if E.imag < 0.0:
            val -= 2j * math.pi * ff.g2_analytic(E)
            der -= 2j * math.pi * ff.g2_analytic_deriv(E)
        return SelfEnergyValue(val, der, sheet)
    x = E.real
    a, b = ff.support()
    if x <= a:
        raise DomainError(
            f"second-sheet value at E={x} is ambiguous at/below the branch point {a}"
        )
    # On the cut both sheets meet at the boundary value from above.  The
    # squared kernel's folded sum is a second difference of g² over s²
    # there, which cancels, so Sigma′ is taken by parts: the boundary
    # value of ∫ (g²)′/(E − ω) dω plus the endpoint terms of g².
    val = complex(real_shift(ff, x), -math.pi * float(ff.g2(x)))
    pv, err = _de_rule(ff, ff.g2_deriv, np.array([x]))
    _accept("self-energy derivative rule", x, pv, err, 1e-8, 1e-6)
    der = complex(pv[0], -math.pi * float(ff.g2_deriv(x)))
    for edge, sign in ((a, 1.0), (b, -1.0)):
        if math.isfinite(edge):
            der += sign * float(ff.g2(edge)) / (x - edge)
    return SelfEnergyValue(val, der, sheet)


def real_shift(ff: FormFactor, omega):
    """Principal-value level shift Δ_R(ω) = PV ∫ g²(ω′)/(ω−ω′) dω′.

    This is the real part of the self-energy boundary value on the cut;
    together with −πg²(ω) it determines the spectral density of the
    surviving state.

    Parameters
    ----------
    ff : FormFactor
    omega : float or array_like
        Real energies, typically in or near the support.  A float gives a
        float; an array gives an array of the same shape, evaluated in one
        pass (the cost per point is far below that of separate calls).

    Returns
    -------
    float or numpy.ndarray

    Notes
    -----
    Each family has one route for scalars and arrays alike:

    * Lorentzian: the rational closed form λ²ω/(ω² + Λ²);
    * tabulated: the exact knot sum of the piecewise-linear density, one
      real logarithm per knot, evaluated a few ω at a time;
    * every other family (the threshold power law and custom families):
      a fixed, singularity-subtracted double-exponential rule vectorized
      over ω — a symmetric PV window, log-distance pieces clustering at a
      threshold, and a mapped semi-infinite tail — with the difference
      to the rule of twice the step as error estimate.  It is the y = +0
      case of the rule :func:`self_energy` takes off the cut, evaluated
      in real arithmetic.

    Raises
    ------
    DomainError
        Non-finite ω, or ω on the edge of a table whose value there is
        nonzero (the shift diverges logarithmically).
    ToleranceError
        The rule's error estimate exceeds 1e3 times max(1e−12, 1e−10·|Δ_R|)
        at some ω, the acceptance of Sigma off the cut, or a value or
        estimate is not finite (g² NaN somewhere).
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError(f"omega must be finite, got {omega!r}")
    if ff.g2_integral() == 0.0:
        out = np.zeros_like(w)
    elif isinstance(ff, LorentzianCoupling):
        out = ff.coupling**2 * w / (w * w + ff.bandwidth**2)
    elif isinstance(ff, TabulatedCoupling):
        out = _table_shift(ff, w.ravel()).reshape(w.shape)
    else:
        flat = w.ravel()
        out = np.empty_like(flat)
        for i in range(0, flat.size, _RULE_CHUNK):
            chunk = flat[i : i + _RULE_CHUNK]
            val, err = _de_rule(ff, ff.g2, chunk)
            _accept("level-shift rule", chunk, val, err, 1e3 * EPSABS, 1e3 * EPSREL)
            out[i : i + _RULE_CHUNK] = val
        out = out.reshape(w.shape)
    return out if out.ndim else float(out)
