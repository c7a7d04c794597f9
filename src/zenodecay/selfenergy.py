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
Closed forms are used for the Lorentzian family (Sigma is rational).
Otherwise the integral is computed by adaptive quadrature with a
singularity-subtracted window around Re E whenever Re E lies inside the
support: the subtraction

    ∫ (g²(ω) − g²(x)) / (E − ω) dω  +  g²(x)·[ln(E − lo) − ln(E − hi)]

is uniformly well-conditioned in the distance to the cut, so the same
code path serves points close to, far from, and exactly on the cut (the
``+0j`` convention of the complex logarithm picks the limit from above).

The level shift Δ_R takes whole arrays of ω instead: tables by their
exact knot sum, every other non-Lorentzian family by a fixed
double-exponential rule (see :func:`real_shift`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import integrate

from .errors import (
    ContinuationUnsupportedError,
    DomainError,
    ToleranceError,
)
from .formfactor import FormFactor, LorentzianCoupling, TabulatedCoupling

__all__ = ["Sheet", "SelfEnergyValue", "self_energy", "real_shift"]

#: Default absolute / relative tolerances for all quadratures here.
EPSABS = 1e-12
EPSREL = 1e-10
_LIMIT = 200


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


def _quad(f, lo, hi, points=None, strict=True):
    """Adaptive quadrature returning (value, abserr).

    With ``strict`` (the default) a QUADPACK warning whose error estimate
    exceeds the requested accuracy by more than 1e3 raises ToleranceError.
    Non-strict callers collect the per-piece error estimates and apply
    their own budget to the assembled total instead.
    """
    if points is not None and not (math.isfinite(lo) and math.isfinite(hi)):
        points = None
    out = integrate.quad(
        f, lo, hi, epsabs=EPSABS, epsrel=EPSREL, limit=_LIMIT, points=points, full_output=1
    )
    val, err = out[0], out[1]
    if strict and len(out) > 3:  # ier != 0 message present
        if err > max(EPSABS, abs(val) * EPSREL) * 1e3:
            raise ToleranceError(
                f"quadrature failed to converge: {out[3].splitlines()[0]}",
                value=val,
                achieved=err,
                requested=EPSABS,
            )
    return val, err


def _cut_distance(ff: FormFactor, E: complex) -> float:
    """Distance from E to the continuum cut (the support of g²)."""
    a, b = ff.support()
    x, y = E.real, E.imag
    if a <= x <= b:
        return abs(y)
    gap = min(abs(x - a) if math.isfinite(a) else math.inf,
              abs(x - b) if math.isfinite(b) else math.inf)
    return math.hypot(gap, y)


def _stieltjes_windowed(fval, fslope, a, b, window, x, y, strict=True) -> tuple[complex, float]:
    """∫ f(ω)/(E−ω) dω with the pole subtracted out; x must be interior.

    ``fslope(x)`` is only used as the removable-point value of the
    subtracted integrand.  For y == 0 the result is the boundary value
    from above, PV − iπf(x) (+0j branch of the logarithm).
    """
    lo, hi = max(a, x - window), min(b, x + window)
    fx = float(fval(x))
    fdx = float(fslope(x))

    def sub_re(w):
        dx = x - w
        den = dx * dx + y * y
        if den == 0.0:
            return -fdx
        return (float(fval(w)) - fx) * dx / den

    val, err = _quad(sub_re, lo, hi, points=[x], strict=strict)
    total = complex(val, 0.0)
    toterr = err
    if y != 0.0:

        def sub_im(w):
            dx = x - w
            return -(float(fval(w)) - fx) * y / (dx * dx + y * y)

        val, err = _quad(sub_im, lo, hi, points=[x], strict=strict)
        total += 1j * val
        toterr += err

    Ex = complex(x, y)  # y == +0.0 keeps the limit-from-above branch
    total += fx * (np.log(Ex - lo) - np.log(Ex - hi))

    for ta, tb in ((a, lo), (hi, b)):
        if ta < tb:
            v, e = _stieltjes_plain(fval, Ex, ta, tb, strict=strict)
            total += v
            toterr += e
    return total, toterr


def _stieltjes_plain(fval, E: complex, lo: float, hi: float, strict=True) -> tuple[complex, float]:
    """Direct quadrature of f/(E−ω) over [lo, hi]; no singularity inside."""
    x, y = E.real, E.imag

    def f_re(w):
        dx = x - w
        return float(fval(w)) * dx / (dx * dx + y * y)

    val, err = _quad(f_re, lo, hi, strict=strict)
    total = complex(val, 0.0)
    toterr = err
    if y != 0.0:

        def f_im(w):
            dx = x - w
            return -float(fval(w)) * y / (dx * dx + y * y)

        val, err = _quad(f_im, lo, hi, strict=strict)
        total += 1j * val
        toterr += err
    return total, toterr


def _stieltjes_transform(fval, fslope, a, b, window, E: complex, strict=True) -> tuple[complex, float]:
    x = E.real
    if a < x < b:
        return _stieltjes_windowed(fval, fslope, a, b, window, x, E.imag, strict=strict)
    return _stieltjes_plain(fval, E, a, b, strict=strict)


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


#: Double-exponential rules of the batched level shift on the unit
#: parameter t ∈ [−T, T] at step 2^−_DE_LEVEL.  The sum over every other
#: node is the same rule at twice the step; the difference of the two is
#: the error estimate (the finer sum is the more accurate by far, since
#: the rules converge double-exponentially).
_DE_LEVEL = 5


def _de_nodes(t_max: float):
    step = 2.0**-_DE_LEVEL
    j = np.arange(-round(t_max / step), round(t_max / step) + 1)
    return j * step, step, j % 2 == 0


def _tanh_sinh_rule():
    """tanh–sinh nodes on [0, 1], which also integrate endpoint singularities.

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


def _de_sum(f: np.ndarray, weights: np.ndarray, coarse: np.ndarray):
    """Row sums of the rule and |fine − coarse| as their error estimate."""
    fw = f * weights
    fine = fw.sum(axis=-1)
    return fine, np.abs(fine - 2.0 * fw[..., coarse].sum(axis=-1))


def _rule_shift(ff: FormFactor, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Δ_R and its error estimate on a 1-D array of ω by fixed DE rules.

    Per ω the support splits into

    * the symmetric PV window [x − h, x + h], folded onto s ∈ (0, h] as
      ∫ (g²(x − s) − g²(x + s))/s ds, which is regular at s = 0; h is
      half a bandwidth or the distance to the nearer support edge, and a
      tanh–sinh rule clusters its nodes at a threshold on the window edge;
    * finite pieces on each side, cut at the structure points around the
      coupling peak so that the bump near ω ≈ Λ has pieces of its own.
      They are integrated in u = ln|ω′ − x|, where the kernel 1/(x − ω′)
      turns into ±1 and the scale of the window (down to the distance to
      a threshold) costs nothing; a piece that starts at x itself (x on a
      support edge) takes an exp–sinh rule in ln(d₂/|ω′ − x|) instead;
    * a semi-infinite tail past the last structure point, mapped by an
      exp–sinh rule.
    """
    a, b = ff.support()
    g = ff.g2
    half = 0.5 * ff.bandwidth
    peak = ff.peak_energy()
    cuts = np.array([c for c in (peak - 4.0 * half, peak - half, peak + 4.0 * half) if a < c < b])
    h = np.where((x > a) & (x < b), np.minimum(half, np.minimum(x - a, b - x)), 0.0)
    val = np.zeros_like(x)
    err = np.zeros_like(x)

    def add(mask, sums):
        val[mask] += sums[0]
        err[mask] += sums[1]

    ts, es = _TANH_SINH, _EXP_SINH
    m = h > 0.0
    if np.any(m):
        xm, hm = x[m, None], h[m, None]
        s = np.where(ts.upper, hm - hm * ts.hi, hm * ts.lo)
        add(m, _de_sum((g(xm - s) - g(xm + s)) / s, hm * ts.w, ts.coarse))

    for side in (-1.0, 1.0):
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
            for from_x in (False, True):
                m = (d2 > d1) & ((d1 == 0.0) == from_x)
                if not np.any(m):
                    continue
                xm, d1m, d2m = x[m, None], d1[m, None], d2[m, None]
                if from_x:
                    fv = _de_sum(g(xm + side * d2m * np.exp(-es.v)), es.w, es.coarse)
                else:
                    span = np.log(d2m / d1m)
                    d = np.where(ts.upper, d2m * np.exp(-span * ts.hi), d1m * np.exp(span * ts.lo))
                    fv = _de_sum(g(xm + side * d), span * ts.w, ts.coarse)
                add(m, (-side * fv[0], fv[1]))
        if np.any(tail):
            xm, dt = x[tail, None], d_end[tail, None]
            d = dt * (1.0 + es.v)
            add(tail, _de_sum(g(xm + side * d) / (-side * d), dt * es.w, es.coarse))
    return val, err


def _sigma_first_quad(ff: FormFactor, E: complex) -> complex:
    if isinstance(ff, TabulatedCoupling):
        return _tabulated_value(ff, E)
    a, b = ff.support()
    val, _ = _stieltjes_transform(ff.g2, ff.g2_deriv, a, b, ff.bandwidth, E)
    return val


def _dsigma_first_quad(ff: FormFactor, E: complex) -> complex:
    """dSigma/dE by parts: ∫ (g²)′/(E−ω) dω plus endpoint terms.

    Differentiating under the integral gives a double pole that is badly
    conditioned near the cut; one integration by parts trades it for the
    single-pole transform of (g²)′, handled by the same subtraction as
    the value.  The boundary terms vanish whenever g² → 0 at the support
    edges (all built-in families except arbitrary tables).
    """
    if isinstance(ff, TabulatedCoupling):
        return _tabulated_deriv(ff, E)
    a, b = ff.support()

    def slope_of_deriv(x):
        h = 1e-6 * (1.0 + abs(x))
        return (float(ff.g2_deriv(x + h)) - float(ff.g2_deriv(x - h))) / (2.0 * h)

    # Near-cut evaluation of a singular density trips QUADPACK roundoff
    # warnings even when the estimate is fine on the derivative's own
    # accuracy scale, so the budget is applied to the assembled total.
    val, err = _stieltjes_transform(
        ff.g2_deriv, slope_of_deriv, a, b, ff.bandwidth, E, strict=False
    )
    if err > max(1e-8, 1e-6 * abs(val)):
        raise ToleranceError(
            "self-energy derivative quadrature did not converge",
            value=val,
            achieved=err,
            requested=max(1e-8, 1e-6 * abs(val)),
        )
    if math.isfinite(a):
        ga = float(ff.g2(a))
        if ga != 0.0:
            val += ga / (E - a)
    if math.isfinite(b):
        gb = float(ff.g2(b))
        if gb != 0.0:
            val -= gb / (E - b)
    return val


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
        Quadrature failed to reach its accuracy target.
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
            val = _sigma_first_quad(ff, E)
            der = _dsigma_first_quad(ff, E)
        return SelfEnergyValue(val, der, sheet)

    # --- second sheet ---
    if not ff.continuable:
        raise ContinuationUnsupportedError(
            f"{ff.family} family does not support second-sheet continuation"
        )
    if isinstance(ff, LorentzianCoupling):
        val, der = _lorentzian_second(ff, E)
        return SelfEnergyValue(val, der, sheet)

    # Threshold power law: continuation of the quadrature representation.
    if E.imag > 0.0:
        val = _sigma_first_quad(ff, E)
        der = _dsigma_first_quad(ff, E)
    elif E.imag < 0.0:
        val = _sigma_first_quad(ff, E) - 2j * math.pi * ff.g2_analytic(E)
        der = _dsigma_first_quad(ff, E) - 2j * math.pi * ff.g2_analytic_deriv(E)
    else:
        x = E.real
        a, _ = ff.support()
        if x <= a:
            raise DomainError(
                f"second-sheet value at E={x} is ambiguous at/below the branch point {a}"
            )
        # On the cut both sheets meet at the boundary value from above.
        val = complex(real_shift(ff, x), -math.pi * float(ff.g2(x)))
        der = _dsigma_first_quad(ff, complex(x, 0.0))
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
      to the rule of twice the step as error estimate.

    Raises
    ------
    DomainError
        Non-finite ω, or ω on the edge of a table whose value there is
        nonzero (the shift diverges logarithmically).
    ToleranceError
        The rule's error estimate exceeds 1e3 times max(1e−12, 1e−10·|Δ_R|)
        at some ω, the same acceptance as the adaptive quadratures here.
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
            val, err = _rule_shift(ff, flat[i : i + _RULE_CHUNK])
            bad = err > np.maximum(EPSABS, np.abs(val) * EPSREL) * 1e3
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ToleranceError(
                    f"level-shift rule did not converge at omega={float(flat[i + k])!r}",
                    value=float(val[k]),
                    achieved=float(err[k]),
                    requested=EPSABS,
                )
            out[i : i + _RULE_CHUNK] = val
        out = out.reshape(w.shape)
    return out if out.ndim else float(out)
