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
A family that knows Sigma or Δ_R in closed form carries it as a hook
on its class (``sigma_closed_form``, ``shift_closed_form``; see
:class:`~zenodecay.formfactor.FormFactor`): the Lorentzian's rational
Sigma on both sheets, a table's exact segment sums and the knot sum of
its Δ_R.  This module only asks for the hook.

Every other family takes Δ_R from its g² alone: g² is fitted once per
family on Legendre panels, and Δ_R at any ω is the exact principal
value of that fit (see :func:`real_shift`).  Sigma off the cut goes
through one fixed double-exponential rule, vectorized over Re E = x: a
symmetric window around x with g²(x) subtracted,

    ∫ (g²(ω) − g²(x)) / (E − ω) dω  −  2i·g²(x)·atan(h/Im E)    (|ω − x| < h),

which is uniformly well-conditioned in the distance to the cut, then
log-distance pieces and a mapped tail; it gives Sigma and Sigma′ from
the same samples of g².  On the real axis the second sheet comes from a
hook or else from :func:`real_shift` with −iπg², the boundary value
from above.
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
from .formfactor import FormFactor, _fit_shift

__all__ = ["Sheet", "SelfEnergyValue", "self_energy", "real_shift"]

#: Absolute / relative tolerances of Sigma; the rule is accepted while its
#: error estimate is within 1e3·max(EPSABS, EPSREL·|value|).
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


#: Double-exponential rules of the self-energy on the unit parameter
#: t ∈ [−T, T] at step 2^−_DE_LEVEL.  The sum over every other
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


def _de_rule(ff: FormFactor, x: np.ndarray, y: float):
    """∫ g(ω′)/(E − ω′) dω′ at E = x + iy off the cut, by fixed DE rules, for an array of x.

    Here g is the density g² of ``ff``.  The result has two complex rows
    taken from the same samples of g: the transform and its derivative
    −∫ g/(E − ω′)² dω′.  Returns (values, error estimates), both of that
    shape.

    Per x the support splits into

    * the symmetric window [x − h, x + h] (h half a bandwidth or the
      distance to the nearer support edge), folded onto s ∈ (0, h] with
      g(x) subtracted, ∫ Σ± (g(x ± s) − g(x))/(iy ∓ s) ds, plus the
      closed form −2i·g(x)·atan(h/y) of the subtracted part.  A tanh–sinh
      rule clusters its nodes at a threshold on the window edge.  For
      |y| < h the window is cut at s = |y| and its outer part taken in
      ln s;
    * finite pieces on each side, cut at the structure points around the
      coupling peak so that the bump near ω ≈ Λ has pieces of its own.
      They are taken in u = ln d, d = |ω′ − x|, where the kernel
      d/(E − ω′) = d/(iy ∓ d) varies on the scale of d alone and the
      scale of the window (down to the distance to a threshold) costs
      nothing; a piece that starts at x itself (x on a support edge) is
      cut at d = |y| like the window;
    * a semi-infinite tail past the last structure point, mapped by an
      exp–sinh rule.
    """
    a, b = ff.support()
    half = 0.5 * ff.bandwidth
    peak = ff.peak_energy()
    cuts = np.array([c for c in (peak - 4.0 * half, peak - half, peak + 4.0 * half) if a < c < b])
    h = np.where((x > a) & (x < b), np.minimum(half, np.minimum(x - a, b - x)), 0.0)
    val = np.zeros((2, x.size), dtype=complex)
    err = np.zeros(val.shape)
    ts, es = _TANH_SINH, _EXP_SINH

    def terms(mask, side, d, log, sub=None):
        """g(x + side·d), less ``sub``, times the kernel, on the rows of ``mask``.

        The kernels are 1/(E − ω′) = 1/(iy − side·d) for Sigma and
        −1/(E − ω′)² for Sigma′, per unit d, or per unit ln d if ``log``.
        """
        gs = ff.g2(x[mask, None] + side * d)
        if sub is not None:
            gs = gs - sub[mask, None]
        r = 1.0 / (1j * y - side * d)
        return np.stack((r, -r * r)) * (gs * d if log else gs)

    def add(mask, f, w, coarse):
        fine, est = _de_sum(f, w, coarse)
        val[..., mask] += fine
        err[..., mask] += est

    def from_x(reach, sides, sub=None):
        """Pieces over d ∈ (0, reach] on ``sides`` of x (rows with reach > 0).

        They are cut at d = |y|, and the outer part is taken in ln d,
        where the kernel varies on the scale of d alone.
        """
        cut = np.minimum(abs(y), reach)
        m = cut > 0.0
        if np.any(m):
            cm = cut[m, None]
            s = np.where(ts.upper, cm - cm * ts.hi, cm * ts.lo)
            add(m, sum(terms(m, side, s, False, sub) for side in sides), cm * ts.w, ts.coarse)
        m = cut < reach
        if np.any(m):
            s, w = _log_nodes(cut[m, None], reach[m, None])
            add(m, sum(terms(m, side, s, True, sub) for side in sides), w, ts.coarse)

    gx = ff.g2(x)
    from_x(h, (-1.0, 1.0), gx)
    m = h > 0.0
    if np.any(m):
        hm, gm = h[m], gx[m]
        val[0, m] -= 2j * gm * np.copysign(np.arctan2(hm, abs(y)), y)
        val[1, m] += 2.0 * gm * hm / (hm * hm + y * y)

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
            m = (d2 > d1) & (d1 > 0.0)
            if np.any(m):
                d, w = _log_nodes(d1[m, None], d2[m, None])
                add(m, terms(m, side, d, True), w, ts.coarse)
            m = (d2 > d1) & (d1 == 0.0)
            if np.any(m):
                from_x(np.where(m, d2, 0.0), (side,))
        if np.any(tail):
            dt = d_end[tail, None]
            add(tail, terms(tail, side, dt * (1.0 + es.v), False), dt * es.w, es.coarse)
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
    """Sigma_I(E) and Sigma_I′(E) by the double-exponential rule, E off the cut."""
    (val, der), (err, der_err) = _de_rule(ff, np.array([E.real]), E.imag)
    _accept("self-energy rule", E, val, err, 1e3 * EPSABS, 1e3 * EPSREL)
    _accept("self-energy derivative rule", E, der, der_err, 1e-8, 1e-6)
    return complex(val[0]), complex(der[0])


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
        First-sheet request on (or within 1e−12 of) the cut; second-sheet
        request on the real axis where no ``sigma_closed_form`` hook
        answers (take :func:`real_shift` and −iπg² there).
    ContinuationUnsupportedError
        Second-sheet request for a family without analytic continuation.
    ToleranceError
        The rule's error estimate for Sigma exceeds 1e3·max(1e−12,
        1e−10·|Sigma|), or that for Sigma′ exceeds max(1e−8, 1e−6·|Sigma′|);
        a value or estimate that is not finite (g² NaN somewhere) fails too.

    Notes
    -----
    A family's ``sigma_closed_form`` hook, where it has one, gives both
    values (the Lorentzian on both sheets, tables by exact segment sums).
    Every other family takes the double-exponential rule at complex E,
    with the kernel 1/(E − ω′) and, on the same samples of g²,
    −1/(E − ω′)² for Sigma′; the second sheet adds −2πi times the
    continued density and its derivative below the axis.
    On the real axis the second sheet comes from the hook or else from
    :func:`real_shift` with −iπg², the boundary value from above; the
    generic route refuses it there.
    """
    E = complex(energy)
    if ff.g2_integral() == 0.0:
        return SelfEnergyValue(0j, 0j, sheet)
    second = sheet is Sheet.SECOND
    if not second and _cut_distance(ff, E) <= 1e-12:
        raise DomainError(
            f"E={E!r} lies on the continuum cut; use Sheet.SECOND or real_shift"
        )
    if second and not ff.continuable:
        raise ContinuationUnsupportedError(
            f"{ff.family} family does not support second-sheet continuation"
        )
    if ff.sigma_closed_form is not None:
        return SelfEnergyValue(*ff.sigma_closed_form(E, second), sheet)
    if second and E.imag == 0.0:
        raise DomainError(
            f"E={E!r} lies on the real axis; the second sheet there is "
            "real_shift(E) - i*pi*g2(E)"
        )

    val, der = _sigma_first(ff, E)
    if second and E.imag < 0.0:
        g2, dg2 = ff.g2_continued(E)
        val -= 2j * math.pi * g2
        der -= 2j * math.pi * dg2
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
    Each family has one route for scalars and arrays alike, and each ω
    takes its value from its own position alone:

    * a family with a ``shift_closed_form`` hook takes it: the Lorentzian's
      rational form λ²ω/(ω² + Λ²), a table's exact knot sum (one real
      logarithm per knot, summed by a tree built once per table);
    * every other family (the threshold power law and custom families)
      fits its g² once, on the first call, on adaptive panels of 10
      Gauss–Legendre nodes graded toward each finite support edge and
      out along each infinite side, and Δ_R is the exact principal value
      of that fit: each panel near ω by its Legendre coefficients
      against Neumann's Q_k, every other panel through its nodes as
      point charges, summed by the same tree as a table's knots.  The fit
      is pointwise to 1e−13 of g² at its peak or 1e−12 of the panel's own
      size; against 30-digit quadrature Δ_R is within ~1e−14 of its
      largest value, at a threshold itself too.  Within 2^−50 bandwidths
      (or 64 float spacings) of a finite edge where g² vanishes, the
      unrefined panel there leaves up to ~1e−9 of the largest value.

    Raises
    ------
    DomainError
        Non-finite ω, or ω on the edge of a table whose value there is
        nonzero (the shift diverges logarithmically).
    ToleranceError
        ω on a support edge where g² does not vanish (the shift diverges
        there), or g² not finite somewhere on its support, so that the
        fit, and Δ_R, are not finite.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError(f"omega must be finite, got {omega!r}")
    if ff.g2_integral() == 0.0:
        out = np.zeros_like(w)
    elif ff.shift_closed_form is not None:
        out = ff.shift_closed_form(w.ravel()).reshape(w.shape)
    else:
        fit = ff._shift_fit
        flat = w.ravel()
        hit = np.isin(flat, fit.divergent)
        if np.any(hit):
            raise ToleranceError(
                f"the level shift diverges at {flat[hit][0]!r}, a support edge where g2 jumps",
                value=math.inf, achieved=math.inf, requested=0.0,
            )
        out = _fit_shift(fit, flat)
        if not np.all(np.isfinite(out)):
            raise ToleranceError(f"the level shift is not finite at {flat[~np.isfinite(out)][0]!r}",
                                 value=out, achieved=math.inf, requested=0.0)
        out = out.reshape(w.shape)
    return out if out.ndim else float(out)
