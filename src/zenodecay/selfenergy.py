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

Every other family takes both from its g² alone: g² is fitted once per
coupling value on Legendre panels, and Sigma is the exact transform of
that fit.  On the real axis that is the principal value Δ_R (see
:func:`real_shift`); off it, at complex E, each panel near E takes
Neumann's form Σ_k c_k·2Q_k(s) at complex s and every other panel acts
through its nodes, with Sigma′ from the same Q_k (see
:func:`self_energy`).  The second sheet below the axis adds −2πi times
the continued density.  On the real axis the second sheet comes from a
hook or else from :func:`real_shift` with −iπg², the boundary value
from above.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContinuationUnsupportedError,
    DomainError,
    ToleranceError,
)
from .formfactor import FormFactor, _fit_shift, _fit_sigma

__all__ = ["Sheet", "SelfEnergyValue", "self_energy", "real_shift"]


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
        g² not finite somewhere on its support, so that the family's g²
        fit, and Sigma, are not finite.

    Notes
    -----
    A family's ``sigma_closed_form`` hook, where it has one, gives both
    values (the Lorentzian on both sheets, tables by exact segment sums).
    Every other family takes them from the g² fit that :func:`real_shift`
    uses: with s = (E − m)/h on a panel of centre m and half-width h,
    each panel with |s| < 4 contributes Σ_k c_k·2Q_k(s), the principal
    logarithms of s ± 1 giving Q₀, and Σ_k c_k·2Q_k′(s)/h to Sigma′, from
    (s² − 1)Q_k′ = k(sQ_k − Q_{k−1}); every other panel acts through its
    nodes as point charges, w_j/(E − ω_j) and −w_j/(E − ω_j)².  Near the
    cut Sigma keeps its digits down to |Im E| ~ 1e−14, and so does Sigma′
    away from the edges the panels share; within |Im E| of one, the two
    panels' poles there cancel only to the fit's jump.  The second
    sheet adds −2πi times the continued density and its derivative below
    the axis.  On the real axis the second sheet comes from the hook or
    else from :func:`real_shift` with −iπg², the boundary value from
    above; the generic route refuses it there.
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

    val, der = _fit_sigma(ff._shift_fit, E)
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
        Non-finite ω, or ω on a support edge where g² does not vanish, a
        table's or any other family's (the shift diverges logarithmically
        there).
    ToleranceError
        g² not finite somewhere on its support, so that the fit, and Δ_R,
        are not finite.
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
        if fit.divergent.size:
            hit = np.isin(flat, fit.divergent)
            if np.any(hit):
                raise DomainError(
                    f"the level shift diverges at {flat[hit][0]!r}, a support edge where g2 jumps"
                )
        out = _fit_shift(fit, flat)
        if not np.all(np.isfinite(out)):
            raise ToleranceError(f"the level shift is not finite at {flat[~np.isfinite(out)][0]!r}",
                                 value=out, achieved=math.inf, requested=0.0)
        out = out.reshape(w.shape)
    return out if out.ndim else float(out)
