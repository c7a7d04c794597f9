"""The package's one real root solver: sign-change brackets refined on arrays.

Brent's method (R. P. Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of ``scipy.optimize.brentq``:
each step takes the secant or the inverse quadratic interpolation
through the last three points when it promises a short step inside the
bracket, and bisects otherwise.  The steps, tests and roundings are
those of scipy's C routine, so a bracket with several sign changes
(the late crossings of a threshold family's γ(τ), a few τ units apart)
resolves to the same one.

Every bracket advances at once: one call of ``f`` per iteration serves
all brackets still open, so a scan with many sign changes costs a
handful of array evaluations instead of one scalar search per crossing.
A scalar root is the one-bracket case.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["bracketed_roots"]

#: Smallest relative tolerance honoured, brentq's: below it a step of the
#: tolerance could round to no step at all.
_RTOL_FLOOR = 4.0 * np.finfo(float).eps
#: Iterations before a bracket counts as unconverged, brentq's default.
_MAX_ITER = 100


def _values(f, x, known):
    return np.array(f(x) if known is None else known, dtype=float, ndmin=1)


def bracketed_roots(f, lo, hi, *, xtol, rtol, f_lo=None, f_hi=None) -> np.ndarray:
    """Roots of ``f`` in the brackets [lo_i, hi_i], refined together.

    Parameters
    ----------
    f : callable
        Maps a 1-D float array to the values of f there (an array of the
        same shape).  It only receives the points of brackets still open,
        and must give each point the value a call on that point alone
        would give.
    lo, hi : float or array_like
        Bracket ends; f must differ in sign at the two ends of each
        bracket (a zero at an end is that bracket's root).
    xtol, rtol : float
        Each returned x_i lies within xtol + rtol·|x_i| of a sign change
        of f; ``rtol`` is raised to 4ε if smaller.
    f_lo, f_hi : array_like, optional
        f at ``lo`` and ``hi`` when the caller already has them.

    Returns
    -------
    numpy.ndarray
        One root per bracket, 1-D, of the broadcast size of ``lo`` and
        ``hi``.  A function with a sign change but no zero gets the point
        where its sign flips.

    Raises
    ------
    ValueError
        f has the same sign at both ends of some bracket, or is NaN there.
    ConvergenceError
        A bracket stayed open for 100 iterations.
    """
    xpre, xcur = np.broadcast_arrays(np.array(lo, dtype=float, ndmin=1),
                                     np.array(hi, dtype=float, ndmin=1))
    xpre, xcur = xpre.ravel(), xcur.ravel()
    fpre, fcur = _values(f, xpre, f_lo), _values(f, xcur, f_hi)
    roots = np.where(fpre == 0.0, xpre, xcur)
    if np.any(np.isnan(fpre) | np.isnan(fcur)
              | ((np.signbit(fpre) == np.signbit(fcur)) & (fpre != 0.0) & (fcur != 0.0))):
        raise ValueError("f must differ in sign at the two ends of every bracket")
    rtol = max(float(rtol), _RTOL_FLOOR)
    index = np.flatnonzero((fpre != 0.0) & (fcur != 0.0))
    if not index.size:
        return roots
    xpre, xcur, fpre, fcur = xpre[index], xcur[index], fpre[index], fcur[index]
    xblk = fblk = spre = scur = np.zeros_like(xcur)
    for _ in range(_MAX_ITER):
        # A sign change between the last two points makes xpre the far
        # end.  (f is nonzero at xpre here, and a zero at xcur ends the
        # search below, so the signs alone decide.)
        flip = np.signbit(fpre) != np.signbit(fcur)
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, spre, scur)
        # Keep the smaller |f| in xcur.
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, fpre = np.where(swap, xcur, xpre), np.where(swap, fcur, fpre)
        xcur, fcur = np.where(swap, xblk, xcur), np.where(swap, fblk, fcur)
        xblk, fblk = np.where(swap, xpre, xblk), np.where(swap, fpre, fblk)

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if np.any(done):
            roots[index[done]] = xcur[done]
            keep = ~done
            if not np.any(keep):
                return roots
            index, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[keep] for a in (index, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                  delta, sbis))

        # Secant step through two distinct points, inverse quadratic
        # through three; taken where the last step was not tiny, |f|
        # fell, and the step stays well inside the bracket.
        with np.errstate(all="ignore"):  # the formula not chosen may divide by zero
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quad = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, quad)
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(good, scur, sbis)
        scur = np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        fcur = _values(f, xcur, None)
    raise ConvergenceError(
        f"{index.size} bracket(s) still open after {_MAX_ITER} iterations", trajectory=xcur
    )
