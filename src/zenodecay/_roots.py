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
Between the calls each bracket takes brentq's step on its own state, held
as Python floats: a scalar root is the one-bracket case and pays no
array overhead per iteration.
"""

from __future__ import annotations

import math

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
    xtol, rtol = float(xtol), max(float(rtol), _RTOL_FLOOR)
    index = np.flatnonzero((fpre != 0.0) & (fcur != 0.0))
    brackets = [[i, *state, 0.0, 0.0, 0.0, 0.0] for i, *state in zip(
        index.tolist(), xpre[index].tolist(), xcur[index].tolist(), fpre[index].tolist(),
        fcur[index].tolist())]
    for _ in range(_MAX_ITER):
        stepped = []
        for state in brackets:
            if _brent_step(state, xtol, rtol):
                stepped.append(state)
            else:
                roots[state[0]] = state[2]
        brackets = stepped
        if not brackets:
            return roots
        for state, value in zip(brackets, _values(f, np.array([s[2] for s in brackets]),
                                                  None).tolist()):
            state[4] = value
    raise ConvergenceError(f"{len(brackets)} bracket(s) still open after {_MAX_ITER} iterations",
                           trajectory=np.array([s[2] for s in brackets]))


def _brent_step(state: list, xtol: float, rtol: float) -> bool:
    """One step of brentq on a bracket's state, in place; False where it has converged.

    ``state`` holds the bracket's index, then xpre, xcur, f(xpre),
    f(xcur), xblk, f(xblk), spre and scur as floats, in brentq's names:
    xcur the best point, xpre the one before, xblk the far end, spre and
    scur the last two steps.  A step moves xcur; its f is the caller's to
    fill in.  Where xcur is the root it is left there.
    """
    _, xpre, xcur, fpre, fcur, xblk, fblk, spre, scur = state
    # A sign change between the last two points makes xpre the far end.
    # (f is nonzero at xpre here, and a zero at xcur ends the search
    # below, so the signs alone decide.)
    if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
        xblk, fblk = xpre, fpre
        spre = scur = xcur - xpre
    # Keep the smaller |f| in xcur.
    if abs(fblk) < abs(fcur):
        xpre, xcur, xblk = xcur, xblk, xcur
        fpre, fcur, fblk = fcur, fblk, fcur

    delta = (xtol + rtol * abs(xcur)) / 2
    sbis = (xblk - xcur) / 2
    if fcur == 0.0 or abs(sbis) < delta:
        state[2] = xcur
        return False

    # Secant step through two distinct points, inverse quadratic through
    # three; taken where the last step was not tiny, |f| fell, and the
    # step stays well inside the bracket.  A division by zero would give
    # a step that is not finite, and bisection.
    good = False
    if abs(spre) > delta and abs(fcur) < abs(fpre):
        try:
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        except ZeroDivisionError:
            pass
        else:
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
    if good:
        spre, scur = scur, stry
    else:
        spre = scur = sbis

    step = scur if abs(scur) > delta else math.copysign(delta, sbis)
    state[1:] = xcur, xcur + step, fcur, fcur, xblk, fblk, spre, scur
    return True
