"""Gauss–Legendre panels: nodes, the Legendre fit, adaptive bisection.

One panel machinery serves two fits: the spectral kernel of
:mod:`~zenodecay.amplitude` fits the density ρ of the surviving state,
and a coupling family without a closed-form level shift fits g² once
(:mod:`~zenodecay.formfactor`), whose Hilbert transform is then exact.
Both keep what they build by the family's value, through :func:`_memoized`.
"""

from __future__ import annotations

import numpy as np

#: Gauss–Legendre nodes per panel, and the Legendre degrees fitted.
_NODES = 10
_DEGREES = np.arange(_NODES)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NODES)
#: The nodes as fractions of the panel width from its lower edge.
_GL_FRACTION = 0.5 * (1.0 + _GL_X)
#: Node values → Legendre coefficients c_k = (k + ½)·Σ_i w_i P_k(x_i) f_i.
_FIT = (_DEGREES[:, None] + 0.5) * np.polynomial.legendre.legvander(_GL_X, _NODES - 1).T * _GL_W
#: Panels whose nodes share one evaluation of the fitted function.
_PANEL_CHUNK = 2048
#: Bisection passes before the error bound is accepted as is.
_MAX_PASSES = 60


def _refine(density, edges: np.ndarray, absolute: float = 1e-14, relative: float = 1e-11,
            integrated: bool = True):
    """Panels over ``edges`` with the Legendre coefficients of a function on each.

    ``density(lo, h)`` gives the function at the nodes of the panels
    [lo, lo + h] of one pass, one (panels, nodes) block per slice of
    :func:`_chunks` in turn, which bounds the memory of the node arrays.
    Every pass fits all open panels and bisects those whose bound on the
    fit's error, the last two coefficients |c_{N−2}| + |c_{N−1}|, is not
    negligible against ``absolute`` or ``relative`` times |c₀|, as long as
    bisection still shrinks them.  With ``integrated`` both the bound and
    |c₀| are taken times the panel width, so that the bound is on the
    integral (the spectral kernel); without it the bound is pointwise (a
    fit whose Hilbert transform must hold inside every panel).  Returns lo, hi,
    the coefficients (one row per degree, one column per panel) and the
    error bounds, with the panels in no particular order, and the number
    of passes.
    """
    lo, hi = edges[:-1], edges[1:]
    parent_est = None
    kept = []
    for n in range(_MAX_PASSES):
        h = hi - lo
        coef = np.empty((_NODES, lo.size))
        for cols, values in zip(_chunks(lo.size), density(lo, h)):
            coef[:, cols] = _FIT @ values.T
        est = np.abs(coef[-2]) + np.abs(coef[-1])
        mass = np.abs(coef[0])
        if integrated:
            est = h * est
            mass = h * mass
        split = est > np.maximum(absolute, relative * mass)
        if parent_est is not None:
            # Halves whose bounds add up to their parent's see rounding
            # noise (e.g. a table's knot sum near a narrow resonance, or
            # g² computed as √(1 − ω²) next to ω = 1), not structure:
            # halving again cannot help.  Integrated, only resolved halves
            # stop; pointwise, where the bounds of smooth halves fall by
            # ~2^−10 and those at an edge singularity like √ by 2^−½,
            # every such pair stops.
            pairs = parent_est.size
            stalled = np.tile(est[:pairs] + est[pairs:] >= 0.75 * parent_est, 2)
            split &= ~(stalled & (est <= 1e-8 * mass)) if integrated else ~stalled
        mid = 0.5 * (lo + hi)
        split &= (lo < mid) & (mid < hi) & (n + 1 < _MAX_PASSES)
        kept.append((lo[~split], hi[~split], coef[:, ~split], est[~split]))
        if not np.any(split):
            break
        parent_est = est[split]
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
    return (*(np.concatenate(part, axis=-1) for part in zip(*kept)), len(kept))


def _chunks(panels: int):
    """Slices of up to _PANEL_CHUNK consecutive panels out of ``panels``."""
    return (slice(i, i + _PANEL_CHUNK) for i in range(0, panels, _PANEL_CHUNK))


def _memoized(cached, ff, *args):
    """``cached(ff, *args)``, or its uncached builder for an unhashable custom family."""
    try:
        hash(ff)
    except TypeError:
        return cached.__wrapped__(ff, *args)
    return cached(ff, *args)
