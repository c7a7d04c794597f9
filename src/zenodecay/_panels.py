"""Gauss–Legendre panels: nodes, the Legendre fit, adaptive bisection, the segment tree.

One panel machinery serves two fits: the spectral kernel of
:mod:`~zenodecay.amplitude` fits the density ρ of the surviving state,
and a coupling family without a closed-form level shift fits g² once
(:mod:`~zenodecay.formfactor`), whose Hilbert transform is then exact.
Both keep their fits by the family's value, the kernel's per level too,
through :func:`_memoized`; the values that the kernel's ρ takes from g²
alone on the segments between kinks are kept by the coupling instance.
The kernel also merges the fits of its knot segments over a binary tree
of the segments, by exact projection (:func:`_merge`).
"""

from __future__ import annotations

import functools

import numpy as np

#: Gauss–Legendre nodes per panel, and the Legendre degrees fitted.
_NODES = 10
_DEGREES = np.arange(_NODES)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_NODES)
#: The nodes as fractions of the panel width from its lower edge.
_GL_FRACTION = 0.5 * (1.0 + _GL_X)
#: P_k at the nodes: (node, degree).
_LEG = np.polynomial.legendre.legvander(_GL_X, _NODES - 1)
#: Node values → Legendre coefficients c_k = (k + ½)·Σ_i w_i P_k(x_i) f_i.
_FIT = (_DEGREES[:, None] + 0.5) * _LEG.T * _GL_W
#: Panels whose nodes share one evaluation of the fitted function.
_PANEL_CHUNK = 2048
#: Bisection passes before the error bound is accepted as is.
_MAX_PASSES = 60
#: The kernel's panels are resolved where their error bound is at most the
#: larger of these: an absolute floor, and this fraction of the panel mass.
_ABSOLUTE = 1e-14
_RELATIVE = 1e-11
#: |r − ½| up to which a merged pair, its lower panel a share r of its
#: width, takes the map at r = ½ and its first-order term: the map's second
#: derivative in r is below 100 in every entry, so the term left out is
#: below 5e-19 of the coefficients.
_NEAR_HALF = 1e-10


def _fit(density, lo: np.ndarray, hi: np.ndarray, absolute: float = _ABSOLUTE,
         relative: float = _RELATIVE, integrated: bool = True):
    """The Legendre coefficients of a function on the panels [lo, hi], with their bounds.

    ``density(lo, h)`` gives the function at the nodes of the panels
    [lo, lo + h], one (panels, nodes) block per slice of :func:`_chunks`
    in turn, which bounds the memory of the node arrays.  The bound on a
    fit's error is the last two coefficients |c_{N−2}| + |c_{N−1}|, and
    the fit is open where that is not negligible against ``absolute`` or
    ``relative`` times |c₀|.  With ``integrated`` both the bound and |c₀|
    are taken times the panel width, so that the bound is on the integral
    (the spectral kernel); without it the bound is pointwise (a fit whose
    Hilbert transform must hold inside every panel).  Returns the
    coefficients (one row per degree, one column per panel), the bounds,
    the masses |c₀| they are weighed against, and the mask of open fits.
    """
    h = hi - lo
    coef = np.empty((_NODES, lo.size))
    for cols, values in zip(_chunks(lo.size), density(lo, h)):
        coef[:, cols] = _FIT @ values.T
    est = np.abs(coef[-2]) + np.abs(coef[-1])
    mass = np.abs(coef[0])
    if integrated:
        est = h * est
        mass = h * mass
    return coef, est, mass, est > np.maximum(absolute, relative * mass)


def _refine(density, lo: np.ndarray, hi: np.ndarray, absolute: float = _ABSOLUTE,
            relative: float = _RELATIVE, integrated: bool = True, parents=np.empty(0)):
    """The panels [lo, hi], bisected until :func:`_fit` resolves the function on each.

    Every pass fits all open panels and bisects those whose fit is open
    (the arguments are those of :func:`_fit`), as long as bisection still
    shrinks them.  The first 2·``parents.size`` panels may be the lower,
    then the upper halves of panels already fitted and found open, whose
    bounds ``parents`` holds: the first pass weighs them against those
    bounds as every later pass weighs the halves it made.  Returns lo, hi,
    the coefficients and the error bounds of the panels each pass kept,
    pass by pass, and the number of passes.
    """
    kept = []
    for n in range(_MAX_PASSES):
        coef, est, mass, split = _fit(density, lo, hi, absolute, relative, integrated)
        # Halves whose bounds add up to their parent's see rounding noise
        # (e.g. a table's knot sum near a narrow resonance, or g² computed
        # as √(1 − ω²) next to ω = 1), not structure: halving again cannot
        # help.  Integrated, only resolved halves stop; pointwise, where
        # the bounds of smooth halves fall by ~2^−10 and those at an edge
        # singularity like √ by 2^−½, every such pair stops.
        pairs = parents.size
        stalled = np.tile(est[:pairs] + est[pairs:2 * pairs] >= 0.75 * parents, 2)
        noise = stalled & (est[:2 * pairs] <= 1e-8 * mass[:2 * pairs]) if integrated else stalled
        split[:2 * pairs] &= ~noise
        mid = 0.5 * (lo + hi)
        split &= (lo < mid) & (mid < hi) & (n + 1 < _MAX_PASSES)
        kept.append((lo[~split], hi[~split], coef[:, ~split], est[~split]))
        if not np.any(split):
            break
        parents = est[split]
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
    return (*(np.concatenate(part, axis=-1) for part in zip(*kept)), len(kept))


def _merge(kinks: np.ndarray, rows: np.ndarray, coef: np.ndarray, est: np.ndarray):
    """Resolved integrated fits (:func:`_fit`) on knot segments, merged over the segment tree.

    Row j of the tree is the segment [kinks[j], kinks[j+1]]: ``coef`` and
    ``est`` hold a fit of every segment, column j for row j, and ``rows``
    lists in ascending order the segments whose fits are kept.  Node j of
    level L spans the rows [j·2^L, (j+1)·2^L), so its children are the
    nodes 2j and 2j + 1 of level L − 1, and its coefficients are the exact
    L2 projection of their two fitted polynomials onto the degrees of one
    panel (:func:`_merged_coefficients`), formed for a whole level at once.
    A node is kept where both children are and its own bound
    h·(|c_{N−2}| + |c_{N−1}|) meets the rule of :func:`_fit`; the panels
    are the kept nodes with no kept parent.  The projection keeps h·c₀,
    so the mass of the panels, and every moment of degree below N.
    Returns lo, hi, the coefficients and the bounds of the panels, level
    by level, and the number of panels the merge removed.
    """
    keep = np.zeros(est.size, dtype=bool)
    keep[rows] = True
    panels, span = [], 1
    while True:
        pairs = keep.size // 2
        lo, mid, hi = (kinks[start::2 * span][:pairs] for start in (0, span, 2 * span))
        h = hi - lo
        ok = keep[0:2 * pairs:2] & keep[1:2 * pairs:2]
        # A node with a child not kept is never used: at r = ½ it takes the
        # fixed map, not a map of its own.
        parent = _merged_coefficients(np.where(ok, (mid - lo) / h, 0.5), coef[:, 0:2 * pairs:2],
                                      coef[:, 1:2 * pairs:2])
        bound = h * (np.abs(parent[-2]) + np.abs(parent[-1]))
        ok &= bound <= np.maximum(_ABSOLUTE, _RELATIVE * h * np.abs(parent[0]))
        top = keep.copy()
        top[:2 * pairs] &= ~np.repeat(ok, 2)
        j = np.flatnonzero(top)
        panels.append((kinks[j * span], kinks[(j + 1) * span], coef[:, j], est[j]))
        if not np.any(ok):
            break
        keep, coef, est, span = ok, parent, bound, 2 * span
    merged = [np.concatenate(part, axis=-1) for part in zip(*panels)]
    return (*merged, rows.size - merged[0].size)


def _merged_coefficients(share: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The Legendre coefficients of the L2 projection of two adjacent panels' fits onto their union.

    ``share`` is the lower panel's fraction r of the union's width, one
    per pair, and ``lower``, ``upper`` hold the two panels' coefficients
    (one row per degree, one column per pair).  Pairs with r within
    _NEAR_HALF of ½ take the fixed map at r = ½ plus its first-order
    term, the others their own maps.  The fixed map goes by products of
    the size of :func:`_refine`'s fit, N × N by N × _PANEL_CHUNK, which
    BLAS keeps on one thread: it spreads larger ones over threads, and on
    a shared 2-core host one product for 10⁴ pairs took up to 21 ms that
    way, against at most 1.2 ms in chunks.
    """
    out = np.empty(lower.shape)
    offset = share - 0.5
    half, slope = _half_maps()
    for cols in _chunks(share.size):
        a, b = lower[:, cols], upper[:, cols]
        out[:, cols] = (half[:, :_NODES] @ a + half[:, _NODES:] @ b) + offset[cols] * (
            slope[:, :_NODES] @ a + slope[:, _NODES:] @ b)
    far = np.flatnonzero(np.abs(offset) > _NEAR_HALF)
    if far.size:
        out[:, far] = np.einsum("pmj,jp->mp", _projection(share[far]),
                                np.concatenate((lower[:, far], upper[:, far])))
    return out


def _projection(share: np.ndarray) -> np.ndarray:
    """The maps (pair, N, 2N) of two children's coefficients [lower; upper] to their parent's.

    ``share`` holds the lower child's fraction r of the parent's width.  In
    the parent's coordinate X the lower child holds X = r(x + 1) − 1 and
    the upper X = r + (1 − r)x, with x the child's own, so the parent's
    c_m = (m + ½)·[r·∫P_m(r(x + 1) − 1)·p_lower(x)dx
    + (1 − r)·∫P_m(r + (1 − r)x)·p_upper(x)dx].  The integrands have
    degree ≤ 2N − 2, so N Gauss–Legendre nodes per child take them exactly.
    """
    r = share[:, None]
    nodes = np.stack((r * (_GL_X + 1.0) - 1.0, r + (1.0 - r) * _GL_X), axis=1)
    scale = np.stack((r * _GL_W, (1.0 - r) * _GL_W), axis=1)
    maps = np.einsum("pcim,pci,ik->pmck", np.polynomial.legendre.legvander(nodes, _NODES - 1),
                     scale, _LEG)
    maps *= (_DEGREES + 0.5)[:, None, None]
    return maps.reshape(share.size, _NODES, 2 * _NODES)


@functools.cache
def _half_maps():
    """The map of :func:`_projection` at r = ½, and its derivative in r there.

    Both come from one evaluation at r = ½ + iε: the complex-step
    derivative Im f(½ + iε)/ε takes no difference, so it is exact to
    rounding, and the real part is f(½).
    """
    step = 1e-30
    maps = _projection(np.array([0.5 + step * 1j]))[0]
    return maps.real.copy(), maps.imag / step


def _distinct(values, inverse: bool = False):
    """``np.unique(values)``, or with ``inverse`` also the index of each value among them.

    A sort and a mask of neighbours that differ give the same floats
    without the import of ``numpy.ma`` that the first ``np.unique`` call
    of a process makes (~20 ms).
    """
    order = np.argsort(values, axis=None)
    ordered = np.ravel(values)[order]
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    if not inverse:
        return ordered[first]
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


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
