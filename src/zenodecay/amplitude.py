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
    laid out by one rule for every family (:func:`_panel_edges`): first
    edges on one dyadic lattice of the coupling, origin + Λ·m·2^k with
    the origin a finite support edge, which does not move with ω_a.  The
    lattice cells are graded in powers of two towards the resonance
    ω_a + Δ_R(ω_a), from a quarter of its width out to 1e5 times the
    model's energy scale, towards a band edge where g² vanishes, from
    2^−30·Λ, and towards the coupling peak, from Λ; the kinks of g² (a
    table's knots) are edges too, and a grading edge that falls strictly
    inside a kink segment no wider than half its step is left out, since
    the kinks grade ρ there.  ρ is sampled at 10
    Gauss–Legendre nodes on each panel with the exact level shift Δ_R at
    every node (a table sums its one logarithm per knot by a tree built
    once per table, exactly over at most 12 near knots; any other family
    without a closed form takes the Hilbert transform of its g² fit,
    built once per coupling value and shared by equal instances) and
    stored as Legendre coefficients c_k.  Bisection halves a lattice cell
    into two, so every panel of a kernel without kinks is a lattice cell,
    whatever ω_a.  A family that takes Δ_R from
    its g² fit keeps Δ_R and g² at the nodes of the last 4096 cells any
    of its kernels took in a memo on that fit (:func:`_cell_values`), so
    that equal instances share it too, and each bisection pass takes Δ_R
    fresh only at the cells the memo lacks; over a run of levels most
    cells recur.  What ρ takes at the nodes that
    does not depend on ω_a, Δ_R, g², (πg²)² and the mask g² > 0, and the
    nodes' offsets from their panel's lower edge form one record
    (:class:`_NodeValues`), which one builder forms for the segment memo
    and for each bisection pass; ρ adds the panel's detuning from ω_a
    alone.  The segment memo holds that record at the nodes of every
    segment between consecutive kinks of g²; Δ_R depends on g² alone, so
    the coupling instance keeps it for every ω_a (6.6 MB for a
    20001-knot table).  First every such segment is fitted in one pass
    from the memo.  The whole segments, first panels that span exactly
    one segment (a table's knot segments, most of its panels, though ρ
    needs about a tenth of them), are merged where their fit is
    resolved, over a segment tree of the kinks: node j of level L spans
    the segments [j·2^L, (j+1)·2^L) and takes the exact L2 projection of
    its two children's fits onto one panel, which keeps every moment of
    ρ below degree 10, so the panel mass, P(0) and the short-time
    deficit, and it is kept where both children are and that panel
    passes the bisection's own rule; a table's ~2·10⁴ knot segments
    merge into ~2·10³ panels.  Every other first panel, and the halves
    of each whole segment whose fit is open, is bisected until the fit
    is resolved, with one Δ_R call per pass, on the cells the memo lacks
    where there is one.  A kernel without kinks (Lorentzian, power laws)
    takes only that route.  Node arrays are
    filled in chunks of 2048 panels.  A panel of width h around ω_c then
    contributes, exactly for the fitted polynomial (the Filon–Legendre
    rule),

        ∫ ρ e^{−iωt} dω = h·e^{−iω_c t}·Σ_k c_k (−i)^k j_k(th/2),

    so every t uses the same coefficients and costs one sum over panels.
    Times go through in chunks, each with one table of the spherical
    Bessel functions j_k, one column per time and distinct panel width
    (:func:`_jn_table`), read for each panel by one ``take`` with the
    even k (real) in one block and the odd k (imaginary) in another.  The
    summed truncation bound is the achieved error for every t at once,
    and there is no late-time fallback to the pole term.  The same panels
    and j_k give the deficit u(t) = 1 − e^{iω_a t}·x(t) free of
    cancellation as t → 0 (expm1 of each panel's detuning from ω_a, a
    series for 1 − j₀), from which ln P is formed where P ≥ ½; u is
    summed only at those times.

``pole_approximation``
    Only the resonance-pole term: P(t) = Z·e^{−γ₀t}, the exponential-era
    asymptote.  Note P(0) = Z ≠ 1 — the discarded background is what
    restores unit norm at t = 0.

This module forms every ln P of :class:`~zenodecay.model.DecayModel`:
ln|x|² of the panels or the factored form of a pole pair where P < ½,
ln|1 − u|² = log1p(−2 Re u + |u|²) of either route's deficit where
P ≥ ½, so that effective rates −ln P/τ keep their relative accuracy
where 1 − P is far below rounding of 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._panels import (_DEGREES, _GL_FRACTION, _NODES, _CellMemo, _chunks, _distinct, _fit,
                      _memoized, _merge, _refine)
from .errors import DomainError, NoDecayError, ToleranceError
from .formfactor import FormFactor, _lorentzian
from .resolvent import PoleData, _level, find_bound_states
from .selfenergy import real_shift

__all__ = [
    "SurvivalMethod",
    "SurvivalSeries",
    "survival_closed_form_lorentzian",
    "survival_spectral_integral",
    "pole_approximation",
    "spectral_density",
]

#: Overall absolute accuracy target of the spectral route per time point.
SPECTRAL_TOL = 1e-8

#: The nonzero real or imaginary part of (−i)^k: even k are real, odd k imaginary.
_PHASE_SIGN = np.resize([1.0, -1.0, -1.0, 1.0], _NODES)
#: The degrees k in the row order of a kernel's terms and its j_k: the _HALF
#: even k, then the odd k.
_EVEN_ODD = np.concatenate((_DEGREES[0::2], _DEGREES[1::2]))
_HALF = _NODES // 2
#: Reach of the kernel's panels in units of max(|ω_r|, |peak|, Λ).
_WINDOW = 1e5
#: The finest first cells, in units of Λ, at the coupling peak and at a
#: support edge where g² vanishes.
_PEAK_FINEST = 1.0
_EDGE_FINEST = 2.0 ** -30
#: The finest first cells at the resonance, in units of res.
_RES_FINEST = 0.25

#: The spherical-Bessel table j_k(x), k < _NODES, takes two terms of the
#: power series below _JN_SERIES_BELOW and Miller's backward recurrence
#: from order _JN_MILLER_START up to x = _NODES − 1, within 2.3e-16 of
#: every j_k there (30-digit mpmath); the upward recurrence past it.  No
#: entry is held to scipy's ``spherical_jn`` bit for bit.
_JN_SERIES_BELOW = 1e-4
_JN_MILLER_START = 24
#: Table arguments, and panel values, per batch of times: bounds their memory.
_JN_CHUNK = 1 << 14
#: 2k + 1 for k < 32, the Miller rows padded to a power of two.
_ODD = np.arange(1.0, 64.0, 2.0)[:, None]
#: 1/(2k+1)!! and 1/(2(2k+3)): j_k(x) = x^k/(2k+1)!!·(1 − x²/(2(2k+3)) + O(x⁴)).
_JN_LEAD = 1.0 / np.cumprod(_ODD[:_NODES])[:, None]
_JN_NEXT = 1.0 / (2.0 * _ODD[1:_NODES + 1])
#: 1/(2m+3)!: 1 − j₀(x) = x²·Σ_m (−x²)^m/(2m+3)!, to 5e-17 relative for x < 1.
_J0_DEFICIT = np.array([1.0 / math.factorial(2 * m + 3) for m in range(8)])
#: ln P at and above which it is taken from the deficit u (P ≥ ½), below from x.
_DEFICIT_FLOOR = -math.log(2.0)


class SurvivalMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    SPECTRAL_INTEGRAL = "spectral_integral"
    POLE_APPROX = "pole_approx"


@dataclass(frozen=True, eq=False)
class SurvivalSeries:
    """Amplitude sampled on a time grid, with its survival probability.

    ``probabilities`` is derived, |amplitudes|², so it always follows the
    amplitudes; for the exact methods P(0) = 1 and P ≤ 1, while the pole
    approximation starts at Z.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    method: SurvivalMethod

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        if t.ndim != 1 or a.shape != t.shape:
            raise ValueError("times and amplitudes must be 1-D and congruent")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _check_times(times, allow_negative=False) -> np.ndarray:
    """``times`` as a 1-D float array, each finite and, unless ``allow_negative``, ≥ 0.

    A refusal names the first time that breaks the rule.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    bad = ~(np.isfinite(t) & (allow_negative | (t >= 0.0)))
    if np.any(bad):
        rule = "finite" if allow_negative else "finite and non-negative"
        raise DomainError(f"times must be {rule}, got {t[bad][0]}")
    return t


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
    return _pole_pair_series(_lorentzian(coupling, bandwidth).pole_pair(_level(omega_a)), times)


def _pole_pair_series(pair, times) -> SurvivalSeries:
    """x(t) = C₁e^{−iE₁t} + C₂e^{−iE₂t} from a family's ``pole_pair``."""
    t = _check_times(times)
    e1, e2, c1, c2 = pair
    amps = c1 * np.exp(-1j * e1 * t) + c2 * np.exp(-1j * e2 * t)
    return SurvivalSeries(t, amps, SurvivalMethod.CLOSED_FORM)


def _pole_pair_log_p(pair, taus: np.ndarray) -> np.ndarray:
    """ln P of a family's ``pole_pair`` on a 1-D array of τ ≥ 0.

    Below ½ the factored form ln|C₁|² + 2·Im E₁·τ + ln|1 + r|², with r
    the decaying partner ratio, which never underflows; where P ≥ ½,
    ln|1 − u|² of the deficit u = 1 − x·e^{i·Re E₁·τ}, formed at those
    τ alone from expm1 terms (C₁ + C₂ = 1), so ln P keeps its relative
    accuracy as τ → 0.
    """
    e1, e2, c1, c2 = pair
    r = (c2 / c1) * np.exp(-1j * (e2 - e1) * taus)
    with np.errstate(divide="ignore"):  # exact amplitude zeros
        correction = np.log1p(2.0 * np.real(r) + np.abs(r) ** 2)
    out = 2.0 * math.log(abs(c1)) + 2.0 * e1.imag * taus + correction
    near = out >= _DEFICIT_FLOOR
    t = taus[near]
    out[near] = _log_abs2_one_minus(-c1 * np.expm1(e1.imag * t)
                                    - c2 * np.expm1(-1j * (e2 - e1.real) * t))
    return out


def pole_approximation(pole: PoleData, times) -> SurvivalSeries:
    """Resonance-pole term only: x = √Z·e^{−i·Re(E_pole)·t − γ₀t/2}.

    The phase is fixed to Re(E_pole)·t, which makes this the exact modulus
    of the pole's residue contribution; P(t) = Z·e^{−γ₀t}.
    """
    t = _check_times(times)
    amps = math.sqrt(pole.z_renorm) * np.exp(
        (-1j * pole.e_pole.real - 0.5 * pole.gamma0) * t
    )
    return SurvivalSeries(t, amps, SurvivalMethod.POLE_APPROX)


def spectral_density(ff: FormFactor, omega_a: float, omega) -> np.ndarray:
    """Continuum density ρ(ω) of the surviving component (array-safe).

    ρ(ω) = g²(ω) / [(ω − ω_a − Δ_R(ω))² + π²g⁴(ω)]; its integral is one
    minus the total bound-state weight.
    """
    omega_a = _level(omega_a)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    out = _rho(w - omega_a, _node_values(ff, w, 0.0))
    return out if np.ndim(omega) else float(out[0])


class _NodeValues(NamedTuple):
    """What ρ takes at the nodes lo + offsets of a block of panels, bar ω_a, one row per panel.

    Δ_R and g² at the nodes, the offsets from each panel's lower edge
    that the kernel adds to the panel's detuning, and the damping (πg²)²
    and the mask g² > 0 of :func:`_rho`.
    """

    shifts: np.ndarray
    g2: np.ndarray
    offsets: np.ndarray
    damping: np.ndarray
    positive: np.ndarray

    def rows(self, cols) -> "_NodeValues":
        """The values of the panels ``cols``."""
        return _NodeValues(*(field[cols] for field in self))


def _node_values(ff: FormFactor, lo, offsets) -> _NodeValues:
    """The :class:`_NodeValues` at the energies lo + offsets, Δ_R from one real_shift call."""
    nodes = lo + offsets
    g2 = np.asarray(ff.g2(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return _NodeValues(real_shift(ff, nodes), g2, offsets, (math.pi * g2) ** 2, g2 > 0.0)


def _cell_values(ff: FormFactor, memo: _CellMemo, lo: np.ndarray, h: np.ndarray) -> _NodeValues:
    """The :class:`_NodeValues` of the panels [lo, lo + h], the cells ``memo`` lacks from one call.

    ``memo`` keeps Δ_R and g² at the nodes by the exact (lo, h) of the
    panel, so a cell that any kernel of the coupling value took before
    gives the floats a fresh call would (Δ_R and g² of a point do not
    depend on the other points of a call); the missing cells go to one
    :func:`_node_values` call, as few as none, and into the memo.  Where
    origin + Λ·u is exact, as for a threshold at 0 and Λ = 1, a lattice
    cell has the same (lo, h) however a kernel reached it; elsewhere a
    cell that another kernel reached by other roundings is a miss.
    """
    held, rows = memo.take(lo, h)
    fresh = _node_values(ff, lo[~held, None], h[~held, None] * _GL_FRACTION)
    memo.put(lo[~held], h[~held], np.concatenate((fresh.shifts, fresh.g2), axis=1))
    shifts, g2 = np.empty((2, lo.size, _NODES))
    shifts[held], g2[held] = rows[:, :_NODES], rows[:, _NODES:]
    shifts[~held], g2[~held] = fresh.shifts, fresh.g2
    return _NodeValues(shifts, g2, h[:, None] * _GL_FRACTION, (math.pi * g2) ** 2, g2 > 0.0)


def _rho(detuning: np.ndarray, values: _NodeValues) -> np.ndarray:
    """ρ from ω − ω_a and the :class:`_NodeValues` at the same energies; zero where g² vanishes.

    The denominator is formed in place in ``detuning``, which is overwritten.
    """
    detuning -= values.shifts
    detuning *= detuning
    detuning += values.damping
    return np.divide(values.g2, detuning, out=np.zeros_like(values.g2), where=values.positive)


def _graded(p: float, finest: float, top: int):
    """Lattice points graded towards p, and the width of the cell each starts outwards.

    In lattice units, where the cells of level k are [m·2^k, (m+1)·2^k]:
    from the cells of level ``top``, every cell closer to p than half its
    width is halved, down to the level of the largest power of two at
    most ``finest``.  The points are the edges of the cells left.  Above
    p the cells of level k start at up_k, the first multiple of 2^k at
    least 2^(k−1) above p, one or two of them up to up_{k+1}; below p
    likewise down to down_k; the finest cells fill the span between the
    down and up of the level above them.  No cell is narrower than the
    float spacing at p, where its edges would round together.
    """
    w = 2.0 ** np.arange(math.floor(math.log2(max(finest, math.ulp(p)))), top + 1.0)
    up = np.ceil((p + 0.5 * w) / w) * w
    down = np.floor((p - 0.5 * w) / w) * w
    centre = down[1] + w[0] * np.arange((up[1] - down[1]) / w[0] + 1.0)
    second = np.concatenate((up[1:-1] + w[1:-1], down[1:-1] - w[1:-1]))
    inner = np.concatenate((second[:w.size - 2] < up[2:], second[w.size - 2:] > down[2:]))
    points = np.concatenate((centre, up[1:], down[1:], second[inner]))
    steps = np.concatenate((np.full(centre.size, w[0]), w[1:], w[1:], np.tile(w[1:-1], 2)[inner]))
    return points, steps


def _grading(ff: FormFactor, omega_r: float, res: float):
    """The grading edges of the kernel's first panels, with their steps, and its window [lo, hi].

    ρ is fine-grained in two places only: the resonance near ω_r, of
    width ~res, and a finite support edge where g² vanishes (a threshold).
    Every grading edge lies on one lattice of the coupling, at
    origin + Λ·m·2^k with the origin a finite support edge (else 0), so
    that no edge depends on ω_a but through the resonance's own cells:
    the edges of the cells of :func:`_graded` around ω_r down to a width
    of res/4, around each vanishing edge down to 2^−30·Λ and around the
    coupling peak down to Λ, the finer cells of the three gradings kept
    where they overlap, so that the first panels are lattice cells too.
    Cells up to level top = ⌈log₂(R/Λ)⌉ + 1, R = 1e5·max(|ω_r|, |peak|, Λ),
    cover the window, which ends at a finite support edge and otherwise
    at the first edge at least R from 0.  Past R a Lorentzian's
    ρ ≈ λ²Λ/(πω⁴) leaves out 2λ²Λ/(3πR³) of the norm: 2e-16 at
    λ = Λ = 1 and ω_a = 0.  Where g² jumps at an edge, ρ stays bounded
    and the edge takes no grading.  Returns the edges strictly inside the
    window, sorted and distinct, each with its step s, the width of the
    finest cell it starts outwards, and the window's ends.
    """
    a, b = ff.support()
    bw = ff.bandwidth
    peak = ff.peak_energy()
    origin = a if math.isfinite(a) else b if math.isfinite(b) else 0.0
    reach = _WINDOW * max(abs(omega_r), abs(peak), bw)
    top = math.ceil(math.log2(reach / bw)) + 1
    towards = [(omega_r, _RES_FINEST * res), (peak, _PEAK_FINEST * bw)]
    towards += [(edge, _EDGE_FINEST * bw) for edge in (a, b)
                if math.isfinite(edge) and float(ff.g2(edge)) == 0.0]
    points, steps = zip(*(_graded((p - origin) / bw, finest / bw, top) for p, finest in towards))
    edges, steps = origin + bw * np.concatenate(points), bw * np.concatenate(steps)
    lo = a if math.isfinite(a) else edges[edges <= -reach].max(initial=edges.min())
    hi = b if math.isfinite(b) else edges[edges >= reach].min(initial=edges.max())
    inside = (edges > lo) & (edges < hi)
    order = np.lexsort((steps[inside], edges[inside]))
    edges, steps = edges[inside][order], steps[inside][order]
    first = np.append(True, edges[1:] != edges[:-1])
    return edges[first], steps[first], lo, hi


def _panel_edges(ff: FormFactor, omega_r: float, res: float, kinks: np.ndarray):
    """First panel edges of the spectral kernel, graded where ρ has structure.

    The edges of :func:`_grading` in its window, and ``kinks``, the
    sorted distinct kinks of g² (a table's knots), that lie there.  The
    grading's own panels next to an edge of step s are at least s/2 wide,
    so one that falls strictly inside a kink segment no wider than s/2 is
    dropped: the kinks there already grade ρ more finely, and the segment
    stays whole.  The window ends stay, and a family with fewer than two
    kinks keeps every edge.  The grading edges are merged into the sorted
    kinks, which also tells which first panels span exactly one segment
    between consecutive kinks.  Returns the edges and, per first panel,
    the index j into ``kinks`` of the segment [kinks[j], kinks[j+1]] it
    spans, its row in the segment memo, or −1 if it spans none.
    """
    others, scale, lo, hi = _grading(ff, omega_r, res)
    others, scale = np.concatenate(([lo], others, [hi])), np.concatenate(([0.0], scale, [0.0]))
    start = np.searchsorted(kinks, lo)
    kinks = kinks[start:np.searchsorted(kinks, hi, side="right")]
    # An edge on a kink is that kink; any other lies strictly inside the
    # kink segment [kinks[at − 1], kinks[at]] where 0 < at < kinks.size.
    at = np.searchsorted(kinks, others)
    known = at < kinks.size
    known[known] = kinks[at[known]] == others[known]
    held = ~known & (at > 0) & (at < kinks.size)
    held[held] = kinks[at[held]] - kinks[at[held] - 1] <= 0.5 * scale[held]
    others = others[~(known | held)]
    at = np.searchsorted(kinks, others)
    row = np.insert(np.arange(start, start + kinks.size), at, -1)
    whole = (row[:-1] >= 0) & (row[1:] >= 0)
    return np.insert(kinks, at, others), np.where(whole, row[:-1], -1)


def _segment_values(ff: FormFactor):
    """The sorted kinks of g², and the :class:`_NodeValues` of the segments between them.

    Row j holds the nodes kinks[j] + offsets[j] of the segment
    [kinks[j], kinks[j+1]], which a panel spanning exactly that segment
    samples.  Δ_R depends on g² alone, so a table's ~2·10⁴ knot segments,
    most of them whole first panels of every kernel, take their values
    once per coupling instance, not once per ω_a: the first kernel fills
    them, in chunks of segments that bound the memory of their node
    arrays, and the instance keeps them (``_level_free``; 6.6 MB for a
    20001-knot table: four float arrays and a mask).
    """
    kept = ff._level_free
    if "segments" not in kept:
        kinks = _distinct(ff.kinks())
        lo, offsets = kinks[:-1, None], np.diff(kinks)[:, None] * _GL_FRACTION
        shifts, g2, damping = np.empty((3, lo.size, _NODES))
        memo = _NodeValues(shifts, g2, offsets, damping, np.empty(g2.shape, dtype=bool))
        for rows in _chunks(lo.size):
            # The offsets field is written onto itself.
            for field, values in zip(memo, _node_values(ff, lo[rows], offsets[rows])):
                field[rows] = values
        kept["segments"] = kinks, memo
    return kept["segments"]


class _SpectralKernel(NamedTuple):
    """What x(t) needs at every t, built once per (family, ω_a), and how it was built.

    Per panel: midpoint, detuning of the midpoint from ω_a, index into the
    distinct ``widths``, and the terms h·c_k·(−i)^k as real numbers, one
    row per degree k: the even k (real) in a block, then the odd k
    (imaginary).  ``error`` is the summed panel error bound, and
    ``passes`` the bisection passes that resolved ρ after the memo fit.
    ``merged`` counts the panels that merging the whole segments
    removed, so ``merged`` + ``mids.size`` panels were built.
    ``shift_calls`` counts the :func:`~zenodecay.real_shift` calls of
    the build itself, one for ω_r and one per bisection pass (on no
    energy where the cell memo holds every cell of the pass),
    ``shift_points`` the energies whose Δ_R the build takes, ω_r and the
    nodes of every pass, from a call or from the cell memo, and
    ``memo_rows`` the whole segments served from the segment memo.  The
    cell memo counts the cells it served and those it lacked itself
    (``hits``, ``misses``), so that a kernel's fields do not depend on
    which kernels were built before it.
    """

    bound: tuple
    mids: np.ndarray
    detunings: np.ndarray
    widths: np.ndarray
    width_index: np.ndarray
    terms: np.ndarray
    error: float
    passes: int
    merged: int
    shift_calls: int
    shift_points: int
    memo_rows: int


def _kernel_uncached(ff: FormFactor, omega_a: float) -> _SpectralKernel:
    bound = find_bound_states(ff, omega_a)
    # The resonance, to first order in g²: the level plus its shift.
    omega_r = omega_a + float(real_shift(ff, omega_a))
    # Resolution unit of the resonance grading: the golden-rule width
    # πg²(ω_r), floored for a level off the support and capped at Λ/2 in
    # the broad regime, where ρ has no structure narrower than the
    # coupling scale.
    res = min(max(math.pi * float(ff.g2(omega_r)), 1e-12 * ff.bandwidth), 0.5 * ff.bandwidth)
    kinks, memo = _segment_values(ff)
    cells = ff._shift_fit.kernel_cells if ff.shift_closed_form is None else None
    edges, rows = _panel_edges(ff, omega_r, res, kinks)
    whole = rows >= 0
    rows = rows[whole]
    counts = {"shift_calls": 1, "shift_points": 1, "memo_rows": rows.size}

    def density(lo, h, values=None):
        """ρ at the nodes of the panels [lo, lo + h], one (panels, nodes) block per chunk.

        ``values`` holds the :class:`_NodeValues` of the panels where
        given, the segment memo's; else they are taken for the whole pass,
        Δ_R from one :func:`~zenodecay.real_shift` call.  Nodes are placed
        from the exact panel edge, and the detuning from ω_a is formed
        before the node is rounded: near a narrow resonance an edge or
        node off by one rounding, though far below the panel width, moves
        mass by ulp(ω)·ρ_max ~ ulp(ω)/Γ.
        """
        if values is None:
            values = (_node_values(ff, lo[:, None], h[:, None] * _GL_FRACTION) if cells is None
                      else _cell_values(ff, cells, lo, h))
            counts["shift_calls"] += 1
            counts["shift_points"] += values.shifts.size
        for cols in _chunks(lo.size):
            yield _rho((lo[cols] - omega_a)[:, None] + values.offsets[cols], values.rows(cols))

    # Each knot segment samples the nodes of its memo row, so its fit takes
    # Δ_R and g² from the memo, elementwise the same floats as calls.
    # Bisection takes the halves of the whole segments whose fit is open,
    # weighed against their bounds, with every other first panel.
    lo, hi = kinks[:-1], kinks[1:]
    coef, est, _, split = _fit(lambda lo, h: density(lo, h, memo), lo, hi)
    mid = 0.5 * (lo + hi)
    split &= (lo < mid) & (mid < hi)
    halved, kept = rows[split[rows]], rows[~split[rows]]
    *refined, passes = _refine(
        density, np.concatenate((lo[halved], mid[halved], edges[:-1][~whole])),
        np.concatenate((mid[halved], hi[halved], edges[1:][~whole])), parents=est[halved])
    # Where g² has a kink at every knot, as a table's has, ρ needs far
    # fewer panels than the knot segments the memo serves, and the sum
    # over panels pays for each at every t.
    *whole_panels, merged = _merge(kinks, kept, coef, est)
    lo, hi, coef, est = (np.concatenate(part, axis=-1) for part in zip(refined, whole_panels))
    h = hi - lo
    widths, width_index = _distinct(h, inverse=True)
    # h·c_k times the real or imaginary unit of (−i)^k, in the rows of _EVEN_ODD.
    coef *= h
    coef *= _PHASE_SIGN[:, None]
    return _SpectralKernel(
        bound=bound,
        mids=0.5 * (lo + hi),
        detunings=(lo - omega_a) + 0.5 * h,
        widths=widths,
        # intp, which ``take`` uses as it is; an int32 index it converts at every call.
        width_index=width_index,
        terms=coef[_EVEN_ODD],
        error=float(np.sum(est)),
        passes=passes,
        merged=merged,
        **counts,
    )


# A table kernel holds ~0.2 MB once merged (1833–2458 panels over
# ω_a ∈ [1.5, 8], median 1872; ~2 MB unmerged) and, with its segment
# memo, rebuilds in 7–12 ms (quartiles): the memo fit of its knot
# segments, their merge over the segment tree and the bisection of the
# rest (20001 knots, one core of a shared 2-core Xeon), so the cache
# keeps only the two models a caller works through at once.  Each keeps
# its coupling alive, and with a table the 6.6 MB memo the table holds.
_kernel_cached = lru_cache(maxsize=2)(_kernel_uncached)


def _spectral_kernel(ff: FormFactor, omega_a: float) -> _SpectralKernel:
    return _memoized(_kernel_cached, ff, omega_a)


def _jn_series(x: np.ndarray) -> np.ndarray:
    """j_k(x) for x < 10⁻⁴ from the series, all k at once; the x⁴ term is below 1e-18."""
    out = np.empty((_NODES, x.size))
    out[0] = 1.0
    out[1:] = x
    np.multiply.accumulate(out, axis=0, out=out)  # x^k
    out *= _JN_LEAD
    out *= 1.0 - (x * x) * _JN_NEXT
    return out


def _jn_miller(x: np.ndarray) -> np.ndarray:
    """j_k(x) for 10⁻⁴ ≤ x ≤ 9 by Miller's backward recurrence.

    f_{k−1} = (2k+1)/x·f_k − f_{k+1} runs down from f_N = 10⁻¹⁰⁰,
    f_{N+1} = 0 at the fixed order N = 24 (Gautschi, SIAM Rev. 9, 24
    (1967)), and the sum rule Σ(2k+1)j_k² = 1 fixes the scale.  The sign
    needs no check: f_k = λ·(j_k − (j_{N+1}/y_{N+1})·y_k) with
    λ = −x²·f_N·y_{N+1}(x) > 0 for x < N.  The rule is summed by
    pairwise folds of the rows, so every x gets the same additions
    however many share the call.
    """
    f = np.zeros((_ODD.size, x.size))
    rows = list(f)
    scale = list(_ODD[: _JN_MILLER_START + 1] / x)
    rows[_JN_MILLER_START][:] = 1e-100
    for k in range(_JN_MILLER_START, 0, -1):
        np.multiply(scale[k], rows[k], out=rows[k - 1])
        rows[k - 1] -= rows[k + 1]
    norm = f * f
    norm *= _ODD
    while norm.shape[0] > 1:
        half = norm.shape[0] // 2
        norm = norm[:half] + norm[half:]
    jn = f[:_NODES]
    jn /= np.sqrt(norm[0])
    return jn


def _jn_upward(x: np.ndarray) -> np.ndarray:
    """j_k(x) for x > 9, where every k < x, by the upward recurrence from j₀ and j₁.

    j_{k+1} = ((2k+1)·j_k)/x − j_{k−1}, which loses digits only at k ≥ x.
    """
    out = np.empty((_NODES, x.size))
    rows = list(out)
    np.divide(np.sin(x), x, out=rows[0])
    np.subtract(rows[0], np.cos(x), out=rows[1])
    rows[1] /= x
    for k in range(1, _NODES - 1):
        np.multiply(_ODD[k, 0], rows[k], out=rows[k + 1])
        rows[k + 1] /= x
        rows[k + 1] -= rows[k - 1]
    return out


def _jn_table(x: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_k(x), k = 0 … 9, at x ≥ 0: (10, x.size).

    Each x takes one route for all its rows, chosen from its own value:
    the series below 10⁻⁴, Miller's recurrence up to 9 and the upward
    recurrence above, where every k < x.  Every step is elementwise, so
    a column does not depend on which other arguments share the call.
    """
    out = np.empty((_NODES, x.size))
    route = (x >= _JN_SERIES_BELOW).astype(int) + (x > _NODES - 1)
    for n, jn in enumerate((_jn_series, _jn_miller, _jn_upward)):
        cols = np.flatnonzero(route == n)
        if cols.size:
            out[:, cols] = jn(x[cols])
    return out


def _continuum(k: _SpectralKernel, ts: np.ndarray, j: np.ndarray) -> np.ndarray:
    """∫ρ(ω)e^{−iωt}dω over the kernel's panels (Filon–Legendre, exact in t).

    ``j`` holds j_k(t·h/2) for each k in the order of _EVEN_ODD (blocks),
    time of ``ts`` (rows) and panel (columns).  Every step is elementwise
    until one fixed-order sum over the panels per time, so a value does
    not depend on which other times share the call.
    """
    series = np.empty(j.shape[1:], dtype=complex)
    np.einsum("kp,ktp->tp", k.terms[:_HALF], j[:_HALF], out=series.real)
    np.einsum("kp,ktp->tp", k.terms[_HALF:], j[_HALF:], out=series.imag)
    return np.sum(np.exp(np.multiply.outer(-1j * ts, k.mids)) * series, axis=1)


def _deficit(k: _SpectralKernel, omega_a: float, ts, j, x, j0) -> np.ndarray:
    """u(t) = 1 − e^{iω_a t}·x(t) over the kernel's panels, free of cancellation as t → 0.

    ``j`` holds the j_k of :func:`_continuum`; ``x`` holds their arguments
    t·h/2 and ``j0`` j₀(x), one row per time of ``ts`` and one column per
    distinct width.  With the sum rule Σ h·c₀ + Σ_b w_b = 1, a panel
    detuned by δ from ω_a adds
    h·c₀·[(1 − j₀) − j₀·expm1(−iδt)] − e^{−iδt}·Σ_{k≥1} h·c_k(−i)^k j_k
    and a bound state w_b·(−expm1(−i(E_b − ω_a)t)), so u(0) = 0 exactly;
    1 − j₀ takes its series below x = 1.  Every step is elementwise until one sum
    over the panels per time, so u(t) does not depend on the other times.
    """
    y = np.minimum(x, 1.0) ** 2
    one_minus_j0 = np.where(x < 1.0, y * np.polynomial.polynomial.polyval(-y, _J0_DEFICIT),
                            1.0 - j0)[:, k.width_index]
    even = sum(k.terms[n] * j[n] for n in range(1, _HALF))
    odd = sum(k.terms[n] * j[n] for n in range(_HALF, _NODES))
    # expm1(−iδt) = c − i·s with c = −2 sin²(δt/2), s = sin δt.
    phase = np.multiply.outer(ts, k.detunings)
    c = -2.0 * np.sin(0.5 * phase) ** 2
    s = np.sin(phase)
    re = k.terms[0] * (one_minus_j0 - j[0] * c) - (1.0 + c) * even - s * odd
    im = k.terms[0] * j[0] * s - (1.0 + c) * odd + s * even
    u = re.sum(axis=1) + 1j * im.sum(axis=1)
    return u - sum(bs.weight * np.expm1(-1j * (bs.energy - omega_a) * ts) for bs in k.bound)


def _log_abs2(x: np.ndarray) -> np.ndarray:
    """ln|x|², −inf at an exact zero."""
    with np.errstate(divide="ignore"):
        return np.log(x.real * x.real + x.imag * x.imag)


def _log_abs2_one_minus(u: np.ndarray) -> np.ndarray:
    """ln|1 − u|² = log1p(−2 Re u + |u|²), free of cancellation as u → 0."""
    return np.log1p(-2.0 * u.real + (u.real * u.real + u.imag * u.imag))


def _spectral_amplitudes(ff: FormFactor, omega_a: float, times, log_p: bool = False):
    """x(t) on the panels at a 1-D array of finite t, or with ``log_p`` ln P(|t|) in place of x.

    The body of :func:`survival_spectral_integral`, which checks t and a
    finite float ω_a, as :class:`~zenodecay.model.DecayModel` does for
    its ln P; this layer takes both as checked.  ln P is ln|x|², or
    where that is at least ln ½, ln|1 − u|² of the deficit
    u = 1 − e^{iω_a t}·x(t), summed at those times alone.  Raises as that
    function does, a :class:`~zenodecay.errors.ToleranceError` with what
    this would return as its ``value``.
    """
    if ff.g2_integral() == 0.0:
        raise NoDecayError("zero coupling: the spectral density is empty")
    k = _spectral_kernel(ff, omega_a)

    vals = np.empty(times.shape, dtype=float if log_p else complex)
    t_abs = np.abs(times)
    # Chunks of times whose table holds up to _JN_CHUNK arguments, in runs
    # of times whose panel arrays hold up to _JN_CHUNK values.
    rows = max(1, _JN_CHUNK // k.mids.size)
    step = rows * max(1, _JN_CHUNK // (k.widths.size * rows))
    for start in range(0, t_abs.size, step):
        args = (0.5 * t_abs[start:start + step])[:, None] * k.widths
        jn = _jn_table(args.ravel())[_EVEN_ODD].reshape(_NODES, args.shape[0], -1)
        for i in range(0, args.shape[0], rows):
            out, part = slice(start + i, start + i + rows), slice(i, i + rows)
            j = jn[:, part].take(k.width_index, axis=2)
            x = _continuum(k, t_abs[out], j)
            for bs in k.bound:
                x += bs.weight * np.exp(-1j * bs.energy * t_abs[out])
            if not log_p:
                vals[out] = x
                continue
            # Rows are independent, so u of the rows that use it is the u
            # of a call at every time.
            logs = _log_abs2(x)
            near = np.flatnonzero(logs >= _DEFICIT_FLOOR)
            if near.size:
                if near[-1] - near[0] + 1 == near.size:  # one run: views, not copies
                    near = slice(near[0], near[-1] + 1)
                logs[near] = _log_abs2_one_minus(_deficit(
                    k, omega_a, t_abs[out][near], j[:, near], args[part][near], jn[0, part][near]))
            vals[out] = logs
    if not log_p:
        # ρ is real, so x(−t) = conj x(t).
        vals = np.where(times < 0, np.conj(vals), vals)

    if k.error > SPECTRAL_TOL:
        raise ToleranceError(
            f"spectral panels achieved {k.error:.3e}, above the target {SPECTRAL_TOL:.3e}",
            value=vals,
            achieved=k.error,
            requested=SPECTRAL_TOL,
        )
    return vals


def survival_spectral_integral(ff: FormFactor, omega_a: float, times) -> SurvivalSeries:
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

    Notes
    -----
    What does not depend on t is built once per (family, omega_a) pair,
    by the first call at that pair: the bound states and a fixed set of
    panels over the support, with the Legendre coefficients of ρ on
    each, kept for the last two pairs (an unhashable custom family
    builds them at every call).  The values ρ takes from g² alone at the
    nodes of the segments between consecutive kinks of g² are built once
    per coupling instance, by its first kernel, and the instance keeps
    them; a family that fits its g² keeps Δ_R and g² at the nodes of the
    last 4096 lattice cells its kernels took on that fit, which equal
    instances share.  The module docstring gives the recipe.  Every t is then one
    sum over the panels, exact for the fitted polynomials, and every
    step is elementwise until that sum, so a time's value does not
    depend on the others in the call.  A panel's fit is resolved where
    h·(|c_{N−2}| + |c_{N−1}|) is below max(1e−14, 1e−11·panel mass);
    the sum of the panels' bounds is the achieved error, the same for
    every t.  The panel sum is the only route at every t: late times
    keep the non-exponential tail that departs from the pole term
    Z·e^{−γ₀t}, and a table, which has no pole, is evaluated like any
    other family.  Only the rounding of the phases t·ω grows with t.

    Raises
    ------
    DomainError
        omega_a or a time not finite; both are checked here, once, before
        the panels are built or summed.
    NoDecayError
        Zero coupling (the spectral density is empty).
    ToleranceError
        Summed panel error bound above ``SPECTRAL_TOL`` (1e−8).
    """
    times = _check_times(times, allow_negative=True)
    amps = _spectral_amplitudes(ff, _level(omega_a), times)
    return SurvivalSeries(times, amps, SurvivalMethod.SPECTRAL_INTEGRAL)
