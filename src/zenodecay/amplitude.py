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
    laid out by one rule for every family: first edges graded in powers
    of two towards the resonance ω_a + Δ_R(ω_a) and towards a band edge
    where g² vanishes, plus the coupling peak and the kinks of g², where
    a grading edge that falls strictly inside a kink segment no wider
    than half its step is left out, since the kinks grade ρ there.  ρ is
    sampled at Gauss–Legendre nodes on each panel with the exact level
    shift Δ_R at every node (a table sums its one logarithm per knot by a
    tree built once per table, exactly over at most 12 near knots, and
    keeps Δ_R, g², the node offsets, (πg²)² and the mask g² > 0 at the
    nodes of its knot segments for every ω_a, 6.6 MB for 20001 knots;
    any other family without a closed form takes the Hilbert transform
    of its g² fit, built once per coupling value and shared by equal
    instances) and stored as Legendre
    coefficients.  Their Fourier transforms are spherical Bessel functions
    (the Filon–Legendre rule), exact in t for the fitted polynomials, so
    every t uses the same coefficients.  First every segment between
    consecutive kinks of g² is fitted in one pass from the memo, with ρ
    formed in place from its arrays and the segment's detuning alone.
    The whole segments, first panels that span
    exactly one segment (a table's knot segments, most of its panels,
    though ρ needs about a tenth of them), are merged where their fit is
    resolved, over a segment tree of the table: node j of level L spans
    the segments [j·2^L, (j+1)·2^L) and takes the L2 projection of its two
    children's fits onto one panel, and it is kept where both children are
    and that panel passes the bisection's own rule.  Every other first
    panel, and the halves of each whole segment whose fit is open, is
    bisected until the fit is resolved, with one Δ_R call per pass.  A
    kernel without kinks takes only that route.  The summed
    truncation bound is the achieved error for every t at once, and there
    is no late-time fallback to the pole term.  The same panels and j_k
    give the deficit u(t) = 1 − e^{iω_a t}·x(t) free of cancellation as
    t → 0 (expm1 of each panel's detuning from ω_a, a series for 1 − j₀),
    from which ln P is formed where P ≥ ½; u is summed only at those
    times.

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

from ._panels import _DEGREES, _GL_FRACTION, _NODES, _chunks, _fit, _memoized, _merge, _refine
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
#: First edges at the coupling peak plus these multiples of Λ.
_PEAK_OFFSETS = np.array([-30.0, -10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0, 30.0])
#: First edges at these multiples of Λ from a support edge where g² vanishes.
_EDGE_STEPS = 2.0 ** -np.arange(1.0, 31.0)

#: The spherical-Bessel table j_k(x), k < _NODES: where x > k, the upward
#: recurrence from j₀ = sin x/x and j₁, with the operations in the order
#: of scipy's ``spherical_jn``, so those entries are the same floats (the
#: late-time γ(τ) of a threshold family beats through γ₀, and which sign
#: change a search lands on follows its last bits); where x ≤ k, two terms
#: of the power series below _JN_SERIES_BELOW and Miller's backward
#: recurrence from order _JN_MILLER_START above, within 2.3e-16 of j_k.
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
    g2 = np.atleast_1d(np.asarray(ff.g2(w), dtype=float))
    out = _rho(w - omega_a, g2, real_shift(ff, w))
    return out if np.ndim(omega) else float(out[0])


def _rho(detuning: np.ndarray, g2: np.ndarray, shift: np.ndarray, damping=None,
         positive=None) -> np.ndarray:
    """ρ from ω − ω_a, g² and Δ_R at the same energies; zero where g² vanishes.

    The denominator is formed in place in ``detuning``, which is
    overwritten.  ``damping``, (πg²)², and ``positive``, the mask g² > 0,
    are formed from ``g2`` unless given: a caller that keeps them passes
    the same floats.
    """
    detuning -= shift
    detuning *= detuning
    detuning += (math.pi * g2) ** 2 if damping is None else damping
    return np.divide(g2, detuning, out=np.zeros_like(g2),
                     where=g2 > 0.0 if positive is None else positive)


def _panel_edges(ff: FormFactor, omega_r: float, res: float, kinks: np.ndarray):
    """First panel edges of the spectral kernel, graded where ρ has structure.

    ρ is fine-grained in two places only: the resonance near ω_r, of
    width ~res, and a finite support edge where g² vanishes (a threshold).
    Edges go at ω_r ± res·2^k for k ≥ −3 out to the window, which ends
    at a finite support edge and otherwise at ±R, R = 1e5·max(|ω_r|,
    |peak|, Λ); at Λ·2^−k, k = 1 … 30, from each vanishing edge; at the
    coupling peak and peak ± {1, 3, 10, 30}·Λ; and at ``kinks``, the
    sorted distinct kinks of g².  Where g² jumps at an edge, ρ stays
    bounded and the edge takes no grading.  Past R a Lorentzian's ρ ≈ λ²Λ/(πω⁴) leaves out
    2λ²Λ/(3πR³) of the norm: 2e-16 at λ = Λ = 1 and ω_a = 0, where a
    window of 1e4·max(…) would take 4e-13 off P(0).  Every kink in the
    window is an edge.  Each grading edge carries its step s: res·2^k,
    |offset|·Λ or Λ·2^−k.  The grading's own panels next to it are at
    least s/2 wide, so one that falls strictly inside a kink segment no
    wider than s/2 is dropped: the kinks there already grade ρ more
    finely, and the segment stays whole.  The window ends and the peak
    stay, and a family with fewer than two kinks keeps every edge.  The
    few other edges are merged into the sorted kinks, which also tells
    which first panels span exactly one segment between consecutive
    kinks.  Returns the edges and, per first panel, the index j into
    ``kinks`` of the segment [kinks[j], kinks[j+1]] it spans, its row in
    the segment memo, or −1 if it spans none.
    """
    a, b = ff.support()
    bw = ff.bandwidth
    peak = ff.peak_energy()
    reach = _WINDOW * max(abs(omega_r), abs(peak), bw)
    lo = a if math.isfinite(a) else -reach
    hi = b if math.isfinite(b) else reach
    steps = res * 2.0 ** np.arange(-3.0, 2.0 + math.log2(reach / res))
    parts = [omega_r - steps, omega_r + steps, peak + bw * _PEAK_OFFSETS, [lo, hi]]
    scales = [steps, steps, bw * np.abs(_PEAK_OFFSETS), [0.0, 0.0]]
    for edge, inward in ((a, 1.0), (b, -1.0)):
        if math.isfinite(edge) and float(ff.g2(edge)) == 0.0:
            parts.append(edge + inward * bw * _EDGE_STEPS)
            scales.append(bw * _EDGE_STEPS)
    others, scale = np.concatenate(parts), np.concatenate(scales)
    inside = (others >= lo) & (others <= hi)
    others, scale = others[inside], scale[inside]
    start = np.searchsorted(kinks, lo)
    kinks = kinks[start:np.searchsorted(kinks, hi, side="right")]
    # An edge on a kink is that kink; any other lies strictly inside the
    # kink segment [kinks[at − 1], kinks[at]] where 0 < at < kinks.size.
    at = np.searchsorted(kinks, others)
    known = at < kinks.size
    known[known] = kinks[at[known]] == others[known]
    held = ~known & (at > 0) & (at < kinks.size)
    held[held] = kinks[at[held]] - kinks[at[held] - 1] <= 0.5 * scale[held]
    others = np.unique(others[~(known | held)])
    at = np.searchsorted(kinks, others)
    row = np.insert(np.arange(start, start + kinks.size), at, -1)
    whole = (row[:-1] >= 0) & (row[1:] >= 0)
    return np.insert(kinks, at, others), np.where(whole, row[:-1], -1)


class _SegmentMemo(NamedTuple):
    """What ρ takes at the nodes of every segment between consecutive kinks of g², bar ω_a.

    Row j holds, at the nodes kinks[j] + offsets[j] of the segment
    [kinks[j], kinks[j+1]], which a panel spanning exactly that segment
    samples: Δ_R, g², the offsets (kinks[j+1] − kinks[j])·_GL_FRACTION
    that the kernel adds to the segment's detuning, and the damping
    (πg²)² and the mask g² > 0 of :func:`_rho`.
    """

    shifts: np.ndarray
    g2: np.ndarray
    offsets: np.ndarray
    damping: np.ndarray
    positive: np.ndarray


def _segment_shifts_uncached(ff: FormFactor):
    """The sorted kinks of g², and the :class:`_SegmentMemo` of the segments between them.

    The node arrays are filled in chunks of segments to bound their memory.
    """
    kinks = np.unique(ff.kinks())
    lo = kinks[:-1, None]
    offsets = np.diff(kinks)[:, None] * _GL_FRACTION
    shifts, g2 = np.empty((2, lo.size, _NODES))
    for rows in _chunks(lo.size):
        nodes = lo[rows] + offsets[rows]
        shifts[rows] = real_shift(ff, nodes)
        g2[rows] = np.asarray(ff.g2(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return kinks, _SegmentMemo(shifts, g2, offsets, (math.pi * g2) ** 2, g2 > 0.0)


# Δ_R depends on g² alone, so a table's ~2·10⁴ knot segments, most of
# them whole first panels of every kernel, take their node shifts and g²,
# and the node offsets, (πg²)² and g² > 0 that ρ forms from them, once
# per table (6.6 MB for 20001 knots: four float arrays and a mask), not
# once per ω_a.
_segment_shifts = lru_cache(maxsize=1)(_segment_shifts_uncached)


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
    the build itself, one for ω_r and one per bisection pass,
    ``shift_points`` the energies they cover, and ``memo_rows`` the
    whole segments served from the segment memo.
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
    # A family with fewer than two kinks has no segments, and its empty
    # memo leaves a table's memo in the cache.
    kinks, memo = (_memoized(_segment_shifts, ff) if np.size(ff.kinks()) > 1
                   else _segment_shifts_uncached(ff))
    edges, rows = _panel_edges(ff, omega_r, res, kinks)
    whole = rows >= 0
    rows = rows[whole]
    counts = {"shift_calls": 1, "shift_points": 1, "memo_rows": rows.size}

    def density(lo, h, memo=None):
        """ρ at the nodes of the panels [lo, lo + h], one (panels, nodes) block per chunk.

        The panels are the segments of the :class:`_SegmentMemo` ``memo``
        where given, which serves Δ_R, g² and the rest; else Δ_R comes
        from one :func:`~zenodecay.real_shift` call for the whole pass and
        g² from one call per chunk.  Nodes are placed from the exact panel
        edge, and the detuning from ω_a is formed before the node is
        rounded: near a narrow resonance an edge or node off by one
        rounding, though far below the panel width, moves mass by
        ulp(ω)·ρ_max ~ ulp(ω)/Γ.
        """
        if memo is not None:
            for cols in _chunks(lo.size):
                yield _rho((lo[cols] - omega_a)[:, None] + memo.offsets[cols], memo.g2[cols],
                           memo.shifts[cols], memo.damping[cols], memo.positive[cols])
            return
        shift = real_shift(ff, lo[:, None] + h[:, None] * _GL_FRACTION)
        counts["shift_calls"] += 1
        counts["shift_points"] += shift.size
        for cols in _chunks(lo.size):
            offset = h[cols, None] * _GL_FRACTION
            g2 = np.asarray(ff.g2((lo[cols, None] + offset).ravel()),
                            dtype=float).reshape(offset.shape)
            yield _rho((lo[cols] - omega_a)[:, None] + offset, g2, shift[cols])

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
    widths, width_index = np.unique(h, return_inverse=True)
    # h·c_k times the real or imaginary unit of (−i)^k, in the rows of _EVEN_ODD.
    coef *= h
    coef *= _PHASE_SIGN[:, None]
    return _SpectralKernel(
        bound=bound,
        mids=0.5 * (lo + hi),
        detunings=(lo - omega_a) + 0.5 * h,
        widths=widths,
        # int32 keeps the index of a table kernel (~2·10³ panels after the
        # merge, of ~2·10⁴ built) small.
        width_index=width_index.astype(np.int32),
        terms=coef[_EVEN_ODD],
        error=float(np.sum(est)),
        passes=passes,
        merged=merged,
        **counts,
    )


# A table kernel holds ~0.2 MB once merged (1910–2450 panels; ~2 MB
# unmerged) and, with its segment memo, rebuilds in 7–9 ms: the memo
# fit of its knot segments, their merge over the segment tree and the
# bisection of the rest (20001 knots, ω_a ∈ [1.7, 7.3], one core of a
# 2-core Xeon), so the cache keeps only the two models a caller works
# through at once, which leaves room for the 6.6 MB memo.
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
    """j_k(x) for x > 1 by the upward recurrence from j₀ and j₁.

    j_{k+1} = ((2k+1)·j_k)/x − j_{k−1}: multiply, divide, subtract, in
    that order.  Rows k ≥ x lose digits and are not used.
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

    j₀ and the j_k with k < x take the upward recurrence; the j_k with
    k ≥ x take the series or Miller's recurrence.  Each x takes its
    routes from its own value, and every step is elementwise, so a
    column does not depend on which other arguments share the call.
    """
    out = np.empty((_NODES, x.size))
    series = np.flatnonzero(x < _JN_SERIES_BELOW)
    miller = np.flatnonzero((x >= _JN_SERIES_BELOW) & (x <= _NODES - 1))
    upward = np.flatnonzero(x > 1.0)
    head = np.flatnonzero((x > 0.0) & (x <= 1.0))
    if series.size:
        out[:, series] = _jn_series(x[series])
    if miller.size:
        out[:, miller] = _jn_miller(x[miller])
    if upward.size:
        xu = x[upward]
        out[:, upward] = np.where(_DEGREES[:, None] < xu, _jn_upward(xu), out[:, upward])
    if head.size:
        out[0, head] = np.sin(x[head]) / x[head]
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
    Everything that does not depend on t is built once per
    (family, omega_a) pair and memoized: bound states and a fixed set of
    panels over the support.  Their first edges are graded in powers of
    two towards the resonance ω_a + Δ_R(ω_a), from an eighth of its
    width out to 1e5 times the model's energy scale, and towards a band
    edge where g² vanishes, from Λ/2 down to 2^−30·Λ; the coupling peak
    and a few bandwidths around it and the kinks of g² (a table's knots)
    are edges too.  A grading edge of step s (the distance res·2^k,
    |offset|·Λ or Λ·2^−k it was placed at) that falls strictly inside a
    kink segment no wider than s/2 is left out: the grading's panels
    there are at least s/2 wide, so the kinks are finer, and the segment
    stays whole.  A family with fewer than two kinks keeps every edge.
    On each panel ρ is sampled at 10 Gauss–Legendre nodes with the exact
    level shift of :func:`~zenodecay.real_shift` at every node (a
    table's by the tree sum of its knot logarithms, each point summing
    the at most 12 knots of its leaf's near zone exactly, see
    :meth:`~zenodecay.TabulatedCoupling.shift_closed_form`; another
    family's from its g² fit) and stored as Legendre coefficients c_k.
    A fit is resolved where h·(|c_{N−2}| + |c_{N−1}|) is below
    max(1e−14, 1e−11·panel mass).  Δ_R depends on g² alone, so the
    shifts and g² at the nodes of every segment between consecutive kinks
    of g², with the nodes' offsets from the segment's lower edge, (πg²)²
    and the mask g² > 0, are memoized once per family (the last one
    used; 6.6 MB for a 20001-knot table), and every segment is fitted
    first, in one pass, from the memo, which leaves only the detuning
    from ω_a to add.  The
    whole segments are the first panels that are exactly such a segment
    (most panels of a table at any ω_a).  Every other first panel, and
    the two halves of each whole segment whose fit is not resolved, is
    bisected until its fit is, each pass taking Δ_R from one
    :func:`~zenodecay.real_shift` call.  The values are the same floats
    either way, and the panels' node arrays are filled in chunks of 2048
    panels.  The resolved whole segments are then merged over a segment
    tree of the family's kinks: node j of level L spans the segments
    [j·2^L, (j+1)·2^L), its coefficients are the exact L2 projection of
    its two children's fitted polynomials, formed a level at a time, and
    it is kept where both children are kept and its own bound passes the
    same rule.  The panels are the kept nodes with no kept parent, each
    with its own bound.  The projection keeps every moment of ρ below
    degree 10, so the panel mass, P(0) and the short-time deficit.  A
    table's ~2·10⁴ knot segments merge into ~2·10³ panels; a kernel
    without kinks (Lorentzian, power laws) has no whole segments and is
    only bisected.
    A panel of width h around ω_c then contributes, exactly for the
    fitted polynomial,

        ∫ ρ e^{−iωt} dω = h·e^{−iω_c t}·Σ_k c_k (−i)^k j_k(th/2),

    so every t costs one sum over panels.  Times go through in chunks,
    each with one table of the j_k, one column per time and distinct
    panel width (``_jn_table``: the upward recurrence where the argument
    exceeds the order, the series or Miller's backward recurrence
    elsewhere), and with panel arrays of one row per time: the j_k of
    each panel, read from the table by one ``take`` with the even k in
    one contiguous block and the odd k in another, meet the even-k
    (real) and odd-k (imaginary) blocks of h·c_k(−i)^k.  Every step is
    elementwise until the sum over panels, so a time's value does not
    depend on the others in the call.  The sum of the panels' bounds is
    the achieved error, the same for every t.
    The panel sum is the only route at every t: late times keep the
    non-exponential tail that departs from the pole term Z·e^{−γ₀t},
    and a table, which has no pole, is evaluated like any other family.
    Only the rounding of the phases t·ω grows with t.

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
