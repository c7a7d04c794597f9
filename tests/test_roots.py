"""The bracketing root solver: one bracket, many brackets, edge cases.

``scipy.optimize.brentq`` is the oracle: the solver takes its steps, so
on the same function it must return the same float.
"""

import math

import numpy as np
import pytest

from zenodecay._roots import bracketed_roots
from zenodecay.errors import ConvergenceError


def _wavy(x):
    return np.sin(5.0 * x) + 0.3 * x - 0.1


def test_one_bracket_matches_brentq():
    optimize = pytest.importorskip("scipy.optimize")
    for f, lo, hi in ((lambda x: np.cos(x) - x, 0.0, 1.0),
                      (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
                      (lambda x: np.tanh(20.0 * (x - 0.37)), -3.0, 2.5)):
        for xtol, rtol in ((1e-14, 8.9e-16), (1e-300, 1e-12), (1e-6, 1e-8)):
            expected = optimize.brentq(lambda x: float(f(np.array([x]))[0]), lo, hi,
                                       xtol=xtol, rtol=rtol)
            assert bracketed_roots(f, lo, hi, xtol=xtol, rtol=rtol).tolist() == [expected]


def test_many_brackets_at_once_match_one_at_a_time():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    lo, hi = rng.uniform(-3.0, 0.3, 200), rng.uniform(0.31, 3.0, 200)
    keep = _wavy(lo) * _wavy(hi) < 0.0
    lo, hi = lo[keep], hi[keep]
    calls = []

    def counted(x):
        calls.append(x.size)
        return _wavy(x)

    roots = bracketed_roots(counted, lo, hi, xtol=1e-14, rtol=8.9e-16)
    expected = [optimize.brentq(lambda x: float(_wavy(np.array([x]))[0]), a, b,
                                xtol=1e-14, rtol=8.9e-16) for a, b in zip(lo, hi)]
    assert lo.size > 50 and roots.tolist() == expected
    # One call per iteration for all open brackets, each shrinking.
    assert len(calls) < 40 and calls[0] == lo.size
    assert all(b <= a for a, b in zip(calls[2:], calls[3:]))
    assert np.all(np.abs(_wavy(roots)) < 1e-13)


def test_interpolation_within_delta_of_the_bracket_bisects():
    # x² − 1.35 on [0, 2] with xtol = 0.1: the second step's inverse
    # quadratic step stry = 0.9907 from xcur = 0.675 has
    # 3|sbis| − delta = 1.9375 ≤ 2|stry| = 1.9813 < 3|sbis| = 1.9875, with
    # delta = 0.05 and |spre| = 2, so brentq's acceptance test
    # 2|stry| < min(|spre|, 3|sbis| − delta) turns it down and bisects.
    # Taking the step instead ends on another root, 1.1725.
    optimize = pytest.importorskip("scipy.optimize")

    def f(x):
        return x * x - 1.35

    expected = optimize.brentq(f, 0.0, 2.0, xtol=0.1, rtol=8.9e-16)
    assert bracketed_roots(f, 0.0, 2.0, xtol=0.1, rtol=8.9e-16).tolist() == [expected]
    assert abs(expected - 1.16941) < 1e-5


def test_root_at_a_bracket_end():
    def f(x):
        return x - 1.0

    assert bracketed_roots(f, 1.0, 2.0, xtol=1e-12, rtol=0.0).tolist() == [1.0]
    assert bracketed_roots(f, 0.0, 1.0, xtol=1e-12, rtol=0.0).tolist() == [1.0]
    # Mixed: zero ends and open brackets in one call, order kept.
    roots = bracketed_roots(f, [1.0, 0.5, -1.0], [3.0, 1.5, 1.0], xtol=1e-14, rtol=0.0)
    assert roots.tolist() == [1.0, 1.0, 1.0]


def test_sign_change_without_a_zero():
    def step(x):
        return np.where(x < 0.3, -1.0, 1.0)

    def pole(x):
        return 1.0 / (x - 0.3 - 1e-9)

    for f in (step, pole):
        root = bracketed_roots(f, 0.0, 1.0, xtol=1e-12, rtol=0.0)[0]
        assert abs(root - 0.3) < 2e-9


def test_same_signs_and_nan_are_refused():
    with pytest.raises(ValueError):
        bracketed_roots(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=0.0)
    with pytest.raises(ValueError):
        bracketed_roots(lambda x: x, [-1.0, 1.0], [1.0, 2.0], xtol=1e-12, rtol=0.0)
    with pytest.raises(ValueError):
        bracketed_roots(lambda x: x, -1.0, 1.0, xtol=1e-12, rtol=0.0, f_lo=math.nan)


def test_unconverged_bracket_raises():
    # A triple root flattens f to below rounding over a wide neighbourhood;
    # 100 steps do not close the bracket, for brentq either.
    with pytest.raises(ConvergenceError):
        bracketed_roots(lambda x: (x - 0.5) ** 3, 0.1, 2.0, xtol=1e-14, rtol=8.9e-16)


def _random_function(rng):
    """A smooth f that is elementwise in x: a polynomial of degree 1 to 7 or a sum of sines."""
    if rng.random() < 0.5:
        coef = rng.normal(size=rng.integers(2, 9))
        return lambda x: np.polynomial.polynomial.polyval(x, coef)
    amp, freq, phase = rng.normal(size=(3, rng.integers(1, 5)))
    freq *= 4.0
    shift = rng.normal(scale=0.3)

    def f(x):
        out = np.full(np.shape(x), shift)
        for a, b, c in zip(amp, freq, phase):
            out += a * np.sin(b * x + c)
        return out
    return f


@pytest.mark.parametrize("xtol, rtol", [(1e-300, 1e-12), (1e-14, 8.9e-16), (1e-15, 1e-15)])
def test_random_functions_match_brentq_alone_and_in_a_batch(xtol, rtol):
    # A few hundred smooth f, each bracketed at the sign changes of a
    # coarse grid: every root, found alone or with the others of its f in
    # one call, is brentq's float.
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(20061)
    roots_seen = 0
    for _ in range(300):
        f = _random_function(rng)
        grid = np.sort(rng.uniform(-3.0, 3.0, 24))
        values = f(grid)
        at = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        if not at.size:
            continue
        lo, hi = grid[at], grid[at + 1]
        expected = [optimize.brentq(lambda x: float(f(np.array([x]))[0]), a, b,
                                    xtol=xtol, rtol=rtol) for a, b in zip(lo, hi)]
        alone = [bracketed_roots(f, a, b, xtol=xtol, rtol=rtol)[0] for a, b in zip(lo, hi)]
        assert alone == expected
        assert bracketed_roots(f, lo, hi, xtol=xtol, rtol=rtol).tolist() == expected
        roots_seen += at.size
    assert roots_seen > 300
