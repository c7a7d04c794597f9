"""Exception hierarchy for the zenodecay package.

All package-specific failures derive from :class:`ZenoDecayError` so that
callers can catch everything from this library with a single clause while
still being able to distinguish configuration problems, numerical failures,
and genuinely undefined requests.
"""

from __future__ import annotations

__all__ = [
    "ZenoDecayError",
    "ConfigError",
    "DomainError",
    "OutOfRangeError",
    "ContinuationUnsupportedError",
    "NoDecayError",
    "ConvergenceError",
    "ToleranceError",
    "GridError",
    "BelowThresholdWarning",
]


class ZenoDecayError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ZenoDecayError):
    """A run configuration file is malformed, incomplete, or inconsistent."""


class DomainError(ZenoDecayError, ValueError):
    """A quantity was requested at a point where it is not defined.

    Examples: a first-sheet self-energy exactly on the continuum cut, a
    discrete-state energy below the continuum threshold where no resonance
    exists, or a negative measurement interval.
    """


class OutOfRangeError(DomainError):
    """A tabulated coupling was queried outside its tabulated energy range."""


class ContinuationUnsupportedError(ZenoDecayError):
    """Analytic continuation onto the second sheet is not available.

    Raised for coupling families that only exist as sampled data, and for
    threshold exponents outside the set where the continuation of the
    coupling density has a closed branch.
    """


class NoDecayError(ZenoDecayError):
    """The coupling vanishes, so there is no decay channel.

    Every quantity tied to a finite lifetime (resonance pole, decay rate,
    transition time) is undefined in this limit; the Zeno time is infinite.
    """


class ConvergenceError(ZenoDecayError):
    """An iterative root search failed to reach its residual target.

    Parameters
    ----------
    message : str
        Human-readable description of the failure.
    trajectory : sequence of complex, optional
        Iterates visited by the search, for post-mortem inspection.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = tuple(trajectory) if trajectory is not None else ()


class ToleranceError(ZenoDecayError):
    """A quadrature finished without reaching the requested accuracy.

    Carries the best available value and the achieved error estimate so a
    caller can decide whether the partial result is still useful.
    """

    def __init__(self, message, value=None, achieved=None, requested=None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved
        self.requested = requested


class GridError(ZenoDecayError):
    """A root is predicted to exist but was not found on the search grid.

    Raised by the transition-time search when the renormalization criterion
    guarantees a crossing yet no sign change was detected; the usual fix is
    a wider interval or a denser grid.
    """


class BelowThresholdWarning(UserWarning):
    """The discrete state sits below the continuum; the on-shell rate is zero."""
