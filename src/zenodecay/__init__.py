"""Unstable-state decay under repeated measurement.

A discrete level coupled to a continuum decays with survival probability
P(t); projective measurements at interval τ replace the natural rate γ₀
by the effective rate γ(τ) = −ln P(τ)/τ.  This package computes P(t)
exactly (Lorentzian coupling) or numerically (general couplings), finds
the resonance pole and its renormalization Z, and locates the transition
time τ* separating the Zeno (slowed) from the inverse-Zeno (accelerated)
regime, including the Z < 1 existence criterion.
"""

# Each module's __all__ is the one list of its public names; the package
# re-exports them all.  Importing a submodule binds its name here too.
from .amplitude import *
from .config import *
from .errors import *
from .formfactor import *
from .model import *
from .resolvent import *
from .selfenergy import *
from .zeno import *

__version__ = "0.1.0"

__all__ = [name for module in (amplitude, config, errors, formfactor, model, resolvent,
                               selfenergy, zeno) for name in module.__all__]
