"""Survival of an unstable level: three routes to the same curve.

A discrete level omega_a coupled to a flat continuum through a
Lorentzian form factor decays almost exponentially, but not quite: the
short-time behavior is quadratic (P ~ 1 - t^2/tau_Z^2) and the
long-time amplitude carries the wave-function renormalization Z.

This demo computes P(t) by
  1. the exact two-pole closed form of the Lorentzian model,
  2. numerical inversion through the spectral density, and
  3. the single-pole approximation Z * exp(-gamma0 t),
and prints where (and how much) they differ.

Run:  python3 demos/survival_probability.py
"""

import numpy as np

from zenodecay.amplitude import SurvivalMethod
from zenodecay.formfactor import LorentzianCoupling
from zenodecay.model import DecayModel

LAM, BW, OMEGA_A = 0.1, 1.0, 2.0


def main():
    model = DecayModel(LorentzianCoupling(LAM, BW), OMEGA_A)
    print(f"Lorentzian coupling lambda={LAM}, bandwidth={BW}, omega_a={OMEGA_A}")
    print(f"  pole:      E = {model.pole.e_pole:.12g}")
    print(f"  gamma0   = {model.gamma0:.12g}")
    print(f"  Z        = {model.z_renorm:.12g}   (Z < 1: transition time exists)")
    print(f"  zeno time tau_Z = {model.zeno_time:.6g}")
    print()

    times = np.array([0.0, 0.05, 0.5, 2.0, 10.0, 50.0])
    closed = model.survival_series(times, SurvivalMethod.CLOSED_FORM)
    spectral = model.survival_series(times, SurvivalMethod.SPECTRAL_INTEGRAL)
    pole = model.survival_series(times, SurvivalMethod.POLE_APPROX)

    print(f"{'t':>8} {'P closed form':>16} {'P spectral':>16} {'P pole approx':>16}")
    for t, p_closed, p_spectral, p_pole in zip(times, closed.probabilities,
                                               spectral.probabilities, pole.probabilities):
        print(f"{t:8.2f} {p_closed:16.12f} {p_spectral:16.12f} {p_pole:16.12f}")
    print()

    dev = np.max(np.abs(closed.amplitudes - spectral.amplitudes))
    print(f"max |x_closed - x_spectral| on this grid: {dev:.3e}")
    print("the pole approximation misses the short-time quadratic region:")
    t_short = 0.05
    exact = model.survival_probability(t_short)
    quad = 1.0 - (t_short / model.zeno_time) ** 2
    print(f"  P({t_short}) = {exact:.10f}, quadratic law gives {quad:.10f}, "
          f"pole form gives {pole.probabilities[1]:.10f}")


if __name__ == "__main__":
    main()
