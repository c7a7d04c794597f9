"""Beyond the solvable model: threshold power laws and tabulated data.

The spectral route needs no closed form: any coupling density with a
finite integral works.  Two things change qualitatively compared to the
Lorentzian case.  A lower-bounded continuum (finite threshold) produces
a genuine power-law short-time region, and strong coupling can push a
discrete eigenvalue below the threshold — a bound state that keeps a
finite fraction of the survival probability forever.

The demo also feeds a numerically sampled (tabulated) density through
the same machinery and checks it against the analytic family it was
sampled from.

Run:  python3 demos/general_form_factors.py
"""


import numpy as np

from zenodecay.amplitude import survival_spectral_integral
from zenodecay.formfactor import (
    LorentzianCoupling,
    TabulatedCoupling,
    ThresholdPowerLawCoupling,
)
from zenodecay.resolvent import find_bound_states, find_pole


def weak_coupling():
    ff = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
    pole = find_pole(ff, 0.7)
    print("threshold power law, lambda=0.1 (sqrt rise at 0, ~w^-3.5 tail):")
    print(f"  resonance pole E = {pole.e_pole:.10g}, Z = {pole.z_renorm:.10g}")
    times = np.array([0.0, 0.5, 5.0, 20.0])
    series = survival_spectral_integral(ff, 0.7, times)
    for t, p in zip(times, series.probabilities):
        print(f"  P({t:4.1f}) = {p:.12f}")
    print(f"  norm check: |P(0) - 1| = {abs(series.probabilities[0] - 1.0):.2e}")
    print()


def strong_coupling_bound_state():
    ff = ThresholdPowerLawCoupling(1.0, 1.0, 0.0, 0.5, 4.0)
    bound = find_bound_states(ff, 0.7)
    print("same family at lambda=1: the level hybridizes with a bound state")
    for b in bound:
        print(f"  bound state: energy = {b.energy:.10g}, weight = {b.weight:.10g}")
    series = survival_spectral_integral(ff, 0.7, np.array([0.0, 50.0, 200.0]))
    print(f"  norm check: |P(0) - 1| = {abs(series.probabilities[0] - 1.0):.2e}")
    print(f"  P(50)  = {series.probabilities[1]:.10f}")
    print(f"  P(200) = {series.probabilities[2]:.10f}   (the plateau ~ bound weight")
    print("  squared means decay never completes)")
    print()


def tabulated_round_trip():
    src = LorentzianCoupling(0.1, 1.0)
    om = np.linspace(-100.0, 100.0, 20001)
    tab = TabulatedCoupling(om, src.g2(om))
    times = np.array([0.0, 1.0, 10.0])
    from_table = survival_spectral_integral(tab, 2.0, times)
    from_analytic = survival_spectral_integral(src, 2.0, times)
    dev = np.max(np.abs(from_table.amplitudes - from_analytic.amplitudes))
    print("tabulated density (20001 samples of the Lorentzian on [-100, 100]):")
    print(f"  norm check: |P(0) - 1| = {abs(from_table.probabilities[0] - 1.0):.2e}")
    print(f"  max amplitude deviation from the analytic family: {dev:.2e}")
    print("  (limited by the table's linear interpolation and clipped tails,")
    print("   not by the quadrature)")


def main():
    weak_coupling()
    strong_coupling_bound_state()
    tabulated_round_trip()


if __name__ == "__main__":
    main()
