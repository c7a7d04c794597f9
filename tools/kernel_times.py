"""Time the layers of a table round and the τ* searches of two families, in fresh processes.

The measurements, each printed in milliseconds:

``tab_build``
    The kernel build of a 20001-knot table of the Lorentzian (0.1, 1) on
    [−100, 100], warm (its segment memo filled by one build before), at 40
    fixed ω_a in [1.5, 8].
``tab_sum``
    x(t) at 26 times in [0, 50] on each of those kernels once built: the
    panel sum.
``pl_build``
    The kernel build of the weak threshold power law (0.1, 1, 0, ½, 4),
    its shift fit built before, at 8 fixed ω_a in [1.8, 3].
``pl_transition``
    ``find_transition_time(grid_points=64)`` on a fresh model of that power
    law at each of those ω_a.
``lor_transition``
    ``find_transition_time`` on a fresh model of the Lorentzian (0.1, 1),
    5 times at each of ω_a ∈ {1.5, 2, 5, 10}: the closed-form ln P on the
    default grid and a one-bracket root search.

Run from anywhere:

    python3 tools/kernel_times.py [--against REF] [--rounds N] [--src DIR]

Under the times, each side's median over the ``tab_build`` kernels of
their panel count, distinct panel widths and ``shift_points`` (the
energies of the build's own Δ_R calls): what a change does to the
kernel, beside what it does to the times.

Each of the N rounds (default 5) times every measurement in one fresh
interpreter per side.  With ``--against REF`` the ``src/`` tree of the git
ref REF is extracted with ``git archive`` into a temporary directory, and
the rounds alternate which side runs first.  Each measurement prints, per
side, the median and the quartiles of all its samples, and with REF the
change of the median.  The times are of one machine: compare the sides of
one run, not runs of different machines.  ``--src`` takes the package from
another source directory than the ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from _ref import ROOT, extract_src, import_package

TAB_LEVELS = np.linspace(1.5, 8.0, 40)
TAB_TIMES = np.linspace(0.0, 50.0, 26)
PL_LEVELS = np.linspace(1.8, 3.0, 8)
LOR_LEVELS = np.repeat([1.5, 2.0, 5.0, 10.0], 5)
#: What each ``tab_build`` kernel reports: panels, distinct widths, Δ_R points.
KERNEL_COUNTS = ("panels", "distinct widths", "shift_points")


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def samples(src: Path) -> dict[str, dict[str, list[float]]]:
    """The samples of each measurement in seconds, and the counts of each table kernel.

    Taken with the ``zenodecay`` package under ``src``.
    """
    import_package(src)
    from zenodecay import (DecayModel, LorentzianCoupling, TabulatedCoupling,
                           ThresholdPowerLawCoupling, amplitude, find_transition_time,
                           survival_spectral_integral)

    om = np.linspace(-100.0, 100.0, 20001)
    table = TabulatedCoupling(om, LorentzianCoupling(0.1, 1.0).g2(om))
    power_law = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
    out = {name: [] for name in ("tab_build", "tab_sum", "pl_build", "pl_transition",
                                 "lor_transition")}
    counts = {name: [] for name in KERNEL_COUNTS}
    amplitude._kernel_uncached(table, 0.5 * (TAB_LEVELS[0] + TAB_LEVELS[1]))
    for w in TAB_LEVELS:
        out["tab_build"].append(_timed(lambda: amplitude._kernel_uncached(table, w)))
        kernel = amplitude._spectral_kernel(table, w)
        for name, value in zip(KERNEL_COUNTS, (kernel.mids.size, kernel.widths.size,
                                               kernel.shift_points)):
            counts[name].append(value)
        out["tab_sum"].append(_timed(lambda: survival_spectral_integral(table, w, TAB_TIMES)))
    amplitude._kernel_uncached(power_law, 0.5 * (PL_LEVELS[0] + PL_LEVELS[1]))
    for w in PL_LEVELS:
        out["pl_build"].append(_timed(lambda: amplitude._kernel_uncached(power_law, w)))
        model = DecayModel(power_law, w)
        out["pl_transition"].append(_timed(lambda: find_transition_time(model, grid_points=64)))
    lorentzian = LorentzianCoupling(0.1, 1.0)
    for w in LOR_LEVELS:
        model = DecayModel(lorentzian, w)
        out["lor_transition"].append(_timed(lambda: find_transition_time(model)))
    return {"times": out, "counts": counts}


def _worker(src: Path) -> dict[str, dict[str, list[float]]]:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", "--src",
                          str(src)], check=True, capture_output=True, cwd=src.parent).stdout
    return json.loads(out)


def _summary(values: list[float]) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75]) * 1e3
    return f"{q2:8.3f} [{q1:7.3f}, {q3:7.3f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time the kernel build and its neighbours.")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory that holds the package")
    parser.add_argument("--against", metavar="REF", help="also time the package at this git ref")
    parser.add_argument("--rounds", type=int, default=5, help="fresh processes per side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    if args.worker:
        print(json.dumps(samples(args.src)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"tree": args.src.resolve()}
        if args.against is not None:
            try:
                sides = {"ref " + args.against: extract_src(args.against, tmp), **sides}
            except subprocess.CalledProcessError as exc:
                print(exc.stderr.decode().strip(), file=sys.stderr)
                return 2
        pooled = {side: {} for side in sides}
        counts = {side: {} for side in sides}
        for n in range(args.rounds):
            order = list(sides) if n % 2 == 0 else list(sides)[::-1]
            for side in order:
                got = _worker(sides[side])
                for into, part in ((pooled, "times"), (counts, "counts")):
                    for name, values in got[part].items():
                        into[side].setdefault(name, []).extend(values)
    print(f"{'ms':14s} " + " ".join(f"{side:28s}" for side in sides)
          + (" change" if len(sides) > 1 else ""))
    for name in pooled["tree"]:
        medians = [np.median(pooled[side][name]) for side in sides]
        line = f"{name:14s} " + " ".join(f"{_summary(pooled[side][name]):28s}" for side in sides)
        if len(sides) > 1:
            line += f" {medians[1] / medians[0] - 1.0:+.1%}"
        print(line)
    print(f"\n{'tab_build kernels, median':28s} " + " ".join(f"{side:>14s}" for side in sides)
          + (" change" if len(sides) > 1 else ""))
    for name in KERNEL_COUNTS:
        medians = [np.median(counts[side][name]) for side in sides]
        line = f"{name:28s} " + " ".join(f"{m:14.1f}" for m in medians)
        if len(sides) > 1:
            line += f" {medians[1] / medians[0] - 1.0:+.1%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
