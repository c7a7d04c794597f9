"""Time the layers of a table round and the τ* searches of two families, in fresh processes.

The measurements, each printed in milliseconds:

``tab_build``
    The kernel build of a 20001-knot table of the Lorentzian (0.1, 1) on
    [−100, 100], warm (its segment memo filled by one build before), at 40
    fixed ω_a in [1.5, 8].
``tab_sum``
    x(t) at 26 times in [0, 50] on each of those kernels once built: the
    panel sum.
``pl_cold``
    The first kernel build of the weak threshold power law (0.1, 1, 0,
    ½, 4) in the process, its shift fit built before: the cell memo on
    that fit is empty.
``pl_build``
    The kernel build of that power law at 8 fixed ω_a in [1.8, 3] after
    it, the cell memo holding what the builds before it took.
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
energies of the build's own Δ_R calls), and over the ``pl_build``
kernels of their panel count, the Δ_R points taken fresh and the cells
served from the cell memo: what a change does to the kernel, beside what
it does to the times.  Last, the share of the cells asked for that the
memo served over a 20-level sweep of ω_a in [1.8, 3], from an empty memo
of a fresh fit of the power law (n/a for a tree without a cell memo).

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
SWEEP_LEVELS = np.linspace(1.8, 3.0, 20)
LOR_LEVELS = np.repeat([1.5, 2.0, 5.0, 10.0], 5)
#: What each ``tab_build`` kernel reports: panels, distinct widths, Δ_R points.
KERNEL_COUNTS = ("panels", "distinct widths", "shift_points")
#: What each ``pl_build`` kernel reports: panels, fresh Δ_R points, cells from the memo.
PL_COUNTS = ("panels", "fresh shift points", "memo cells")


def _timed(call):
    """The seconds ``call()`` took, and what it returned."""
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def _memo_counts(ff) -> tuple[int, int]:
    """The cells the cell memo of ``ff`` served and lacked so far; (0, 0) without one."""
    memo = getattr(ff._shift_fit, "kernel_cells", None)
    return (memo.hits, memo.misses) if memo is not None else (0, 0)


def samples(src: Path) -> dict:
    """The samples of each measurement in seconds, the counts of each table and power-law
    kernel, and the memo's hit rate over the sweep (None without a memo).

    Taken with the ``zenodecay`` package under ``src``.
    """
    import_package(src)
    from zenodecay import (DecayModel, LorentzianCoupling, TabulatedCoupling,
                           ThresholdPowerLawCoupling, amplitude, find_transition_time, formfactor,
                           survival_spectral_integral)

    om = np.linspace(-100.0, 100.0, 20001)
    table = TabulatedCoupling(om, LorentzianCoupling(0.1, 1.0).g2(om))
    power_law = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
    out = {name: [] for name in ("tab_build", "tab_sum", "pl_cold", "pl_build", "pl_transition",
                                 "lor_transition")}
    counts = {name: [] for name in KERNEL_COUNTS}
    pl_counts = {name: [] for name in PL_COUNTS}
    amplitude._kernel_uncached(table, 0.5 * (TAB_LEVELS[0] + TAB_LEVELS[1]))
    for w in TAB_LEVELS:
        seconds, kernel = _timed(lambda: amplitude._kernel_uncached(table, w))
        out["tab_build"].append(seconds)
        for name, value in zip(KERNEL_COUNTS, (kernel.mids.size, kernel.widths.size,
                                               kernel.shift_points)):
            counts[name].append(value)
        amplitude._spectral_kernel(table, w)
        out["tab_sum"].append(_timed(lambda: survival_spectral_integral(table, w, TAB_TIMES))[0])
    power_law._shift_fit
    first = 0.5 * (PL_LEVELS[0] + PL_LEVELS[1])
    out["pl_cold"].append(_timed(lambda: amplitude._kernel_uncached(power_law, first))[0])
    for w in PL_LEVELS:
        served = -_memo_counts(power_law)[0]
        seconds, kernel = _timed(lambda: amplitude._kernel_uncached(power_law, w))
        out["pl_build"].append(seconds)
        served += _memo_counts(power_law)[0]
        fresh = kernel.shift_points - served * amplitude._NODES
        for name, value in zip(PL_COUNTS, (kernel.mids.size, fresh, served)):
            pl_counts[name].append(value)
        model = DecayModel(power_law, w)
        out["pl_transition"].append(_timed(lambda: find_transition_time(model, grid_points=64))[0])
    lorentzian = LorentzianCoupling(0.1, 1.0)
    for w in LOR_LEVELS:
        model = DecayModel(lorentzian, w)
        out["lor_transition"].append(_timed(lambda: find_transition_time(model))[0])
    # A fresh fit of the power law, with an empty memo, for the sweep.
    formfactor._shared_shift_fit.cache_clear()
    swept = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
    for w in SWEEP_LEVELS:
        amplitude._kernel_uncached(swept, w)
    hits, misses = _memo_counts(swept)
    return {"times": out, "counts": counts, "pl_counts": pl_counts,
            "hit_rate": hits / (hits + misses) if hits + misses else None}


def _worker(src: Path) -> dict:
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
        counts = {side: {"tab_build": {}, "pl_build": {}} for side in sides}
        rates = {side: [] for side in sides}
        for n in range(args.rounds):
            order = list(sides) if n % 2 == 0 else list(sides)[::-1]
            for side in order:
                got = _worker(sides[side])
                for into, part in ((pooled[side], got["times"]),
                                   (counts[side]["tab_build"], got["counts"]),
                                   (counts[side]["pl_build"], got["pl_counts"])):
                    for name, values in part.items():
                        into.setdefault(name, []).extend(values)
                rates[side].append(got["hit_rate"])
    change = " change" if len(sides) > 1 else ""
    print(f"{'ms':14s} " + " ".join(f"{side:28s}" for side in sides) + change)
    for name in pooled["tree"]:
        medians = [np.median(pooled[side][name]) for side in sides]
        line = f"{name:14s} " + " ".join(f"{_summary(pooled[side][name]):28s}" for side in sides)
        if len(sides) > 1:
            line += f" {medians[1] / medians[0] - 1.0:+.1%}"
        print(line)
    for build, names in (("tab_build", KERNEL_COUNTS), ("pl_build", PL_COUNTS)):
        print(f"\n{build + ' kernels, median':28s} " + " ".join(f"{side:>14s}" for side in sides)
              + change)
        for name in names:
            medians = [np.median(counts[side][build][name]) for side in sides]
            line = f"{name:28s} " + " ".join(f"{m:14.1f}" for m in medians)
            if len(sides) > 1 and medians[0]:
                line += f" {medians[1] / medians[0] - 1.0:+.1%}"
            print(line)
    print(f"\n{'memo hit rate, 20 levels':28s} " + " ".join(
        f"{np.median(rates[side]):14.1%}" if None not in rates[side] else f"{'n/a':>14s}"
        for side in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
