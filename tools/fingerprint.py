"""Print one sha256 per output family of ``zenodecay``, to show that a change keeps every float.

The families:

``spectral``
    x(t) of :func:`~zenodecay.survival_spectral_integral` for the
    Lorentzian (0.1, 1) and the threshold power law (0.1, 1, 0, ½, 4), at
    ω_a ∈ {−0.5, 0.7, 2, 2.4, 5.3} and t ∈ {0, −3} ∪ geomspace(1e-4, 1e5, 40).
``tab_spectral``
    The same x(t) for a 20001-knot table of that Lorentzian on
    [−100, 100]: a table's kernel fits its knot segments from the segment
    memo and merges them (a kink at every knot), so a change to either
    moves this digest and leaves ``spectral`` as is.
``geo_spectral``
    The same x(t) for a 3001-knot table of √ω/(1 + ω²)² whose knots crowd
    its threshold (0 and geomspace(1e-6, 50)), with a bound state below
    it at the lower levels: hundreds of the nodes of its segment tree
    have children of unequal widths, so this digest shows a change to
    the merge's projection off equal halves.
``log_p``
    ln P of the power law at ω_a = 0.7 and 2.4 on 300 log-spaced τ.
``tab_log_p``
    ln P of the 20001-knot table at ω_a = 2 and 5.3 on the τ of ``log_p``:
    the panels' deficit on a table kernel.
``all_roots``
    Every crossing of γ(τ) = γ₀ that ``find_transition_time`` reports for
    the power law at ω_a = 0.7 and 2.4.
``sweep``
    The artifacts of ``zenodecay sweep`` on the config of acceptance
    criterion 11 (Lorentzian, ω_a = 2 and 10).
``records``
    The public fields and properties of result records: each pole's
    e_pole, gamma0, shift_delta, z_renorm, residual and bound states for
    the Lorentzian (``DecayModel.pole`` and
    ``lorentzian_pole_closed_form``) at ω_a = 2 and 10, the power law at
    ω_a = 0.7 and 2.4, and the strong power law (1, 1, 0, ½, 4) at
    ω_a = 0.7, which has a bound state; and the survival probabilities of
    the Lorentzian and the power law at ω_a = 2 on the t ≥ 0 of
    ``spectral``.

Compare the digests of two checkouts on one machine; libm differs across
platforms, so digests of different machines need not agree.  Run from
anywhere:

    python3 tools/fingerprint.py [--against REF] [--src DIR]

With ``--against REF`` the ``src/`` tree of the git ref REF is extracted
with ``git archive`` into a temporary directory, the same digests are
computed from it in a subprocess, and each family prints both digests
with ``same`` or ``DIFFERS``; the exit status is 1 if any differs.
``--src`` takes the package from another source directory than the
``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from _ref import ROOT, extract_src, import_package

LEVELS = (-0.5, 0.7, 2.0, 2.4, 5.3)
TIMES = np.concatenate([[0.0, -3.0], np.geomspace(1e-4, 1e5, 40)])
SWEEP_INI = (
    "[model]\nfamily = lorentzian\ncoupling = 0.1\nbandwidth = 1.0\nomega_a = 2.0\n"
    "[task]\nomega_a_values = 2, 10\ntau_min = 1e-3\ntau_max = 30.0\ntau_points = 128\n"
)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _sweep_artifacts(cli_main):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "sweep.ini", Path(tmp) / "out"
        cfg.write_text(SWEEP_INI, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        if code != 0:
            raise SystemExit("sweep failed")
        summary = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
        names = ["sweep_summary.json"] + [e["csv"] for e in summary["entries"]]
        return [name.encode() + (out / name).read_bytes() for name in names]


def _pole_bytes(pole) -> bytes:
    values = [pole.e_pole.real, pole.e_pole.imag, pole.gamma0, pole.shift_delta,
              pole.z_renorm, pole.residual]
    return np.array(values + [v for state in pole.bound_states for v in state]).tobytes()


def _records(lor, tpl):
    from zenodecay import (DecayModel, ThresholdPowerLawCoupling, find_pole,
                           lorentzian_pole_closed_form)

    poles = [DecayModel(lor, w).pole for w in (2.0, 10.0)]
    poles += [lorentzian_pole_closed_form(0.1, 1.0, w) for w in (2.0, 10.0)]
    poles += [DecayModel(tpl, w).pole for w in (0.7, 2.4)]
    poles.append(find_pole(ThresholdPowerLawCoupling(1.0, 1.0, 0.0, 0.5, 4.0), 0.7))
    times = TIMES[TIMES >= 0.0]
    series = [DecayModel(ff, 2.0).survival_series(times) for ff in (lor, tpl)]
    return [_pole_bytes(pole) for pole in poles] + [s.probabilities.tobytes() for s in series]


def digests(src: Path) -> dict[str, str]:
    """The digest of each output family of the ``zenodecay`` package under ``src``."""
    import_package(src)
    from zenodecay import (DecayModel, LorentzianCoupling, TabulatedCoupling,
                           ThresholdPowerLawCoupling, find_transition_time,
                           survival_spectral_integral)
    from zenodecay.cli import main as cli_main

    lor = LorentzianCoupling(0.1, 1.0)
    tpl = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
    om = np.linspace(-100.0, 100.0, 20001)
    table = TabulatedCoupling(om, lor.g2(om))
    om = np.concatenate(([0.0], np.geomspace(1e-6, 50.0, 3000)))
    geometric = TabulatedCoupling(om, np.sqrt(om) / (1.0 + om * om) ** 2)
    taus = np.geomspace(1e-3, 200.0, 300)
    families = {
        "spectral": lambda: (survival_spectral_integral(ff, w, TIMES).amplitudes.tobytes()
                             for ff in (lor, tpl) for w in LEVELS),
        "tab_spectral": lambda: (survival_spectral_integral(table, w, TIMES).amplitudes.tobytes()
                                 for w in LEVELS),
        "geo_spectral": lambda: (survival_spectral_integral(geometric, w, TIMES).amplitudes
                                 .tobytes() for w in LEVELS),
        "log_p": lambda: (np.asarray(DecayModel(tpl, w).log_survival_probability(taus)).tobytes()
                          for w in (0.7, 2.4)),
        "tab_log_p": lambda: (np.asarray(DecayModel(table, w).log_survival_probability(taus))
                              .tobytes() for w in (2.0, 5.3)),
        "all_roots": lambda: (np.array(find_transition_time(DecayModel(tpl, w)).all_roots).tobytes()
                              for w in (0.7, 2.4)),
        "sweep": lambda: _sweep_artifacts(cli_main),
        "records": lambda: _records(lor, tpl),
    }
    return {name: _digest(chunks()) for name, chunks in families.items()}


def digests_at(ref: str) -> dict[str, str]:
    """The digests of the ``src/`` tree at the git ref ``ref``, computed in a subprocess."""
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--src", str(extract_src(ref, tmp))],
                             check=True, capture_output=True, cwd=tmp).stdout
    return dict(line.split() for line in out.decode().splitlines())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print one sha256 per output family.")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory that holds the package")
    parser.add_argument("--against", metavar="REF", help="also compute the digests at this git ref")
    args = parser.parse_args(argv[1:])
    here = digests(args.src)
    if args.against is None:
        for name, digest in here.items():
            print(f"{name:12s} {digest}")
        return 0
    try:
        there = digests_at(args.against)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.decode().strip(), file=sys.stderr)
        return 2
    print(f"{'family':12s} {'ref ' + args.against:64s} tree")
    differs = False
    for name, digest in here.items():
        old = there.get(name, "-")
        differs |= old != digest
        print(f"{name:12s} {old:64s} {digest:64s} {'same' if old == digest else 'DIFFERS'}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
