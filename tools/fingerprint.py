"""Print one sha256 per output family of ``zenodecay``, to show that a change keeps every float.

The families:

``spectral``
    x(t) of :func:`~zenodecay.survival_spectral_integral` for the
    Lorentzian (0.1, 1), the threshold power law (0.1, 1, 0, ½, 4) and a
    20001-knot table of that Lorentzian on [−100, 100], at
    ω_a ∈ {−0.5, 0.7, 2, 2.4, 5.3} and t ∈ {0, −3} ∪ geomspace(1e-4, 1e5, 40).
``log_p``
    ln P of the power law at ω_a = 0.7 and 2.4 on 300 log-spaced τ.
``all_roots``
    Every crossing of γ(τ) = γ₀ that ``find_transition_time`` reports for
    the power law at ω_a = 0.7 and 2.4.
``sweep``
    The artifacts of ``zenodecay sweep`` on the config of acceptance
    criterion 11 (Lorentzian, ω_a = 2 and 10).

Compare the digests of two checkouts on one machine; libm differs across
platforms, so digests of different machines need not agree.  Run from
anywhere:

    python3 tools/fingerprint.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from zenodecay import (  # noqa: E402
    DecayModel,
    LorentzianCoupling,
    TabulatedCoupling,
    ThresholdPowerLawCoupling,
    find_transition_time,
    survival_spectral_integral,
)
from zenodecay.cli import main as cli_main  # noqa: E402

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


def _sweep_artifacts():
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


def main() -> int:
    lor = LorentzianCoupling(0.1, 1.0)
    tpl = ThresholdPowerLawCoupling(0.1, 1.0, 0.0, 0.5, 4.0)
    om = np.linspace(-100.0, 100.0, 20001)
    table = TabulatedCoupling(om, lor.g2(om))
    taus = np.geomspace(1e-3, 200.0, 300)
    families = {
        "spectral": lambda: (survival_spectral_integral(ff, w, TIMES).amplitudes.tobytes()
                             for ff in (lor, tpl, table) for w in LEVELS),
        "log_p": lambda: (np.asarray(DecayModel(tpl, w).log_survival_probability(taus)).tobytes()
                          for w in (0.7, 2.4)),
        "all_roots": lambda: (np.array(find_transition_time(DecayModel(tpl, w)).all_roots).tobytes()
                              for w in (0.7, 2.4)),
        "sweep": _sweep_artifacts,
    }
    for name, chunks in families.items():
        print(f"{name:10s} {_digest(chunks())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
