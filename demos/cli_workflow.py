"""Driving the command-line front end from a config file.

Everything the library does is reachable without writing Python: a small
INI file names the model and the task, and ``zenodecay <task> --config
run.ini`` writes CSV/JSON artifacts and prints their paths.  This script
exercises that workflow in-process (``main`` is an ordinary function
returning the exit code) inside a temporary directory, so it leaves
nothing behind.

Run:  python3 demos/cli_workflow.py
"""

import contextlib
import io
import json
import os
import tempfile
import textwrap

from zenodecay.cli import main

CONFIG = """\
[model]
family = lorentzian
coupling = 0.1
bandwidth = 1.0
omega_a = 2.0

[task]
t_min = 0.0
t_max = 20.0
t_points = 9
methods = closed_form, spectral_integral

[output]
out_dir = {out_dir}
"""

TRANSITION = """\
[model]
family = lorentzian
coupling = 0.1
bandwidth = 1.0
omega_a = 2.0

[task]
tau_max = 100.0
"""

SWEEP = """\
[model]
family = lorentzian
coupling = 0.1
bandwidth = 1.0
omega_a = 2.0

[task]
omega_a_values = 0.0, 2.0, 10.0
tau_min = 1e-3
tau_max = 30.0
tau_points = 64
"""


def show(path, n=4):
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[:n]:
            print(f"    {line}")
    print("    ...")


def run(workdir):
    cfg = os.path.join(workdir, "run.ini")

    print("1. survival: P(t) by two independent methods, written as CSV")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG.format(out_dir=workdir))
    code = main(["survival", "--config", cfg])
    print(f"  exit code {code}; head of the artifact:")
    show(os.path.join(workdir, "survival.csv"))

    print("\n2. transition: where does frequent measurement start to help?")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(TRANSITION)
    code = main(["transition", "--config", cfg, "--out", workdir])
    payload = json.loads(
        open(os.path.join(workdir, "transition.json"), encoding="utf-8").read())
    print(f"  exit code {code}; tau_star = {payload['tau_star']:.9g}, "
          f"Z = {payload['z_renorm']:.6g}, jump time = {payload['jump_time']:.6g}")

    print("\n3. sweep: the same transition search over several level energies")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(SWEEP)
    code = main(["sweep", "--config", cfg, "--out", workdir])
    summary = json.loads(
        open(os.path.join(workdir, "sweep_summary.json"), encoding="utf-8").read())
    print(f"  exit code {code}")
    for entry in summary["entries"]:
        tau = entry["tau_star"]
        label = "none (Z >= 1)" if tau is None else f"{tau:.6g}"
        print(f"    omega_a = {entry['omega_a']:4.1f}: tau_star = {label}, "
              f"curve in {entry['csv']}")
    print("  rerunning the sweep recomputes every curve and rewrites the same bytes")

    print("\n4. failure modes are exit codes, not tracebacks")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(textwrap.dedent("""\
            [model]
            family = lorentzian
            coupling = 0.0
            bandwidth = 1.0
            omega_a = 2.0

            [task]
            tau_max = 100.0
            """))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["transition", "--config", cfg, "--out", workdir])
    print(f"  coupling = 0 cannot decay: exit code {code}, and on stderr:")
    print(f"    {err.getvalue().strip()}")


def main_demo():
    with tempfile.TemporaryDirectory(prefix="zenodecay_demo_") as workdir:
        run(workdir)


if __name__ == "__main__":
    main_demo()
